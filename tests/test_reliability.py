"""E14 reliability study."""

import zlib

import pytest

from repro.core import TaskError, e14_reliability
from repro.core.reliability import STUDY_PLAN, run_reliability_study


class TestStudy:
    @pytest.fixture(scope="class")
    def cells(self):
        return run_reliability_study(trials=6)

    def test_plan_covers_all_six_paper_techniques(self):
        labels = {(label, arch) for label, arch, *_rest in STUDY_PLAN}
        for expected in (("code-injection", "x86"), ("code-injection", "arm"),
                         ("ret2libc", "x86"), ("gadget-execlp", "arm"),
                         ("rop", "x86"), ("rop", "arm")):
            assert expected in labels

    def test_every_cell_matches_expectation(self, cells):
        for cell in cells:
            assert cell.matches_expectation, cell.row()

    def test_deterministic_techniques_never_miss(self, cells):
        for cell in cells:
            if cell.expectation == "always":
                assert cell.rate == 1.0

    def test_randomized_absolutes_fail_under_aslr(self, cells):
        lottery = [cell for cell in cells if cell.expectation == "lottery"]
        assert lottery
        for cell in lottery:
            assert cell.rate < 0.1

    def test_jmp_esp_is_aslr_proof(self, cells):
        cell = next(c for c in cells if c.technique == "jmp-esp")
        assert cell.victim_profile == "ASLR"
        assert cell.rate == 1.0


class TestExperiment:
    def test_e14_all_ok(self):
        result = e14_reliability(trials=5)
        assert result.all_pass
        always = [row for row in result.rows if row[4] == "always"]
        lottery = [row for row in result.rows if row[4] == "lottery"]
        assert always and all(row[3] == "5/5" for row in always)
        assert lottery and all(row[3].startswith("0/") for row in lottery)
        assert len(result.rows) == len(STUDY_PLAN)


class _BrokenBuilder:
    """Stands in for a plan row's exploit builder and always raises."""

    def build(self, knowledge):
        raise RuntimeError("builder down")


class TestFailureSeed:
    def test_failing_cell_reports_its_own_rng_seed(self, monkeypatch):
        from repro.core import reliability

        seeds = []
        for row in (0, 1):
            plan = list(STUDY_PLAN)
            plan[row] = plan[row][:2] + (_BrokenBuilder,) + plan[row][3:]
            monkeypatch.setattr(reliability, "STUDY_PLAN", tuple(plan))
            with pytest.raises(TaskError) as excinfo:
                run_reliability_study(trials=1, workers=1)
            label, arch, *_middle, victim_profile, _expect = STUDY_PLAN[row]
            cell_key = f"{label}/{arch}/{victim_profile.label()}"
            rng_seed = 0xE14 ^ (zlib.crc32(cell_key.encode()) & 0xFFFF)
            assert excinfo.value.index == row
            assert excinfo.value.seed == rng_seed
            seeds.append(excinfo.value.seed)
        assert seeds[0] != seeds[1]
        assert 0xE14 not in seeds
