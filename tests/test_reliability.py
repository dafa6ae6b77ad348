"""E14 reliability study."""

import pytest

from repro.core import e14_reliability
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
