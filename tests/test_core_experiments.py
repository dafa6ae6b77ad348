"""Integration: the paper experiments E1–E8 and the scenario runner."""

import pytest

from repro.connman import EventKind
from repro.core import (
    PAPER_MATRIX,
    AttackScenario,
    PineappleWorld,
    attacker_knowledge,
    diversity_survival,
    e1_dos,
    e2_code_injection,
    e3_wx_bypass,
    e4_aslr_bypass,
    e5_pineapple,
    e6_firmware_survey,
    e7_mitigations,
    e8_adaptation,
    naive_overflow_blob,
    render_table,
    run_paper_matrix,
    run_scenario,
)
from repro.defenses import NONE, WX, WX_ASLR


class TestRenderTable:
    def test_columns_aligned(self):
        table = render_table(("a", "bb"), [("x", 1), ("yyyy", 22)], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "yyyy" in table and "22" in table

    def test_cells_stringified(self):
        assert "True" in render_table(("v",), [(True,)])


class TestScenarios:
    def test_matrix_has_six_cells(self):
        assert len(PAPER_MATRIX) == 6
        assert {s.arch for s in PAPER_MATRIX} == {"x86", "arm"}

    def test_every_cell_roots(self):
        results = run_paper_matrix()
        assert all(result.succeeded for result in results), [
            result.row() for result in results
        ]

    def test_strategy_escalates_with_protections(self):
        results = {result.scenario.key: result for result in run_paper_matrix()}
        assert results["x86/none"].exploit.strategy == "code-injection"
        assert results["x86/W^X"].exploit.strategy == "ret2libc"
        assert results["x86/W^X+ASLR"].exploit.strategy == "rop"

    def test_patched_version_defeats_every_cell(self):
        for scenario in PAPER_MATRIX:
            patched = AttackScenario(
                scenario.arch, scenario.level_label, scenario.profile, version="1.35"
            )
            result = run_scenario(patched)
            assert not result.succeeded
            assert result.event.kind == EventKind.DROPPED

    def test_attacker_knowledge_blindness_follows_profile(self):
        sighted = attacker_knowledge(AttackScenario("x86", "none", NONE))
        blind = attacker_knowledge(AttackScenario("x86", "full", WX_ASLR))
        assert sighted.name_address is not None
        assert blind.name_address is None

    def test_row_format(self):
        result = run_scenario(AttackScenario("arm", "W^X", WX))
        arch, level, strategy, outcome = result.row()
        assert (arch, level) == ("arm", "W^X")
        assert outcome == "root shell"


class TestExperimentResults:
    """Each experiment's internal expectation column must be all-ok."""

    def test_e1(self):
        result = e1_dos()
        assert result.all_pass
        assert len(result.rows) == 4
        crashed = [row for row in result.rows if row[1] == "1.34"]
        survived = [row for row in result.rows if row[1] == "1.35"]
        assert len(crashed) == len(survived) == 2
        assert all(not row[3] for row in crashed)   # daemon down
        assert all(row[3] for row in survived)      # daemon alive

    def test_e2(self):
        result = e2_code_injection()
        assert result.all_pass
        assert len(result.rows) == 4  # 2 successes + 2 W^X blocks
        shells = [row for row in result.rows if row[1] == "none"]
        assert len(shells) == 2 and all(row[3] == "root shell" for row in shells)

    def test_e3(self):
        result = e3_wx_bypass()
        assert result.all_pass
        assert len(result.rows) == 5
        wins = [row for row in result.rows if row[1] == "vs W^X victim"]
        assert len(wins) == 2 and all(row[2] == "root shell" for row in wins)

    def test_e4(self):
        result = e4_aslr_bypass()
        assert result.all_pass
        assert len(result.rows) == 3
        wins = [row for row in result.rows if row[1] == "rop (paper chain)"]
        assert len(wins) == 2 and all(row[2] == "root shell" for row in wins)

    def test_e5(self):
        result = e5_pineapple()
        assert result.all_pass
        assert len(result.rows) == 4  # x86 feasibility + 3 ARM levels
        assert all(row[2] for row in result.rows)                   # every device roamed
        assert all(row[3] == "172.16.42.1" for row in result.rows)  # rogue DNS via DHCP

    def test_e6(self):
        result = e6_firmware_survey()
        assert result.all_pass
        vulnerable = {row[0] for row in result.rows if row[2]}
        assert {"yocto-pyro", "openelec-8", "tizen-3"} <= vulnerable
        assert "tizen-4" not in vulnerable

    def test_e7(self):
        result = e7_mitigations()
        assert result.all_pass
        assert len(result.rows) == 10  # 5 mitigations x 2 arches
        mitigations = {row[0] for row in result.rows}
        assert mitigations == {
            "patch to 1.35", "stack canary", "CFI (shadow stack)",
            "ret-addr guard (§VII)", "software diversity",
        }

    def test_e8(self):
        result = e8_adaptation(profiles=(("W^X+ASLR", WX_ASLR),))
        assert result.all_pass
        assert len(result.rows) == 6  # one per §V service
        assert {row[2] for row in result.rows} == {"dns", "http", "tcp"}

    def test_describe_renders(self):
        text = e6_firmware_survey().describe()
        assert "E6" in text and "openelec-8" in text


class TestSupportingPieces:
    def test_naive_blob_shape(self):
        blob = naive_overflow_blob(200)
        assert blob[0] == 63
        assert blob.endswith(b"\x00")

    def test_pineapple_world_has_legit_infrastructure(self):
        world = PineappleWorld.build("TestNet")
        assert world.radio.scan()[0].ssid == "TestNet"
        assert world.legit_dns.default_address is not None

    def test_diversity_survival_partial(self):
        reports = diversity_survival("arm", seeds=3)
        assert len(reports) == 3
        for report in reports:
            assert report.gadget_survival_rate < 0.9
        # The probabilistic-protection claim on x86: most gadget addresses
        # die, and the PLT moves in every diversified build.
        reports = diversity_survival("x86", seeds=6)
        assert len(reports) == 6
        assert all(report.gadget_survival_rate < 0.5 for report in reports)
        assert all(report.plt_moved > 0 for report in reports)
