"""TraceRecorder, ExperimentResult serialization, and the report CLI."""

import json

from repro.cli import main
from repro.connman import ConnmanDaemon
from repro.core import e6_firmware_survey
import pytest

from repro.cpu import TraceRecorder
from repro.defenses import NONE, WX_ASLR
from repro.core import AttackScenario, attacker_knowledge
from repro.exploit import builder_for, deliver
from repro.obs import Collector


class TestTraceRecorder:
    def test_records_instructions_and_natives(self):
        collector = Collector()
        recorder = collector.attach_trace(TraceRecorder())
        victim = ConnmanDaemon(arch="arm", profile=WX_ASLR, observer=collector)
        exploit = builder_for("arm", WX_ASLR).build(
            attacker_knowledge(AttackScenario("arm", "t", WX_ASLR))
        )
        deliver(exploit, victim)
        kinds = {entry.kind for entry in recorder.entries}
        assert kinds == {"insn", "native"}
        native_names = [entry.text for entry in recorder.natives()]
        assert any("memcpy" in name for name in native_names)
        assert any("execlp" in name for name in native_names)

    def test_trace_order_matches_listing_5(self):
        collector = Collector()
        recorder = collector.attach_trace(TraceRecorder())
        victim = ConnmanDaemon(arch="arm", profile=WX_ASLR, observer=collector)
        exploit = builder_for("arm", WX_ASLR).build(
            attacker_knowledge(AttackScenario("arm", "t", WX_ASLR))
        )
        deliver(exploit, victim)
        texts = [entry.text for entry in recorder.entries]
        # pop-gadget, blx, memcpy, pop{r4,pc} — twice — then pop-gadget, execlp.
        assert texts[0].startswith("pop {r0, r1, r2, r3, r5, r6, r7")
        assert texts[1] == "blx r3"
        assert "memcpy@plt" in texts[2]
        assert texts[3] == "pop {r4, r15}"
        assert "execlp@plt" in texts[-1]

    def test_limit_truncates(self):
        recorder = TraceRecorder(limit=2)
        recorder.record(0x1000, "insn", "nop")
        recorder.record(0x1001, "insn", "nop")
        # Exactly ``limit`` entries with nothing dropped is a full trace,
        # not a truncated one.
        assert len(recorder) == 2
        assert not recorder.truncated
        recorder.record(0x1002, "insn", "nop")
        assert len(recorder) == 2
        assert recorder.dropped == 1
        assert recorder.truncated

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            TraceRecorder(limit=-1)

    def test_describe_last(self):
        recorder = TraceRecorder()
        for index in range(5):
            recorder.record(0x1000 + index, "insn", f"op{index}")
        assert recorder.describe(last=2).count("\n") == 1
        assert "op4" in recorder.describe(last=1)

    def test_native_marker(self):
        recorder = TraceRecorder()
        recorder.record(0x2000, "native", "system(...)")
        assert str(recorder.entries[0]).startswith("*")

    def test_untraced_run_has_no_overhead_hooks(self):
        victim = ConnmanDaemon(arch="x86", profile=NONE)
        assert victim.loaded.process.observers == ()


class TestExperimentSerialization:
    def test_to_dict_shape(self):
        result = e6_firmware_survey()
        payload = result.to_dict()
        assert payload["experiment"] == "E6"
        assert payload["all_pass"] is True
        assert len(payload["rows"]) == len(result.rows)
        json.dumps(payload)  # must be serializable

    def test_non_primitive_cells_stringified(self):
        from repro.core.experiments import ExperimentResult

        result = ExperimentResult("EX", "t", headers=("a",), rows=[((1, 2),)])
        assert result.to_dict()["rows"] == [["(1, 2)"]]


class TestReportCli:
    def test_report_selected_via_only(self, capsys):
        assert main(["report", "--only", "e6"]) == 0
        out = capsys.readouterr().out
        assert "E6:" in out and "E1:" not in out
