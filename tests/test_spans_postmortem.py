"""Causal span tracing, crash postmortems, and Chrome-trace export.

The tentpole invariants: one exploit attempt is one connected span tree
from wire to verdict, a forced CVE-2017-12865 crash yields a
:class:`CrashReport` whose causal link resolves to the exact malicious
datagram, the Chrome export validates against the trace-event schema,
and same-seed runs produce byte-identical span trees.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core import run_forced_crash, run_observed_attack
from repro.net import UdpDatagram
from repro.obs import (
    Collector,
    export_chrome_trace,
    snapshot_payload,
    validate_chrome_trace,
)
from repro.obs.spans import PAYLOAD_SNAPSHOT_LIMIT

#: Every pipeline layer the tentpole must connect, wire to verdict.
PIPELINE_LAYERS = {
    "exploit.attempt", "net.deliver", "daemon.handle_query",
    "daemon.parse", "cpu.run",
}


class TestTracer:
    def test_nesting_follows_the_call_stack(self):
        tracer = Collector().tracer
        outer = tracer.start("exploit.attempt")
        inner = tracer.start("net.deliver")
        assert inner.parent_id == outer.span_id
        tracer.end(inner)
        sibling = tracer.start("daemon.parse")
        assert sibling.parent_id == outer.span_id
        tracer.end(sibling)
        tracer.end(outer)
        assert [span.name for span in tracer.roots()] == ["exploit.attempt"]
        assert [span.name for span in tracer.children(outer.span_id)] == \
               ["net.deliver", "daemon.parse"]

    def test_durations_come_from_the_simulated_clock(self):
        collector = Collector()
        span = collector.tracer.start("cpu.run")
        collector.advance(2.5)
        collector.tracer.end(span)
        assert span.duration == 2.5
        histogram = collector.metrics.histogram("span.cpu.run.duration")
        assert histogram.count == 1 and histogram.total == 2.5

    def test_context_manager_closes_on_exception(self):
        tracer = Collector().tracer
        with pytest.raises(RuntimeError):
            with tracer.span("daemon.parse"):
                raise RuntimeError("boom")
        assert tracer.spans[0].end is not None
        assert tracer.current is None

    def test_nearest_payload_span_is_innermost(self):
        tracer = Collector().tracer
        outer = tracer.start("net.deliver", payload="aa")
        tracer.start("daemon.handle_query")
        inner = tracer.start("daemon.parse", payload="bb")
        assert tracer.nearest_payload_span() is inner
        tracer.end(inner)
        assert tracer.nearest_payload_span() is outer

    def test_adopt_rebases_worker_ids(self):
        worker = Collector().tracer
        with worker.span("exploit.attempt"):
            with worker.span("cpu.run"):
                pass
        parent = Collector().tracer
        parent.end(parent.start("net.deliver"))  # parent already used id 0
        id_map = parent.adopt(worker.spans)
        assert id_map == {0: 1, 1: 2}
        adopted = parent.get(2)
        assert adopted.name == "cpu.run" and adopted.parent_id == 1
        assert parent.signature()[1] == worker.signature()[0]

    def test_snapshot_payload_caps_length(self):
        assert snapshot_payload(b"\xab" * 10) == "ab" * 10
        capped = snapshot_payload(b"\xcd" * (PAYLOAD_SNAPSHOT_LIMIT + 100))
        assert len(capped) == 2 * PAYLOAD_SNAPSHOT_LIMIT


class TestObservedAttack:
    @pytest.fixture(scope="class")
    def run(self):
        return run_observed_attack()

    def test_one_attempt_is_one_connected_tree(self, run):
        tracer = run.collector.tracer
        roots = tracer.roots()
        assert [root.name for root in roots] == ["exploit.attempt"]
        # Every span reaches the root through parent links.
        for span in tracer.spans:
            assert tracer.path(span.span_id)[0] == "exploit.attempt"
        assert all(span.end is not None for span in tracer.spans)

    def test_every_pipeline_layer_has_a_span(self, run):
        names = {span.name for span in run.collector.tracer.spans}
        assert PIPELINE_LAYERS <= names

    def test_events_carry_their_span_id(self, run):
        compromise = run.collector.bus.by_kind("daemon.compromise")
        assert compromise and compromise[0].span is not None
        span = run.collector.tracer.get(compromise[0].span)
        assert span.name == "daemon.parse"

    def test_wire_datagrams_are_stamped_with_trace_context(self, run):
        stamped = [d for d in run.network.traffic if d.span_id is not None]
        assert stamped
        for datagram in stamped:
            assert run.collector.tracer.get(datagram.span_id).name == "net.deliver"

    def test_same_seed_runs_are_byte_identical(self):
        first = run_observed_attack(seed=42)
        second = run_observed_attack(seed=42)
        assert first.collector.tracer.to_json() == second.collector.tracer.to_json()
        assert json.dumps(export_chrome_trace(first.collector)) == \
               json.dumps(export_chrome_trace(second.collector))

    def test_attack_still_lands(self, run):
        assert run.succeeded

    def test_span_id_is_metadata_not_identity(self):
        plain = UdpDatagram("1.1.1.1", 1, "2.2.2.2", 2, b"x")
        assert plain == replace(plain, span_id=7)
        assert "span_id" not in repr(replace(plain, span_id=7))


class TestForcedCrash:
    @pytest.fixture(scope="class")
    def crash(self):
        return run_forced_crash()

    def test_crash_is_captured(self, crash):
        assert crash.event is not None and crash.event.is_dos
        report = crash.collector.last_postmortem
        assert report is not None
        assert report.signal == "SIGSEGV"
        assert crash.collector.metrics.value("crash.postmortems") == 1

    def test_postmortem_links_to_the_offending_datagram(self, crash):
        report = crash.collector.last_postmortem
        carrier = crash.collector.tracer.get(report.span_id)
        assert carrier.name == "daemon.parse"
        assert report.datagram_hex == carrier.attrs["payload"]
        # The linked bytes really are the malicious reply: an oversized
        # Type A name of 'A' (0x41) labels.
        assert "41" * 32 in report.datagram_hex
        assert report.span_path[-1] == "daemon.parse"
        assert report.span_path[0] == "exploit.attempt"

    def test_smashed_state_is_visible(self, crash):
        report = crash.collector.last_postmortem
        assert report.pc == 0x41414141  # return address overwritten with 'AAAA'
        assert report.registers["eip"] == report.pc
        assert "41414141" in report.stack_hex.replace(" ", "")
        assert any(seg["name"] == "stack" for seg in report.segments)

    def test_crash_event_detail_embeds_the_report(self, crash):
        events = crash.collector.bus.by_kind("daemon.crash")
        assert events
        embedded = events[0].detail["postmortem"]
        assert embedded["pc"] == 0x41414141
        assert embedded["datagram_hex"] == crash.collector.last_postmortem.datagram_hex

    def test_render_and_export_round_trip(self, crash):
        report = crash.collector.last_postmortem
        text = report.render()
        assert "crash postmortem" in text and "causal span" in text
        json.dumps(report.to_dict())  # fully serializable
        json.dumps(crash.collector.to_dict())  # including via the collector


class TestChromeExport:
    def test_export_validates_and_covers_every_layer(self):
        run = run_observed_attack()
        document = export_chrome_trace(run.collector)
        count = validate_chrome_trace(document)
        assert count == len(document["traceEvents"]) > 0
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert PIPELINE_LAYERS <= {e["name"] for e in complete}
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)

    def test_timestamps_are_simulated_microseconds(self):
        collector = Collector()
        collector.advance(1.5)
        with collector.tracer.span("cpu.run"):
            collector.advance(0.25)
        document = export_chrome_trace(collector)
        event = document["traceEvents"][0]
        assert event["ts"] == 1_500_000.0
        assert event["dur"] == 250_000.0

    def test_validator_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace([])
        with pytest.raises(ValueError, match="unknown ph"):
            validate_chrome_trace({"traceEvents": [{"ph": "Z"}]})
        with pytest.raises(ValueError, match="missing keys"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "cat": "c", "ts": 0.0}
            ]})

    def test_unclosed_spans_are_not_exported(self):
        collector = Collector()
        collector.tracer.start("net.deliver")
        document = export_chrome_trace(collector)
        assert document["traceEvents"] == []


class TestCliCommands:
    def test_spans_command(self, capsys):
        assert main(["observe", "attack", "--emit", "spans"]) == 0
        out = capsys.readouterr().out
        assert "exploit.attempt" in out and "cpu.run" in out

    def test_trace_export_validates(self, capsys):
        assert main(["observe", "attack", "--emit", "chrome"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_chrome_trace(document) > 0

    def test_postmortem_json(self, capsys):
        assert main(["observe", "crash", "--emit", "postmortem", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["signal"] == "SIGSEGV"
        assert report["datagram_hex"]
        assert report["span_path"][-1] == "daemon.parse"
