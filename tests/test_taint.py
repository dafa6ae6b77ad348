"""Wire-to-PC taint provenance (PR 10).

Pins the tentpole's contract from both sides: the engine *shows* the
paper's data flow (wire offset -> stack buffer -> saved return address ->
program counter) and *changes nothing* (taint on/off outcomes are
byte-identical, sequential/parallel sweeps merge the same counters, and
the taint-derived return-slot offset agrees with recon's cyclic-pattern
math on both §V profiles).
"""

import json

import pytest

from repro.cli import main
from repro.connman import ConnmanDaemon
from repro.core import run_chaos_sweep, run_forced_crash, run_observed_attack
from repro.exploit import Debugger
from repro.mem import AddressSpace, Perm
from repro.obs import (
    Collector,
    CrashReport,
    ShadowMemory,
    TaintEngine,
    export_datagrams,
    format_offsets,
    group_offsets,
    parse_pcap_text,
    render_provenance,
    validate_taint_summary,
)
from repro.obs.taint import coalesce_seeds, payload_digest


def _outcome(run):
    """The observable verdict of one scenario run (no telemetry)."""
    event = run.event
    return (
        event.kind.value if event is not None else None,
        event.detail if event is not None else None,
        event.signal if event is not None else None,
        run.error,
    )


def _tainted():
    """A collector with a taint engine attached (how callers ask for taint)."""
    collector = Collector()
    collector.attach_taint(TaintEngine())
    return collector


def _tainted_crash(arch):
    run = run_forced_crash(arch=arch, observer=_tainted())
    return run, run.collector.taint


# -- shadow map / label plumbing ----------------------------------------------


class TestShadowMemory:
    def test_set_read_union_and_clear(self):
        shadow = ShadowMemory()
        labels = (frozenset({(0, 10)}), frozenset({(0, 11)}))
        shadow.set_range(0x1000, labels)
        assert shadow.read(0x1000, 2) == labels
        assert shadow.union(0x1000, 2) == {(0, 10), (0, 11)}
        assert shadow.live_bytes == 2
        shadow.clear_range(0x1000, 1)
        assert shadow.read(0x1000, 2) == (frozenset(), frozenset({(0, 11)}))
        assert shadow.live_bytes == 1

    def test_untainted_bytes_cost_nothing(self):
        shadow = ShadowMemory()
        shadow.set_range(0x2000, (frozenset(), frozenset()))
        assert shadow.live_bytes == 0

    def test_tainted_runs_coalesce_contiguous_bytes(self):
        shadow = ShadowMemory()
        shadow.set_range(0x3000, (frozenset({(0, 1)}),) * 3)
        shadow.set_range(0x3004, (frozenset({(0, 9)}),))
        runs = shadow.tainted_runs(0x3000, 8)
        assert [(start, length) for start, length, _ in runs] == [
            (0x3000, 3), (0x3004, 1)]
        assert runs[0][2] == {(0, 1)}

    def test_address_space_write_carries_and_clears_taint(self):
        space = AddressSpace()
        space.map_new("scratch", 0x1000, 0x100, Perm.R | Perm.W)
        space.taint = ShadowMemory()
        space.write(0x1010, b"AB", taint=(frozenset({(0, 5)}),
                                          frozenset({(0, 6)})))
        assert space.taint.union(0x1010, 2) == {(0, 5), (0, 6)}
        # An untainted write over tainted bytes scrubs the shadow.
        space.write(0x1010, b"\x00")
        assert space.taint.union(0x1010, 2) == {(0, 6)}

    def test_address_space_rejects_mismatched_label_width(self):
        space = AddressSpace()
        space.map_new("scratch", 0x1000, 0x100, Perm.R | Perm.W)
        space.taint = ShadowMemory()
        with pytest.raises(ValueError, match="cover"):
            space.write(0x1000, b"ABC", taint=(frozenset(),))


class TestLabelFormatting:
    def test_group_offsets_splits_by_source(self):
        grouped = group_offsets([(1, 7), (0, 3), (0, 1), (1, 6)])
        assert grouped == {0: [1, 3], 1: [6, 7]}

    def test_format_offsets_compresses_runs(self):
        assert format_offsets([1, 2, 3, 4, 9]) == "1..4, 9"
        assert format_offsets([5]) == "5"

    def test_coalesce_seeds_merges_linear_copies(self):
        seeds = [
            {"source": 0, "wire_offset": 10, "length": 1, "address": 0x100,
             "note": "label length"},
            {"source": 0, "wire_offset": 11, "length": 4, "address": 0x101,
             "note": "label bytes"},
            {"source": 0, "wire_offset": 20, "length": 1, "address": 0x105,
             "note": "label length"},
        ]
        merged = coalesce_seeds(seeds)
        assert [(s["wire_offset"], s["length"]) for s in merged] == [
            (10, 5), (20, 1)]


# -- zero outcome effect ------------------------------------------------------


class TestOutcomeParity:
    @pytest.mark.parametrize("arch", ["x86", "arm"])
    def test_forced_crash_identical_taint_on_off(self, arch):
        assert _outcome(run_forced_crash(arch=arch)) == _outcome(
            run_forced_crash(arch=arch, observer=_tainted()))

    @pytest.mark.parametrize("arch", ["x86", "arm"])
    def test_observed_attack_identical_taint_on_off(self, arch):
        assert _outcome(run_observed_attack(arch=arch)) == _outcome(
            run_observed_attack(arch=arch, observer=_tainted()))

    def test_chaos_cells_identical_taint_on_off(self):
        def cells(taint):
            report = run_chaos_sweep((0.0, 0.3), seed=7, queries_per_rate=4,
                                     attack_budget=3,
                                     observer=_tainted() if taint else Collector())
            payload = report.to_dict()
            # The telemetry legitimately differs (taint.* counters exist);
            # the outcomes do not.
            payload.pop("metrics", None)
            return json.dumps(payload, sort_keys=True)

        assert cells(taint=False) == cells(taint=True)

    def test_chaos_taint_counters_workers2_match_sequential(self):
        def sweep(workers):
            observer = _tainted()
            report = run_chaos_sweep((0.0, 0.3), seed=7, queries_per_rate=4,
                                     attack_budget=3, observer=observer,
                                     workers=workers)
            taint_counters = {
                name: value
                for name, value in observer.metrics.counters().items()
                if name.startswith("taint.")
            }
            return json.dumps(report.to_dict(), sort_keys=True), taint_counters

        sequential_cells, sequential_counters = sweep(1)
        parallel_cells, parallel_counters = sweep(2)
        assert sequential_cells == parallel_cells
        assert sequential_counters == parallel_counters
        assert sequential_counters["taint.sources"] > 0


# -- recon cross-validation ---------------------------------------------------


class TestReconCrossValidation:
    @pytest.mark.parametrize("arch", ["x86", "arm"])
    def test_taint_offset_matches_pattern_probe(self, arch):
        debugger = Debugger(ConnmanDaemon(arch=arch))
        assert debugger.find_ret_offset_taint() == debugger.find_ret_offset()


# -- provenance chain ---------------------------------------------------------


class TestProvenance:
    @pytest.mark.parametrize("arch", ["x86", "arm"])
    def test_forced_crash_chain_is_non_empty(self, arch):
        _run, engine = _tainted_crash(arch)
        assert len(engine.sources) == 1
        assert engine.seeded_bytes > 1000  # the oversized name really seeded
        text = render_provenance(engine)
        assert "1 source(s)" in text
        assert "wire[" in text and "] -> mem[" in text

    def test_x86_crash_pc_is_wire_controlled(self):
        run, engine = _tainted_crash("x86")
        assert engine.pc_events, "x86 naive overflow must reach the ret slot"
        event = engine.pc_events[-1]
        assert event["via"] == "parse_response epilogue"
        # Every byte that landed in PC came off the wire from source 0.
        assert {source for source, _offset in event["labels"]} == {0}
        assert engine.datagram_reached_pc(
            bytes.fromhex(run.collector.last_postmortem.datagram_hex))
        assert "PC <-" in render_provenance(engine)

    def test_arm_naive_crash_dies_before_the_return(self):
        # §III-A: the naive ARM overflow faults in parse_rr's pointer
        # dereference first, so there is no tainted PC write — but the
        # stack provenance is still on record.
        _run, engine = _tainted_crash("arm")
        assert engine.pc_events == []
        assert "no tainted PC writes observed" in render_provenance(engine)

    def test_crash_summary_validates_and_embeds_in_report(self):
        run, _engine = _tainted_crash("x86")
        report = run.collector.last_postmortem
        assert report.taint is not None
        assert validate_taint_summary(report.taint) > 0
        assert validate_taint_summary(
            json.loads(json.dumps(report.to_dict()))["taint"]) > 0
        rendered = report.render()
        assert "PC tainted by payload offsets [source 0 offsets" in rendered
        assert "last tainted PC write:" in rendered
        assert "tainted stack bytes" in rendered

    def test_untainted_report_has_no_taint_section(self):
        run = run_forced_crash(arch="x86")
        report = run.collector.last_postmortem
        assert report.taint is None
        assert "taint" not in report.render().lower()


# -- golden render ------------------------------------------------------------


GOLDEN_TAINT = {
    "version": "repro-taint/v1",
    "pc": 0x41414141,
    "pc_offsets": {"0": [1074, 1075, 1076, 1077]},
    "pc_writes": 1,
    "last_pc_event": {"pc": 0x41414141, "via": "parse_response epilogue",
                      "address": 0xBFFFED00,
                      "labels": [[0, 1074], [0, 1075], [0, 1076], [0, 1077]],
                      "registers": {"eip": [[0, 1074], [0, 1075],
                                            [0, 1076], [0, 1077]]}},
    "live_bytes": 4,
    "sources": [{"id": 0, "bytes": 1450, "digest": "79165c7f579bf822",
                 "span_id": 4, "note": "dns reply"}],
    "registers": {"eip": {"0": [1074, 1075, 1076, 1077]}},
    "stack": [{"address": 0xBFFFE8F0, "length": 4,
               "offsets": {"0": [100, 101, 102, 103]}}],
}

GOLDEN_PLAIN_RENDER = """\
crash postmortem: connmand (pid 100, x86)
  signal : SIGSEGV — fetch from unmapped 0x41414141
  pc     : 0x41414141  (unmapped or undecodable)
  sp     : 0xbfffe900
  registers:
      eax=00000000    eip=41414141
  stack [0xbfffe8f0, +4):
    0xbfffe8f0  41 41 41 41
  segment map:
    bfff0000-c0000000 rw- stack"""

GOLDEN_TAINT_RENDER = GOLDEN_PLAIN_RENDER + """
  PC tainted by payload offsets [source 0 offsets 1074..1077]
    last tainted PC write: 0x41414141 via parse_response epilogue from [0xbfffed00]
    tainted stack bytes [0xbfffe8f0, +4): source 0 offsets 100..103"""


def _golden_report():
    return CrashReport(
        process_name="connmand", arch="x86", pid=100, signal="SIGSEGV",
        reason="fetch from unmapped 0x41414141", pc=0x41414141, sp=0xBFFFE900,
        pc_disasm="(unmapped or undecodable)",
        registers={"eax": 0, "eip": 0x41414141},
        stack_base=0xBFFFE8F0,
        stack_hex="41414141",
        segments=[{"name": "stack", "base": 0xBFFF0000, "end": 0xC0000000,
                   "perm": "rw-"}],
    )


class TestGoldenRender:
    def test_render_without_taint(self):
        assert _golden_report().render() == GOLDEN_PLAIN_RENDER

    def test_render_with_taint(self):
        report = _golden_report()
        report.taint = GOLDEN_TAINT
        assert validate_taint_summary(GOLDEN_TAINT) == 20
        assert report.render() == GOLDEN_TAINT_RENDER


# -- schema validator ---------------------------------------------------------


class TestSummaryValidator:
    @pytest.mark.parametrize("mutate, message", [
        (lambda p: p.pop("stack"), "keys must be exactly"),
        (lambda p: p.update(version="repro-taint/v2"), "version"),
        (lambda p: p.update(pc_writes=0), "last_pc_event must be null"),
        (lambda p: p["last_pc_event"].update(labels=[]), "non-empty"),
        (lambda p: p["pc_offsets"].update({"x": [1]}), "stringified source"),
        (lambda p: p["pc_offsets"].update({"0": [2, 1]}), "sorted"),
        (lambda p: p["sources"][0].update(id=3), "position"),
        (lambda p: p["sources"][0].update(digest="NOPE"), "16 hex chars"),
        (lambda p: p["stack"][0].update(length=0), "positive"),
    ])
    def test_rejects_malformed(self, mutate, message):
        payload = json.loads(json.dumps(GOLDEN_TAINT))
        mutate(payload)
        with pytest.raises(ValueError, match=message):
            validate_taint_summary(payload)


# -- capture linkage ----------------------------------------------------------


class TestPcapAnnotation:
    def test_export_marks_pc_reaching_datagrams_and_round_trips(self):
        run, engine = _tainted_crash("x86")
        text = export_datagrams(run.network.traffic, name="crash-lan",
                                taint=engine)
        marked = [line for line in text.splitlines()
                  if line.startswith("# taint:")]
        assert len(marked) == 1  # exactly the malicious upstream reply
        digest = payload_digest(
            bytes.fromhex(run.collector.last_postmortem.datagram_hex))
        assert digest in marked[0]
        # Comments are annotations, not records: the parse still round-trips.
        name, datagrams = parse_pcap_text(text)
        assert name == "crash-lan"
        assert len(datagrams) == len(run.network.traffic)

    def test_benign_capture_gains_no_annotations(self):
        run, engine = _tainted_crash("x86")
        benign = [d for d in run.network.traffic
                  if not engine.datagram_reached_pc(d.payload)]
        text = export_datagrams(benign, taint=engine)
        assert "# taint:" not in text


# -- CLI ----------------------------------------------------------------------


class TestTaintCli:
    def test_taint_crash_text(self, capsys):
        assert main(["observe", "crash", "--emit", "taint"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("taint provenance: 1 source(s)")
        assert "PC <-" in out

    def test_taint_json_mode(self, capsys):
        assert main(["observe", "crash", "--emit", "taint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sources"] and payload["seeds"]
        assert payload["seeded_bytes"] > 0

    def test_postmortem_taint_json_embeds_valid_summary(self, capsys):
        assert main(["observe", "crash", "--emit", "postmortem", "--taint",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_taint_summary(payload["taint"]) > 0

    def test_postmortem_without_taint_embeds_null(self, capsys):
        assert main(["observe", "crash", "--emit", "postmortem", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["taint"] is None

    def test_pcap_taint_document_and_sniff_marks(self, capsys):
        assert main(["observe", "crash", "--emit", "pcap", "--taint"]) == 0
        document = capsys.readouterr().out
        assert "# taint:" in document
        parse_pcap_text(document)
        assert main(["observe", "crash", "--emit", "sniff", "--taint"]) == 0
        sniffed = capsys.readouterr().out
        assert "[bytes reached tainted PC]" in sniffed
