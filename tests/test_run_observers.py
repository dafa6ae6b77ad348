"""The run-observer protocol: what the run loop promises every observer.

Trace recorder, taint engine and collector are plain
:class:`~repro.cpu.RunObserver` implementations in ``Process.observers``.
This file pins the loop's side of the contract on both ISAs: every run
ends in exactly one ``end_run`` however it ends, and the step hooks
account for exactly ``result.steps``.  It also pins the observers' side:
all three attached at once change no outcome, none changes another's
export, and the scenarios behind E2, E3 and E16 produce the same
verdicts observed or not.
"""

import json
import random
from collections import Counter

import pytest

from repro.connman import ConnmanDaemon
from repro.core import (AttackScenario, attacker_knowledge, e16_chaos,
                        run_observed_attack)
from repro.cpu import Process, RunObserver, TraceRecorder, make_emulator
from repro.cpu.arm import asm as arm
from repro.cpu.events import _EmulationStop
from repro.cpu.native import NativeFunction
from repro.cpu.x86 import asm as x86
from repro.defenses import WX_ASLR
from repro.exploit import builder_for, deliver
from repro.mem import AddressSpace, Perm, Segment
from repro.obs import Collector, TaintEngine

NATIVE = 0x5000
STACK_TOP = 0x20800


class CountingObserver(RunObserver):
    def __init__(self):
        self.calls = Counter()
        self.counters = None

    def before_step(self, process):
        self.calls["before_step"] += 1

    def on_insn(self, process, insn):
        self.calls["on_insn"] += 1

    def on_native(self, process, native, pc):
        assert pc == NATIVE
        self.calls["on_native"] += 1

    def end_run(self, process, counters):
        self.calls["end_run"] += 1
        self.counters = counters


def _native(ending):
    """A native that returns to its caller; under ``stop`` its fourth call
    ends the run instead."""
    calls = []

    def handler(context):
        calls.append(context.process.pc)
        if ending == "stop" and len(calls) >= 4:
            raise _EmulationStop("exit", "counting probe")
        return 0
    return NativeFunction("probe", handler)


def x86_program(ending):
    """push ret; jmp native; 8x inc eax; jmp top — or hlt to fault."""
    tail = x86.hlt() if ending == "fault" else x86.jmp_rel8(0x1012, 0x1000)
    code = (x86.push_imm32(0x100A) + x86.jmp_rel32(0x1005, NATIVE)
            + x86.inc_reg("eax") * 8 + tail)
    process = _process("x86", 0x1000, code)
    process.registers["esp"] = STACK_TOP
    return process


def arm_program(ending):
    """add r0; add r1; bl native; b top — or ldr from unmapped to fault."""
    tail = arm.ldr("r5", "r6") if ending == "fault" else arm.b(0x1000C, 0x10000)
    code = (arm.add_imm("r0", "r0", 1) + arm.add_imm("r1", "r1", 2)
            + arm.bl(0x10008, NATIVE) + tail)
    process = _process("arm", 0x10000, code)
    process.registers["r6"] = 0xDEAD0000
    process.registers["r13"] = STACK_TOP
    return process


def _process(arch, base, code):
    space = AddressSpace()
    space.map(Segment(".text", base, 0x1000, Perm.RX))
    space.map(Segment("stack", 0x20000, 0x1000, Perm.RW))
    space.write(base, code, check=False)
    process = Process(arch, space, name="observer-test")
    process.pc = base
    return process


class TestLoopContract:
    @pytest.mark.parametrize("ending", ["budget", "fault", "stop"])
    @pytest.mark.parametrize("program", [x86_program, arm_program],
                             ids=["x86", "arm"])
    def test_hooks_bracket_and_count_every_step(self, program, ending):
        process = program(ending)
        process.register_native(NATIVE, _native(ending))
        observer = CountingObserver()
        process.observers = (observer,)
        emulator = make_emulator(process)
        result = emulator.run(max_steps=200)

        assert result.reason == {"budget": "fault", "fault": "fault",
                                 "stop": "exit"}[ending]
        assert (result.signal == "SIGKILL") == (ending == "budget")
        calls = observer.calls
        assert calls["end_run"] == 1
        assert calls["on_insn"] + calls["on_native"] == result.steps
        assert calls["on_native"] >= 1
        # The step that faulted or stopped was announced but never
        # completed; an exhausted budget announces nothing extra.
        assert calls["before_step"] == result.steps + (ending != "budget")
        assert (observer.counters["decode_cache_misses"]
                == process.decode_cache.misses)

        # A second run over the same process ends on its own.
        process.pc = 0x1000 if process.arch == "x86" else 0x10000
        emulator.run(max_steps=10)
        assert calls["end_run"] == 2

    def test_unobserved_process_has_no_observers(self):
        assert x86_program("fault").observers == ()


def _collector(attach):
    collector = Collector()
    if "trace" in attach:
        collector.attach_trace(TraceRecorder())
    if "taint" in attach:
        collector.attach_taint(TaintEngine())
    return collector


def _observed_attack(attach, arch="arm", level="wx+aslr"):
    return run_observed_attack(arch=arch, level_label=level,
                               observer=_collector(attach))


def _collector_export(collector):
    """The collector's own export: what the taint engine writes into its
    bus and registry (``taint.*`` counters, ``taint`` events) and the
    attached observers' sections belong to those observers."""
    exported = collector.to_dict()
    exported.pop("taint", None)
    # Taint events interleave with the rest, shifting their bus numbers.
    exported["events"] = [{**event, "seq": None} for event in exported["events"]
                          if event["category"] != "taint"]
    metrics = exported["metrics"]
    metrics["counters"] = {
        name: value for name, value in metrics["counters"].items()
        if not name.startswith("taint.") and name != "events.taint"}
    metrics["histograms"] = [histogram for histogram in metrics["histograms"]
                             if not histogram["name"].startswith("taint.")]
    return json.dumps(exported, sort_keys=True)


EXPORTS = {
    "trace": lambda c: c.trace.describe(),
    "taint": lambda c: json.dumps(c.taint.to_dict(), sort_keys=True),
    "collector": _collector_export,
}


class TestObserversTogether:
    def test_all_observers_change_no_outcome(self):
        observed = _observed_attack({"trace", "taint"})
        profile = WX_ASLR
        victim = ConnmanDaemon(arch="arm", profile=profile,
                               rng=random.Random(0x0B5E))
        knowledge = attacker_knowledge(AttackScenario("arm", "wx+aslr", profile))
        report = deliver(builder_for("arm", profile).build(knowledge), victim)
        assert observed.succeeded and report.got_root_shell
        assert observed.event.describe() == report.event.describe()
        assert (observed.daemon.loaded.process.spawns
                == victim.loaded.process.spawns)

    @pytest.mark.parametrize("arch, level", [("arm", "wx+aslr"), ("x86", "none")])
    def test_each_export_matches_its_solo_run(self, arch, level, empty_decode_memo):
        def attack(attach):
            # From an empty decode memo each run's decode_cache_* counters
            # are the same: the memo outlives every run in the interpreter.
            empty_decode_memo[arch].clear()
            return _observed_attack(attach, arch, level).collector

        together = attack(set(EXPORTS))
        assert together.trace.entries and together.taint.pc_events
        for name, export in EXPORTS.items():
            alone = attack({name})
            assert export(together) == export(alone), name


class TestOutcomeParity:
    """Trace and taint attached change no scenario outcome (E2/E3/E16)."""

    @pytest.mark.parametrize("level", ["none", "wx"])  # E2 / E3 scenarios
    def test_observed_attack_outcomes_identical(self, level):
        outcomes = []
        for attach in (set(), {"trace", "taint"}):
            run = _observed_attack(attach, arch="x86", level=level)
            counters = {
                name: value
                for name, value in run.collector.metrics.counters().items()
                if not name.startswith("taint.") and name != "events.taint"
            }
            outcomes.append({
                "event": run.event.kind.value if run.event else None,
                "error": run.error,
                "exploit": run.exploit.name if run.exploit else None,
                "succeeded": run.succeeded,
                "spans": run.collector.tracer.to_dicts(),
                "counters": counters,
            })
        assert outcomes[0] == outcomes[1]

    def test_e16_chaos_table_identical(self):
        rows = []
        for attach in (set(), {"trace", "taint"}):
            result = e16_chaos(rates=(0.0, 0.3), queries_per_rate=4,
                               attack_budget=4,
                               sweep_observer=_collector(attach))
            assert result.all_pass
            rows.append(result.rows)
        assert rows[0] == rows[1]
        labels = [row[0] for row in rows[0]]
        assert "(bruteforce, bare init)" in labels
        assert "(bruteforce, supervised)" in labels
