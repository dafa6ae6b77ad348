"""Deterministic profiling: attribution accuracy and observation purity.

The profiler's contract has three legs, and this file pins all of them:
its step accounting must agree exactly with the run loop's, its
attribution output must be byte-identical across worker counts, and
attaching it must change no outcome — the observed scenarios behind E2,
E3, and E16 produce the same verdicts profiled or not.
"""

import json

import pytest

from repro.cpu import Process, make_emulator
from repro.mem import AddressSpace, Perm, Segment
from repro.obs import (
    CACHE_LINES,
    Collector,
    DeterministicProfiler,
    ProfileData,
)

TIGHT_LOOP = b"\x40" * 8 + b"\xeb\xf6"  # 8x inc eax; jmp -10


def loop_process():
    space = AddressSpace()
    space.map(Segment(".text", 0x1000, 0x100, Perm.RX))
    space.write(0x1000, TIGHT_LOOP, check=False)
    process = Process("x86", space, name="profiler-test")
    process.pc = 0x1000
    return process


def profiled_run(max_steps, *, sample_interval=0):
    process = loop_process()
    profiler = DeterministicProfiler(sample_interval=sample_interval)
    process.observers = (profiler,)
    result = make_emulator(process).run(max_steps=max_steps)
    return result, profiler


class TestStepAccounting:
    def test_per_step_run_steps_equal_profiler_summed_steps(self):
        # An unprofiled run and a profiled one account for exactly the
        # same number of step-budget units.
        unprofiled = make_emulator(loop_process()).run(max_steps=500)

        result, profiler = profiled_run(500)
        data = profiler.data
        assert unprofiled.steps == result.steps == data.steps == 500
        # 55 laps of 8 inc + jmp, then 5 more incs.
        assert data.opcodes == {"inc": 445, "jmp": 55}
        assert sum(data.heat.values()) == data.steps
        assert data.heat[0x1000] == 56 and data.heat[0x1008] == 55

    def test_native_steps_appear_as_opcode_lines(self):
        from repro.core import run_observed_attack

        collector = Collector()
        profiler = collector.attach_profiler(DeterministicProfiler())
        # The W^X+ASLR chain pivots through libc-model natives (PLT
        # thunks), each of which costs one step unit.
        run_observed_attack(level_label="wx+aslr", observer=collector)
        data = profiler.data
        native_lines = {name: count for name, count in data.opcodes.items()
                       if name.startswith("native:")}
        assert native_lines, "ROP chain run should hit libc-model natives"
        assert sum(native_lines.values()) == data.native_steps
        assert data.native_steps + sum(
            count for name, count in data.opcodes.items()
            if not name.startswith("native:")) == data.steps


class TestCacheReconciliation:
    def test_profiler_cache_lines_match_observer_counters(self):
        from repro.core import run_observed_attack

        collector = Collector()
        profiler = collector.attach_profiler(DeterministicProfiler())
        run_observed_attack(observer=collector)
        counters = collector.metrics.counters()
        for name in CACHE_LINES:
            assert profiler.data.cache.get(name, 0) == counters.get(name, 0), name
        # The attack's guest code runs straight through: every decode misses.
        assert profiler.data.cache["decode_cache_misses"] > 0


class TestWorkerMergeParity:
    def test_chaos_sweep_profile_merges_byte_identical(self):
        from repro.core import run_chaos_sweep

        kwargs = dict(queries_per_rate=6, attack_budget=6)
        profiles = {}
        reports = {}
        for workers in (1, 2):
            collector = Collector()
            profiler = collector.attach_profiler(DeterministicProfiler())
            reports[workers] = run_chaos_sweep(
                (0.0, 0.4), workers=workers, observer=collector, **kwargs)
            profiles[workers] = profiler
        assert profiles[1].folded() == profiles[2].folded()
        one = json.dumps(profiles[1].to_dict(), sort_keys=True)
        two = json.dumps(profiles[2].to_dict(), sort_keys=True)
        assert one == two
        assert reports[1].to_dict() == reports[2].to_dict()

    def test_merge_rejects_interval_mismatch(self):
        left = ProfileData(23)
        right = ProfileData(7)
        with pytest.raises(ValueError, match="sample_interval"):
            left.merge(right)

    def test_merge_is_pure_addition(self):
        _result, first = profiled_run(120, sample_interval=23)
        _result, second = profiled_run(300, sample_interval=23)
        _result, whole = profiled_run(420, sample_interval=23)
        merged = first.snapshot()
        merged.merge(second.snapshot())
        assert merged.steps == first.data.steps + second.data.steps
        assert merged.opcodes == {
            name: first.data.opcodes.get(name, 0)
            + second.data.opcodes.get(name, 0)
            for name in set(first.data.opcodes) | set(second.data.opcodes)}
        # Sanity: merging two runs is NOT one long run (the phase resets),
        # but the opcode totals still account for every step.
        assert sum(merged.opcodes.values()) == 420
        assert whole.data.steps == 420


class TestOutcomeParity:
    """Attaching a profiler changes no scenario outcome (E2/E3/E16)."""

    @pytest.mark.parametrize("level", ["none", "wx"])  # E2 / E3 scenarios
    def test_observed_attack_outcomes_identical(self, level):
        from repro.core import run_observed_attack

        outcomes = []
        for profiled in (False, True):
            collector = Collector()
            if profiled:
                collector.attach_profiler(DeterministicProfiler())
            run = run_observed_attack(level_label=level, observer=collector)
            counters = {
                name: value
                for name, value in collector.metrics.counters().items()
                if not name.startswith("decode_cache_")
            }
            outcomes.append({
                "event": run.event.kind.value if run.event else None,
                "error": run.error,
                "exploit": run.exploit.name if run.exploit else None,
                "succeeded": run.succeeded,
                "spans": collector.tracer.to_dicts(),
                "counters": counters,
            })
        assert outcomes[0] == outcomes[1]

    def test_e16_chaos_table_identical(self):
        from repro.core import e16_chaos

        rows = []
        for profiled in (False, True):
            observer = Collector()
            if profiled:
                observer.attach_profiler(DeterministicProfiler())
            result = e16_chaos(rates=(0.0, 0.3), queries_per_rate=4,
                               attack_budget=4, sweep_observer=observer)
            assert result.all_pass
            rows.append(result.rows)
        assert rows[0] == rows[1]
        labels = [row[0] for row in rows[0]]
        assert "(bruteforce, bare init)" in labels
        assert "(bruteforce, supervised)" in labels


class TestFlamegraphFormats:
    @pytest.mark.parametrize("arch", ["x86", "arm"])
    def test_folded_stacks_non_empty_and_well_formed(self, arch):
        from repro.core import run_observed_attack

        collector = Collector()
        profiler = collector.attach_profiler(DeterministicProfiler())
        run_observed_attack(arch=arch, observer=collector)
        folded = profiler.folded()
        assert folded.endswith("\n")
        lines = folded.strip().splitlines()
        assert lines, f"{arch} attack run produced no stack samples"
        total = 0
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack  # symbolized frames, ';'-joined
            total += int(count)
        assert total == profiler.data.sample_count > 0

    def test_sampling_disabled_yields_no_samples(self):
        _result, profiler = profiled_run(300, sample_interval=0)
        assert profiler.data.sample_count == 0
        assert profiler.folded() == ""
        assert profiler.data.steps == 300  # attribution still runs
