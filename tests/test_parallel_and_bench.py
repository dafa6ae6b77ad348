"""Parallel sweep runner determinism and the tight-loop dispatch bench."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    RunPolicy,
    resolve_workers,
    run_chaos_sweep,
    run_reliability_study,
    run_tasks,
    sweep_bruteforce_entropy,
)
from repro.core.bench import run_dispatch_bench
from repro.core.experiments import e10_bruteforce
from repro.obs import Collector, CollectorSpec, TaintEngine
from repro.obs.metrics import Histogram, MetricsRegistry

SRC = Path(__file__).resolve().parent.parent / "src"


def _square(value):
    return value * value


class TestRunTasks:
    def test_results_positional_sequential(self):
        assert run_tasks(_square, [3, 1, 4, 1, 5], workers=1) == [9, 1, 16, 1, 25]

    def test_results_positional_parallel(self):
        assert run_tasks(_square, list(range(20)), workers=2) == [
            value * value for value in range(20)
        ]

    def test_empty_task_list(self):
        assert run_tasks(_square, [], workers=4) == []

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1


def _observed_sweep(**kwargs) -> str:
    """One observed sweep under the taint engine, as its sorted export."""
    collector = Collector()
    collector.attach_taint(TaintEngine())
    run_chaos_sweep((0.0, 0.4), seed=21, queries_per_rate=6, attack_budget=6,
                    observer=collector, **kwargs)
    return json.dumps(collector.to_dict(), sort_keys=True)


#: The kill-and-resume leg runs in a subprocess: the kill knob SIGKILLs
#: the whole process right after the first point is journaled.
RESUMABLE_SWEEP = """
import sys
sys.path.insert(0, sys.argv[1])
from test_parallel_and_bench import _observed_sweep
print(_observed_sweep(checkpoint=sys.argv[2], resume=sys.argv[3] == "resume"))
"""


class TestObservedSweepParity:
    """An observed sweep exports the same collector however its points ran."""

    def _resumed_export(self, tmp_path):
        ckpt = str(tmp_path / "observed.ckpt")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("REPRO_SWEEP_KILL_AFTER", None)

        def run(mode, **extra):
            return subprocess.run(
                [sys.executable, "-c", RESUMABLE_SWEEP,
                 str(Path(__file__).resolve().parent), ckpt, mode],
                capture_output=True, text=True, timeout=300,
                env=dict(env, **extra))

        killed = run("fresh", REPRO_SWEEP_KILL_AFTER="1")
        assert killed.returncode == -9, killed.stderr  # died mid-sweep
        resumed = run("resume")
        assert resumed.returncode == 0, resumed.stderr
        return resumed.stdout.strip()

    def test_export_identical_across_execution_paths(self, tmp_path):
        exports = {
            "workers=1": _observed_sweep(workers=1),
            "workers=2": _observed_sweep(workers=2),
            "workers=1+policy": _observed_sweep(workers=1, policy=RunPolicy()),
            "killed+resumed": self._resumed_export(tmp_path),
        }
        baseline = exports["workers=1"]
        exported = json.loads(baseline)
        assert exported["spans"]
        assert exported["metrics"]["counters"]["taint.sources"] > 0
        for name, export in exports.items():
            assert export == baseline, name

    def test_spec_names_the_attachments(self):
        collector = Collector()
        collector.attach_taint(TaintEngine())
        spec = collector.spec()
        # The repr feeds the checkpoint grid hash, so it must be stable.
        assert repr(spec) == "CollectorSpec(taint=True)"
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert spec.build().spec() == spec
        assert Collector().spec() == CollectorSpec()


class TestParallelParity:
    """workers=N must reproduce the sequential results bit for bit."""

    def test_entropy_sweep_parallel_matches_sequential(self):
        kwargs = dict(entropy_series=(16, 64), runs_per_point=2)
        sequential = sweep_bruteforce_entropy(workers=1, **kwargs)
        parallel = sweep_bruteforce_entropy(workers=2, **kwargs)
        assert [point.attempts for point in parallel] == \
               [point.attempts for point in sequential]

    def test_chaos_sweep_parallel_matches_sequential(self):
        kwargs = dict(queries_per_rate=6, attack_budget=6)
        sequential = run_chaos_sweep((0.0, 0.4), workers=1, **kwargs)
        parallel = run_chaos_sweep((0.0, 0.4), workers=2, **kwargs)
        assert parallel.cells == sequential.cells

    def test_chaos_sweep_parallel_merges_worker_metrics(self):
        kwargs = dict(queries_per_rate=6, attack_budget=6)
        seq_collector, par_collector = Collector(), Collector()
        sequential = run_chaos_sweep((0.0, 0.4), workers=1,
                                     observer=seq_collector, **kwargs)
        parallel = run_chaos_sweep((0.0, 0.4), workers=2,
                                   observer=par_collector, **kwargs)
        assert parallel.cells == sequential.cells
        assert par_collector.metrics.counters() == seq_collector.metrics.counters()

    def test_chaos_sweep_parallel_merges_worker_spans(self):
        """Span-tree integrity under workers=2: ids, parent links, and
        durations all match the sequential sweep (deterministic adopt)."""
        kwargs = dict(queries_per_rate=6, attack_budget=6)
        seq_collector, par_collector = Collector(), Collector()
        run_chaos_sweep((0.0, 0.4), workers=1, observer=seq_collector, **kwargs)
        run_chaos_sweep((0.0, 0.4), workers=2, observer=par_collector, **kwargs)
        assert par_collector.tracer.spans  # the sweep actually traced
        assert par_collector.tracer.signature() == seq_collector.tracer.signature()

        def links(tracer):
            return [(s.span_id, s.parent_id, s.name, s.duration)
                    for s in tracer.spans]

        assert links(par_collector.tracer) == links(seq_collector.tracer)

    def test_reliability_study_parallel_matches_sequential(self):
        sequential = run_reliability_study(trials=2, workers=1)
        parallel = run_reliability_study(trials=2, workers=2)
        assert parallel == sequential

    def test_e10_parallel_matches_sequential(self):
        sequential = e10_bruteforce(max_attempts=512, workers=1)
        parallel = e10_bruteforce(max_attempts=512, workers=2)
        assert parallel.rows == sequential.rows
        assert sequential.all_pass
        # The 8-bit entropy estimate: a seeded run lands near 256 tries.
        assert 16 <= sequential.rows[0][1] <= 2048


class TestMetricsMerge:
    def test_counter_merge_adds(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("a", 3)
        right.inc("a", 4)
        right.inc("b", 1)
        left.merge(right)
        assert left.counters() == {"a": 7, "b": 1}

    def test_histogram_merge_sums_observations(self):
        left = Histogram("lat", (1.0, 10.0))
        right = Histogram("lat", (1.0, 10.0))
        left.observe(0.5)
        right.observe(5.0)
        right.observe(50.0)
        left.merge(right)
        assert left.count == 3
        assert left.total == 55.5
        assert left.min == 0.5
        assert left.max == 50.0
        assert left.bucket_counts == [1, 1, 1]

    def test_histogram_merge_rejects_mismatched_buckets(self):
        left = Histogram("lat", (1.0, 10.0))
        right = Histogram("lat", (1.0, 5.0))
        with pytest.raises(ValueError, match="mismatched"):
            left.merge(right)

    def test_registry_merge_is_order_independent(self):
        def worker_registry(seed):
            registry = MetricsRegistry()
            registry.inc("events", seed)
            registry.observe("lat", float(seed))
            return registry

        forward, backward = MetricsRegistry(), MetricsRegistry()
        for seed in (1, 2, 3):
            forward.merge(worker_registry(seed))
        for seed in (3, 2, 1):
            backward.merge(worker_registry(seed))
        assert forward.to_dict() == backward.to_dict()


class TestDispatchBench:
    def test_tight_loop_dispatch_counters(self, empty_decode_memo):
        # benchmarks/e2e still passes blocks_enabled and reads steps_per_s
        # per arch; the keyword must change no counter.
        budget = 1200
        for arch in ("x86", "arm"):
            runs = []
            for enabled in (True, False):
                # Each run starts from an empty memo, so both decode cold.
                empty_decode_memo[arch].clear()
                runs.append(run_dispatch_bench(arch, budget, blocks_enabled=enabled))
            for run in runs:
                assert run["steps"] == budget
                # Budget exhaustion ends the run as a hung-process kill.
                assert run["outcome"] == "fault"
                # The 9-instruction loop decodes each instruction once.
                assert run["decode_calls"] == 9
                assert run["cache_hits"] == budget - 9
                assert run["steps_per_s"] > 0
            on, off = ({key: value for key, value in run.items()
                        if key not in ("wall_s", "steps_per_s")} for run in runs)
            assert on == off
