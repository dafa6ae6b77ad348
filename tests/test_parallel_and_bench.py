"""Parallel sweep runner determinism and the tight-loop dispatch bench."""

import json

import pytest

from repro.core import (
    resolve_workers,
    run_chaos_sweep,
    run_reliability_study,
    run_tasks,
    sweep_bruteforce_entropy,
)
from repro.core.bench import run_dispatch_bench
from repro.core.experiments import e10_bruteforce
from repro.obs import Collector
from repro.obs.metrics import Histogram, MetricsRegistry


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

    def test_chaos_sweep_parallel_merges_worker_series(self):
        """Time-series parity under workers=2: the adopted worker stores
        reproduce the sequential sweep's sampled series bit for bit."""
        from repro.obs import TimeSeriesStore

        kwargs = dict(queries_per_rate=6, attack_budget=6)
        seq_collector = Collector(series=TimeSeriesStore())
        par_collector = Collector(series=TimeSeriesStore())
        run_chaos_sweep((0.0, 0.2, 0.5), workers=1,
                        observer=seq_collector, **kwargs)
        run_chaos_sweep((0.0, 0.2, 0.5), workers=2,
                        observer=par_collector, **kwargs)
        assert par_collector.series.timeline  # the sweep actually sampled
        assert par_collector.clock == seq_collector.clock
        seq_dict = seq_collector.series.to_dict()
        par_dict = par_collector.series.to_dict()
        assert json.dumps(par_dict, sort_keys=True) == \
               json.dumps(seq_dict, sort_keys=True)

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
    def test_tight_loop_dispatch_counters(self):
        # The contract benchmarks/e2e reads (steps_per_s per arch, blocks
        # on/off), plus the deterministic cache counters behind it.
        budget = 1200
        for arch in ("x86", "arm"):
            off = run_dispatch_bench(arch, budget, blocks_enabled=False)
            on = run_dispatch_bench(arch, budget, blocks_enabled=True)
            assert off["steps"] == on["steps"] == budget
            # Budget exhaustion ends the run as a hung-process kill.
            assert off["outcome"] == on["outcome"] == "fault"
            assert off["block_steps"] == off["block_builds"] == 0
            # Decode-cache floor: the 9-instruction loop decodes each
            # instruction once, far past 3x fewer calls than steps.
            assert off["decode_calls"] == 9
            assert off["cache_hits"] == budget - 9
            # 9-insn loop: all but the final budget remainder runs in
            # blocks.  (The remainder single-steps and may build small tail
            # blocks it never executes, so builds is small but not 1.)
            assert on["block_steps"] / budget >= 0.99
            assert 1 <= on["block_builds"] <= 4
            assert off["steps_per_s"] > 0 and on["steps_per_s"] > 0
