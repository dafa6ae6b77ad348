"""Campaign telemetry: histogram percentiles and the collector export."""

import pytest

from repro.core import run_forced_crash
from repro.obs import Collector, TaintEngine, estimate_percentile
from repro.obs.metrics import Histogram


class TestHistogramPercentile:
    def test_empty_histogram_returns_none_never_raises(self):
        histogram = Histogram("lat", (1.0, 10.0))
        assert histogram.percentile(0.5) is None
        assert histogram.percentile(0.0) is None
        assert histogram.percentile(1.0) is None

    def test_percentile_tracks_observations(self):
        histogram = Histogram("lat", (1.0, 2.0, 5.0, 10.0, 100.0))
        for value in range(1, 101):
            histogram.observe(float(value))
        p50 = histogram.percentile(0.5)
        p99 = histogram.percentile(0.99)
        assert 5.0 <= p50 <= 100.0
        assert p99 <= 100.0
        assert p50 < p99

    def test_invalid_quantile_rejected(self):
        histogram = Histogram("lat", (1.0,))
        histogram.observe(0.5)
        with pytest.raises(ValueError, match="must be in"):
            histogram.percentile(1.5)

    def test_to_dict_reports_explicit_percentiles(self):
        histogram = Histogram("lat", (1.0, 10.0))
        exported = histogram.to_dict()
        assert exported["p50"] is None and exported["p99"] is None
        histogram.observe(3.0)
        exported = histogram.to_dict()
        for key in ("p50", "p95", "p99"):
            assert exported[key] is not None

    def test_estimate_percentile_inf_bucket_clamps_to_max(self):
        # All mass beyond the last finite bound: answer is the observed max.
        assert estimate_percentile((1.0,), [0, 4], 0.99, hi=42.0) == 42.0
        assert estimate_percentile((1.0,), [0, 0], 0.5) is None


class TestCollectorExportGuards:
    def test_last_events_zero_means_no_events(self):
        collector = Collector()
        collector.emit("net", "packet.tx")
        exported = collector.to_dict(last_events=0)
        assert exported["events"] == []
        assert exported["metrics"]["counters"]["events.net"] == 1

    def test_negative_last_events_rejected(self):
        collector = Collector()
        with pytest.raises(ValueError, match="negative"):
            collector.to_dict(last_events=-1)
        with pytest.raises(ValueError, match="negative"):
            collector.bus.to_dicts(last=-3)

    def test_taint_metrics_reach_the_registry_export(self):
        collector = Collector()
        collector.attach_taint(TaintEngine())
        run_forced_crash(observer=collector)
        exported = collector.metrics.to_dict()
        assert {"taint.sources", "taint.seeded_bytes",
                "taint.pc_writes"} <= set(exported["counters"])
        assert "taint.live_bytes" in {histogram["name"] for histogram
                                      in exported["histograms"]}
