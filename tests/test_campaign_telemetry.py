"""Campaign telemetry: time series, SLOs, OpenMetrics, dashboard."""

import json

import pytest

from repro.cli import main
from repro.core import run_forced_crash
from repro.obs import (
    Collector,
    DEFAULT_SLOS,
    OpenMetricsError,
    SloRuleError,
    TimeSeries,
    TimeSeriesStore,
    build_dashboard_json,
    estimate_percentile,
    evaluate_slos,
    export_openmetrics,
    parse_openmetrics,
    parse_rule,
    render_dashboard,
    render_openmetrics,
    sparkline,
)
from repro.obs.metrics import Histogram


def observed_collector(interval=1.0):
    """A collector with an attached store and a little synthetic history."""
    collector = Collector(series=TimeSeriesStore(interval=interval))
    for tick in range(10):
        collector.inc("requests", 2)
        if tick >= 6:
            collector.inc("errors")
        collector.observe("latency_ms", 5.0 + tick)
        collector.advance(1.0)
    return collector


class TestTimeSeries:
    def test_ring_buffer_caps_and_counts_dropped(self):
        series = TimeSeries("x", "counter", limit=3)
        for tick in range(7):
            series.record(float(tick), tick)
        assert series.times == [4.0, 5.0, 6.0]
        assert series.values == [4, 5, 6]
        assert series.dropped == 4

    def test_repeated_time_resnapshots_in_place(self):
        series = TimeSeries("x", "counter")
        series.record(1.0, 5)
        series.record(1.0, 9)
        assert series.times == [1.0]
        assert series.values == [9]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            TimeSeries("x", "gauge")

    def test_at_or_before(self):
        series = TimeSeries("x", "counter")
        series.record(1.0, 10)
        series.record(3.0, 30)
        assert series.at_or_before(0.5) is None
        assert series.at_or_before(1.0) == 10
        assert series.at_or_before(2.9) == 10
        assert series.at_or_before(99.0) == 30


class TestTimeSeriesStore:
    def test_samples_on_grid_crossings(self):
        collector = Collector(series=TimeSeriesStore(interval=2.0))
        collector.inc("c", 1)
        collector.advance(5.0)  # crosses t=2 and t=4
        assert collector.series.timeline == [2.0, 4.0]
        assert collector.series.series["c"].values == [1, 1]
        collector.inc("c", 3)
        collector.advance_to(6.0)  # crosses t=6 with the new total
        assert collector.series.series["c"].values == [1, 1, 4]

    def test_sample_flushes_off_grid(self):
        collector = Collector(series=TimeSeriesStore())
        collector.inc("c")
        collector.advance(0.25)  # below the first grid boundary
        assert collector.series.timeline == []
        assert collector.sample() == 0.25
        assert collector.series.timeline == [0.25]

    def test_sample_without_store_raises(self):
        with pytest.raises(ValueError, match="attach_series"):
            Collector().sample()

    def test_invalid_interval_and_limit(self):
        with pytest.raises(ValueError, match="interval"):
            TimeSeriesStore(interval=0.0)
        with pytest.raises(ValueError, match="limit"):
            TimeSeriesStore(limit=0)

    def test_windowed_delta_and_rate(self):
        collector = observed_collector()
        store = collector.series
        # errors: one per second from t>=7 samples onward; the window
        # [7, 10] is closed, so the increase sampled exactly at t=7
        # (against the t=6 baseline) is inside it: 4 total.
        assert store.delta("errors", 3.0, at=10.0) == 4
        assert store.rate("errors", 3.0, at=10.0) == pytest.approx(4.0 / 3.0)
        # Before the counter was born there is no data at all.
        assert store.delta("errors", 2.0, at=3.0) is None
        with pytest.raises(ValueError, match="window"):
            store.rate("errors", 0.0)

    def test_delta_includes_increase_sampled_on_window_left_edge(self):
        # Regression: a sample lying exactly at ``at - window`` used to be
        # taken as the subtracted baseline, silently excluding an increase
        # recorded at that instant from the promised closed interval.
        store = TimeSeriesStore(interval=1.0)
        series = store.series["hits"] = TimeSeries("hits", "counter")
        series.record(4.0, 4)
        series.record(5.0, 10)   # +6 lands exactly on the left edge below
        series.record(10.0, 12)
        assert store.delta("hits", 5.0, at=10.0) == 8   # was 2 pre-fix
        assert store.rate("hits", 5.0, at=10.0) == pytest.approx(8.0 / 5.0)
        # Window reaching past the first sample still baselines at zero.
        assert store.delta("hits", 20.0, at=10.0) == 12

    def test_windowed_percentile_uses_delta_buckets(self):
        collector = observed_collector()
        store = collector.series
        whole = store.percentile("latency_ms", 0.5)
        recent = store.percentile("latency_ms", 0.5, window=3.0, at=10.0)
        assert whole is not None and recent is not None
        assert recent > whole  # the tail of the ramp is slower than the run
        assert store.percentile("missing", 0.5) is None


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


class TestSloRules:
    def test_parse_full_grammar(self):
        rule = parse_rule("cache.stale rate < 0.2/s over 30s", name="stale")
        assert (rule.metric, rule.agg, rule.op) == ("cache.stale", "rate", "<")
        assert rule.threshold == 0.2
        assert rule.window == 30.0
        assert rule.expr() == "cache.stale rate < 0.2/s over 30s"

    def test_parse_rejects_garbage_and_misplaced_suffix(self):
        with pytest.raises(SloRuleError, match="grammar"):
            parse_rule("not a rule")
        with pytest.raises(SloRuleError, match="only applies to rate"):
            parse_rule("daemon.crashes count == 0/s")

    def test_breach_emits_typed_event_and_counter(self):
        collector = observed_collector()
        report = evaluate_slos([parse_rule("errors count == 0", name="none")],
                               collector)
        assert not report.ok
        assert [v.rule.name for v in report.breaches] == ["none"]
        breaches = collector.bus.by_kind("slo.breach")
        assert len(breaches) == 1
        assert breaches[0].detail["rule"] == "none"
        assert collector.metrics.value("slo.breaches") == 1

    def test_read_only_pass_emits_nothing(self):
        collector = observed_collector()
        report = evaluate_slos([parse_rule("errors count == 0")],
                               collector, at=10.0, emit=False)
        assert not report.ok
        assert collector.bus.by_kind("slo.breach") == []
        assert collector.metrics.value("slo.breaches") == 0

    def test_missing_telemetry_is_no_data_not_breach(self):
        report = evaluate_slos([parse_rule("ghost.metric p95 < 1")], Collector())
        assert report.ok
        assert report.verdicts[0].observed is None
        assert "no data" in report.verdicts[0].note

    def test_forced_crash_breaches_crash_free(self):
        run = run_forced_crash(observer=Collector(series=TimeSeriesStore()))
        run.collector.sample()
        report = evaluate_slos(DEFAULT_SLOS, run.collector)
        assert "crash-free" in [v.rule.name for v in report.breaches]
        assert run.collector.bus.by_kind("slo.breach")


class TestOpenMetrics:
    def test_export_parse_render_round_trip(self):
        collector = observed_collector()
        text = export_openmetrics(collector)
        families = parse_openmetrics(text)
        assert render_openmetrics(families) == text
        names = {family.name for family in families}
        assert "requests" in names and "latency_ms" in names
        assert "requests_series" in names  # the attached store's samples

    def test_taint_counters_round_trip(self):
        from repro.obs import TaintEngine

        collector = Collector()
        collector.attach_taint(TaintEngine())
        run_forced_crash(observer=collector)
        text = export_openmetrics(collector)
        families = parse_openmetrics(text)
        assert render_openmetrics(families) == text
        names = {family.name for family in families}
        assert {"taint_sources", "taint_seeded_bytes", "taint_pc_writes",
                "taint_live_bytes"} <= names

    def test_histogram_family_is_cumulative_with_inf(self):
        collector = Collector()
        collector.observe("lat", 0.5)
        collector.observe("lat", 99.0)
        text = export_openmetrics(collector)
        family = {f.name: f for f in parse_openmetrics(text)}["lat"]
        buckets = [s for s in family.samples if s.name == "lat_bucket"]
        assert buckets[-1].labels == (("le", "+Inf"),)
        counts = [s.value for s in buckets]
        assert counts == sorted(counts)  # cumulative
        assert counts[-1] == 2.0

    @pytest.mark.parametrize("mutate, message", [
        (lambda t: t.replace("# EOF\n", ""), "EOF"),
        (lambda t: t.rstrip("\n"), "newline"),
        (lambda t: t.replace("counter", "kounter", 1), "type"),
        (lambda t: "stray_total 1.0\n" + t, "TYPE"),
        (lambda t: t.replace("requests_total 20.0\n",
                             "requests_total banana\n"), "value"),
    ])
    def test_strict_parser_rejects(self, mutate, message):
        text = export_openmetrics(observed_collector())
        with pytest.raises(OpenMetricsError, match=message):
            parse_openmetrics(mutate(text))

    def test_metrics_cli_openmetrics_mode(self, capsys):
        assert main(["observe", "chaos", "--emit", "openmetrics",
                     "--queries", "4", "--attack-budget", "2"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")
        parse_openmetrics(out)  # strict: must be a valid exposition


class TestDashboard:
    def test_sparkline_scales_to_glyphs(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "▁▁"
        line = sparkline([0.0, 5.0, 10.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_render_contains_series_slos_and_spans(self):
        collector = observed_collector()
        collector.metrics.observe("span.demo.duration", 1.0)
        report = evaluate_slos(DEFAULT_SLOS, collector)
        frame = render_dashboard(collector, report, color=False)
        assert "campaign telemetry" in frame
        assert "requests" in frame
        assert "SLOs" in frame and "✓ ok" in frame
        assert "top spans" in frame and "demo" in frame
        assert "\x1b[" not in frame  # --no-color really is plain

    def test_dash_cli_json_crash_scenario_has_breach(self, capsys):
        status = main(["dash", "--scenario", "crash", "--once", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1  # breaches present -> non-zero, gate-style
        assert payload["schema"] == "repro-dash/v1"
        assert payload["series"]["timeline"]  # series samples were emitted
        assert "crash-free" in payload["breaches"]
        assert payload["postmortems"] >= 1

    def test_dash_cli_rejects_bad_rule(self, capsys):
        assert main(["dash", "--once", "--slo", "nope"]) == 2
        assert "grammar" in capsys.readouterr().err

