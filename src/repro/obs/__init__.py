"""Observability: event tracing, spans, metrics, forensics, capture export.

The layer the paper's diagnosis workflow needs (crash triage in §III,
Pineapple capture in §VI): a deterministic, simulated-clock
:class:`Collector` that the network fabric, fault engine, caches,
daemon, supervisor, emulators, and brute forcer all report into — flat
events, counters/histograms, *causal spans* (one exploit attempt = one
span tree from wire to verdict), structured :class:`CrashReport`
postmortems, a Chrome trace-event exporter for Perfetto, and a text
pcap format for the traffic log that round-trips through the sniffer.
On top of the flat registry sits the campaign layer: ring-buffered
:class:`TimeSeriesStore` sampling on the simulated clock, declarative
:class:`SloRule` objectives with ``slo.breach`` alerts, OpenMetrics
text exposition that round-trips through its strict parser, and the
``repro dash`` terminal dashboard.
"""

from .chrome import (
    chrome_counter_events,
    chrome_trace_events,
    export_chrome_trace,
    validate_chrome_trace,
)
from .collector import Collector
from .dashboard import (
    build_dashboard_json,
    dashboard_json,
    render_dashboard,
    sparkline,
    top_spans,
)
from .events import EventBus, TraceEvent
from .metrics import Counter, Histogram, MetricsRegistry, estimate_percentile
from .openmetrics import (
    OpenMetricsError,
    export_openmetrics,
    parse_openmetrics,
    render_openmetrics,
)
from .slo import (
    DEFAULT_SLOS,
    SWEEP_SLOS,
    SloReport,
    SloRule,
    SloRuleError,
    SloVerdict,
    evaluate_slos,
    parse_rule,
    parse_rules,
)
from .timeseries import TimeSeries, TimeSeriesStore
from .pcap import (
    PcapFormatError,
    export_datagrams,
    export_pcap_text,
    parse_pcap_text,
    replay_network,
    sniff_capture,
)
from .postmortem import CrashReport, capture_crash_report
from .profiler import (
    CACHE_LINES,
    DEFAULT_SAMPLE_INTERVAL,
    DeterministicProfiler,
    ProfileData,
    folded_stacks,
    render_profile,
    speedscope_document,
    validate_speedscope,
)
from .spans import Span, Tracer, snapshot_payload
from .taint import (
    ShadowMemory,
    TaintEngine,
    format_offsets,
    group_offsets,
    render_provenance,
    validate_taint_summary,
)

__all__ = [
    "build_dashboard_json",
    "CACHE_LINES",
    "capture_crash_report",
    "chrome_counter_events",
    "chrome_trace_events",
    "Collector",
    "Counter",
    "CrashReport",
    "dashboard_json",
    "DEFAULT_SAMPLE_INTERVAL",
    "DEFAULT_SLOS",
    "DeterministicProfiler",
    "estimate_percentile",
    "evaluate_slos",
    "EventBus",
    "export_chrome_trace",
    "export_datagrams",
    "export_openmetrics",
    "export_pcap_text",
    "folded_stacks",
    "format_offsets",
    "group_offsets",
    "Histogram",
    "MetricsRegistry",
    "OpenMetricsError",
    "parse_openmetrics",
    "parse_pcap_text",
    "parse_rule",
    "parse_rules",
    "PcapFormatError",
    "ProfileData",
    "render_dashboard",
    "render_openmetrics",
    "render_profile",
    "render_provenance",
    "replay_network",
    "SloReport",
    "SloRule",
    "SloRuleError",
    "SloVerdict",
    "ShadowMemory",
    "sniff_capture",
    "snapshot_payload",
    "Span",
    "TaintEngine",
    "speedscope_document",
    "SWEEP_SLOS",
    "sparkline",
    "TimeSeries",
    "TimeSeriesStore",
    "top_spans",
    "TraceEvent",
    "Tracer",
    "validate_chrome_trace",
    "validate_speedscope",
    "validate_taint_summary",
]
