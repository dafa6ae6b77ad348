"""Observability: event tracing, spans, metrics, forensics, capture export.

The layer the paper's diagnosis workflow needs (crash triage in §III,
Pineapple capture in §VI): a deterministic, simulated-clock
:class:`Collector` that the network fabric, fault engine, caches,
daemon, supervisor, emulators, and brute forcer all report into — flat
events, counters/histograms, *causal spans* (one exploit attempt = one
span tree from wire to verdict), structured :class:`CrashReport`
postmortems, and a text pcap format for the traffic log that
round-trips through the sniffer.  Alongside them sits the taint engine
(wire offset -> memory -> PC provenance).
"""

from .collector import Collector, CollectorSnapshot, CollectorSpec
from .events import EventBus, TraceEvent
from .metrics import Counter, Histogram, MetricsRegistry, estimate_percentile
from .pcap import (
    PcapFormatError,
    export_datagrams,
    export_pcap_text,
    parse_pcap_text,
    sniff_capture,
)
from .postmortem import CrashReport, capture_crash_report
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
    "capture_crash_report",
    "Collector",
    "CollectorSnapshot",
    "CollectorSpec",
    "Counter",
    "CrashReport",
    "estimate_percentile",
    "EventBus",
    "export_datagrams",
    "export_pcap_text",
    "format_offsets",
    "group_offsets",
    "Histogram",
    "MetricsRegistry",
    "parse_pcap_text",
    "PcapFormatError",
    "render_provenance",
    "ShadowMemory",
    "sniff_capture",
    "snapshot_payload",
    "Span",
    "TaintEngine",
    "TraceEvent",
    "Tracer",
    "validate_taint_summary",
]
