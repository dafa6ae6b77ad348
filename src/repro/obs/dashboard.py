"""ANSI terminal dashboard over a campaign's telemetry.

``repro dash`` runs one observed scenario (a chaos point, the forced
CVE-2017-12865 crash, or a wire-to-verdict attack) with a
:class:`~repro.obs.timeseries.TimeSeriesStore` attached, then renders
what an operator's wallboard would show: sparkline activity series, the
SLO verdict table with breaches in red, and the top spans by time spent.
The renderer is a pure function of the collector — same seed, same
frame, byte for byte (colors included) — so ``--once --json`` doubles as
the CI smoke format.

Live mode replays the recorded timeline as frames: each frame truncates
the series at a later simulated moment and re-evaluates the windowed
SLOs read-only at that moment, which is exactly what a real-time board
would have shown while the campaign ran.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .collector import Collector
    from .slo import SloReport

DASH_SCHEMA = "repro-dash/v1"

SPARK_CHARS = "▁▂▃▄▅▆▇█"

GREEN = "\x1b[32m"
RED = "\x1b[31m"
DIM = "\x1b[2m"
BOLD = "\x1b[1m"
RESET = "\x1b[0m"

#: Clear screen + home — the live-mode frame separator.
CLEAR = "\x1b[2J\x1b[H"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Scale the last ``width`` values onto the eight spark glyphs."""
    tail = list(values)[-width:]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return SPARK_CHARS[0] * len(tail)
    steps = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[min(steps, int(round(value / top * steps)))]
        for value in (max(0.0, v) for v in tail)
    )


def _series_activity(series, until: Optional[float]) -> List[float]:
    """Per-sample activity deltas (counter increases / new observations)."""
    points: List[float] = []
    previous = 0.0
    for time, value in zip(series.times, series.values):
        if until is not None and time > until:
            break
        current = float(value) if series.kind == "counter" else float(value["count"])
        points.append(current - previous)
        previous = current
    return points


def top_spans(collector: "Collector", limit: int = 5) -> List[Dict[str, Any]]:
    """Busiest span names by total recorded duration (from the registry)."""
    rows = []
    for name in sorted(collector.metrics._histograms):
        if not name.startswith("span.") or not name.endswith(".duration"):
            continue
        histogram = collector.metrics._histograms[name]
        if histogram.count == 0:
            continue
        rows.append({
            "name": name[len("span."):-len(".duration")],
            "count": histogram.count,
            "total_s": round(histogram.total, 6),
            "mean_s": round(histogram.mean, 6),
            "p95_s": histogram.percentile(0.95),
        })
    rows.sort(key=lambda row: (-row["total_s"], -row["count"], row["name"]))
    return rows[:limit]


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{RESET}" if color else text


def render_dashboard(collector: "Collector",
                     report: Optional["SloReport"] = None, *,
                     until: Optional[float] = None,
                     width: int = 78, color: bool = True) -> str:
    """One dashboard frame as a string (ANSI when ``color``)."""
    store = collector.series
    shown_clock = until if until is not None else collector.clock
    lines: List[str] = []
    title = f" campaign telemetry — t={shown_clock:.1f}s "
    lines.append(_paint(title.center(width, "─"), BOLD, color))
    lines.append(collector.summary())
    if store is not None and store.timeline:
        lines.append("")
        lines.append(_paint("series (activity per sample)", BOLD, color))
        for name in store.names():
            series = store.series[name]
            activity = _series_activity(series, until)
            if not activity:
                continue
            latest = series.at_or_before(until) if until is not None \
                else series.latest()
            last_text = (f"{latest}" if series.kind == "counter"
                         else f"count={latest['count']}" if latest else "-")
            spark = sparkline(activity)
            lines.append(f"  {name:<30} {spark:<32} last={last_text}")
    elif store is not None:
        lines.append(_paint("  (no series samples yet)", DIM, color))
    if report is not None:
        lines.append("")
        lines.append(_paint("SLOs", BOLD, color))
        for verdict in report.verdicts:
            marker = (_paint("✓ ok    ", GREEN, color) if verdict.ok
                      else _paint("✗ BREACH", RED, color))
            shown = ("-" if verdict.observed is None
                     else f"{verdict.observed:.4g}")
            note = f" [{verdict.note}]" if verdict.note else ""
            lines.append(f"  {marker} {verdict.rule.name:<18} "
                         f"{verdict.rule.expr():<40} observed={shown}{note}")
    spans = top_spans(collector)
    if spans:
        lines.append("")
        lines.append(_paint("top spans (by total duration)", BOLD, color))
        for row in spans:
            p95 = "-" if row["p95_s"] is None else f"{row['p95_s']:.3g}"
            lines.append(f"  {row['name']:<28} count={row['count']:<6} "
                         f"total={row['total_s']:<10.3f} p95={p95}")
    profiler = getattr(collector, "profiler", None)
    if profiler is not None and profiler.data.steps:
        data = profiler.data
        total = data.steps
        lines.append("")
        lines.append(_paint("hot opcodes (profiled guest steps)", BOLD, color))
        for name, count in data.opcode_table(5):
            lines.append(f"  {name:<28} {count:>8}  "
                         f"{100.0 * count / total:5.1f}%")
    taint = collector.taint
    if taint is not None:
        lines.append("")
        lines.append(_paint("taint provenance (wire bytes -> PC)", BOLD, color))
        live = taint.shadow.live_bytes if taint.shadow is not None else 0
        lines.append(f"  sources={len(taint.sources)} "
                     f"seeded={taint.seeded_bytes}B live={live}B "
                     f"pc_writes={len(taint.pc_events)}")
        if taint.pc_events:
            event = taint.pc_events[-1]
            where = (f" from [{event['address']:#010x}]"
                     if event["address"] is not None else "")
            lines.append(_paint(
                f"  PC <- {event['pc']:#010x} via {event['via']}{where}",
                RED, color))
    if collector.postmortems:
        lines.append("")
        lines.append(_paint(
            f"  {len(collector.postmortems)} crash postmortem(s) on file "
            "(repro observe crash --emit postmortem)", RED, color))
    lines.append(_paint("─" * width, BOLD, color))
    return "\n".join(lines)


def build_dashboard_json(collector: "Collector",
                         report: Optional["SloReport"] = None, *,
                         scenario: Optional[str] = None) -> dict:
    """The ``--once --json`` machine payload (CI's view of the board)."""
    store = collector.series
    payload = {
        "schema": DASH_SCHEMA,
        "scenario": scenario,
        "clock": round(collector.clock, 6),
        "series": store.to_dict() if store is not None else None,
        "slos": report.to_dict() if report is not None else None,
        "breaches": [verdict.rule.name for verdict in report.breaches]
        if report is not None else [],
        "top_spans": top_spans(collector),
        "counters": collector.metrics.counters(),
        "postmortems": len(collector.postmortems),
    }
    profiler = getattr(collector, "profiler", None)
    if profiler is not None:
        payload["profile"] = profiler.to_dict()
    taint = collector.taint
    if taint is not None:
        payload["taint"] = taint.to_dict()
    return payload


def dashboard_json(collector: "Collector",
                   report: Optional["SloReport"] = None, *,
                   scenario: Optional[str] = None, indent: int = 2) -> str:
    return json.dumps(
        build_dashboard_json(collector, report, scenario=scenario),
        indent=indent)


def frame_times(collector: "Collector", frames: int) -> List[float]:
    """Replay moments: evenly spread over the recorded timeline."""
    store = collector.series
    if store is None or not store.timeline or frames <= 1:
        return [collector.clock]
    first, last = store.timeline[0], store.timeline[-1]
    if last <= first:
        return [last]
    span = last - first
    return [first + span * index / (frames - 1) for index in range(frames)]
