"""Counters and histograms for the observability layer.

A :class:`MetricsRegistry` is a flat namespace of named
:class:`Counter`\\ s and :class:`Histogram`\\ s, created on first touch
(``registry.inc("faults.drop")`` just works).  Everything is plain
arithmetic over values the caller supplies, so a registry is exactly as
deterministic as the run feeding it, and ``to_dict()`` serializes
straight to JSON for the CLI and for ``ExperimentResult.to_dict``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

#: Default histogram bucket upper bounds (ms-ish scale; +Inf is implicit).
DEFAULT_BUCKETS = (1.0, 5.0, 10.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


def estimate_percentile(bounds: Sequence[float], bucket_counts: Sequence[float],
                        q: float, *, lo: Optional[float] = None,
                        hi: Optional[float] = None) -> Optional[float]:
    """Estimate the q-quantile from per-bucket counts (Prometheus-style).

    ``bucket_counts`` are *non-cumulative* per-bucket counts, one per bound
    plus the trailing +Inf bucket.  Interpolates linearly inside the bucket
    the target rank lands in; a rank landing in the +Inf bucket returns the
    observed ``hi`` when known, else the highest finite bound.  Returns
    ``None`` (never raises) when there are no observations, so windowed
    queries over quiet periods stay total.  ``lo``/``hi`` clamp the
    estimate to the observed range when the caller tracks it.
    """
    total = sum(bucket_counts)
    if total <= 0:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q!r}")
    target = q * total
    estimate: Optional[float] = None
    running = 0.0
    for index, bound in enumerate(bounds):
        count = bucket_counts[index]
        running += count
        if count > 0 and running >= target:
            lower = bounds[index - 1] if index > 0 else min(0.0, bound)
            fraction = (target - (running - count)) / count
            estimate = lower + (bound - lower) * fraction
            break
    if estimate is None:  # rank lands in the +Inf bucket
        estimate = hi if hi is not None else (bounds[-1] if bounds else lo)
    if estimate is None:
        return None
    if lo is not None:
        estimate = max(estimate, lo)
    if hi is not None:
        estimate = min(estimate, hi)
    return estimate


def _round6(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 6)


class Counter:
    """A monotonically increasing named count."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> int:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount
        return self.value

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value}


class Histogram:
    """Bucketed distribution: count/sum/min/max plus cumulative buckets."""

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.bounds = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimated q-quantile (q in [0, 1]) from the cumulative buckets.

        Contract: an empty histogram returns ``None`` and never raises —
        "no data" stays distinct from any numeric answer, and the export
        shows it as ``null``.
        """
        if self.count == 0:
            return None
        return estimate_percentile(self.bounds, self.bucket_counts, q,
                                   lo=self.min, hi=self.max)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Merging is commutative and associative (sums and bucket adds), so
        parallel workers' histograms merge to the same totals regardless of
        completion order.
        """
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram {self.name}: merge with mismatched buckets "
                f"{other.bounds} != {self.bounds}"
            )
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        self.bucket_counts = [
            mine + theirs for mine, theirs in zip(self.bucket_counts, other.bucket_counts)
        ]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "sum": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": self.min,
            "max": self.max,
            "p50": _round6(self.percentile(0.50)),
            "p95": _round6(self.percentile(0.95)),
            "p99": _round6(self.percentile(0.99)),
            "buckets": {
                **{f"le_{bound:g}": count
                   for bound, count in zip(self.bounds, self.bucket_counts)},
                "le_inf": self.bucket_counts[-1],
            },
        }


class MetricsRegistry:
    """Create-on-first-touch namespace of counters and histograms."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access -----------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, buckets)
        return self._histograms[name]

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def value(self, name: str) -> int:
        """Current count for ``name`` (0 if never incremented)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters add, histograms merge.

        The parallel sweep runner ships each worker's registry back (plain
        picklable objects) and merges them in task order, reproducing the
        sequential run's counter totals exactly.

        Every histogram's bucket bounds are validated *before* anything is
        mutated: a mid-merge mismatch must not leave this registry with
        half-merged counters, so the whole merge either applies or raises.
        """
        for name, histogram in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is not None and mine.bounds != histogram.bounds:
                raise ValueError(
                    f"registry merge: histogram {name!r} bucket bounds differ: "
                    f"ours {mine.bounds} vs theirs {histogram.bounds}"
                )
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, histogram in other._histograms.items():
            self.histogram(name, histogram.bounds).merge(histogram)

    def counters(self) -> Dict[str, int]:
        return {name: counter.value for name, counter in sorted(self._counters.items())}

    # -- export -----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "counters": self.counters(),
            "histograms": [self._histograms[name].to_dict()
                           for name in sorted(self._histograms)],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def describe(self) -> str:
        lines: List[str] = ["counters:"]
        for name, value in self.counters().items():
            lines.append(f"  {name:<28} {value}")
        if len(lines) == 1:
            lines.append("  (none)")
        if self._histograms:
            lines.append("histograms:")
            for name in sorted(self._histograms):
                histogram = self._histograms[name]
                lines.append(
                    f"  {name:<28} count={histogram.count} "
                    f"mean={histogram.mean:.1f} min={histogram.min} max={histogram.max}"
                )
        return "\n".join(lines)
