"""The structured event-trace bus.

One :class:`TraceEvent` is one thing that happened in the simulated
world — a packet crossing the wire, a fault verdict, a cache decision, a
daemon crash, an exploit stage transition — stamped with the collector's
simulated clock and a monotonic sequence number.  Nothing here touches
wall-clock time or unseeded randomness, so a trace is exactly as
deterministic as the run that produced it: same seed, same events,
byte-for-byte.

Event kinds are dotted ``category.verb`` strings; the taxonomy in use:

==========  =====================================================
category    kinds
==========  =====================================================
``net``     ``packet.tx`` ``packet.rx`` ``packet.drop``
            ``packet.dup``
``fault``   ``fault.drop`` ``fault.corrupt`` ``fault.truncate``
            ``fault.duplicate`` ``fault.delay`` ``fault.partition``
``cache``   ``cache.hit`` ``cache.miss`` ``cache.put``
            ``cache.evict`` ``cache.stale`` ``cache.flush``
``daemon``  ``daemon.boot`` ``daemon.restart`` ``daemon.crash``
            ``daemon.compromise`` ``supervisor.restart``
            ``supervisor.start_limit``
``dns``     ``forward.hit`` ``forward.upstream``
``exploit`` ``exploit.attempt`` ``exploit.lost`` ``exploit.crash``
            ``exploit.success`` ``exploit.halt``
==========  =====================================================

Events emitted while a :class:`~repro.obs.spans.Span` is open carry that
span's id in :attr:`TraceEvent.span`, correlating the flat stream with
the causal span tree without changing the detail payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One structured, simulated-clock-stamped occurrence."""

    seq: int
    time: float
    category: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Id of the span that was open when the event fired (causal link).
    span: Optional[int] = None

    def to_dict(self) -> dict:
        exported = {
            "seq": self.seq,
            "time": round(self.time, 6),
            "category": self.category,
            "kind": self.kind,
            "detail": dict(self.detail),
        }
        if self.span is not None:
            exported["span"] = self.span
        return exported

    def describe(self) -> str:
        bits = " ".join(f"{key}={value}" for key, value in self.detail.items())
        if self.span is not None:
            bits = f"{bits} span=#{self.span}".strip()
        return f"#{self.seq:<5} t={self.time:<8.1f} [{self.category}] {self.kind} {bits}".rstrip()


class EventBus:
    """Append-only trace of :class:`TraceEvent`\\ s with live subscribers.

    The bus never generates its own timestamps; callers pass the
    simulated ``time`` (usually :attr:`Collector.clock`).  A ``limit``
    bounds memory on long runs — the bus keeps the *most recent*
    ``limit`` events and counts what it sheds in ``dropped``.
    """

    def __init__(self, limit: int = 100_000):
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._seq = 0
        self._subscribers: List[Callable[[TraceEvent], None]] = []

    def emit(self, category: str, kind: str, time: float = 0.0,
             span: Optional[int] = None, **detail: Any) -> TraceEvent:
        event = TraceEvent(seq=self._seq, time=time, category=category,
                           kind=kind, detail=detail, span=span)
        self._seq += 1
        self.events.append(event)
        if len(self.events) > self.limit:
            overflow = len(self.events) - self.limit
            del self.events[:overflow]
            self.dropped += overflow
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        self._subscribers.append(callback)

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def by_category(self, category: str) -> List[TraceEvent]:
        return [event for event in self.events if event.category == category]

    def by_kind(self, kind: str) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- export -----------------------------------------------------------------

    def _tail(self, last: Optional[int]) -> List[TraceEvent]:
        """The last ``last`` events; ``None`` means all, 0 means none.

        A negative count is rejected loudly (mirroring the collector's
        ``advance`` guard) rather than silently aliasing into Python's
        negative-index slicing.
        """
        if last is None:
            return self.events
        if last < 0:
            raise ValueError(f"event tail length cannot be negative: {last!r}")
        return self.events[-last:] if last else []

    def to_dicts(self, last: Optional[int] = None) -> List[dict]:
        return [event.to_dict() for event in self._tail(last)]

    def to_json(self, last: Optional[int] = None, indent: int = 2) -> str:
        return json.dumps(self.to_dicts(last), indent=indent)

    def describe(self, last: Optional[int] = None) -> str:
        return "\n".join(event.describe() for event in self._tail(last))
