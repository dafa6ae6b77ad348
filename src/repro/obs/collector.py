"""The collector: one simulated clock, one event bus, one metrics registry,
one span tracer, and the run's crash postmortems.

Emitters throughout the stack (``Network``, ``FaultPolicy``, the caches,
the daemon/supervisor, the emulators, the brute forcer) accept an optional
``observer=`` collector and stay byte-identical in behavior when it is
``None`` — observation never perturbs the run.  The clock only moves
when a driver moves it (:meth:`advance` / :meth:`advance_to`), so
timestamps are simulated seconds, not wall time, and two same-seed runs
produce identical traces, metrics, span trees, and postmortems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional

from ..cpu.emulator import RunObserver
from .events import EventBus, TraceEvent
from .metrics import MetricsRegistry
from .spans import Span, Tracer
from .taint import TaintEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .postmortem import CrashReport


@dataclass(frozen=True)
class CollectorSpec:
    """What a collector has attached, as a picklable value with a
    deterministic ``repr`` (sweep checkpoints hash it into their grid)."""

    taint: bool = False

    def build(self) -> "Collector":
        """A fresh collector with the same attachments."""
        collector = Collector()
        if self.taint:
            collector.attach_taint(TaintEngine())
        return collector


class CollectorSnapshot(NamedTuple):
    """The part of a run :meth:`Collector.adopt` merges: events,
    postmortems, and taint provenance stay with the run that made them."""

    metrics: MetricsRegistry
    spans: List[Span]
    clock: float


class Collector(RunObserver):
    """Bundle of clock + :class:`EventBus` + :class:`MetricsRegistry` +
    :class:`~repro.obs.spans.Tracer`; :meth:`attach_process` makes it
    and its run observers watch a process."""

    def __init__(self, *, event_limit: int = 100_000):
        self.clock = 0.0
        self.bus = EventBus(limit=event_limit)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self)
        #: Attached :class:`~repro.obs.taint.TaintEngine`, if any (the
        #: daemon wires it onto each booted process).
        self.taint = None
        #: Attached :class:`~repro.cpu.trace.TraceRecorder`, if any (the
        #: daemon wires it onto each booted process).
        self.trace = None
        #: Crash forensics captured during the run, oldest first.
        self.postmortems: List["CrashReport"] = []

    # -- simulated time -------------------------------------------------------

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` (which must be >= 0).

        A negative delta would move the clock backwards and silently break
        the monotonic-timestamp invariant that :meth:`advance_to` guards,
        so it is rejected loudly instead.
        """
        if seconds < 0:
            raise ValueError(
                f"collector clock cannot move backwards: advance({seconds!r})"
            )
        self.clock += seconds
        return self.clock

    def advance_to(self, when: float) -> float:
        """Move the clock forward to ``when`` (never backwards)."""
        self.clock = max(self.clock, when)
        return self.clock

    # -- taint provenance -----------------------------------------------------

    def attach_taint(self, engine):
        """Attach a taint engine; anything that boots a process under this
        collector (the daemon does) shadows the process's memory with it,
        and the ``taint.*`` counters land in this collector's registry."""
        self.taint = engine
        engine.collector = self
        return engine

    # -- run observers --------------------------------------------------------

    def attach_trace(self, recorder):
        """Attach an execution trace; anything that boots a process under
        this collector (the daemon does) records its runs into it."""
        self.trace = recorder
        return recorder

    def attach_process(self, loaded) -> None:
        """Observe a freshly booted process: its runs nest under
        ``cpu.run`` spans here and report to every attached run observer.
        The taint engine takes a fresh shadow map."""
        process = loaded.process
        process.observer = self
        if self.taint is not None:
            self.taint.attach_process(process)
        process.observers = tuple(
            observer for observer in (self.trace, self.taint)
            if observer is not None) + (self,)

    def end_run(self, process, counters: Dict[str, int]) -> None:
        """Flush a run's cache counters."""
        for name, delta in counters.items():
            self.metrics.inc(name, delta)

    # -- emission -------------------------------------------------------------

    def emit(self, category: str, kind: str, **detail: Any) -> TraceEvent:
        """Record one event at the current simulated time.

        Every emit also bumps the ``events.<category>`` counter, so the
        metrics side always carries a coarse activity profile even when
        a caller never touches the registry directly.  Events emitted
        while a span is open are stamped with that span's id, and ring-
        buffer shedding is mirrored into the ``events.dropped`` counter
        so it is never silent.
        """
        self.metrics.inc(f"events.{category}")
        dropped_before = self.bus.dropped
        event = self.bus.emit(
            category, kind, time=self.clock, span=self.tracer.current_id, **detail
        )
        shed = self.bus.dropped - dropped_before
        if shed:
            self.metrics.inc("events.dropped", shed)
        return event

    def inc(self, name: str, amount: int = 1) -> None:
        self.metrics.inc(name, amount)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def record_postmortem(self, report: "CrashReport") -> "CrashReport":
        """File one crash report; counted so triage tooling can find it."""
        self.postmortems.append(report)
        self.metrics.inc("crash.postmortems")
        return report

    @property
    def last_postmortem(self) -> Optional["CrashReport"]:
        return self.postmortems[-1] if self.postmortems else None

    # -- worker merge ---------------------------------------------------------

    def spec(self) -> CollectorSpec:
        """This collector's attachments, for a worker to rebuild."""
        return CollectorSpec(taint=self.taint is not None)

    def snapshot(self) -> CollectorSnapshot:
        """What a worker ships back to the parent's :meth:`adopt`."""
        return CollectorSnapshot(
            metrics=self.metrics,
            spans=self.tracer.spans,
            clock=self.clock,
        )

    def adopt(self, snapshot: CollectorSnapshot) -> None:
        """Fold one worker's snapshot in, as if it had run on this collector.

        Adopting points in task order reproduces one shared collector's
        metrics, span ids, and clock (span times stay local to each point).
        """
        self.metrics.merge(snapshot.metrics)
        self.tracer.adopt(snapshot.spans)
        self.advance_to(snapshot.clock)

    # -- export ---------------------------------------------------------------

    def to_dict(self, *, last_events: Optional[int] = None) -> dict:
        """Full export; ``last_events=0`` means *no* events, not all of them,
        and a negative count is rejected (same guard as :meth:`advance`)."""
        if last_events is not None and last_events < 0:
            raise ValueError(
                f"last_events cannot be negative: {last_events!r}")
        exported = {
            "clock": round(self.clock, 6),
            "events": self.bus.to_dicts(last_events),
            "events_dropped": self.bus.dropped,
            "metrics": self.metrics.to_dict(),
            "spans": self.tracer.to_dicts(),
            "postmortems": [report.to_dict() for report in self.postmortems],
        }
        if self.taint is not None:
            exported["taint"] = self.taint.to_dict()
        return exported

    def to_json(self, *, last_events: Optional[int] = None, indent: int = 2) -> str:
        return json.dumps(self.to_dict(last_events=last_events), indent=indent)

    def summary(self) -> str:
        kinds = self.bus.kinds()
        top = ", ".join(f"{kind}={count}" for kind, count
                        in sorted(kinds.items(), key=lambda kv: (-kv[1], kv[0]))[:6])
        text = (f"collector: clock={self.clock:.1f}s, {len(self.bus)} events"
                f" ({top or 'none'}), {len(self.tracer.spans)} spans")
        if self.bus.dropped:
            text += f", {self.bus.dropped} events dropped"
        if self.postmortems:
            text += f", {len(self.postmortems)} postmortems"
        return text
