"""Chaos sweeps: availability, degradation, and attack success under faults.

One sweep point = one fault level.  For each level the harness boots a
supervised x86 victim (W^X + ASLR), runs a client workload through a
:class:`~repro.dns.ResilientResolver` whose upstreams sit behind the
seeded fault fabric (with a scripted total-outage window to exercise
serve-stale), then runs the §VI ASLR brute force against the same daemon —
with the attacker's spoofed replies crossing the same lossy fabric and the
crashed daemon coming back only through the supervisor's restart budget.

Everything is seeded: two sweeps with the same seed produce identical
:class:`ReliabilityReport`\\ s, byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from numbers import Real
from typing import List, Optional, Sequence, Tuple

from ..connman import ConnmanDaemon, DaemonSupervisor
from ..defenses import WX_ASLR
from ..dns import ResilientResolver, SimpleDnsServer, make_query
from ..exploit import AslrBruteForcer
from ..net import FaultPolicy, faulty_transport
from ..obs import Collector, CollectorSpec
from .parallel import DEFAULT_POLICY, RunPolicy, run_supervised
from .resume import TrialFailure
from .report import render_table

#: Client names rotate through this many hosts (so revisits hit the cache).
NAME_POOL = 6
#: TTL clock advance per query: entries expire between revisits.
CLOCK_STEP = 90.0
#: Resolver timeout against the fault fabric's delay distribution.
TIMEOUT_MS = 250.0


@dataclass(frozen=True)
class ChaosCell:
    """One fault level's measurements."""

    fault_rate: float
    queries: int
    answered: int
    stale: int
    failed: int
    faults_injected: int
    restarts: int
    supervisor_gave_up: bool
    availability: float
    attack_attempts: int
    attack_succeeded: bool
    attack_halted: bool

    @property
    def error_rate(self) -> float:
        return self.failed / self.queries if self.queries else 0.0

    def attack_verdict(self) -> str:
        if self.attack_succeeded:
            return f"root shell @{self.attack_attempts}"
        if self.attack_halted:
            return f"halted @{self.attack_attempts} (start limit)"
        return f"no shell ({self.attack_attempts} tries)"

    def row(self) -> Tuple:
        return (
            f"{self.fault_rate:.2f}",
            f"{self.answered}/{self.queries}",
            self.stale,
            self.failed,
            self.restarts,
            f"{self.availability:.3f}",
            self.attack_verdict(),
        )


@dataclass
class ReliabilityReport:
    """The sweep's full result table (deterministic per seed)."""

    seed: int
    cells: List[ChaosCell] = field(default_factory=list)
    #: Metrics summary from the sweep's attached collector (counters +
    #: histograms over every cell), when the sweep ran observed.
    metrics: Optional[dict] = None
    #: Trials that exhausted their retry budget under a quarantine policy
    #: (empty for strict/healthy runs, so the artifact stays byte-stable).
    failures: List[TrialFailure] = field(default_factory=list)

    HEADERS = ("fault rate", "answered", "stale", "failed", "restarts",
               "availability", "attack")

    def describe(self) -> str:
        text = render_table(
            self.HEADERS,
            [cell.row() for cell in self.cells],
            title=f"chaos sweep (seed {self.seed})",
        )
        for failure in self.failures:
            text += f"\nQUARANTINED {failure.describe()}"
        return text

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "failures": [failure.to_dict() for failure in self.failures],
            "cells": [
                {
                    "fault_rate": cell.fault_rate,
                    "queries": cell.queries,
                    "answered": cell.answered,
                    "stale": cell.stale,
                    "failed": cell.failed,
                    "faults_injected": cell.faults_injected,
                    "restarts": cell.restarts,
                    "supervisor_gave_up": cell.supervisor_gave_up,
                    "availability": cell.availability,
                    "attack_attempts": cell.attack_attempts,
                    "attack_succeeded": cell.attack_succeeded,
                    "attack_halted": cell.attack_halted,
                }
                for cell in self.cells
            ],
            "metrics": self.metrics,
        }


def _chaos_policy(seed: int, level: float) -> FaultPolicy:
    """The sweep's fault mix at one level (level 0.0 injects nothing)."""
    return FaultPolicy(
        seed,
        drop=0.60 * level,
        delay=0.25 * level,
        corrupt=0.10 * level,
        truncate=0.05 * level,
        delay_ms=(50.0, 400.0),
    )


def run_chaos_point(
    level: float,
    *,
    seed: int,
    queries: int = 24,
    attack_budget: int = 32,
    entropy_pages: int = 32,
    start_limit_burst: int = 6,
    observer: Optional[Collector] = None,
) -> ChaosCell:
    """Measure one fault level: client workload first, then the attack.

    When ``observer`` is set, the daemon, supervisor, fault fabric, and
    brute forcer all trace into it — the chaos point becomes the CLI's
    canonical observed scenario (``repro observe chaos``).  An observer
    with a taint engine attached provenance-tracks every parsed reply;
    cells are byte-identical either way.
    """
    # Narrow the victim's ASLR span to the attacker's guess space so the
    # attack column measures fault/supervision effects, not raw entropy.
    profile = WX_ASLR.with_(aslr_entropy_pages=entropy_pages)
    victim = ConnmanDaemon(arch="x86", profile=profile, rng=random.Random(seed),
                           observer=observer)
    supervisor = DaemonSupervisor(victim, start_limit_burst=start_limit_burst)
    policy = _chaos_policy(seed + 1, level)
    policy.observer = observer
    legit = SimpleDnsServer(default_address="203.0.113.10")
    resolver = ResilientResolver(
        [
            faulty_transport(legit.handle_query, policy,
                             src=victim.name, dst=f"ns{index}",
                             timeout_ms=TIMEOUT_MS)
            for index in (1, 2)
        ],
        retries=1,
        rng=random.Random(seed + 2),
    )

    answered = stale = failed = 0
    # The last quarter of a faulty run is a scripted total outage: both
    # upstreams dark, so every revisit must degrade to a stale answer.
    outage_start = queries - max(2, queries // 4) if level > 0 else queries
    for number in range(queries):
        if number == outage_start:
            policy.set_host("ns1", drop=1.0)
            policy.set_host("ns2", drop=1.0)
        supervisor.tick(1.0)
        if not supervisor.ensure_running():
            failed += queries - number
            break
        victim.cache.advance(CLOCK_STEP)
        packet = make_query(0x3000 + number, f"host{number % NAME_POOL}.chaos.example").encode()
        stale_before = resolver.stale_served
        response = victim.handle_client_query(packet, resolver)
        if response is None:
            failed += 1
        elif resolver.stale_served > stale_before:
            stale += 1
        else:
            answered += 1

    attack = AslrBruteForcer(
        victim,
        max_attempts=attack_budget,
        rng=random.Random(seed + 3),
        entropy_pages=entropy_pages,
        supervisor=supervisor,
        reply_faults=policy,
    ).run()

    return ChaosCell(
        fault_rate=level,
        queries=queries,
        answered=answered,
        stale=stale,
        failed=failed,
        faults_injected=policy.fault_count(),
        restarts=supervisor.restart_count,
        supervisor_gave_up=supervisor.gave_up,
        availability=supervisor.availability(),
        attack_attempts=attack.attempts,
        attack_succeeded=attack.succeeded,
        attack_halted=attack.halted_by_supervisor,
    )


@dataclass(frozen=True)
class ChaosPointTask:
    """One fully seeded chaos point: the picklable unit the pool runs."""

    level: float
    derived_seed: int
    queries: int
    attack_budget: int
    entropy_pages: int
    start_limit_burst: int
    spec: Optional[CollectorSpec]  # an observed sweep's collector config


def _chaos_point_task(task: ChaosPointTask) -> Tuple:
    """Worker for the sweep: one chaos point (module-level, pool-picklable).

    The point runs under the fresh collector ``task.spec`` builds and
    returns its snapshot for the parent to :meth:`~repro.obs.Collector.adopt`.
    """
    collector = task.spec.build() if task.spec is not None else None
    cell = run_chaos_point(
        task.level,
        seed=task.derived_seed,
        queries=task.queries,
        attack_budget=task.attack_budget,
        entropy_pages=task.entropy_pages,
        start_limit_burst=task.start_limit_burst,
        observer=collector,
    )
    return cell, collector.snapshot() if collector is not None else None


#: Checkpoint identity for the chaos sweep (resume validates against it).
CHAOS_EXPERIMENT_ID = "E16.chaos"


def run_chaos_sweep(
    rates: Sequence[float] = (0.0, 0.2, 0.5),
    *,
    seed: int = 0xC4A05,
    queries_per_rate: int = 24,
    attack_budget: int = 32,
    entropy_pages: int = 32,
    start_limit_burst: int = 6,
    observer: Optional[Collector] = None,
    workers: Optional[int] = 1,
    policy: Optional[RunPolicy] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    sweep_observer: Optional[Collector] = None,
) -> ReliabilityReport:
    """Sweep the fault level; each point gets an independent derived seed.

    Every point runs through :func:`~repro.core.parallel.run_supervised`,
    in-process at one worker and over a pool at more; cells are identical
    at any worker count.  A failing point raises
    :class:`~repro.core.resume.TaskError` (index and seed attached) under
    the default strict policy.

    Pass a :class:`~repro.obs.Collector` as ``observer`` to get a metrics
    summary on the report.  Each point runs under a fresh collector built
    from ``observer.spec()``; its snapshot is adopted into ``observer`` in
    point order, so the metrics, span forest (ids rebased, times local to
    each point) and clock are the same at any worker count.  Events,
    postmortems, and taint provenance stay with the point that made
    them — ``repro observe chaos`` shows them for one point.

    Resilience: ``policy`` adds per-trial timeouts/retries (quarantined
    points land in ``report.failures`` instead of aborting the sweep);
    ``checkpoint`` journals every completed point to an append-only JSONL
    file so a killed sweep restarted with ``resume=True`` re-executes only
    the unfinished points and produces a byte-identical results artifact.
    ``sweep_observer`` receives the harness-health counters
    (``sweep.retries``/``sweep.timeouts``/``sweep.quarantined``/
    ``sweep.resumed_trials``) — deliberately a *separate* collector from
    ``observer`` so wall-clock-dependent harness telemetry never leaks
    into the deterministic results artifact.

    Before any point runs, a ``ValueError`` naming the parameter rejects
    an empty ``rates``, a rate that is not a real number in [0, 1] and a
    ``queries_per_rate`` or ``attack_budget`` that is not a non-negative
    integer.
    """
    if isinstance(rates, str) or not isinstance(rates, Sequence) or not rates:
        raise ValueError(f"rates: want a non-empty sequence of fault levels "
                         f"in [0, 1], got {rates!r}")
    for rate in rates:
        if not (isinstance(rate, Real) and 0.0 <= rate <= 1.0):
            raise ValueError(f"rates: fault level {rate!r} is not a real "
                             "number in [0, 1]")
    for name, value in (("queries_per_rate", queries_per_rate),
                        ("attack_budget", attack_budget)):
        if not (isinstance(value, int) and value >= 0):
            raise ValueError(f"{name}: want an integer >= 0, got {value!r}")
    report = ReliabilityReport(seed=seed)
    spec = observer.spec() if observer is not None else None
    tasks = [
        ChaosPointTask(level, seed + 7919 * index, queries_per_rate,
                       attack_budget, entropy_pages, start_limit_burst, spec)
        for index, level in enumerate(rates)
    ]
    outcome = run_supervised(
        _chaos_point_task, tasks, workers=workers,
        policy=policy or DEFAULT_POLICY, observer=sweep_observer,
        checkpoint=checkpoint, resume=resume,
        experiment=CHAOS_EXPERIMENT_ID, seed=seed,
    )
    report.failures = outcome.failures
    for cell, snapshot in outcome.completed():
        report.cells.append(cell)
        if observer is not None:
            observer.adopt(snapshot)
    if observer is not None:
        report.metrics = observer.metrics.to_dict()
    return report
