"""Seeded, order-independent parallel trial fan-out — supervised.

Every sweep in this reproduction is a list of independent trials, each
carrying its own derived seed.  That makes them embarrassingly parallel
*and* order-independent: a trial's outcome is a pure function of its task
spec, never of which worker ran it or when.  The runner exploits exactly
that contract — results come back positionally, so ``workers=N`` is
outcome-identical to ``workers=1`` (the fidelity tests pin this), and a
*retried* trial is bit-identical to a first-try trial, so supervision
never perturbs results either.

Two entry points share one engine:

* :func:`run_tasks` — the strict, drop-in runner: any trial failure
  (after the policy's retry budget) raises a :class:`TaskError` carrying
  the task index and derived seed.  Callers get a plain results list.
* :func:`run_supervised` — the campaign runner: failures are quarantined
  into typed :class:`TrialFailure` slots instead of raised, completed
  trials can be journaled to a :class:`SweepCheckpoint` for ``--resume``,
  and harness-health counters (``sweep.retries``/``sweep.timeouts``/
  ``sweep.quarantined``/``sweep.resumed_trials``/``sweep.respawns``/
  ``sweep.fallback``) plus a ``sweep.trial.duration`` histogram flow into
  an optional observer :class:`~repro.obs.Collector`.

Dispatch is ``apply_async`` per trial with a per-trial wall-clock
deadline (the heartbeat), not one blocking ``Pool.map`` — and at most
``workers`` trials are in flight at once, so a dispatched trial is
*executing* and its deadline measures execution time, never time spent
queued behind the rest of a 10^5-trial campaign.  A hung guest or a
worker the OS killed mid-trial surfaces as a missed deadline, the pool
is respawned, every other in-flight trial is re-dispatched without
charging its retry budget, and only the offending trial pays a retry.
Pool-*creation* failure (sandboxes without POSIX semaphores) is the only
silent-degradation path left: it falls back to in-process execution and
says so via the ``sweep.fallback`` event — mid-run worker death is never
conflated with it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Tuple, TypeVar)

from .resume import SweepCheckpoint, TaskError, TrialFailure, grid_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Collector

T = TypeVar("T")
R = TypeVar("R")

#: Pool-creation failures that mean "no usable multiprocessing here".
#: Anything else a pool raises mid-run is worker trouble, not absence of
#: primitives, and must be supervised — never silently absorbed.
POOL_UNAVAILABLE_ERRORS = (ImportError, NotImplementedError, OSError,
                           PermissionError)


def default_workers() -> int:
    """One worker per CPU — the ``workers=None`` resolution."""
    return max(1, os.cpu_count() or 1)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` argument (None/0/negative -> cpu count)."""
    if workers is None or workers <= 0:
        return default_workers()
    return workers


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    # fork shares the already-imported interpreter state and is far cheaper
    # for many small trials; spawn works too since every worker callable in
    # this codebase is module-level (picklable by reference).
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@dataclass(frozen=True)
class RunPolicy:
    """Per-trial supervision budget for a sweep.

    ``timeout`` is wall-clock seconds a single trial may run before the
    runner declares its worker hung/dead and respawns the pool (``None``
    disables the heartbeat — in-process execution can never preempt a
    trial, so the timeout only applies to pool dispatch).  ``retries`` is
    how many times a failed/timed-out trial re-executes before it is
    quarantined (or raised, per ``on_failure``); the re-execution is
    bit-identical because task specs are fully seeded.  Backoff between
    retries is ``backoff * backoff_factor**(attempt-1)`` seconds.
    """

    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.05
    backoff_factor: float = 2.0
    poll_interval: float = 0.02
    on_failure: str = "raise"  # "raise" | "quarantine"

    def __post_init__(self):
        if self.timeout is not None and not (math.isfinite(self.timeout)
                                             and self.timeout > 0):
            raise ValueError(
                f"trial timeout must be positive and finite, got {self.timeout!r}")
        if self.retries < 0:
            raise ValueError(f"retry budget cannot be negative: {self.retries}")
        if self.on_failure not in ("raise", "quarantine"):
            raise ValueError(f"unknown on_failure mode {self.on_failure!r}")

    def backoff_for(self, attempt: int) -> float:
        """Delay before re-dispatching a trial that failed ``attempt`` times."""
        if self.backoff <= 0:
            return 0.0
        return self.backoff * (self.backoff_factor ** max(attempt - 1, 0))


#: Strict default: behaves like the old bare runner, plus error context.
DEFAULT_POLICY = RunPolicy()

#: Campaign default: bounded retries, hung-worker heartbeat, quarantine.
SUPERVISED_POLICY = RunPolicy(timeout=120.0, retries=2, on_failure="quarantine")


@dataclass
class SweepStats:
    """Harness-health counters for one supervised sweep."""

    total: int = 0
    executed: int = 0
    resumed: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    respawns: int = 0
    fallback_reason: Optional[str] = None

    def describe(self) -> str:
        text = (f"sweep health: {self.executed}/{self.total} executed, "
                f"{self.resumed} resumed, {self.retries} retries, "
                f"{self.timeouts} timeouts, {self.quarantined} quarantined, "
                f"{self.respawns} pool respawns")
        if self.fallback_reason:
            text += f", in-process fallback ({self.fallback_reason})"
        return text

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "executed": self.executed,
            "resumed": self.resumed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
            "respawns": self.respawns,
            "fallback_reason": self.fallback_reason,
        }


@dataclass
class SweepOutcome:
    """A supervised sweep's positional results plus its health ledger.

    ``results[i]`` is trial *i*'s result, or the :class:`TrialFailure`
    that quarantined it — positions are stable either way, so partial
    results stay attributable.
    """

    results: List[Any]
    failures: List[TrialFailure] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    @property
    def ok(self) -> bool:
        return not self.failures

    def completed(self) -> List[Any]:
        """Only the successful results, in task order."""
        return [result for result in self.results
                if not isinstance(result, TrialFailure)]


def _run_envelope(packed: Tuple[Callable, int, Any]) -> Tuple[int, str, Any, str]:
    """Pool-side trial wrapper: exceptions come back as data, with context.

    Raising through the pool would tear down the whole ``map`` with an
    anonymous traceback; returning ``(index, "error", repr, traceback)``
    keeps the sweep alive and pins exactly which task died.
    """
    worker, index, task = packed
    try:
        return index, "ok", worker(task), ""
    except BaseException as exc:  # noqa: BLE001 - the whole point
        return index, "error", repr(exc), traceback.format_exc(limit=16)


class _ObserverHooks:
    """Null-safe shims around the optional harness observer."""

    def __init__(self, observer: Optional["Collector"], experiment: str):
        self.observer = observer
        self.experiment = experiment

    def inc(self, name: str, amount: int = 1) -> None:
        if self.observer is not None:
            self.observer.inc(name, amount)

    def observe_duration(self, seconds: float) -> None:
        if self.observer is not None:
            self.observer.observe("sweep.trial.duration", seconds * 1000.0)

    def emit(self, kind: str, **detail) -> None:
        if self.observer is not None:
            self.observer.emit("sweep", kind, sweep=self.experiment, **detail)


def run_supervised(worker: Callable[[T], R], tasks: Iterable[T], *,
                   workers: Optional[int] = 1,
                   policy: RunPolicy = SUPERVISED_POLICY,
                   observer: Optional["Collector"] = None,
                   checkpoint: Optional[str] = None,
                   resume: bool = False,
                   experiment: str = "sweep",
                   seed: Optional[int] = None) -> SweepOutcome:
    """Run ``worker(task)`` for every task under full supervision.

    Results are positional.  ``worker`` must be a module-level callable
    and every task picklable; each task must embed its own derived seed
    (``task.derived_seed`` names it in failure records) so execution
    order, retries, and resume cannot leak into outcomes.
    ``checkpoint`` is a journal path, keyed by ``experiment``/``seed`` and
    the tasks' grid hash; with ``resume`` its entries short-circuit their
    trials (counted as ``sweep.resumed_trials``).  Newly completed trials
    are journaled before the sweep moves on.  ``experiment`` also names
    the sweep in its ``sweep`` events.
    """
    tasks = list(tasks)
    if resume and checkpoint is None:
        raise ValueError(f"{experiment}: resume=True needs a checkpoint "
                         "path to resume from")
    journal = None
    if checkpoint is not None:
        journal = SweepCheckpoint(
            checkpoint, experiment=experiment, grid_hash=grid_hash(tasks),
            total=len(tasks), seed=seed, resume=resume)
    try:
        return _supervise(worker, tasks, workers, policy,
                          _ObserverHooks(observer, experiment), journal)
    finally:
        if journal is not None:
            journal.close()


def _supervise(worker: Callable[[T], R], tasks: List[T],
               workers: Optional[int], policy: RunPolicy,
               hooks: _ObserverHooks,
               checkpoint: Optional[SweepCheckpoint]) -> SweepOutcome:
    """The engine behind :func:`run_supervised` (journal already open)."""
    stats = SweepStats(total=len(tasks))
    unset = object()
    slots: List[Any] = [unset] * len(tasks)
    failures: List[TrialFailure] = []

    if checkpoint is not None and checkpoint.completed:
        for index, result in checkpoint.completed.items():
            slots[index] = result
        stats.resumed = len(checkpoint.completed)
        hooks.inc("sweep.resumed_trials", stats.resumed)
        hooks.emit("sweep.resume", resumed=stats.resumed, total=len(tasks))

    pending = [index for index in range(len(tasks)) if slots[index] is unset]
    attempts: Dict[int, int] = {index: 0 for index in pending}

    def finish(index: int, result: Any, started: float) -> None:
        slots[index] = result
        stats.executed += 1
        hooks.observe_duration(time.monotonic() - started)
        if checkpoint is not None:
            checkpoint.record(index, result)

    def fail(index: int, kind: str, error: str, tb: str = "") -> bool:
        """Charge one failed attempt; True means "retry", False "gave up"."""
        attempts[index] += 1
        if attempts[index] <= policy.retries:
            stats.retries += 1
            hooks.inc("sweep.retries")
            return True
        failure = TrialFailure(
            index=index, kind=kind, attempts=attempts[index], error=error,
            seed=getattr(tasks[index], "derived_seed", None),
            task=repr(tasks[index])[:200], traceback=tb,
        )
        if policy.on_failure == "raise":
            raise TaskError(failure)
        slots[index] = failure
        failures.append(failure)
        stats.quarantined += 1
        hooks.inc("sweep.quarantined")
        hooks.emit("sweep.quarantine", index=index, failure_kind=kind,
                   seed=failure.seed, error=error[:120])
        return False

    def run_inline(indices: Iterable[int]) -> None:
        """In-process execution with the same retry/quarantine semantics.

        A timeout cannot preempt in-process code, so ``policy.timeout``
        does not apply here — everything else (retries, backoff,
        quarantine, journaling) behaves identically to pool dispatch.
        Only ``Exception`` is supervised: a KeyboardInterrupt/SystemExit
        is the *operator* stopping the sweep, not a trial failing, and
        must propagate instead of burning a retry budget.
        """
        for index in indices:
            while True:
                started = time.monotonic()
                try:
                    result = worker(tasks[index])
                except Exception as exc:  # supervised trial failure
                    if fail(index, "error", repr(exc),
                            traceback.format_exc(limit=16)):
                        delay = policy.backoff_for(attempts[index])
                        if delay:
                            time.sleep(delay)
                        continue
                    break
                finish(index, result, started)
                break

    count = min(resolve_workers(workers), len(pending))
    if count <= 1:
        run_inline(pending)
        return SweepOutcome(results=slots, failures=failures, stats=stats)

    context = _pool_context()
    try:
        pool = context.Pool(processes=count)
    except POOL_UNAVAILABLE_ERRORS as exc:
        # No usable multiprocessing primitives here: same results, one
        # process — but loudly, never conflated with a worker crash.
        stats.fallback_reason = repr(exc)
        hooks.inc("sweep.fallback")
        hooks.emit("sweep.fallback", reason=repr(exc), stage="pool-creation")
        run_inline(pending)
        return SweepOutcome(results=slots, failures=failures, stats=stats)

    waiting = deque(pending)        # dispatchable now
    delayed: List[Tuple[float, int]] = []  # (eligible_at, index) backoff queue
    inflight: Dict[int, Tuple[Any, Optional[float], float]] = {}

    def respawn(reason: str) -> bool:
        """Replace a wedged pool; False -> fall back to in-process."""
        nonlocal pool
        pool.terminate()
        pool.join()
        stats.respawns += 1
        hooks.inc("sweep.respawns")
        hooks.emit("sweep.respawn", reason=reason)
        # In-flight trials were innocent bystanders: back to the queue
        # with no retry charge (their outcomes are pure re-runs anyway).
        for other in list(inflight):
            waiting.appendleft(other)
        inflight.clear()
        try:
            pool = context.Pool(processes=count)
        except POOL_UNAVAILABLE_ERRORS as exc:
            stats.fallback_reason = repr(exc)
            hooks.inc("sweep.fallback")
            hooks.emit("sweep.fallback", reason=repr(exc),
                       stage="pool-respawn")
            return False
        return True

    try:
        while waiting or delayed or inflight:
            now = time.monotonic()
            if delayed:
                still_delayed = []
                for eligible_at, index in delayed:
                    if eligible_at <= now:
                        waiting.append(index)
                    else:
                        still_delayed.append((eligible_at, index))
                delayed = still_delayed
            # Bounded dispatch: never more than ``count`` trials in
            # flight, so every dispatched trial holds a pool worker and
            # its deadline clocks execution, not time spent queued — a
            # sweep longer than ``policy.timeout`` must not see healthy
            # queued trials declared hung.
            while waiting and len(inflight) < count:
                index = waiting.popleft()
                dispatched = time.monotonic()
                handle = pool.apply_async(
                    _run_envelope, ((worker, index, tasks[index]),))
                deadline = (dispatched + policy.timeout
                            if policy.timeout is not None else None)
                inflight[index] = (handle, deadline, dispatched)
            progressed = False
            pool_lost = False
            for index in list(inflight):
                handle, deadline, started = inflight[index]
                if handle.ready():
                    progressed = True
                    del inflight[index]
                    try:
                        _index, status, payload, detail = handle.get()
                    except Exception as exc:  # pool infra broke mid-result
                        # The result channel itself broke (worker killed
                        # hard enough to poison the pool): supervise it.
                        if fail(index, "error", repr(exc)):
                            delayed.append(
                                (now + policy.backoff_for(attempts[index]),
                                 index))
                        pool_lost = not respawn(f"result channel broke: "
                                                f"{exc!r}")
                        break
                    if status == "ok":
                        finish(index, payload, started)
                    else:
                        if fail(index, "error", payload, detail):
                            delayed.append(
                                (now + policy.backoff_for(attempts[index]),
                                 index))
                elif deadline is not None and time.monotonic() > deadline:
                    # Heartbeat missed: the worker is hung, or the OS
                    # killed it and the task will never complete.  Either
                    # way the pool slot is unrecoverable in place.
                    progressed = True
                    del inflight[index]
                    stats.timeouts += 1
                    hooks.inc("sweep.timeouts")
                    hooks.emit("sweep.timeout", index=index,
                               timeout_s=policy.timeout)
                    if fail(index, "timeout",
                            f"trial exceeded {policy.timeout:g}s wall-clock "
                            f"deadline"):
                        delayed.append(
                            (now + policy.backoff_for(attempts[index]), index))
                    pool_lost = not respawn(f"trial {index} missed its "
                                            f"{policy.timeout:g}s heartbeat")
                    break
            if pool_lost:
                run_inline(sorted(set(waiting) |
                                  {index for _, index in delayed}))
                waiting.clear()
                delayed = []
                break
            if not progressed and (waiting or delayed or inflight):
                sleep_for = policy.poll_interval
                if delayed:
                    sleep_for = min(sleep_for,
                                    max(delayed[0][0] - time.monotonic(), 0.0))
                if sleep_for > 0:
                    time.sleep(sleep_for)
    except BaseException:
        # TaskError (strict-mode abort) or the operator's ^C: either way
        # the workers must not outlive the orchestrator.
        pool.terminate()
        pool.join()
        raise
    else:
        pool.close()
        pool.join()
    return SweepOutcome(results=slots, failures=failures, stats=stats)


def run_tasks(worker: Callable[[T], R], tasks: Iterable[T], *,
              workers: Optional[int] = 1,
              policy: Optional[RunPolicy] = None,
              observer: Optional["Collector"] = None,
              checkpoint: Optional[str] = None,
              resume: bool = False,
              experiment: str = "sweep",
              seed: Optional[int] = None) -> List[R]:
    """Run ``worker(task)`` for every task; results in task order.

    The strict entry point: a trial that exhausts its retry budget raises
    :class:`TaskError` (task index + derived seed attached) instead of
    quarantining, so callers always get a *complete* results list.  Pass
    a ``policy`` to add per-trial timeouts/retries, an ``observer`` to
    surface sweep-health counters, and a ``checkpoint`` path to make the
    run resumable; the defaults behave like the classic bare runner.
    """
    strict = replace(policy or DEFAULT_POLICY, on_failure="raise")
    outcome = run_supervised(worker, tasks, workers=workers, policy=strict,
                             observer=observer, checkpoint=checkpoint,
                             resume=resume, experiment=experiment, seed=seed)
    return outcome.results
