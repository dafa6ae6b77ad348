"""Declarative experiment registry: specs, grids, and the results artifact.

E1–E16 used to be hand-wired into ``cli.py``'s dispatch table — every new
paper scenario (fleet campaigns, the exploit × defense × arch matrix) had
to be re-plumbed through the CLI, chaos runner, report, and bench gate by
hand.  This module replaces the wiring with data:

* :class:`ExperimentSpec` — one experiment's declaration: id, title,
  parameter grid, seed-derivation rule, and expected-outcome
  predicate.  Registered with the :func:`register_experiment` decorator;
  the CLI resolves experiments from :data:`REGISTRY` instead of a
  hand-written table.
* :func:`run_experiment` — the grid orchestrator.  It expands a spec's
  parameter grid into seeded :class:`GridTrial`\\ s, shards them through
  the supervised runner (:func:`~repro.core.parallel.run_supervised`,
  which owns the checkpoint journal), and folds
  the positional results into an :class:`ExperimentRun`.  The parity
  invariant every prior PR preserved holds here too: trials carry their
  own derived seeds, so ``workers=N`` is bit-identical to sequential and
  a killed, ``--resume``\\ d grid reproduces the uninterrupted artifact
  byte for byte.
* the ``repro-results/v1`` columnar artifact — one JSONL row per trial
  (parameters, derived seed, outcome, metrics, full result table) that
  ``repro report --results`` reads.  Serialization lives in
  :mod:`repro.core.resume` next to the checkpoint journal.

Seed-derivation rule
--------------------

:func:`derive_seed` is the registry's one seed rule: crc32 over a
``/``-joined key of ``(experiment, entropy, run, role)``.  Arithmetic
seed stacking correlates adjacent trials — E15's historical
``attacker_seed = victim_seed + 1`` collided with the XOR-derived victim
seed of the neighboring run, silently sharing RNG streams between
trials.  A digest keyed by the full trial identity gives every role of
every trial an independent stream, and (unlike ``hash()``) is stable
across processes and PYTHONHASHSEED draws.
"""

from __future__ import annotations

import inspect
import itertools
import zlib
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Tuple)

from ..obs import Collector
from .parallel import DEFAULT_POLICY, RunPolicy, run_supervised
from .report import render_table
from .resume import RESULTS_SCHEMA, TrialFailure, grid_hash as compute_grid_hash

#: Harness parameters: how a sweep runs, never what it measures.  A runner
#: that accepts one of these gets it passed through from the orchestrator
#: (its own inner sweep then supervises and journals per trial); none of
#: them may be a grid axis or a ``--set`` parameter.
HARNESS_PARAMS = frozenset(
    {"workers", "checkpoint", "resume", "policy", "sweep_observer"})


def derive_seed(*parts: object) -> int:
    """The registry's seed rule: crc32 over ``(experiment, entropy, run,
    role)``-style key parts, joined with ``/``.

    Every consumer of trial randomness derives through this — registry
    grid trials, the E15 entropy sweep's victim/attacker streams — so no
    two (trial, role) pairs can collide the way XOR/``+1`` stacking did.
    """
    key = "/".join(str(part) for part in parts)
    return zlib.crc32(key.encode("utf-8")) & 0x7FFFFFFF


@dataclass(frozen=True)
class GridTrial:
    """One expanded grid point: the picklable unit the pool executes.

    ``params`` is a sorted tuple of ``(name, value)`` pairs (not a dict)
    so the trial is hashable and its ``repr`` — which feeds the
    checkpoint grid hash — is deterministic.
    """

    experiment: str
    index: int
    params: Tuple[Tuple[str, Any], ...]
    seed: int

    @property
    def derived_seed(self) -> int:
        """Failure-context seed (the supervised runner looks for this)."""
        return self.seed

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: everything the harness needs to run,
    shard, gate, and document it without hand-wiring.

    ``grid`` maps parameter names to candidate-value tuples; the default
    registrations pin each axis to the runner's default (one grid point,
    exactly the legacy call), and ``repro run --grid`` or
    :func:`run_experiment`'s ``grid=`` widen axes into real sweeps.
    :attr:`passthrough` is read off the runner's signature.
    """

    id: str
    title: str
    runner: Callable[..., Any]
    grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    entropy: int = 0
    #: Runner kwarg that receives the trial's derived seed (None: the
    #: runner self-seeds; the derived seed is provenance/failure context).
    seed_param: Optional[str] = None
    expected: Callable[[Any], bool] = field(default=lambda result: result.all_pass)
    expected_doc: str = "every row's expected column says ok"
    description: str = ""

    def grid_points(self, grid: Optional[Mapping[str, Sequence[Any]]] = None,
                    params: Optional[Mapping[str, Any]] = None
                    ) -> List[Dict[str, Any]]:
        """Expand the (possibly widened) grid into ordered param dicts.

        ``grid`` replaces whole axes (and may add new ones); ``params``
        pins single values.  Axis order is sorted-by-name and value order
        is as declared, so expansion order — and therefore trial indices,
        seeds, and the grid hash — is deterministic.
        """
        axes: Dict[str, Tuple[Any, ...]] = {name: values for name, values in self.grid}
        if grid:
            for name, values in grid.items():
                axes[name] = tuple(values)
        if params:
            for name, value in params.items():
                axes[name] = (value,)
        self._check_params(axes)
        names = sorted(axes)
        if not names:
            return [{}]
        return [dict(zip(names, combo))
                for combo in itertools.product(*(axes[name] for name in names))]

    @property
    def passthrough(self) -> FrozenSet[str]:
        """The :data:`HARNESS_PARAMS` the runner accepts: single-point runs
        hand these to the experiment's own inner sweep."""
        return HARNESS_PARAMS.intersection(
            inspect.signature(self.runner).parameters)

    def listed_passthrough(self) -> List[str]:
        """Passthrough as listed (``resume`` only qualifies ``checkpoint``)."""
        return sorted(self.passthrough - {"resume"})

    def _check_params(self, axes: Mapping[str, Any]) -> None:
        harness = sorted(HARNESS_PARAMS.intersection(axes))
        if harness:
            raise ValueError(
                f"{self.id}: {', '.join(harness)}: harness setting(s), not "
                "experiment parameters; use the matching CLI flag instead")
        accepted = sorted(set(inspect.signature(self.runner).parameters)
                          - HARNESS_PARAMS)
        unknown = [name for name in axes if name not in accepted]
        if unknown:
            raise ValueError(
                f"{self.id}: unknown parameter(s) {', '.join(sorted(unknown))} "
                f"(runner accepts: {', '.join(accepted)})")

    def trial_kwargs(self, trial: GridTrial) -> Dict[str, Any]:
        """The runner keyword arguments for one grid trial."""
        kwargs = trial.params_dict()
        if self.seed_param is not None:
            kwargs.setdefault(self.seed_param, trial.seed)
        return kwargs

    def trials(self, grid: Optional[Mapping[str, Sequence[Any]]] = None,
               params: Optional[Mapping[str, Any]] = None) -> List[GridTrial]:
        """The seeded trial list the orchestrator (and grid hash) run on."""
        return [
            GridTrial(
                experiment=self.id,
                index=index,
                params=tuple(sorted(point.items())),
                seed=derive_seed(self.id, self.entropy, index, "trial"),
            )
            for index, point in enumerate(self.grid_points(grid, params))
        ]

    @property
    def grid_hash(self) -> str:
        """Stable identity of the default grid (checkpoint/resume pin it)."""
        return compute_grid_hash(self.trials())

    def describe_row(self) -> Tuple:
        axes = ", ".join(f"{name}={list(values)!r}" for name, values in self.grid)
        return (
            self.id,
            self.title[:56],
            axes if axes else "-",
            len(self.grid_points()),
            ",".join(self.listed_passthrough()) or "-",
        )


#: The registry: experiment id -> spec, in registration (DESIGN.md) order.
REGISTRY: Dict[str, ExperimentSpec] = {}


def register_experiment(experiment_id: str, title: str, *,
                        grid: Optional[Mapping[str, Sequence[Any]]] = None,
                        entropy: Optional[int] = None,
                        seed_param: Optional[str] = None,
                        expected: Optional[Callable[[Any], bool]] = None,
                        expected_doc: str = "every row's expected column says ok",
                        description: str = ""):
    """Decorator: declare one experiment into :data:`REGISTRY`.

    The decorated runner is returned unchanged (legacy callers keep
    working); its spec is reachable as ``runner.spec`` and through
    :func:`get_experiment`.
    """
    def decorate(runner: Callable[..., Any]) -> Callable[..., Any]:
        if experiment_id in REGISTRY:
            raise ValueError(f"experiment {experiment_id!r} registered twice")
        doc = description
        if not doc and runner.__doc__:
            doc = runner.__doc__.strip().splitlines()[0]
        spec = ExperimentSpec(
            id=experiment_id,
            title=title,
            runner=runner,
            grid=tuple(sorted((name, tuple(values))
                              for name, values in (grid or {}).items())),
            entropy=(derive_seed("repro.experiments", experiment_id)
                     if entropy is None else entropy),
            seed_param=seed_param,
            expected=expected if expected is not None
            else (lambda result: result.all_pass),
            expected_doc=expected_doc,
            description=doc,
        )
        REGISTRY[experiment_id] = spec
        runner.spec = spec
        return runner
    return decorate


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Resolve one spec; raises ``KeyError`` naming the known ids."""
    _ensure_registered()
    spec = REGISTRY.get(experiment_id)
    if spec is None:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{', '.join(REGISTRY)}")
    return spec


def all_experiments() -> List[ExperimentSpec]:
    """Every registered spec, in registration order."""
    _ensure_registered()
    return list(REGISTRY.values())


def experiment_ids() -> List[str]:
    _ensure_registered()
    return list(REGISTRY)


def _ensure_registered() -> None:
    """Import the registrations (idempotent; matters for spawn workers)."""
    from . import experiments  # noqa: F401  (decorators populate REGISTRY)


def _run_grid_trial(trial: GridTrial) -> Any:
    """Pool worker: execute one grid point (module-level, picklable)."""
    _ensure_registered()
    spec = REGISTRY[trial.experiment]
    return spec.runner(**spec.trial_kwargs(trial))


# -- outcomes ----------------------------------------------------------------------


@dataclass
class TrialOutcome:
    """One grid trial's verdict: parameters, seed, result or quarantine."""

    index: int
    params: Dict[str, Any]
    seed: int
    result: Optional[Any] = None  # ExperimentResult when the trial ran
    failure: Optional[TrialFailure] = None
    expected_ok: bool = False

    @property
    def status(self) -> str:
        if self.failure is not None:
            return "quarantined"
        return "pass" if self.expected_ok else "fail"

    def row(self) -> Tuple:
        shown = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return (self.index, shown or "(defaults)", self.seed, self.status)

    def to_artifact_row(self) -> Dict[str, Any]:
        """One ``repro-results/v1`` line: parameters/seed/outcome/metrics."""
        return {
            "index": self.index,
            "params": self.params,
            "seed": self.seed,
            "outcome": self.status,
            "expected": self.expected_ok,
            "metrics": getattr(self.result, "metrics", None),
            "result": self.result.to_dict() if self.result is not None else None,
            "error": self.failure.to_dict() if self.failure is not None else None,
        }


@dataclass
class ExperimentRun:
    """A registry-driven run: trials + the quarantine count.

    ``trials`` is positional over the expanded grid (quarantined slots
    included), so the artifact and a resumed run line up row for row.
    ``quarantined`` counts every trial the sweep gave up on, grid points
    and an experiment's own inner trials alike.
    """

    spec: ExperimentSpec
    grid_hash: str
    trials: List[TrialOutcome]
    quarantined: int = 0

    @property
    def ok(self) -> bool:
        return self.quarantined == 0 and all(
            trial.failure is None and trial.expected_ok
            for trial in self.trials)

    @property
    def result(self):
        """The lone :class:`ExperimentResult` of a single-point run."""
        if len(self.trials) != 1:
            raise ValueError(
                f"{self.spec.id}: {len(self.trials)} trials — use .trials")
        return self.trials[0].result

    def describe(self) -> str:
        """Single-point runs render exactly like the legacy call; grids
        add per-trial parameter banners and a summary table."""
        if len(self.trials) == 1 and self.trials[0].result is not None:
            return self.trials[0].result.describe()
        sections = []
        for trial in self.trials:
            banner = ", ".join(f"{k}={v!r}" for k, v in sorted(trial.params.items()))
            sections.append(f"-- trial {trial.index} [{banner or 'defaults'}] --")
            if trial.result is not None:
                sections.append(trial.result.describe())
            else:
                sections.append(f"QUARANTINED {trial.failure.describe()}")
        sections.append(render_table(
            ("trial", "params", "seed", "outcome"),
            [trial.row() for trial in self.trials],
            title=f"{self.spec.id} grid summary ({len(self.trials)} trials, "
                  f"grid {self.grid_hash})",
        ))
        return "\n".join(sections)

    # -- the repro-results/v1 artifact -------------------------------------------

    def artifact_header(self) -> Dict[str, Any]:
        return {
            "schema": RESULTS_SCHEMA,
            "experiment": self.spec.id,
            "title": self.spec.title,
            "grid_hash": self.grid_hash,
            "total": len(self.trials),
            "seed": self.spec.entropy,
        }

    def artifact_rows(self) -> List[Dict[str, Any]]:
        return [trial.to_artifact_row() for trial in self.trials]

    def to_artifact(self) -> Dict[str, Any]:
        """The full document (header + rows) the CLI serializes/prints."""
        return {"header": self.artifact_header(), "rows": self.artifact_rows()}


def run_experiment(spec_or_id, *,
                   grid: Optional[Mapping[str, Sequence[Any]]] = None,
                   params: Optional[Mapping[str, Any]] = None,
                   workers: Optional[int] = 1,
                   policy: Optional[RunPolicy] = None,
                   checkpoint: Optional[str] = None,
                   resume: bool = False,
                   sweep_observer: Optional[Collector] = None) -> ExperimentRun:
    """Run one registered experiment through the grid orchestrator.

    Single-point grids whose runner accepts the requested harness
    facilities (:attr:`ExperimentSpec.passthrough`) delegate to the
    experiment's *inner* sweep (checkpointing
    at trial granularity — ``repro run E15 --checkpoint`` journals every
    brute-force trial, not one opaque blob).  Everything else fans the
    grid out over :func:`~repro.core.parallel.run_supervised`: trials are
    seeded and positional, ``workers=N`` reproduces sequential results
    bit for bit, and a ``checkpoint``-journaled run killed mid-grid
    resumes (``resume=True``) into a byte-identical artifact.

    Both paths count sweep health on ``sweep_observer`` (one is created
    when not supplied; :func:`~repro.core.parallel.describe_sweep_health`
    renders it); ``run.quarantined`` reads its quarantine count, so a
    trial the sweep gave up on fails ``run.ok`` even when the experiment
    builds its rows from the trials that finished.  Harness health never
    leaks into the deterministic artifact.
    """
    spec = (get_experiment(spec_or_id) if isinstance(spec_or_id, str)
            else spec_or_id)
    trials = spec.trials(grid, params)
    hash_ = compute_grid_hash(trials)
    observer = sweep_observer if sweep_observer is not None else Collector()

    harness = {"workers": workers, "checkpoint": checkpoint,
               "resume": resume, "policy": policy, "sweep_observer": observer}
    # Both paths honour workers and the health observer; a single point
    # goes inward only if its runner takes every facility requested.
    wants = {name for name in ("checkpoint", "resume", "policy")
             if harness[name]}
    inner = len(trials) == 1 and wants <= spec.passthrough

    outcomes: List[TrialOutcome]
    if inner:
        kwargs = spec.trial_kwargs(trials[0])
        kwargs.update((name, harness[name]) for name in spec.passthrough)
        result = spec.runner(**kwargs)
        outcomes = [TrialOutcome(
            index=0, params=trials[0].params_dict(), seed=trials[0].seed,
            result=result, expected_ok=bool(spec.expected(result)),
        )]
    else:
        outcome = run_supervised(
            _run_grid_trial, trials, workers=workers,
            policy=policy if policy is not None else DEFAULT_POLICY,
            observer=observer, checkpoint=checkpoint, resume=resume,
            experiment=f"{spec.id}.grid", seed=spec.entropy,
        )
        outcomes = []
        for trial, payload in zip(trials, outcome.results):
            if isinstance(payload, TrialFailure):
                outcomes.append(TrialOutcome(
                    index=trial.index, params=trial.params_dict(),
                    seed=trial.seed, failure=payload))
            else:
                outcomes.append(TrialOutcome(
                    index=trial.index, params=trial.params_dict(),
                    seed=trial.seed, result=payload,
                    expected_ok=bool(spec.expected(payload))))

    return ExperimentRun(spec=spec, grid_hash=hash_, trials=outcomes,
                         quarantined=observer.metrics.value("sweep.quarantined"))


# -- rendering helpers shared by the CLI (report) ----------------------------------


def render_registry_table() -> str:
    """`repro report --list`: the registry as a verdictless table."""
    return render_table(
        ("id", "title", "grid axes", "trials", "passthrough"),
        [spec.describe_row() for spec in all_experiments()],
        title=f"experiment registry ({len(REGISTRY)} experiments)",
    )


def registry_index_markdown() -> str:
    """The EXPERIMENTS.md registry index (regenerated, not hand-edited)."""
    lines = [
        "| Exp | Title | Grid axes | Passthrough |",
        "|---|---|---|---|",
    ]
    for spec in all_experiments():
        axes = ", ".join(f"`{name}`" for name, _values in spec.grid) or "—"
        passthrough = ", ".join(
            f"`{name}`" for name in spec.listed_passthrough()) or "—"
        lines.append(f"| {spec.id} | {spec.title} | {axes} | {passthrough} |")
    return "\n".join(lines)


def results_ok(rows: Sequence[Dict[str, Any]]) -> bool:
    """The artifact-level gate verdict ``repro report`` exits on."""
    return all(row["outcome"] == "pass" and row["expected"] for row in rows)
