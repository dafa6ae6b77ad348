"""Trial checkpointing and resumable sweeps.

A fleet-scale campaign is thousands-to-10^5 independent seeded trials; a
killed orchestrator must not throw away the completed ones.  This module
gives the sweep runner its durability layer:

* :class:`TrialFailure` — the typed quarantine record a trial collapses
  into when it exhausts its retry budget.  Sweeps degrade gracefully: a
  poison trial becomes one failure row, not an aborted campaign.
* :class:`TaskError` — the strict-mode exception, carrying the task
  index and derived seed so "a worker raised" is never anonymous.
* :class:`SweepCheckpoint` — an append-only JSONL journal of completed
  trials keyed by ``(experiment id, grid hash, trial index)``.  Because
  every trial is a pure function of its seeded spec, replaying the
  journal plus re-executing only the missing indices reproduces an
  uninterrupted sweep's results byte for byte.

Journal format (one JSON object per line)::

    {"schema": "repro-sweep-checkpoint/v1", "experiment": ..., "grid_hash":
     ..., "total": N, "seed": ...}          # header, written once
    {"index": 3, "crc": 1234, "payload": "<base64 pickle>"}   # per trial

The header pins the sweep identity: resuming against a different grid
(different rates, seeds, budgets — anything that changes a task spec)
raises :class:`CheckpointMismatch` instead of silently mixing results.
Each trial line is flushed and fsync'd before the next trial dispatches,
and the loader ignores a truncated trailing line, so a SIGKILL at any
moment loses at most the trial being journaled.

Trust model: the per-line CRC32 is an *integrity* check (torn writes,
bit rot), not authentication — anyone who can edit the journal can
recompute it.  Payloads are therefore decoded with a restricted
unpickler whose ``find_class`` only resolves classes from the ``repro``
package (plus a handful of value-type builtins), so resuming from a
tampered or attacker-supplied ``--resume`` file raises
``UnpicklingError`` instead of executing arbitrary code.

The ``REPRO_SWEEP_KILL_AFTER=N`` environment knob SIGKILLs the process
(and its pool workers) right after the N-th trial is journaled — the
deterministic mid-sweep crash the resume tests and the CI resume smoke
are built on.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional

CHECKPOINT_SCHEMA = "repro-sweep-checkpoint/v1"

#: Columnar results artifact: one JSONL row per grid trial.
RESULTS_SCHEMA = "repro-results/v1"

#: Environment knob: SIGKILL the sweep after journaling this many trials.
KILL_AFTER_ENV = "REPRO_SWEEP_KILL_AFTER"


@dataclass(frozen=True)
class TrialFailure:
    """One quarantined trial: retry budget exhausted, sweep continued.

    Occupies the trial's positional slot in a supervised sweep's results
    so downstream consumers can tell *which* trial degraded; ``seed`` is
    the task's ``derived_seed`` when the task spec exposes one.
    """

    index: int
    kind: str  # "error" | "timeout"
    attempts: int
    error: str
    seed: Optional[int] = None
    task: str = ""
    traceback: str = ""

    def describe(self) -> str:
        where = f"task {self.index}"
        if self.seed is not None:
            where += f" (seed {self.seed})"
        return (f"{where} quarantined after {self.attempts} attempt(s): "
                f"{self.kind}: {self.error}")

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "attempts": self.attempts,
            "error": self.error,
            "seed": self.seed,
            "task": self.task,
        }


class TaskError(RuntimeError):
    """Strict-mode sweep abort: carries the failing task's identity.

    The pre-resilience runner re-raised a bare worker exception with no
    indication of which task or seed died; this wrapper pins both.
    """

    def __init__(self, failure: TrialFailure):
        self.failure = failure
        super().__init__(failure.describe())

    @property
    def index(self) -> int:
        return self.failure.index

    @property
    def seed(self) -> Optional[int]:
        return self.failure.seed


def grid_hash(tasks: Iterable[Any]) -> str:
    """Stable digest of a sweep's full task grid.

    Task specs are tuples/frozen dataclasses of primitives, so their
    ``repr`` is deterministic across processes and sessions — unlike
    ``hash()``, which PYTHONHASHSEED perturbs.  Any change to the grid
    (an extra rate, a different seed or budget) changes the digest and
    invalidates old checkpoints.
    """
    digest = hashlib.sha256()
    for task in tasks:
        digest.update(repr(task).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


class CheckpointMismatch(ValueError):
    """A checkpoint journal that does not match the sweep being resumed."""


def _encode_payload(result: Any) -> Dict[str, Any]:
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "crc": binascii.crc32(blob) & 0xFFFFFFFF,
        "payload": base64.b64encode(blob).decode("ascii"),
    }


#: Value-type builtins a trial payload may legitimately reference via
#: ``find_class`` (containers/scalars with dedicated opcodes never hit it).
_SAFE_BUILTINS = frozenset({"set", "frozenset", "complex", "bytearray"})


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that only resolves globals from this codebase.

    A journal's CRC proves the line survived a torn write, not that it
    came from a trusted run — a hostile ``--resume`` file can carry a
    valid CRC over a malicious pickle.  Refusing every global outside
    the ``repro`` package (and a short builtins allowlist) turns that
    from arbitrary code execution into an ``UnpicklingError``.  Dotted
    names are rejected outright: protocol ≥4 resolves them attribute by
    attribute, which would reach modules *imported by* repro (e.g.
    ``repro.core.resume`` + ``os.kill``).
    """

    def find_class(self, module: str, name: str) -> Any:
        if "." not in name:
            if module == "repro" or module.startswith("repro."):
                return super().find_class(module, name)
            if module == "builtins" and name in _SAFE_BUILTINS:
                return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"checkpoint payload references {module}.{name}, outside the "
            "repro allowlist — refusing to resume from an untrusted journal")


def _decode_payload(record: Dict[str, Any]) -> Any:
    blob = base64.b64decode(record["payload"].encode("ascii"))
    if (binascii.crc32(blob) & 0xFFFFFFFF) != record["crc"]:
        raise ValueError(f"trial {record.get('index')}: payload crc mismatch")
    return _RestrictedUnpickler(io.BytesIO(blob)).load()


class SweepCheckpoint:
    """Append-only JSONL journal of a sweep's completed trials.

    ``resume=False`` starts a fresh journal (truncating any stale file);
    ``resume=True`` loads completed trials from an existing journal after
    validating that its header matches this sweep's identity, then keeps
    appending.  A missing or empty file resumes to "nothing completed
    yet", so retrying a run that died before its first trial just works.
    """

    def __init__(self, path: str, *, experiment: str, grid_hash: str,
                 total: int, seed: Optional[int] = None, resume: bool = False):
        self.path = path
        self.experiment = experiment
        self.grid_hash = grid_hash
        self.total = total
        self.seed = seed
        #: Trials already completed in a previous run (index -> result).
        self.completed: Dict[int, Any] = {}
        #: Trials journaled by *this* run (the kill-knob counts these).
        self.recorded = 0
        #: Whether _load saw a valid header — NOT inferable from
        #: ``completed``: a run killed before its first trial leaves a
        #: header-only journal, and appending a second header would break
        #: the "header written once" invariant.
        self._header_seen = False
        if resume and os.path.exists(path):
            self._load()
        header_needed = not self._header_seen
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a" if resume else "w", encoding="utf-8")
        if header_needed:
            self._append({
                "schema": CHECKPOINT_SCHEMA,
                "experiment": experiment,
                "grid_hash": grid_hash,
                "total": total,
                "seed": seed,
            })

    # -- loading ---------------------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            raise CheckpointMismatch(
                f"checkpoint {self.path}: unreadable header line")
        for key, expected in (("schema", CHECKPOINT_SCHEMA),
                              ("experiment", self.experiment),
                              ("grid_hash", self.grid_hash),
                              ("total", self.total)):
            if header.get(key) != expected:
                raise CheckpointMismatch(
                    f"checkpoint {self.path}: {key} mismatch "
                    f"({header.get(key)!r} != {expected!r}) — the journal "
                    "belongs to a different sweep; remove it or fix the args")
        self._header_seen = True
        for line in lines[1:]:
            try:
                record = json.loads(line)
                index = record["index"]
                result = _decode_payload(record)
            except (json.JSONDecodeError, KeyError, ValueError,
                    binascii.Error, pickle.UnpicklingError):
                # A SIGKILL mid-write leaves at most one torn trailing
                # line; that trial simply re-executes.
                continue
            if isinstance(index, int) and 0 <= index < self.total:
                self.completed[index] = result

    # -- journaling ------------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, index: int, result: Any) -> None:
        """Durably journal one completed trial, then honor the kill knob."""
        self._append({"index": index, **_encode_payload(result)})
        self.recorded += 1
        self._maybe_die()

    def _maybe_die(self) -> None:
        raw = os.environ.get(KILL_AFTER_ENV, "")
        try:
            kill_after = int(raw) if raw else 0
        except ValueError:
            kill_after = 0
        if kill_after and self.recorded >= kill_after:
            # The deterministic mid-sweep crash: take the pool down too so
            # the interrupted run leaks no orphaned workers, then die the
            # hard way — no atexit, no flushing, exactly like the OOM
            # killer or a pulled plug.
            for child in multiprocessing.active_children():
                try:
                    os.kill(child.pid, signal.SIGKILL)
                except OSError:  # pragma: no cover - already gone
                    pass
            os.kill(os.getpid(), signal.SIGKILL)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# -- the repro-results/v1 artifact ---------------------------------------------
#
# The registry orchestrator's output format: a header line pinning the
# experiment identity plus one JSON object per trial
# (index/params/seed/outcome/expected/metrics/result/error).  Unlike the
# checkpoint journal it carries no pickles — plain JSON that ``repro report
# --results`` or an external notebook can read — and it is written
# canonically (sorted keys, no timestamps), so a resumed sweep's artifact
# is byte-identical to the uninterrupted run's.

#: header field -> required type
_RESULTS_HEADER_FIELDS = (
    ("schema", str), ("experiment", str), ("title", str),
    ("grid_hash", str), ("total", int), ("seed", int),
)

_RESULTS_ROW_FIELDS = (
    ("index", int), ("params", dict), ("seed", int), ("outcome", str),
    ("expected", bool),
)

_RESULTS_OUTCOMES = ("pass", "fail", "quarantined")


def _results_line(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True)


def validate_results(header: Dict[str, Any],
                     rows: Iterable[Dict[str, Any]]) -> None:
    """Schema-check one artifact document; ``ValueError`` names the
    offending row and field."""
    for field_name, kind in _RESULTS_HEADER_FIELDS:
        value = header.get(field_name)
        if not isinstance(value, kind) or (
                kind is int and isinstance(value, bool)):
            raise ValueError(
                f"results header: field {field_name!r} must be "
                f"{kind.__name__}, got {value!r}")
    if header["schema"] != RESULTS_SCHEMA:
        raise ValueError(
            f"results header: schema {header['schema']!r} is not "
            f"{RESULTS_SCHEMA!r}")
    rows = list(rows)
    if header["total"] != len(rows):
        raise ValueError(
            f"results header: total={header['total']} but artifact carries "
            f"{len(rows)} row(s)")
    for position, row in enumerate(rows):
        for field_name, kind in _RESULTS_ROW_FIELDS:
            value = row.get(field_name)
            if not isinstance(value, kind) or (
                    kind is int and isinstance(value, bool)):
                raise ValueError(
                    f"results row {position}: field {field_name!r} must be "
                    f"{kind.__name__}, got {value!r}")
        if row["index"] != position:
            raise ValueError(
                f"results row {position}: index {row['index']} out of order")
        if row["outcome"] not in _RESULTS_OUTCOMES:
            raise ValueError(
                f"results row {position}: outcome {row['outcome']!r} not in "
                f"{_RESULTS_OUTCOMES}")
        if row["outcome"] == "quarantined":
            if row.get("error") is None:
                raise ValueError(
                    f"results row {position}: quarantined trial carries no "
                    "error record")
        elif not isinstance(row.get("result"), dict):
            raise ValueError(
                f"results row {position}: completed trial carries no result "
                "payload")


def write_results(path: str, header: Dict[str, Any],
                  rows: Iterable[Dict[str, Any]]) -> None:
    """Write one validated artifact (canonical JSONL: header, then rows)."""
    rows = list(rows)
    validate_results(header, rows)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_results_line(header) + "\n")
        for row in rows:
            handle.write(_results_line(row) + "\n")


def load_results(path: str):
    """Read and validate one artifact; returns ``(header, rows)``."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValueError(f"results artifact {path}: empty file")
    try:
        header = json.loads(lines[0])
        rows = [json.loads(line) for line in lines[1:] if line.strip()]
    except json.JSONDecodeError as exc:
        raise ValueError(f"results artifact {path}: unreadable JSON: {exc}")
    if not isinstance(header, dict):
        raise ValueError(f"results artifact {path}: header is not an object")
    validate_results(header, rows)
    return header, rows


def load_checkpoint_results(path: str) -> Dict[int, Any]:
    """Read a journal's completed trials without opening it for append."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    completed: Dict[int, Any] = {}
    for line in lines[1:]:
        try:
            record = json.loads(line)
            completed[record["index"]] = _decode_payload(record)
        except (json.JSONDecodeError, KeyError, ValueError,
                binascii.Error, pickle.UnpicklingError):
            continue
    return completed
