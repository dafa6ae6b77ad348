"""Deterministic profiling: per-opcode cost attribution and guest
flamegraphs over the simulated clock.

The decode cache made the emulator faster, but only in aggregate —
nothing said *where* the remaining steps go.  This layer attributes
simulated cost with zero effect on outcomes, the same contract every
other run observer honors:

* **Per-opcode attribution** — each completed guest instruction costs
  exactly one step-budget unit, so an opcode's "cost" is its step count
  and its share of the run's budget.  Native (libc model) invocations
  cost one unit too and appear as ``native:<name>`` lines, which makes
  the profiler's summed step count equal the run loop's ``steps`` on
  the same run.
* **Per-address heat** — how often each guest pc executed.
* **Cache attribution** — the decode-cache deltas the run loop flushes
  into observer counters, recorded per cause (per-entry page-generation
  invalidation vs whole-cache mapping-epoch flush) so the profiler lines
  reconcile exactly with the ``decode_cache_*`` counters.
* **Guest stack samples** — every ``sample_interval`` completed steps
  the profiler reuses the postmortem return-address walk to capture the
  guest call stack, symbolizes it through the loader's symbol tables
  *at sample time* (ASLR re-randomizes per boot, so addresses are
  resolved while the mapping that produced them is live), and folds it
  into flamegraph.pl-compatible text.

Determinism model
-----------------

Sampling is counted in *completed guest steps*, and the counter is
reset at every run-loop entry, so sample points are a pure function of
the workload.  Every step reaches the profiler through ``on_insn`` or
``on_native``, so each sample sees the exact architectural state after
its step, and profiled runs are outcome-bit-identical to unprofiled
runs.

Worker merge mirrors :meth:`~repro.obs.spans.Tracer.adopt`: workers
ship a picklable :class:`ProfileData` snapshot and the parent folds
them in task order — pure counter addition, so a ``workers=N`` sweep's
merged profile is byte-identical to the sequential sweep's.

Wall-clock time never enters :class:`ProfileData`: real seconds per
layer come from the end-to-end benchmark (``benchmarks/e2e``), the same
split the sweep layer makes between deterministic results artifacts and
wall-dependent sweep telemetry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cpu.emulator import CACHE_COUNTERS, RunObserver
from .postmortem import _return_walk

PROFILE_SCHEMA = "repro-profile/v2"

#: Default stack-sampling period, in completed guest steps.  Prime, so
#: sample points do not phase-lock with loop bodies,
#: and small enough that the canonical attack scenario's short guest
#: runs (~90 steps of injected payload) still collect samples.
DEFAULT_SAMPLE_INTERVAL = 23

#: Heat-map rows kept in exports (full maps stay in
#: memory; exports cap so campaign artifacts stay small).
EXPORT_LIMIT = 64

#: The stable cache-attribution line names, in export order.  They are
#: exactly the counters the run loop reports to ``end_run``, so a test can
#: assert ``profiler.data.cache[name] == collector.metrics[name]``.
CACHE_LINES = CACHE_COUNTERS


class ProfileData:
    """The attribution state: plain picklable counters, adopt()-mergeable.

    Everything is a sum, so merging worker snapshots in task order is
    associative and reproduces the sequential profile exactly.
    """

    def __init__(self, sample_interval: int = 0):
        self.sample_interval = sample_interval
        #: mnemonic (or ``native:<name>``) -> completed steps.
        self.opcodes: Dict[str, int] = {}
        #: guest address -> times an instruction at it completed.
        self.heat: Dict[int, int] = {}
        #: cache-attribution lines (see :data:`CACHE_LINES`).
        self.cache: Dict[str, int] = {}
        #: folded guest stack (outermost-first frame names) -> samples.
        self.samples: Dict[Tuple[str, ...], int] = {}
        self.sample_count = 0
        self.steps = 0
        self.native_steps = 0
        self.runs = 0

    # -- merge -----------------------------------------------------------------

    def merge(self, other: "ProfileData") -> None:
        """Fold another profile in (pure counter addition)."""
        if other.sample_interval != self.sample_interval:
            raise ValueError(
                f"profile merge: sample_interval mismatch "
                f"{other.sample_interval} != {self.sample_interval}")
        for name, count in other.opcodes.items():
            self.opcodes[name] = self.opcodes.get(name, 0) + count
        for address, count in other.heat.items():
            self.heat[address] = self.heat.get(address, 0) + count
        for name, count in other.cache.items():
            self.cache[name] = self.cache.get(name, 0) + count
        for stack, count in other.samples.items():
            self.samples[stack] = self.samples.get(stack, 0) + count
        self.sample_count += other.sample_count
        self.steps += other.steps
        self.native_steps += other.native_steps
        self.runs += other.runs

    def copy(self) -> "ProfileData":
        """Deep-enough copy for shipping across a worker boundary."""
        data = ProfileData(self.sample_interval)
        data.opcodes = dict(self.opcodes)
        data.heat = dict(self.heat)
        data.cache = dict(self.cache)
        data.samples = dict(self.samples)
        data.sample_count = self.sample_count
        data.steps = self.steps
        data.native_steps = self.native_steps
        data.runs = self.runs
        return data

    # -- tables ----------------------------------------------------------------

    def opcode_table(self, top: Optional[int] = None) -> List[Tuple[str, int]]:
        """(mnemonic, steps) rows, hottest first; ties break lexically."""
        rows = sorted(self.opcodes.items(), key=lambda kv: (-kv[1], kv[0]))
        return rows[:top] if top is not None else rows

    def hot_addresses(self, top: Optional[int] = None) -> List[Tuple[int, int]]:
        rows = sorted(self.heat.items(), key=lambda kv: (-kv[1], kv[0]))
        return rows[:top] if top is not None else rows

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "sample_interval": self.sample_interval,
            "steps": self.steps,
            "native_steps": self.native_steps,
            "runs": self.runs,
            "opcodes": {name: count for name, count in self.opcode_table()},
            "heat": [
                {"address": address, "count": count}
                for address, count in self.hot_addresses(EXPORT_LIMIT)
            ],
            "heat_sites": len(self.heat),
            "cache": {
                name: self.cache.get(name, 0)
                for name in CACHE_LINES if name in self.cache
            },
            "sample_count": self.sample_count,
            "samples": {
                ";".join(stack): count
                for stack, count in sorted(self.samples.items())
            },
        }


class DeterministicProfiler(RunObserver):
    """A run observer: attach to a :class:`~repro.obs.Collector`
    (``attach_profiler``) or put it in ``Process.observers``.  Purely
    read-only over guest state: profiled runs are outcome-bit-identical
    to unprofiled runs."""

    def __init__(self, *, sample_interval: int = DEFAULT_SAMPLE_INTERVAL):
        if sample_interval < 0:
            raise ValueError(
                f"sample_interval cannot be negative: {sample_interval!r}")
        self.sample_interval = sample_interval
        self.data = ProfileData(sample_interval)
        self._since = 0
        self._tables: Tuple = ()

    # -- symbolization ---------------------------------------------------------

    def register_symbols(self, loaded) -> None:
        """Adopt a freshly-booted image's symbol tables.

        Called by the daemon on every (re)boot: ASLR re-slides libc per
        boot, so samples must resolve against the tables of the mapping
        they were taken under — which is why symbolization happens at
        sample time, not at export time.
        """
        self._tables = (loaded.binary.symbols, loaded.libc.symbols)

    def _symbolize(self, process, address: int) -> str:
        native = process.native_at(address)
        if native is not None:
            name = getattr(native, "name", None)
            return name if name else f"native@{address:#x}"
        try:
            segment = process.memory.segment_at(address)
        except Exception:
            segment = None
        best = None
        for table in self._tables:
            symbol = table.resolve(address)
            if symbol is None:
                continue
            if segment is not None and symbol.address < segment.base:
                # Size-0 symbols resolve as "closest preceding" with no
                # upper bound; a symbol from a lower segment must not
                # claim this address (e.g. a .text function "covering"
                # an injected-payload pc on the stack).
                continue
            if best is None or symbol.address > best.address:
                best = symbol
        if best is not None:
            return best.name
        if segment is not None:
            return segment.name
        return f"{address:#x}"

    # -- run observer ----------------------------------------------------------

    def begin_run(self, process) -> None:
        """Run-loop entry: reset the sampling phase.

        Sample points become a pure function of each run's step count,
        which is what makes a ``workers=N`` sweep's per-point profiles
        merge byte-identical to the sequential sweep's accumulation.
        """
        self._since = 0
        self.data.runs += 1

    def end_run(self, process, counters: Dict[str, int]) -> None:
        """Run-loop exit: fold in the run's cache-counter deltas and flush
        one final sample if steps ran since the last boundary, so short
        runs (the 12-step ARM payload) still contribute at least one stack.
        """
        if self.sample_interval and self._since:
            self._since = 0
            self._take_sample(process)
        cache = self.data.cache
        for name, delta in counters.items():
            cache[name] = cache.get(name, 0) + delta

    def on_insn(self, process, insn) -> None:
        """One guest instruction completed."""
        data = self.data
        data.steps += 1
        mnemonic = insn.mnemonic
        data.opcodes[mnemonic] = data.opcodes.get(mnemonic, 0) + 1
        address = insn.address
        data.heat[address] = data.heat.get(address, 0) + 1
        self._advance(process)

    def on_native(self, process, native, address: int) -> None:
        """One native (libc model) invocation completed (one step unit)."""
        data = self.data
        data.steps += 1
        data.native_steps += 1
        name = "native:" + (getattr(native, "name", None) or "?")
        data.opcodes[name] = data.opcodes.get(name, 0) + 1
        data.heat[address] = data.heat.get(address, 0) + 1
        self._advance(process)

    def _advance(self, process) -> None:
        """Count one completed step; sample the stack at each boundary."""
        if self.sample_interval:
            self._since += 1
            if self._since >= self.sample_interval:
                self._since = 0
                self._take_sample(process)

    def _take_sample(self, process) -> None:
        frames = [
            self._symbolize(process, entry["value"])
            for entry in reversed(_return_walk(process))
        ]
        frames.append(self._symbolize(process, process.pc))
        stack = tuple(frames)
        self.data.samples[stack] = self.data.samples.get(stack, 0) + 1
        self.data.sample_count += 1

    # -- merge / export --------------------------------------------------------

    def snapshot(self) -> ProfileData:
        """Picklable copy for shipping from a sweep worker to the parent."""
        return self.data.copy()

    def adopt(self, data: ProfileData) -> None:
        """Fold a worker's snapshot in (task order ⇒ sequential-identical)."""
        self.data.merge(data)

    def folded(self) -> str:
        return folded_stacks(self.data)

    def to_dict(self) -> dict:
        return self.data.to_dict()


# -- flamegraph export ---------------------------------------------------------


def folded_stacks(data: ProfileData) -> str:
    """flamegraph.pl-compatible folded text: ``frame;frame;leaf count``.

    Lines are sorted lexically by stack, so two equal profiles render
    byte-identical text regardless of accumulation order.
    """
    lines = [
        f"{';'.join(stack)} {count}"
        for stack, count in sorted(data.samples.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# -- text report ---------------------------------------------------------------


def render_profile(data: ProfileData, *, top: int = 10) -> str:
    """Deterministic text report: opcode and cache attribution tables."""
    lines = [
        f"deterministic profile: {data.steps} steps "
        f"({data.native_steps} native, {data.runs} runs)",
    ]
    total = data.steps or 1
    rows = data.opcode_table(top)
    if rows:
        lines.append(f"  top opcodes (of {len(data.opcodes)}):")
        width = max(len(name) for name, _ in rows)
        for name, count in rows:
            lines.append(
                f"    {name:<{width}}  {count:>10}  {100.0 * count / total:5.1f}%")
    if data.cache:
        lines.append("  cache attribution:")
        for name in CACHE_LINES:
            if name in data.cache:
                lines.append(f"    {name:<32} {data.cache[name]:>10}")
    lines.append(
        f"  stack samples: {data.sample_count} "
        f"(every {data.sample_interval} steps)"
        if data.sample_interval else "  stack samples: disabled")
    return "\n".join(lines)
