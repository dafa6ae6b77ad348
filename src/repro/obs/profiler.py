"""Deterministic profiling: per-opcode/per-block cost attribution and
guest flamegraphs over the simulated clock.

The decode cache (PR 3) and superblock translation (PR 7) made the
emulator faster, but only in aggregate — nothing said *where* the
remaining cycles go.  This layer attributes simulated cost with zero
effect on outcomes, the same contract every other ``observer=`` hook
honors:

* **Per-opcode attribution** — each completed guest instruction costs
  exactly one step-budget unit, so an opcode's "cost" is its step count
  and its share of the run's budget.  Native (libc model) invocations
  cost one unit too and appear as ``native:<name>`` lines, which makes
  the profiler's summed step count equal the run loop's ``steps`` on
  the same run, with blocks on or off.
* **Per-address heat** — how often each guest pc executed (the map a
  JIT-threshold or trace-selection heuristic would consume).
* **Per-superblock economics** — dispatches, executed steps, and
  rebuild count per block entry, so compile cost can be amortized
  against execution (``steps / builds``).
* **Cache attribution** — the same decode/block cache deltas the run
  loop flushes into observer counters, recorded per cause (per-entry
  page-generation invalidation vs whole-cache mapping-epoch flush vs
  native-registration flush) so the profiler lines reconcile exactly
  with the ``decode_cache_*`` / ``block_cache_*`` counters.
* **Guest stack samples** — every ``sample_interval`` completed steps
  the profiler reuses the postmortem return-address walk to capture the
  guest call stack, symbolizes it through the loader's symbol tables
  *at sample time* (ASLR re-randomizes per boot, so addresses are
  resolved while the mapping that produced them is live), and folds it
  into flamegraph.pl-compatible text and speedscope JSON.

Determinism model
-----------------

Sampling is counted in *completed guest steps*, and the counter is
reset at every run-loop entry, so sample points are a pure function of
the workload.  Block dispatch **stays enabled** under profiling (unlike
tracing and taint, which force the per-instruction path): a compiled
block carries its mnemonic/address line, the run loop reports how many
of its instructions completed, and the profiler sums them into the same
per-opcode lines single-stepping would produce.  The one interaction is :meth:`~DeterministicProfiler.
admits_block` — a block that would *cross* a sample boundary is
declined, so the run loop single-steps up to the boundary and every
sample observes the exact architectural state the per-step path would
have had.  Folded stacks and opcode tables are therefore byte-identical
with blocks on or off, and profiled runs are outcome-bit-identical to
unprofiled runs.

Worker merge mirrors :meth:`~repro.obs.spans.Tracer.adopt`: workers
ship a picklable :class:`ProfileData` snapshot and the parent folds
them in task order — pure counter addition, so a ``workers=N`` sweep's
merged profile is byte-identical to the sequential sweep's.

Wall-clock time never enters :class:`ProfileData`: real seconds per
layer come from the end-to-end benchmark (``benchmarks/e2e``), the same
split PR 6 made between deterministic results artifacts and
wall-dependent sweep telemetry.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .postmortem import _return_walk

PROFILE_SCHEMA = "repro-profile/v1"

#: Default stack-sampling period, in completed guest steps.  Prime, so
#: sample points do not phase-lock with loop bodies or block lengths,
#: and small enough that the canonical attack scenario's short guest
#: runs (~90 steps of injected payload) still collect samples.
DEFAULT_SAMPLE_INTERVAL = 23

#: Heat-map and block-table rows kept in exports (full maps stay in
#: memory; exports cap so campaign artifacts stay small).
EXPORT_LIMIT = 64

#: The stable cache-attribution line names, in export order.  They are
#: exactly the observer counters the run loop flushes, so a test can
#: assert ``profiler.data.cache[name] == collector.metrics[name]``.
CACHE_LINES = (
    "decode_cache_hits",
    "decode_cache_misses",
    "decode_cache_invalidations",
    "decode_cache_epoch_flushes",
    "block_cache_hits",
    "block_cache_misses",
    "block_cache_invalidations",
    "block_cache_epoch_flushes",
    "block_cache_native_flushes",
)


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
        #: block entry address -> {"length", "dispatches", "steps", "builds"}.
        self.blocks: Dict[int, Dict[str, int]] = {}
        #: cache-attribution lines (see :data:`CACHE_LINES`).
        self.cache: Dict[str, int] = {}
        #: folded guest stack (outermost-first frame names) -> samples.
        self.samples: Dict[Tuple[str, ...], int] = {}
        self.sample_count = 0
        self.steps = 0
        self.native_steps = 0
        self.block_steps = 0
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
        for entry, stats in other.blocks.items():
            mine = self.blocks.get(entry)
            if mine is None:
                self.blocks[entry] = dict(stats)
            else:
                mine["length"] = stats["length"]
                for key in ("dispatches", "steps", "builds"):
                    mine[key] += stats[key]
        for name, count in other.cache.items():
            self.cache[name] = self.cache.get(name, 0) + count
        for stack, count in other.samples.items():
            self.samples[stack] = self.samples.get(stack, 0) + count
        self.sample_count += other.sample_count
        self.steps += other.steps
        self.native_steps += other.native_steps
        self.block_steps += other.block_steps
        self.runs += other.runs

    def copy(self) -> "ProfileData":
        """Deep-enough copy for shipping across a worker boundary."""
        data = ProfileData(self.sample_interval)
        data.opcodes = dict(self.opcodes)
        data.heat = dict(self.heat)
        data.blocks = {entry: dict(stats) for entry, stats in self.blocks.items()}
        data.cache = dict(self.cache)
        data.samples = dict(self.samples)
        data.sample_count = self.sample_count
        data.steps = self.steps
        data.native_steps = self.native_steps
        data.block_steps = self.block_steps
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

    def block_table(self, top: Optional[int] = None) -> List[Dict[str, int]]:
        """Per-block economics, hottest (most executed steps) first."""
        rows = [
            {"entry": entry, **stats}
            for entry, stats in sorted(
                self.blocks.items(), key=lambda kv: (-kv[1]["steps"], kv[0]))
        ]
        return rows[:top] if top is not None else rows

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "sample_interval": self.sample_interval,
            "steps": self.steps,
            "native_steps": self.native_steps,
            "block_steps": self.block_steps,
            "runs": self.runs,
            "opcodes": {name: count for name, count in self.opcode_table()},
            "heat": [
                {"address": address, "count": count}
                for address, count in self.hot_addresses(EXPORT_LIMIT)
            ],
            "heat_sites": len(self.heat),
            "blocks": self.block_table(EXPORT_LIMIT),
            "blocks_total": len(self.blocks),
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


class DeterministicProfiler:
    """Attach to a :class:`~repro.obs.Collector` (``attach_profiler``) or
    directly to a ``Process`` (``process.profiler``); the run loop feeds
    it.  Purely read-only over guest state: profiled runs are
    outcome-bit-identical to unprofiled runs."""

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

    # -- run-loop hooks --------------------------------------------------------

    def begin_run(self) -> None:
        """Run-loop entry: reset the sampling phase.

        Sample points become a pure function of each run's step count,
        which is what makes a ``workers=N`` sweep's per-point profiles
        merge byte-identical to the sequential sweep's accumulation.
        """
        self._since = 0
        self.data.runs += 1

    def end_run(self, process) -> None:
        """Run-loop exit: flush one final sample if steps ran since the
        last boundary (the run-end analog of ``Collector.sample()``).

        Guest state at run exit is pinned identical with blocks on or
        off, so the flush sample is too — and short runs (the 12-step
        ARM payload) still contribute at least one stack.
        """
        if self.sample_interval and self._since:
            self._since = 0
            self._take_sample(process)

    def admits_block(self, length: int) -> bool:
        """May a whole block of ``length`` instructions run before the
        next sample boundary?  A block that would cross it is declined —
        the run loop single-steps instead, so the sample is taken at the
        exact architectural state the per-step path produces."""
        return (self.sample_interval == 0
                or self._since + length <= self.sample_interval)

    def record_insn(self, process, insn) -> None:
        """One interpreter-path instruction completed."""
        data = self.data
        data.steps += 1
        mnemonic = insn.mnemonic
        data.opcodes[mnemonic] = data.opcodes.get(mnemonic, 0) + 1
        address = insn.address
        data.heat[address] = data.heat.get(address, 0) + 1
        if self.sample_interval:
            self._since += 1
            if self._since >= self.sample_interval:
                self._since = 0
                self._take_sample(process)

    def record_native(self, process, native, address: int) -> None:
        """One native (libc model) invocation completed (one step unit)."""
        data = self.data
        data.steps += 1
        data.native_steps += 1
        name = "native:" + (getattr(native, "name", None) or "?")
        data.opcodes[name] = data.opcodes.get(name, 0) + 1
        data.heat[address] = data.heat.get(address, 0) + 1
        if self.sample_interval:
            self._since += 1
            if self._since >= self.sample_interval:
                self._since = 0
                self._take_sample(process)

    def record_block(self, process, block, executed: int) -> None:
        """A block dispatch completed ``executed`` of its instructions.

        Summed into the same per-opcode/per-address lines the per-step
        path produces.  ``admits_block`` guaranteed no sample boundary
        falls strictly inside the block, so at most the *final*
        instruction lands on one — at which point guest state is exactly
        the per-step state after that instruction.
        """
        data = self.data
        stats = data.blocks.get(block.entry)
        if stats is None:
            stats = data.blocks[block.entry] = {
                "length": block.length, "dispatches": 0, "steps": 0,
                "builds": 0,
            }
        stats["length"] = block.length
        stats["dispatches"] += 1
        stats["steps"] += executed
        data.steps += executed
        data.block_steps += executed
        opcodes = data.opcodes
        heat = data.heat
        mnemonics = block.mnemonics
        addresses = block.addresses
        for index in range(executed):
            mnemonic = mnemonics[index]
            opcodes[mnemonic] = opcodes.get(mnemonic, 0) + 1
            address = addresses[index]
            heat[address] = heat.get(address, 0) + 1
        if self.sample_interval:
            self._since += executed
            if self._since >= self.sample_interval:
                self._since = 0
                self._take_sample(process)

    def record_build(self, block) -> None:
        """A block was (re)compiled: charge its entry's amortization line."""
        stats = self.data.blocks.get(block.entry)
        if stats is None:
            stats = self.data.blocks[block.entry] = {
                "length": block.length, "dispatches": 0, "steps": 0,
                "builds": 0,
            }
        stats["length"] = block.length
        stats["builds"] += 1

    def record_cache(self, deltas: Dict[str, int]) -> None:
        """Run-loop exit: fold in this run's cache-counter deltas."""
        cache = self.data.cache
        for name, delta in deltas.items():
            cache[name] = cache.get(name, 0) + delta

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

    def speedscope(self, *, name: str = "repro profile") -> dict:
        return speedscope_document(self.data, name=name)

    def to_dict(self) -> dict:
        return self.data.to_dict()


# -- flamegraph exports --------------------------------------------------------


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


def speedscope_document(data: ProfileData, *,
                        name: str = "repro profile") -> dict:
    """A speedscope.app sampled-profile document (file-format-schema)."""
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []
    samples: List[List[int]] = []
    weights: List[int] = []
    for stack, count in sorted(data.samples.items()):
        indices = []
        for frame in stack:
            index = frame_index.get(frame)
            if index is None:
                index = frame_index[frame] = len(frames)
                frames.append({"name": frame})
            indices.append(index)
        samples.append(indices)
        weights.append(count)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "none",
                "startValue": 0,
                "endValue": sum(weights),
                "samples": samples,
                "weights": weights,
            }
        ],
        "exporter": "repro profile",
        "activeProfileIndex": 0,
    }


def validate_speedscope(payload: Any) -> int:
    """Schema check for the speedscope documents we emit.

    Returns the total sample count; raises :class:`ValueError` naming
    the first violation.  CI runs every exported document through it.
    """
    if not isinstance(payload, dict):
        raise ValueError("speedscope: top level must be an object")
    if payload.get("$schema") != "https://www.speedscope.app/file-format-schema.json":
        raise ValueError("speedscope: missing/unknown $schema")
    shared = payload.get("shared")
    if not isinstance(shared, dict) or not isinstance(shared.get("frames"), list):
        raise ValueError("speedscope: 'shared.frames' must be an array")
    frames = shared["frames"]
    for index, frame in enumerate(frames):
        if not isinstance(frame, dict) or not isinstance(frame.get("name"), str):
            raise ValueError(f"speedscope: frame #{index} must have a string name")
    profiles = payload.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ValueError("speedscope: 'profiles' must be a non-empty array")
    total = 0
    for pindex, profile in enumerate(profiles):
        if not isinstance(profile, dict) or profile.get("type") != "sampled":
            raise ValueError(f"speedscope: profile #{pindex} must be sampled")
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            raise ValueError(
                f"speedscope: profile #{pindex} samples/weights must be arrays")
        if len(samples) != len(weights):
            raise ValueError(
                f"speedscope: profile #{pindex} has {len(samples)} samples "
                f"but {len(weights)} weights")
        for sindex, stack in enumerate(samples):
            if not isinstance(stack, list):
                raise ValueError(
                    f"speedscope: profile #{pindex} sample #{sindex} "
                    f"must be an array of frame indices")
            for frame in stack:
                if not isinstance(frame, int) or not 0 <= frame < len(frames):
                    raise ValueError(
                        f"speedscope: profile #{pindex} sample #{sindex} "
                        f"frame index {frame!r} out of range")
        if profile.get("endValue") != sum(weights):
            raise ValueError(
                f"speedscope: profile #{pindex} endValue must equal the "
                f"weight sum")
        total += len(samples)
    json.dumps(payload)  # must be serializable end to end
    return total


# -- text report ---------------------------------------------------------------


def render_profile(data: ProfileData, *, top: int = 10) -> str:
    """Deterministic text report: opcode/block/cache attribution tables."""
    lines = [
        f"deterministic profile: {data.steps} steps "
        f"({data.block_steps} via blocks, {data.native_steps} native, "
        f"{data.runs} runs)",
    ]
    total = data.steps or 1
    rows = data.opcode_table(top)
    if rows:
        lines.append(f"  top opcodes (of {len(data.opcodes)}):")
        width = max(len(name) for name, _ in rows)
        for name, count in rows:
            lines.append(
                f"    {name:<{width}}  {count:>10}  {100.0 * count / total:5.1f}%")
    blocks = data.block_table(top)
    if blocks:
        lines.append(
            f"  hot blocks (of {len(data.blocks)}): "
            f"entry len dispatches steps builds steps/build")
        for row in blocks:
            amortized = (row["steps"] / row["builds"]) if row["builds"] else 0.0
            lines.append(
                f"    {row['entry']:#010x} {row['length']:>3} "
                f"{row['dispatches']:>10} {row['steps']:>8} "
                f"{row['builds']:>6} {amortized:>11.1f}")
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
