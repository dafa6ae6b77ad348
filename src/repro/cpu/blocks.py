"""Superblock translation: straight-line blocks compiled over the decode cache.

The decode cache (:mod:`repro.cpu.cache`) removed re-decoding from the
fetch–decode–execute loop; what remains is per-instruction *dispatch* — a
native-table probe, a cache probe with per-page validation, and a long
mnemonic if/elif chain for every single step.  This layer ends that: it
groups decoded instructions into straight-line basic blocks ("superblocks")
and compiles each block once into a tuple of specialized Python closures —
consecutive handler calls with operands pre-extracted, memory/register
accessors hoisted at compile time, and dead flag computation elided — so
steady-state execution is one cache probe per *block* followed by plain
closure calls.

A block ends at

* any control transfer (branch, call, return, syscall, trap, or — on ARM —
  any instruction that may write the pc),
* an address with a registered native (libc/PLT) handler, which the run
  loop must dispatch itself,
* the page boundary after the entry page (keeps the invalidation span per
  block to the entry page plus at most one straddled neighbour), or
* :data:`MAX_BLOCK_LEN` instructions.

Validity mirrors the decode cache exactly, because blocks are derived from
the same decoded bytes: an entry is keyed by its entry address and stamped
with the ``mapping_epoch``, the write generations of every page the block's
bytes span (via ``AddressSpace.page_generation_span``), and the process's
``native_version`` (a native registered mid-block must not be skipped).
Self-modifying code is handled at two points: a stale block is dropped on
lookup (generation mismatch), and a *store inside the block* re-checks the
block's own pages immediately after writing, bailing out mid-block so the
remaining instructions re-decode — the same bytes the per-step path would
have executed.

The contract is the decode cache's, one level up: outcomes, traces, step
counts, budget exhaustion, crash postmortems (including register/flag
state at the fault), and W^X / code-injection verdicts are bit-identical
with blocks on or off, at any worker count (``tests/test_block_translation``
pins it).  Runs with a per-step observer attached (trace recorder, taint
engine) fall back to per-instruction dispatch so observation stays exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..mem import MemoryFault
from ..mem.space import PAGE_SHIFT
from .events import CpuError
from .isa import Instruction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .emulator import Emulator
    from .process import Process

#: Longest block, in instructions.  Bounds compile cost per entry and keeps
#: the budget-checkpoint fallback (a block never executes past the step
#: budget) from starving the tail of a run.
MAX_BLOCK_LEN = 64


class BlockInvalidated(Exception):
    """Internal bail signal: a store inside the block hit the block's own
    pages, so the remaining instructions must re-decode.  Never escapes
    :meth:`Block.execute`."""


class Block:
    """One compiled straight-line block: consecutive specialized closures.

    ``ops[i]`` executes instruction ``i`` with the exact architectural
    semantics of the interpreter (including the per-instruction pc commit,
    so a fault or bail mid-block leaves the same register state the
    per-step path would).  ``executed`` is only meaningful right after an
    exception escaped :meth:`execute` — it carries the completed-step
    count for the run loop's budget accounting.
    """

    __slots__ = ("entry", "length", "ops", "page_gens", "executed",
                 "mnemonics", "addresses")

    def __init__(self, entry: int, ops: Tuple, page_gens: Tuple[Tuple[int, int], ...],
                 mnemonics: Tuple[str, ...] = (), addresses: Tuple[int, ...] = ()):
        self.entry = entry
        self.ops = ops
        self.length = len(ops)
        self.page_gens = page_gens
        self.executed = 0
        #: Per-instruction attribution lines (parallel to ``ops``), so the
        #: profiler can sum a block dispatch into the same per-opcode /
        #: per-address counters the per-step path produces.
        self.mnemonics = mnemonics
        self.addresses = addresses

    def execute(self, process: "Process") -> int:
        """Run the block; returns how many instructions completed.

        A :class:`BlockInvalidated` bail (self-modifying store) returns the
        partial count — the writing instruction itself completed and the
        run loop resumes per-instruction at the committed pc.  Any other
        exception records the partial count in ``executed`` and propagates,
        so the run loop's ``steps`` stays exact on stops and faults.
        """
        values = process.registers.values
        executed = 0
        try:
            for op in self.ops:
                op(process, values)
                executed += 1
        except BlockInvalidated:
            return executed + 1
        except BaseException:
            self.executed = executed
            raise
        return executed


class BlockCache:
    """Address-keyed cache of compiled blocks with decode-cache validity."""

    #: Process-construction default; parity tests flip this to pin that
    #: block translation changes no experiment outcome.
    enabled_by_default = True

    __slots__ = ("process", "memory", "enabled", "hits", "misses",
                 "invalidations", "epoch_flushes", "native_flushes",
                 "builds", "steps", "built_lengths", "_blocks", "_epoch",
                 "_native_version", "_backend")

    def __init__(self, process: "Process", *, enabled: Optional[bool] = None):
        self.process = process
        self.memory = process.memory
        self.enabled = BlockCache.enabled_by_default if enabled is None else enabled
        #: Validated lookups — each hit is one whole-block dispatch.
        self.hits = 0
        #: Lookup failures that triggered a build attempt.
        self.misses = 0
        #: Entries dropped individually by a page-generation mismatch.
        self.invalidations = 0
        #: Whole-cache flushes because the mapping epoch moved (remap).
        self.epoch_flushes = 0
        #: Whole-cache flushes because a native handler was registered
        #: after blocks were compiled (``native_version`` moved).  Split
        #: from :attr:`epoch_flushes` so cache-efficiency attribution can
        #: tell "new code was mapped" from "the libc model grew".
        self.native_flushes = 0
        #: Blocks successfully compiled.
        self.builds = 0
        #: Instructions executed through compiled blocks (the run loop
        #: adds each block execution's completed count).
        self.steps = 0
        #: Lengths of blocks built during the current run (the run loop
        #: drains them into an observer's ``block.length`` histogram and
        #: clears the list when the run ends).
        self.built_lengths: List[int] = []
        self._blocks: Dict[int, Block] = {}
        self._epoch = process.memory.mapping_epoch
        self._native_version = process.native_version
        self._backend = None

    def __len__(self) -> int:
        return len(self._blocks)

    def clear(self) -> None:
        self._blocks.clear()

    # -- lookup / validation ---------------------------------------------------

    def lookup(self, address: int) -> Optional[Block]:
        """Return a still-valid compiled block entered at ``address``."""
        memory = self.memory
        process = self.process
        epoch_moved = self._epoch != memory.mapping_epoch
        if epoch_moved or self._native_version != process.native_version:
            # Mapping table or native registry changed: every compiled
            # block is suspect (a remap is new code; a new native handler
            # could sit inside a block's straight line).  An epoch move
            # takes attribution precedence when both changed at once.
            if self._blocks:
                self._blocks.clear()
                if epoch_moved:
                    self.epoch_flushes += 1
                else:
                    self.native_flushes += 1
            self._epoch = memory.mapping_epoch
            self._native_version = process.native_version
            return None
        block = self._blocks.get(address)
        if block is None:
            return None
        for page, generation in block.page_gens:
            if memory.page_generation(page) != generation:
                del self._blocks[address]
                self.invalidations += 1
                return None
        self.hits += 1
        return block

    def fetch(self, emulator: "Emulator", address: int) -> Optional[Block]:
        """Validated lookup, building (and caching) the block on a miss.

        Returns ``None`` when no block can start at ``address`` (the very
        first instruction fails to decode) — the per-step path then raises
        the exact fault the interpreter would.
        """
        block = self.lookup(address)
        if block is not None:
            return block
        self.misses += 1
        block = self._build(emulator, address)
        if block is not None:
            self._blocks[address] = block
            self.builds += 1
            self.built_lengths.append(block.length)
        return block

    # -- compilation -----------------------------------------------------------

    def _backend_for(self, arch: str):
        if self._backend is None:
            # Late import: the arch backends import the emulator base,
            # which sits next to this module.
            if arch == "x86":
                from .x86 import emu as backend
            else:
                from .arm import emu as backend
            self._backend = backend
        return self._backend

    def _build(self, emulator: "Emulator", entry: int) -> Optional[Block]:
        """Decode a straight line from ``entry`` and compile it.

        Decoding rides the decode cache (same fetch/X-check path as the
        interpreter) and must stay side-effect free: a fetch or decode
        fault just ends the line — the faulting address is left for the
        per-step path to reach and raise on, exactly when the interpreter
        would have.
        """
        process = self.process
        backend = self._backend_for(process.arch)
        entry_page = entry >> PAGE_SHIFT
        insns: List[Instruction] = []
        address = entry
        while len(insns) < MAX_BLOCK_LEN:
            if insns and process.native_at(address) is not None:
                break  # native boundary: the run loop dispatches these
            if insns and (address >> PAGE_SHIFT) != entry_page:
                break  # page-boundary exit: keep the invalidation span tight
            try:
                insn = backend.decode_block_insn(process, address)
            except (MemoryFault, CpuError):
                break
            insns.append(insn)
            if backend.block_terminal(insn):
                break
            address = insn.end
        if not insns:
            return None
        page_gens = self.memory.page_generation_span(
            entry, insns[-1].end - entry)
        flag_needed = _flag_liveness(backend, insns)
        guard = _make_guard(self.memory.page_generation, page_gens)
        ops = []
        for insn, needed in zip(insns, flag_needed):
            if backend.block_terminal(insn):
                ops.append(_terminal_op(emulator, insn))
            else:
                ops.append(backend.compile_block_op(
                    insn, self.memory,
                    flags_needed=needed,
                    guard=guard if backend.block_writes_memory(insn) else None,
                ))
        return Block(entry, tuple(ops), page_gens,
                     tuple(insn.mnemonic for insn in insns),
                     tuple(insn.address for insn in insns))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (f"BlockCache({state}, {len(self._blocks)} blocks, "
                f"hits={self.hits}, builds={self.builds})")


def _flag_liveness(backend, insns: List[Instruction]) -> List[bool]:
    """Which instructions' flag writes are observable (backward pass).

    A flag write is dead — and its computation elided at compile time —
    only when a later instruction in the same block overwrites the flags
    *and* nothing in between can fault: a fault mid-block captures a crash
    postmortem with the architectural flag state, so every instruction
    that can fault (memory access) and the block exit itself keep the
    flags live.  Flag writers in both emulated subsets are register-only
    and cannot fault, so the two concerns never collide in one op.
    """
    flag_needed = [True] * len(insns)
    live = True  # flags are observable after the block exits
    for index in range(len(insns) - 1, -1, -1):
        insn = insns[index]
        if backend.block_terminal(insn):
            # Compiled via the interpreter executor; may read flags (jz).
            live = True
            continue
        if backend.block_writes_flags(insn):
            flag_needed[index] = live
            live = False
        if backend.block_can_fault(insn):
            live = True
    return flag_needed


def _make_guard(page_generation, page_gens: Tuple[Tuple[int, int], ...]):
    """Post-store check: bail the block if its own pages were written."""

    def guard() -> None:
        for page, generation in page_gens:
            if page_generation(page) != generation:
                raise BlockInvalidated
    return guard


def _terminal_op(emulator: "Emulator", insn: Instruction):
    """Terminal instructions run through the interpreter executor.

    Control transfers, syscalls, traps, and pc-writers carry the CFI
    hooks and stop semantics; they execute once per block pass, so the
    dispatch cost they keep is already amortized.
    """
    execute = emulator._execute

    def op(process: "Process", values: Dict[str, int]) -> None:
        execute(insn)
    return op
