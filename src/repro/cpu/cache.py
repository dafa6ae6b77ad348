"""Per-process decoded-instruction cache shared by both emulator backends.

Re-decoding every instruction on every step is the hot path of every
exploit experiment (the fetch–decode–execute loops of E2–E4, E10, E15 and
E16 all bottom out here).  The cache keys decoded :class:`Instruction`
objects by address and validates each hit against two signals from the
owning :class:`~repro.mem.space.AddressSpace`:

* ``mapping_epoch`` — any map/unmap flushes the whole cache (a remap at
  the same base is new code);
* per-page write generations — a write to any page an instruction's bytes
  span drops that entry, so self-modifying payloads (shellcode sprayed to
  the stack, ASLR re-sprays) never execute stale decodes.

Entries are only created after a successful ``fetch`` (the W^X
enforcement point), and segment permissions are immutable once mapped, so
a validated hit implies the X-check would pass again: attack outcomes are
bit-identical with the cache on or off.

On a miss the emulator fetches and then asks a per-ISA strict-decode memo
shared by every process (``_decode_strict`` in :mod:`repro.cpu.x86.emu`
and :mod:`repro.cpu.arm.emu`, keyed by the fetched bytes and the
address), so the decoder itself runs only on a memo miss.  ``misses``
still counts misses of this cache, decoded afresh or not.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..mem.space import AddressSpace
from .isa import Instruction

#: Entries in each ISA's strict-decode memo: a few sleds' worth (the x86
#: NOP sled alone is about 80 addresses), so peak memory stays bounded.
DECODE_MEMO_SIZE = 1024

#: (instruction, mapping epoch, ((page, generation), ...)).
_Entry = Tuple[Instruction, int, Tuple[Tuple[int, int], ...]]


class DecodeCache:
    """Address-keyed cache of decoded instructions with write invalidation."""

    #: Process-construction default; tests flip this to pin that the cache
    #: changes no experiment outcome.
    enabled_by_default = True

    __slots__ = ("memory", "enabled", "hits", "misses", "invalidations",
                 "epoch_flushes", "_entries")

    def __init__(self, memory: AddressSpace, *, enabled: Optional[bool] = None):
        self.memory = memory
        self.enabled = DecodeCache.enabled_by_default if enabled is None else enabled
        #: Validated cache hits (decoder skipped).
        self.hits = 0
        #: Cache misses — every ``record_decode`` call, so with the cache
        #: disabled ``misses`` counts every step.  Each miss fetched; the
        #: decoder ran only when the shared decode memo missed too.
        self.misses = 0
        #: Entries dropped individually by a page-generation mismatch — a
        #: write landed on a page the cached bytes span.  Epoch flushes are
        #: counted separately: a whole-cache drop re-validates nothing
        #: per-entry, and bench analysis reads the two signals apart.
        self.invalidations = 0
        #: Whole-cache flushes caused by a ``mapping_epoch`` change.
        self.epoch_flushes = 0
        self._entries: Dict[int, _Entry] = {}

    def lookup(self, address: int) -> Optional[Instruction]:
        """Return a still-valid cached instruction at ``address`` or None."""
        if not self.enabled:
            return None
        entry = self._entries.get(address)
        if entry is None:
            return None
        insn, epoch, page_gens = entry
        memory = self.memory
        if epoch != memory.mapping_epoch:
            # The mapping table changed under us: everything is suspect.
            self._entries.clear()
            self.epoch_flushes += 1
            return None
        for page, generation in page_gens:
            if memory.page_generation(page) != generation:
                del self._entries[address]
                self.invalidations += 1
                return None
        self.hits += 1
        return insn

    def record_decode(self, insn: Instruction) -> None:
        """Note one miss and its decoded instruction, caching it when enabled."""
        self.misses += 1
        if not self.enabled:
            return
        memory = self.memory
        self._entries[insn.address] = (
            insn,
            memory.mapping_epoch,
            memory.page_generation_span(insn.address, insn.size),
        )

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (f"DecodeCache({state}, {len(self._entries)} entries, "
                f"hits={self.hits}, misses={self.misses})")
