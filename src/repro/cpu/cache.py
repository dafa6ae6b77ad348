"""The strict-decode memo both emulator backends decode through.

Every guest step fetches its bytes first (the x86 ``fetch_window``, the
ARM aligned ``fetch``: the W^X enforcement point) and then asks
:meth:`DecodeCache.decode` for the instruction.  The memo behind it is
keyed by the fetched bytes and the address; a strict decode is a pure
function of both, so a hit is exactly what the decoder would return,
wherever the bytes sit and whichever boot fetched them.  No write or
remap can make an entry stale, so the memo needs no invalidation: new
bytes at an old address are a new key.

There is one memo per ISA, shared by every process of that ISA, so a
restarted victim's sled decodes from the previous boot's entries.  It is
a plain dict bounded at :data:`DECODE_MEMO_SIZE` entries, evicted
oldest-first.  An :class:`~repro.cpu.events.IllegalInstruction` is
never stored.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .arm import disasm as arm_disasm
from .isa import Instruction
from .x86 import disasm as x86_disasm

#: Entries in each ISA's strict-decode memo: a few sleds' worth (the x86
#: NOP sled alone is about 80 addresses), so peak memory stays bounded.
DECODE_MEMO_SIZE = 1024

#: arch -> the strict decoder behind its memo.
DECODERS = {"x86": x86_disasm.decode, "arm": arm_disasm.decode}

#: arch -> {(fetched bytes, address): instruction}, in insertion order.
MEMOS: Dict[str, Dict[Tuple[bytes, int], Instruction]] = {arch: {} for arch in DECODERS}


class DecodeCache:
    """One process's hit and miss counts over its ISA's shared memo."""

    __slots__ = ("arch", "hits", "misses", "_memo")

    def __init__(self, arch: str):
        self.arch = arch
        #: Steps the memo answered.
        self.hits = 0
        #: Decoder runs, a raised ``IllegalInstruction`` included.
        self.misses = 0
        self._memo = MEMOS[arch]

    def decode(self, window: bytes, address: int) -> Instruction:
        """The strict decode of ``window`` fetched at ``address``."""
        memo = self._memo
        key = (window, address)
        insn = memo.get(key)
        if insn is not None:
            self.hits += 1
            return insn
        self.misses += 1
        insn = DECODERS[self.arch](window, address, strict=True)
        if len(memo) >= DECODE_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = insn
        return insn
