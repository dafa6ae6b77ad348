"""Architecture-neutral instruction representation.

Both the emulators and the gadget finder consume :class:`Instruction`
objects, so one decoder per architecture serves execution *and* ROP-gadget
discovery — the same property the paper relies on when it points
``ropper``/``ROPgadget`` at the compiled Connman binary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Optional, Tuple

X86 = "x86"
ARM = "arm"

SUPPORTED_ARCHES = (X86, ARM)


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    address: int
    size: int
    mnemonic: str
    operands: Tuple = field(default_factory=tuple)
    raw: bytes = b""

    @property
    def end(self) -> int:
        return self.address + self.size

    @property
    def is_bad(self) -> bool:
        """True for bytes the decoder could not interpret."""
        return self.mnemonic == "(bad)"

    def text(self) -> str:
        """Assembly-ish rendering for logs and gadget listings."""
        if not self.operands:
            return self.mnemonic
        parts = []
        for operand in self.operands:
            if isinstance(operand, int):
                parts.append(f"{operand:#x}")
            elif isinstance(operand, tuple):
                parts.append("{" + ", ".join(operand) + "}")
            else:
                parts.append(str(operand))
        return f"{self.mnemonic} {', '.join(parts)}"

    def __str__(self) -> str:
        return f"{self.address:#010x}: {self.text()}"


class Mem(NamedTuple):
    """A memory slot: ``width`` bytes at the pre-step value of ``base`` (a
    slot) plus ``disp``, plus operand ``offset`` when one is given."""

    base: Any
    disp: int = 0
    width: int = 4
    offset: Optional[int] = None


class Branch(NamedTuple):
    """A ``pc_via`` entry: the PC-event text and the CFI kind, one of
    ``call``, ``return`` or ``jump``."""

    text: str
    cfi: str


@dataclass(frozen=True)
class DataFlow:
    """One ISA's data flow, read by taint propagation and gadget discovery.

    ``rows`` maps each mnemonic to its ``(destination, sources)`` moves, or
    to a function of the instruction returning them.  A slot is an operand
    index, a register name or a :class:`Mem`.  Every source is read before
    any destination is written; immediates and pc reads (the instruction
    address plus ``pc_read``) are clean.  ``pc_via`` maps the mnemonics
    whose move into the pc is a branch to their :class:`Branch`: the
    PC-event text, formatted over the operands and ``m``, the mnemonic, and
    the kind the CFI policy checks; other pc writes fall through.
    """

    rows: Mapping[str, Any]
    pc_via: Mapping[str, Branch]
    pc: str
    pc_read: int = 0

    def moves(self, insn: Instruction) -> Tuple:
        row = self.rows[insn.mnemonic]
        return row(insn) if callable(row) else row

    @staticmethod
    def name(slot, insn: Instruction):
        """The register or immediate a non-memory slot names."""
        return insn.operands[slot] if isinstance(slot, int) else slot

    def branch(self, insn: Instruction) -> Optional[Tuple]:
        """The sources of ``insn``'s branch into the pc, else ``None``."""
        if insn.mnemonic in self.pc_via:
            for dst, sources in self.moves(insn):
                if not isinstance(dst, Mem) and self.name(dst, insn) == self.pc:
                    return sources
        return None

    def indirect(self, insn: Instruction) -> bool:
        """True when ``insn``'s branch reads its target from memory or a
        register (the pc included), not only from immediates."""
        sources = self.branch(insn)
        return sources is not None and any(
            isinstance(source, Mem) or isinstance(self.name(source, insn), str)
            for source in sources)


def check_arch(arch: str) -> str:
    if arch not in SUPPORTED_ARCHES:
        raise ValueError(f"unsupported architecture {arch!r}; expected one of {SUPPORTED_ARCHES}")
    return arch
