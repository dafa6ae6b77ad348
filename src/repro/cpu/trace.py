"""Execution tracing: watch the hijacked control flow instruction by
instruction.

Attach a :class:`TraceRecorder` with ``Collector.attach_trace`` and every
process booted under that collector records each instruction and native
libc call before it runs (so a faulting one still appears last) — which
is how ``repro observe attack --emit trace`` shows a ROP chain stepping
through ``pop {r0..r7, pc}`` → ``blx r3`` → ``memcpy@plt`` → … →
``execlp@plt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .emulator import RunObserver


@dataclass(frozen=True)
class TraceEntry:
    pc: int
    kind: str  # "insn" | "native"
    text: str

    def __str__(self) -> str:
        marker = "*" if self.kind == "native" else " "
        return f"{marker}{self.pc:#010x}  {self.text}"


@dataclass
class TraceRecorder(RunObserver):
    """Bounded instruction/native-call trace: keeps the first ``limit``."""

    limit: int = 4096
    entries: List[TraceEntry] = field(default_factory=list)
    #: Records refused because the trace was already full.
    dropped: int = 0

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise ValueError(f"trace limit cannot be negative: {self.limit!r}")

    def before_step(self, process) -> None:
        pc = process.pc
        native = process.native_at(pc)
        if native is not None:
            self.record(pc, "native", f"{native.name}(...)")
        else:
            self.record(pc, "insn",
                        disassemble_at(process, pc) or "(unreadable)")

    def record(self, pc: int, kind: str, text: str) -> None:
        if len(self.entries) < self.limit:
            self.entries.append(TraceEntry(pc=pc, kind=kind, text=text))
        else:
            self.dropped += 1

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def natives(self) -> List[TraceEntry]:
        return [entry for entry in self.entries if entry.kind == "native"]

    def describe(self, last: Optional[int] = None) -> str:
        entries = self.entries if last is None else self.entries[-last:]
        return "\n".join(str(entry) for entry in entries)

    def __len__(self) -> int:
        return len(self.entries)


def disassemble_at(process, address: int) -> Optional[str]:
    """Best-effort disassembly of the instruction at ``address``; ``None``
    when it cannot be read or decoded (never raises)."""
    try:
        memory = process.memory
        if process.arch == "x86":
            from .x86.disasm import decode

            window = memory.read(
                address, memory.contiguous_span(address, 5), check=False
            )
            return decode(window, address, strict=False).text()
        from .arm.disasm import decode

        window = memory.read(address, 4, check=False)
        return decode(window, address, strict=False).text()
    except Exception:
        return None
