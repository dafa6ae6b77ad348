"""Execution tracing: watch the hijacked control flow instruction by
instruction.

Attach a :class:`TraceRecorder` to ``process.trace`` before running the
emulator and every executed instruction (and native libc call) is recorded
— which is how the examples show a ROP chain stepping through
``pop {r0..r7, pc}`` → ``blx r3`` → ``memcpy@plt`` → … → ``execlp@plt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class TraceEntry:
    pc: int
    kind: str  # "insn" | "native"
    text: str

    def __str__(self) -> str:
        marker = "*" if self.kind == "native" else " "
        return f"{marker}{self.pc:#010x}  {self.text}"


@dataclass
class TraceRecorder:
    """Bounded instruction/native-call trace."""

    limit: int = 4096
    entries: List[TraceEntry] = field(default_factory=list)
    #: Records refused because the trace was already full.
    dropped: int = 0

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
