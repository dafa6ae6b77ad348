"""Native (host-implemented) functions mapped into the emulated process.

These model libc and PLT targets: when the program counter reaches a
registered address, the emulator invokes the Python handler with an
ABI-aware :class:`NativeCallContext` instead of fetching bytes.  Argument
reading honours each architecture's calling convention — x86 cdecl reads
``[esp+4], [esp+8], ...``; ARM AAPCS reads ``r0..r3`` then the stack — so a
ROP chain that lays out arguments wrongly genuinely fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .process import Process


class NativeCallContext:
    """Calling-convention view over a process paused at a native entry."""

    def __init__(self, process: Process):
        self.process = process
        self.memory = process.memory
        self.registers = process.registers

    def arg(self, index: int) -> int:
        """Read positional 32-bit argument ``index`` (0-based)."""
        if self.process.arch == "x86":
            # cdecl: [esp] is the return address, args follow.
            return self.memory.read_u32((self.process.sp + 4 * (index + 1)) & 0xFFFFFFFF)
        if index < 4:
            return self.registers[f"r{index}"]
        return self.memory.read_u32((self.process.sp + 4 * (index - 4)) & 0xFFFFFFFF)

    def cstring_arg(self, index: int, *, limit: int = 4096) -> str:
        return self.memory.read_cstring(self.arg(index), limit).decode("latin-1")

    def return_from_call(self, retval: int = 0) -> None:
        """Perform the architectural return: pop eip (x86) / pc := lr (ARM)."""
        if self.process.arch == "x86":
            self.registers["eax"] = retval
            self.process.pc = self.process.pop_u32()
        else:
            self.registers["r0"] = retval
            self.process.pc = self.registers["r14"]


#: A native handler receives the call context and either completes the
#: "return" itself or returns an int retval for the default return sequence.
NativeHandler = Callable[[NativeCallContext], Optional[int]]


@dataclass
class NativeFunction:
    """A named host function installed at one emulated address."""

    name: str
    handler: NativeHandler

    def invoke(self, process: Process) -> None:
        context = NativeCallContext(process)
        before_pc = process.pc
        retval = self.handler(context)
        if process.pc == before_pc:
            # Handler did not redirect control itself: do a normal return.
            context.return_from_call(retval if retval is not None else 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NativeFunction({self.name!r})"
