"""The simulated victim process: memory + registers + kernel-visible state.

A :class:`Process` is what the Connman daemon simulation owns, what the
emulators mutate, and what the exploit outcome is read from: a successful
attack ends with a :class:`SpawnRecord` for ``/bin/sh`` at uid 0 in
``process.spawns``.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..mem import AddressSpace
from .cache import DecodeCache
from .isa import check_arch
from .registers import (MASK32, RegisterFile, make_registers, pc_register,
                        sp_register)


@dataclass(frozen=True)
class SpawnRecord:
    """An ``exec*``-family image replacement observed by the kernel model."""

    path: str
    argv: Tuple[str, ...]
    uid: int

    @property
    def is_shell(self) -> bool:
        return self.path.rsplit("/", 1)[-1] == "sh"

    @property
    def is_root_shell(self) -> bool:
        return self.is_shell and self.uid == 0


@dataclass
class ExitRecord:
    """Process termination (clean exit or signal)."""

    code: int = 0
    signal: Optional[str] = None


class Process:
    """One emulated 32-bit process."""

    _next_pid = 100
    # Read by benchmarks/e2e/layers.py: delete with the benchmark's cpu.block_* / blocks_{on,off} metrics.
    block_cache = namedtuple("BlockCounters", "steps builds")(0, 0)

    def __init__(self, arch: str, memory: AddressSpace, *, uid: int = 0, name: str = "proc"):
        self.arch = check_arch(arch)
        self.memory = memory
        self.uid = uid
        self.name = name
        self.pid = Process._next_pid
        Process._next_pid += 1
        self.registers: RegisterFile = make_registers(arch)
        #: Native (host-implemented) functions keyed by entry address — the
        #: libc model.  The emulator consults this before fetching bytes.
        self.native: Dict[int, "NativeFunctionType"] = {}
        self.spawns: List[SpawnRecord] = []
        self.exit: Optional[ExitRecord] = None
        #: Optional CFI policy (defense §IV); emulators call its hooks.
        self.cfi = None
        #: This process's hit and miss counts over its ISA's shared
        #: strict-decode memo (see :mod:`repro.cpu.cache`).
        self.decode_cache = DecodeCache(self.arch)
        #: Optional obs Collector — the process's trace context.  The
        #: emulator nests each run under a ``cpu.run`` span on its tracer
        #: and captures crash postmortems through it when a run faults.
        self.observer = None
        #: The :class:`~repro.cpu.emulator.RunObserver` tuple every emulator
        #: run reports to (``Collector.attach_process`` fills it).
        self.observers: Tuple = ()
        #: Optional :class:`~repro.obs.taint.TaintEngine`, for host-side
        #: code only (dnsproxy, the guest cache, postmortems): the run loop
        #: reaches the engine through :attr:`observers`.
        self.taint = None
        self._pc_name = pc_register(arch)
        self._sp_name = sp_register(arch)

    # -- register conveniences --------------------------------------------------

    # pc and sp are canonical names, never aliases, so these index the
    # register file's live dict instead of resolving the name each time.

    @property
    def pc(self) -> int:
        return self.registers.values[self._pc_name]

    @pc.setter
    def pc(self, value: int) -> None:
        self.registers.values[self._pc_name] = value & MASK32

    @property
    def sp(self) -> int:
        return self.registers.values[self._sp_name]

    @sp.setter
    def sp(self, value: int) -> None:
        self.registers.values[self._sp_name] = value & MASK32

    # -- stack helpers (both ISAs use a full-descending stack) -------------------

    def push_u32(self, value: int) -> None:
        self.sp = (self.sp - 4) & 0xFFFFFFFF
        self.memory.write_u32(self.sp, value)

    def pop_u32(self) -> int:
        value = self.memory.read_u32(self.sp)
        self.sp = (self.sp + 4) & 0xFFFFFFFF
        return value

    def push_bytes(self, data: bytes) -> int:
        """Push raw bytes (unaligned allowed); returns the new sp."""
        self.sp = (self.sp - len(data)) & 0xFFFFFFFF
        self.memory.write(self.sp, data)
        return self.sp

    # -- kernel-visible effects ----------------------------------------------------

    def record_spawn(self, path: str, argv: Tuple[str, ...]) -> SpawnRecord:
        record = SpawnRecord(path=path, argv=argv, uid=self.uid)
        self.spawns.append(record)
        return record

    def record_exit(self, code: int = 0, signal: Optional[str] = None) -> None:
        self.exit = ExitRecord(code=code, signal=signal)

    @property
    def alive(self) -> bool:
        return self.exit is None

    @property
    def spawned_root_shell(self) -> bool:
        """The paper's success criterion: a root shell was spawned."""
        return any(record.is_root_shell for record in self.spawns)

    # -- native function registry ----------------------------------------------------

    def register_native(self, address: int, function: "NativeFunctionType") -> None:
        self.native[address] = function

    def native_at(self, address: int) -> Optional["NativeFunctionType"]:
        return self.native.get(address & 0xFFFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else f"exited({self.exit})"
        return f"Process(pid={self.pid}, name={self.name!r}, arch={self.arch}, {state})"


# Typing alias resolved at runtime by repro.cpu.native.
NativeFunctionType = Callable


def pack_u32(value: int) -> bytes:
    return struct.pack("<I", value & 0xFFFFFFFF)
