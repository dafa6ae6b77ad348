"""The simulated C library: image layout plus native implementations.

libc is built at link base 0 and slid to its (possibly ASLR-randomized)
base by the loader.  Every exported function has a real address inside the
mapped ``libc:.text`` segment; when emulated control reaches one, the
registered Python handler runs with full calling-convention semantics
(see :mod:`repro.cpu.native`).

The exploit-relevant facts modeled here, straight from the paper:

* ``system`` exists in libc but is **not** referenced by the Connman binary
  — hence the ret2libc attack (§III-B1) needs its randomizable address;
* ``"/bin/sh"`` exists as a string inside libc (§III-B2 Listing 2 loads its
  static libc address into ``r0``);
* ``memcpy``/``execlp``/``exit`` are reachable through Connman's PLT at
  non-randomized addresses (§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from ..cpu.events import _EmulationStop
from ..cpu.native import NativeCallContext, NativeFunction, NativeHandler
from ..mem import MemoryFault
from .binary import Binary
from .builder import BinaryBuilder

#: Upper bound on a single memcpy, to keep stray chains from looping forever.
MEMCPY_LIMIT = 1 << 20

MAX_EXEC_VARARGS = 16


# -- native handlers ----------------------------------------------------------


def native_system(ctx: NativeCallContext):
    command = ctx.cstring_arg(0)
    parts = tuple(command.split()) or ("/bin/sh",)
    ctx.process.record_spawn(parts[0], parts)
    ctx.process.record_exit(code=0)
    raise _EmulationStop("execve", f"system({command!r}) uid={ctx.process.uid}")


def native_execlp(ctx: NativeCallContext):
    path = ctx.cstring_arg(0)
    argv = []
    for index in range(1, MAX_EXEC_VARARGS):
        pointer = ctx.arg(index)
        if pointer == 0:
            break
        argv.append(ctx.memory.read_cstring(pointer).decode("latin-1"))
    record = ctx.process.record_spawn(path, tuple(argv))
    ctx.process.record_exit(code=0)
    raise _EmulationStop("execve", f"execlp({record.path!r}, {record.argv}) uid={record.uid}")


def native_execve(ctx: NativeCallContext):
    from ..cpu.syscalls import _do_execve

    _do_execve(ctx.process, ctx.arg(0), ctx.arg(1))


def native_exit(ctx: NativeCallContext):
    code = ctx.arg(0) & 0xFF
    ctx.process.record_exit(code=code)
    raise _EmulationStop("exit", f"exit({code})")


def native_abort(ctx: NativeCallContext):
    ctx.process.record_exit(code=134, signal="SIGABRT")
    raise _EmulationStop("abort", "abort()")


def native_memcpy(ctx: NativeCallContext):
    dest, src, length = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    if length > MEMCPY_LIMIT:
        raise MemoryFault(src, f"memcpy length {length:#x} exceeds sanity limit")
    if length:
        ctx.memory.write(dest, ctx.memory.read(src, length))
    return dest


def native_memset(ctx: NativeCallContext):
    dest, value, length = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    if length > MEMCPY_LIMIT:
        raise MemoryFault(dest, f"memset length {length:#x} exceeds sanity limit")
    if length:
        ctx.memory.write(dest, bytes([value & 0xFF]) * length)
    return dest


def native_strlen(ctx: NativeCallContext):
    return len(ctx.memory.read_cstring(ctx.arg(0)))


def native_strcpy_chk(ctx: NativeCallContext):
    """``__strcpy_chk`` — what the compiler turned Connman's strcpy into."""
    dest, src, dest_len = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    data = ctx.memory.read_cstring(ctx.arg(1))
    if len(data) + 1 > dest_len:
        return native_abort(ctx)
    ctx.memory.write_cstring(dest, data)
    return dest


def _returns_zero(ctx: NativeCallContext):
    return 0


#: Exported name -> handler.  Order also fixes .text layout (deterministic).
LIBC_EXPORTS: Dict[str, NativeHandler] = {
    "system": native_system,
    "execlp": native_execlp,
    "execve": native_execve,
    "exit": native_exit,
    "abort": native_abort,
    "memcpy": native_memcpy,
    "memset": native_memset,
    "strlen": native_strlen,
    "__strcpy_chk": native_strcpy_chk,
    "sleep": _returns_zero,
    "puts": _returns_zero,
    "g_log": _returns_zero,
    "g_malloc": _returns_zero,
    "g_free": _returns_zero,
}


@dataclass
class LibcImage:
    """Link-base-0 libc binary plus its native implementations."""

    binary: Binary
    natives: Mapping[str, NativeHandler]

    @cached_property
    def export_natives(self) -> Tuple[Tuple[int, NativeFunction], ...]:
        """``(link-time address, native)`` per export, in ``natives`` order.

        A :class:`NativeFunction` holds only a name and a handler, so every
        boot of this image binds the same ones at its own libc base.
        """
        return tuple((self.binary.symbols.address_of(name), NativeFunction(name, handler))
                     for name, handler in self.natives.items())


def _stub_body(arch: str, index: int) -> bytes:
    """Plausible (never-executed) function body bytes for one libc export."""
    if arch == "x86":
        from ..cpu.x86 import asm as x86

        return (
            x86.push_reg("ebp")
            + x86.mov_reg_reg("ebp", "esp")
            + x86.mov_reg_imm32("eax", 0xF000 + index)
            + x86.pop_reg("ebp")
            + x86.ret()
        )
    from ..cpu.arm import asm as arm

    return (
        arm.push(["r4", "lr"])
        + arm.mov_imm("r0", index & 0xFF)
        + arm.pop(["r4", "pc"])
    )


def build_libc(arch: str) -> LibcImage:
    """The deterministic libc image for one architecture.

    Built once per ``arch`` and shared read-only: the sections are frozen
    and ``natives`` is a read-only mapping.
    """
    return _build_libc(arch)


@lru_cache(maxsize=4)
def _build_libc(arch: str) -> LibcImage:
    builder = BinaryBuilder("libc", arch, link_base=0)
    for index, name in enumerate(LIBC_EXPORTS):
        builder.align(".text", 16 if arch == "x86" else 4)
        builder.add_function(name, ".text", _stub_body(arch, index))
    # The string ret2libc needs (Listing 2 line 2: "r0, static /bin/sh").
    builder.add_string("str_bin_sh", b"/bin/sh")
    builder.add_string("str_sh_dash_c", b"-c")
    builder.add_string("libc_version", b"GNU C Library (simulated) release 2.23")
    builder.reserve_bss("__libc_bss", 0x100)
    binary = builder.link(soname="libc.so.6")
    return LibcImage(binary=binary, natives=MappingProxyType(dict(LIBC_EXPORTS)))
