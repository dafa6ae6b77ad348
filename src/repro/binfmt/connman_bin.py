"""Factory for the simulated Connman binary on each architecture.

The image is what the paper's tooling actually sees: a non-PIE 32-bit
executable whose ``.text`` carries real encoded instructions (so
``ropper``/``ROPgadget``-style scanning finds genuine gadgets), whose PLT
references ``memcpy``/``execlp``/``exit`` — but pointedly **not** ``system``
or ``strcpy`` (the compiler emitted ``__strcpy_chk``), exactly the facts
§III-B1 and §III-C1 hinge on — and whose ``.rodata`` contains the individual
characters of ``/bin/sh`` scattered across ordinary strings (the
``-memstr`` sources for the ROP string-builder).

``seed`` drives a link-order shuffle and random NOP padding between
functions.  ``seed=0`` is the stock build; other seeds model the
compile-time software-diversity mitigation of §IV (same behaviour,
different gadget/PLT addresses).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, List, Tuple

from ..cpu.arm import asm as arm
from ..cpu.x86 import asm as x86
from .binary import Binary
from .builder import BinaryBuilder

X86_LINK_BASE = 0x08048000
ARM_LINK_BASE = 0x00010000

#: External functions Connman's PLT references (note: no system, no strcpy).
PLT_FUNCTIONS = (
    "memcpy",
    "execlp",
    "exit",
    "abort",
    "__strcpy_chk",
    "strlen",
    "memset",
    "g_log",
    "g_malloc",
    "g_free",
)

#: Ordinary program strings that happen to cover every character of
#: ``/bin/sh`` — the single-character memcpy sources of §III-C.
RODATA_STRINGS: Tuple[Tuple[str, bytes], ...] = (
    ("str_resolv_conf", b"/etc/resolv.conf"),
    ("str_busybox", b"busybox"),
    ("str_wifi", b"wifi"),
    ("str_dns", b"dns"),
    ("str_dhcp", b"dhcp"),
    ("str_nameserver", b"nameserver"),
    ("str_proc_route", b"/proc/net/route"),
    ("str_error_fmt", b"connman: error in %s"),
)

_X86_SAFE_REGS = ("eax", "ecx", "edx", "esi", "edi")


def _x86_filler_ops(rng: random.Random, count: int) -> bytes:
    """Straight-line, never-executed body instructions for one function."""
    out = bytearray()
    for _ in range(count):
        choice = rng.randrange(6)
        reg = rng.choice(_X86_SAFE_REGS)
        if choice == 0:
            out += x86.mov_reg_imm32(reg, rng.randrange(1 << 32))
        elif choice == 1:
            out += x86.xor_reg_reg(reg, reg)
        elif choice == 2:
            out += x86.add_reg_imm8(reg, rng.randrange(1, 0x7F))
        elif choice == 3:
            out += x86.inc_reg(reg)
        elif choice == 4:
            out += x86.test_reg_reg(reg, reg)
        else:
            out += x86.nop()
    return bytes(out)


_X86_EPILOGUES: Tuple[Callable[[], bytes], ...] = (
    lambda: x86.pop_reg("ebp") + x86.ret(),
    # The 4-register unwind tail: the "remove the next 16 bytes" gadget of
    # §III-C1 that discards memcpy's stacked arguments plus the spacer word.
    lambda: x86.pop_reg("ebx") + x86.pop_reg("esi") + x86.pop_reg("edi") + x86.pop_reg("ebp") + x86.ret(),
    # The `add esp, 0xC; pop ebp; ret` shape the paper observed at the end
    # of memcpy's caller.
    lambda: x86.add_reg_imm8("esp", 0x0C) + x86.pop_reg("ebp") + x86.ret(),
    lambda: x86.leave() + x86.ret(),
    lambda: x86.ret(),
)


def _x86_filler_function(rng: random.Random) -> bytes:
    body = x86.push_reg("ebp") + x86.mov_reg_reg("ebp", "esp")
    body += _x86_filler_ops(rng, rng.randrange(3, 10))
    body += rng.choice(_X86_EPILOGUES)()
    return body


def _arm_filler_ops(rng: random.Random, count: int) -> bytes:
    out = bytearray()
    for _ in range(count):
        choice = rng.randrange(4)
        reg = f"r{rng.randrange(7)}"
        if choice == 0:
            out += arm.mov_imm(reg, rng.randrange(256))
        elif choice == 1:
            out += arm.add_imm(reg, reg, rng.randrange(1, 256))
        elif choice == 2:
            out += arm.mov_reg(reg, f"r{rng.randrange(7)}")
        else:
            out += arm.nop()
    return bytes(out)


_ARM_EPILOGUES: Tuple[Callable[[], bytes], ...] = (
    lambda: arm.pop(["r4", "pc"]),
    lambda: arm.pop(["r4", "r5", "pc"]),
    lambda: arm.pop(["r4", "r5", "r6", "r7", "pc"]),
    # The "too short" gadget of §III-B2 — using it leaves the parse_rr
    # check slots attacker-garbage and SIGSEGVs.
    lambda: arm.pop(["r0", "pc"]),
    lambda: arm.bx("lr"),
)


def _arm_filler_function(rng: random.Random) -> bytes:
    body = arm.push(["r4", "lr"])
    body += _arm_filler_ops(rng, rng.randrange(3, 10))
    body += rng.choice(_ARM_EPILOGUES)()
    return body


def _x86_function_bodies(rng: random.Random) -> List[Tuple[str, bytes]]:
    functions: List[Tuple[str, bytes]] = [
        # The wide register-restore helper: `pop pop pop pop ret`.
        ("__restore_all", x86.pop_reg("ebx") + x86.pop_reg("esi") + x86.pop_reg("edi")
         + x86.pop_reg("ebp") + x86.ret()),
        # An innocuous constant whose immediate bytes contain 0xFF 0xE4 —
        # the classic *coincidental* `jmp esp` every real binary scan finds.
        ("__poll_timeout", x86.push_reg("ebp") + x86.mov_reg_reg("ebp", "esp")
         + x86.mov_reg_imm32("esi", 0x11E4FF22)
         + x86.pop_reg("ebp") + x86.ret()),
        ("__stack_adjust", x86.add_reg_imm8("esp", 0x10) + x86.ret()),
        ("parse_rr", x86.push_reg("ebp") + x86.mov_reg_reg("ebp", "esp")
         + _x86_filler_ops(rng, 16) + x86.leave() + x86.ret()),
        ("get_name", x86.push_reg("ebp") + x86.mov_reg_reg("ebp", "esp")
         + _x86_filler_ops(rng, 12) + x86.leave() + x86.ret()),
        ("parse_response", x86.push_reg("ebp") + x86.mov_reg_reg("ebp", "esp")
         + _x86_filler_ops(rng, 24) + x86.leave() + x86.ret()),
        ("forward_dns_reply", x86.push_reg("ebp") + x86.mov_reg_reg("ebp", "esp")
         + _x86_filler_ops(rng, 10) + x86.pop_reg("ebp") + x86.ret()),
    ]
    for index in range(28):
        functions.append((f"sub_{index:03d}", _x86_filler_function(rng)))
    return functions


def _arm_function_bodies(rng: random.Random) -> List[Tuple[str, bytes]]:
    functions: List[Tuple[str, bytes]] = [
        # The wide restore gadget of Listings 2 and 5.
        ("__restore_ctx", arm.pop(["r0", "r1", "r2", "r3", "r5", "r6", "r7", "pc"])),
        # The call trampoline of Listing 5: `blx r3` then resume popping.
        ("__dispatch_r3", arm.blx_reg("r3") + arm.pop(["r4", "pc"])),
        ("parse_rr", arm.push(["r4", "r5", "r6", "r7", "lr"]) + arm.mvn_imm("r3", 0)
         + _arm_filler_ops(rng, 14) + arm.pop(["r4", "r5", "r6", "r7", "pc"])),
        ("get_name", arm.push(["r4", "lr"]) + _arm_filler_ops(rng, 10) + arm.pop(["r4", "pc"])),
        ("parse_response", arm.push(["r4", "r5", "r6", "r7", "lr"])
         + _arm_filler_ops(rng, 20) + arm.pop(["r4", "r5", "r6", "r7", "pc"])),
        ("forward_dns_reply", arm.push(["r4", "lr"]) + _arm_filler_ops(rng, 8)
         + arm.pop(["r4", "pc"])),
    ]
    for index in range(28):
        functions.append((f"sub_{index:03d}", _arm_filler_function(rng)))
    return functions


def _plt_stub(arch: str, index: int) -> bytes:
    """Realistic-looking PLT entry bytes (never executed — native-bound)."""
    if arch == "x86":
        # jmp *[got]; push index; jmp plt0 — classic 16-byte lazy PLT shape.
        return (
            bytes([0xFF, 0x25]) + (0x0804A000 + 4 * index).to_bytes(4, "little")
            + x86.push_imm32(index)
            + bytes([0xE9, 0x00, 0x00, 0x00, 0x00])
        )
    # add ip, pc, #0; ldr pc, [ip, #imm] shape, approximated with our subset.
    return arm.add_imm("ip", "pc", 0) + arm.ldr("pc", "ip", 8) + arm.nop()


#: Distinct (arch, version, seed) images kept built.  The widest experiment,
#: E7, needs 2 arches x 9 seeds.
BUILD_CACHE_SIZE = 32


def build_connman(arch: str, version: str = "1.34", seed: int = 0) -> Binary:
    """One Connman image.

    ``seed=0`` is the stock distribution build; non-zero seeds produce the
    diversified builds used by the §IV software-diversity experiments.

    The image is built once per ``(arch, version, seed)`` and shared: its
    sections are frozen, and a caller that needs a changed image derives
    one with :func:`dataclasses.replace` instead of mutating this one.
    """
    return _build_connman(arch, version, seed)


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def _build_connman(arch: str, version: str, seed: int) -> Binary:
    link_base = X86_LINK_BASE if arch == "x86" else ARM_LINK_BASE
    rng = random.Random(seed * 2 + (0 if arch == "x86" else 1))
    builder = BinaryBuilder("connman", arch, link_base=link_base)

    # _start / main come first, like a real image.
    if arch == "x86":
        builder.add_function("_start", ".text", x86.nop() * 4 + x86.ret())
        bodies = _x86_function_bodies(rng)
        padding: Callable[[], bytes] = lambda: x86.nop() * rng.randrange(0, 8)
        align = 1
    else:
        builder.add_function("_start", ".text", arm.nop() * 4 + arm.bx("lr"))
        bodies = _arm_function_bodies(rng)
        padding = lambda: arm.nop() * rng.randrange(0, 4)
        align = 4

    # Link-order shuffle + random inter-function padding: this is where the
    # diversity defense gets its gadget-address entropy.
    rng.shuffle(bodies)
    for name, code in bodies:
        builder.append(".text", padding())
        builder.align(".text", align)
        builder.add_function(name, ".text", code)

    # The event loop that calls parse_response; `dnsproxy_resume` is the
    # legitimate return site the daemon binds as a native stop-point.
    builder.align(".text", align)
    if arch == "x86":
        loop_addr = builder.cursor(".text")
        builder.define("dnsproxy_event_loop", ".text", kind="func")
        call_site = loop_addr + 2
        parse_response = builder.append(
            ".text",
            x86.push_reg("ebp") + x86.mov_reg_reg("ebp", "esp")
            + x86.call_rel32(call_site, 0)  # patched below
            + x86.nop(),
        )
        builder.define("dnsproxy_resume", ".text", address=call_site + 5, kind="label")
        builder.append(".text", x86.leave() + x86.ret())
        builder.patch_u32(call_site + 1, 0)  # keep zero; symbolic call (host-simulated)
        del parse_response
    else:
        builder.define("dnsproxy_event_loop", ".text", kind="func")
        builder.append(".text", arm.push(["r4", "lr"]))
        bl_site = builder.cursor(".text")
        builder.append(".text", arm.bl(bl_site, bl_site))  # symbolic; host-simulated
        builder.define("dnsproxy_resume", ".text", address=bl_site + 4, kind="label")
        builder.append(".text", arm.nop() + arm.pop(["r4", "pc"]))

    # PLT entries, in seed-shuffled order (diversity also moves the PLT).
    plt_order = list(PLT_FUNCTIONS)
    rng.shuffle(plt_order)
    for index, name in enumerate(plt_order):
        builder.align(".plt", 16 if arch == "x86" else 4)
        builder.add_plt_entry(name, _plt_stub(arch, index))

    # Strings (shuffled for the same reason).
    strings = list(RODATA_STRINGS)
    rng.shuffle(strings)
    builder.add_string("str_version", f"connman {version}".encode())
    for name, text in strings:
        builder.add_string(name, text)

    # Writable globals; `connman_globals` doubles as the guaranteed-mapped,
    # non-randomized pointer the ARM chains use for placeholder slots.
    builder.append(".data", b"\x00" * 16)
    globals_addr = builder.append(".data", b"\x01\x00\x00\x00" + b"\x00" * 60)
    builder.define("connman_globals", ".data", address=globals_addr, size=64, kind="object")

    builder.reserve_bss("__bss_start", 0x1000)
    builder.reserve_bss("dns_cache_storage", 0x800)

    return builder.link(version=version, seed=str(seed), product="connman")
