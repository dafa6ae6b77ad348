"""32-bit x86 decoder for the emulated subset.

Used both by the emulator (strict mode: unknown bytes raise
:class:`~repro.cpu.events.IllegalInstruction`, i.e. SIGILL) and by the
gadget finder (tolerant mode: unknown bytes decode to one-byte ``(bad)``
instructions so the linear sweep can continue).
"""

from __future__ import annotations

import struct
from typing import Optional

from ..events import IllegalInstruction
from ..isa import Instruction
from ..registers import X86_REG8, X86_REGISTERS


def _sign8(value: int) -> int:
    return value - 256 if value >= 128 else value


def _sign32(value: int) -> int:
    return value - 2**32 if value >= 2**31 else value


def decode(data: bytes, address: int, offset: int = 0, *, strict: bool = True) -> Instruction:
    """Decode one instruction from ``data[offset:]`` located at ``address``.

    ``address`` is the virtual address of ``data[offset]`` (needed to resolve
    relative branch targets).
    """
    if offset >= len(data):
        raise IllegalInstruction(address, b"", "decode past end of buffer")

    opcode = data[offset]
    raw1 = data[offset : offset + 1]

    def bad(reason: str) -> Instruction:
        if strict:
            raise IllegalInstruction(address, raw1, reason)
        return Instruction(address, 1, "(bad)", (), raw1)

    def need(n: int) -> Optional[bytes]:
        chunk = data[offset : offset + n]
        return chunk if len(chunk) == n else None

    # -- XCHG eax, r32 (0x91-0x97; 0x90 is nop == xchg eax, eax) --------------
    if 0x91 <= opcode <= 0x97:
        return Instruction(address, 1, "xchg", ("eax", X86_REGISTERS[opcode - 0x90]), raw1)

    # -- single byte, no operands -------------------------------------------
    simple = {
        0x90: "nop",
        0xC3: "ret",
        0xC9: "leave",
        0x99: "cdq",
        0xCC: "int3",
        0xF4: "hlt",
        # Single-byte BCD-adjust instructions: effectively flag-only NOPs.
        # The label planner uses them as sled-safe DNS label-length bytes.
        0x27: "daa",
        0x2F: "das",
        0x37: "aaa",
        0x3F: "aas",
    }
    if opcode in simple:
        return Instruction(address, 1, simple[opcode], (), raw1)

    # -- single byte with encoded register -----------------------------------
    if 0x50 <= opcode <= 0x57:
        return Instruction(address, 1, "push", (X86_REGISTERS[opcode - 0x50],), raw1)
    if 0x58 <= opcode <= 0x5F:
        return Instruction(address, 1, "pop", (X86_REGISTERS[opcode - 0x58],), raw1)
    if 0x40 <= opcode <= 0x47:
        return Instruction(address, 1, "inc", (X86_REGISTERS[opcode - 0x40],), raw1)
    if 0x48 <= opcode <= 0x4F:
        return Instruction(address, 1, "dec", (X86_REGISTERS[opcode - 0x48],), raw1)

    # -- immediates ------------------------------------------------------------
    if opcode == 0x68:
        raw = need(5)
        if raw is None:
            return bad("truncated push imm32")
        return Instruction(address, 5, "push", (struct.unpack("<I", raw[1:])[0],), raw)
    if opcode == 0x6A:
        raw = need(2)
        if raw is None:
            return bad("truncated push imm8")
        return Instruction(address, 2, "push", (_sign8(raw[1]) & 0xFFFFFFFF,), raw)
    if 0xB8 <= opcode <= 0xBF:
        raw = need(5)
        if raw is None:
            return bad("truncated mov reg, imm32")
        value = struct.unpack("<I", raw[1:])[0]
        return Instruction(address, 5, "mov", (X86_REGISTERS[opcode - 0xB8], value), raw)
    if 0xB0 <= opcode <= 0xB7:
        raw = need(2)
        if raw is None:
            return bad("truncated mov r8, imm8")
        return Instruction(address, 2, "mov8", (X86_REG8[opcode - 0xB0], raw[1]), raw)
    if opcode == 0xC2:
        raw = need(3)
        if raw is None:
            return bad("truncated ret imm16")
        return Instruction(address, 3, "retn", (struct.unpack("<H", raw[1:])[0],), raw)
    if opcode == 0xCD:
        raw = need(2)
        if raw is None:
            return bad("truncated int imm8")
        return Instruction(address, 2, "int", (raw[1],), raw)
    if opcode == 0x3D:
        raw = need(5)
        if raw is None:
            return bad("truncated cmp eax, imm32")
        return Instruction(address, 5, "cmp", ("eax", struct.unpack("<I", raw[1:])[0]), raw)

    # -- ModR/M register-direct forms ------------------------------------------
    two_op = {0x89: "mov_rm_r", 0x8B: "mov_r_rm", 0x31: "xor", 0x01: "add", 0x29: "sub",
              0x39: "cmp", 0x85: "test", 0x21: "and", 0x09: "or"}
    if opcode in two_op:
        raw = need(2)
        if raw is None:
            return bad("truncated modrm instruction")
        mod, reg, rm = raw[1] >> 6, (raw[1] >> 3) & 7, raw[1] & 7
        kind = two_op[opcode]
        if mod == 0 and kind in ("mov_rm_r", "mov_r_rm") and rm not in (4, 5):
            # Register-indirect MOV without displacement: [reg] forms.
            reg_name, base_name = X86_REGISTERS[reg], X86_REGISTERS[rm]
            if kind == "mov_rm_r":
                return Instruction(address, 2, "store", (base_name, reg_name), raw)
            return Instruction(address, 2, "load", (reg_name, base_name), raw)
        if mod != 3:
            return bad("memory-form ModR/M not supported by this core")
        reg_name, rm_name = X86_REGISTERS[reg], X86_REGISTERS[rm]
        if kind == "mov_rm_r":
            return Instruction(address, 2, "mov", (rm_name, reg_name), raw)
        if kind == "mov_r_rm":
            return Instruction(address, 2, "mov", (reg_name, rm_name), raw)
        return Instruction(address, 2, kind, (rm_name, reg_name), raw)

    # -- group F7: NOT/NEG (register-direct) --------------------------------------
    if opcode == 0xF7:
        raw = need(2)
        if raw is None:
            return bad("truncated group-3 instruction")
        mod, group, rm = raw[1] >> 6, (raw[1] >> 3) & 7, raw[1] & 7
        if mod != 3 or group not in (2, 3):
            return bad("unsupported group-3 form")
        return Instruction(address, 2, "not" if group == 2 else "neg",
                           (X86_REGISTERS[rm],), raw)

    # -- group C1: SHL/SHR imm8 (register-direct) ----------------------------------
    if opcode == 0xC1:
        raw = need(3)
        if raw is None:
            return bad("truncated shift instruction")
        mod, group, rm = raw[1] >> 6, (raw[1] >> 3) & 7, raw[1] & 7
        if mod != 3 or group not in (4, 5):
            return bad("unsupported shift form")
        return Instruction(address, 3, "shl" if group == 4 else "shr",
                           (X86_REGISTERS[rm], raw[2] & 0x1F), raw)

    # -- group FF: indirect call/jmp through a register ------------------------------
    if opcode == 0xFF:
        raw = need(2)
        if raw is None:
            return bad("truncated group-5 instruction")
        mod, group, rm = raw[1] >> 6, (raw[1] >> 3) & 7, raw[1] & 7
        if mod != 3 or group not in (2, 4):
            return bad("unsupported group-5 form")
        # Register operand (a str) distinguishes these from direct call/jmp,
        # whose operand is the resolved int target.
        mnemonic = "call" if group == 2 else "jmp"
        return Instruction(address, 2, mnemonic, (X86_REGISTERS[rm],), raw)

    if opcode == 0x83:
        raw = need(3)
        if raw is None:
            return bad("truncated group-1 imm8")
        mod, group, rm = raw[1] >> 6, (raw[1] >> 3) & 7, raw[1] & 7
        if mod != 3 or group not in (0, 5, 7):
            return bad("unsupported group-1 form")
        mnemonic = {0: "add", 5: "sub", 7: "cmp"}[group]
        return Instruction(
            address, 3, mnemonic,
            (X86_REGISTERS[rm], _sign8(raw[2]) & 0xFFFFFFFF), raw,
        )

    # -- relative control flow ----------------------------------------------------
    if opcode in (0xE8, 0xE9):
        raw = need(5)
        if raw is None:
            return bad("truncated rel32 branch")
        rel = _sign32(struct.unpack("<I", raw[1:])[0])
        target = (address + 5 + rel) & 0xFFFFFFFF
        return Instruction(address, 5, "call" if opcode == 0xE8 else "jmp", (target,), raw)
    if opcode in (0xEB, 0x74, 0x75):
        raw = need(2)
        if raw is None:
            return bad("truncated rel8 branch")
        target = (address + 2 + _sign8(raw[1])) & 0xFFFFFFFF
        mnemonic = {0xEB: "jmp", 0x74: "jz", 0x75: "jnz"}[opcode]
        return Instruction(address, 2, mnemonic, (target,), raw)

    return bad(f"unknown opcode {opcode:#04x}")


def linear_sweep(data: bytes, base: int):
    """Yield instructions across ``data``; bad bytes become 1-byte ``(bad)``."""
    offset = 0
    while offset < len(data):
        insn = decode(data, base + offset, offset, strict=False)
        yield insn
        offset += insn.size
