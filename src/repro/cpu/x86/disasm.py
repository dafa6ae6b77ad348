"""32-bit x86 decoder for the emulated subset.

Used both by the emulator (strict mode: unknown bytes raise
:class:`~repro.cpu.events.IllegalInstruction`, i.e. SIGILL) and by the
gadget finder (tolerant mode: unknown bytes decode to one-byte ``(bad)``
instructions so the linear sweep can continue).
"""

from __future__ import annotations

import struct

from ..events import IllegalInstruction
from ..isa import Instruction
from ..registers import X86_REG8, X86_REGISTERS


def _sign8(value: int) -> int:
    return value - 256 if value >= 128 else value


def _sign32(value: int) -> int:
    return value - 2**32 if value >= 2**31 else value


# -- one-byte instructions (no operand bytes follow the opcode) ----------------

_SIMPLE = {
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


def _one_byte_table():
    """opcode -> ``(mnemonic, operands)`` of every one-byte instruction, else None."""
    table = [None] * 256
    for opcode, mnemonic in _SIMPLE.items():
        table[opcode] = (mnemonic, ())
    # The low three bits name the register.  XCHG eax, r32 is 0x91-0x97
    # (0x90 is nop == xchg eax, eax).
    for index, register in enumerate(X86_REGISTERS):
        table[0x50 + index] = ("push", (register,))
        table[0x58 + index] = ("pop", (register,))
        table[0x40 + index] = ("inc", (register,))
        table[0x48 + index] = ("dec", (register,))
        if index:
            table[0x90 + index] = ("xchg", ("eax", register))
    return tuple(table)


#: Built once, so a one-byte decode allocates nothing but its Instruction.
_ONE_BYTE = _one_byte_table()
#: Every opcode's own byte: the ``raw`` of a one-byte or ``(bad)`` decode.
_RAW1 = tuple(bytes((opcode,)) for opcode in range(256))

# -- operand-carrying opcode tables --------------------------------------------
_TWO_OP = {0x89: "mov_rm_r", 0x8B: "mov_r_rm", 0x31: "xor", 0x01: "add", 0x29: "sub",
           0x39: "cmp", 0x85: "test", 0x21: "and", 0x09: "or"}
_GROUP1 = {0: "add", 5: "sub", 7: "cmp"}
_REL8 = {0xEB: "jmp", 0x74: "jz", 0x75: "jnz"}


def _bad(address: int, raw1: bytes, reason: str, strict: bool) -> Instruction:
    if strict:
        raise IllegalInstruction(address, raw1, reason)
    return Instruction(address, 1, "(bad)", (), raw1)


def decode(data: bytes, address: int, offset: int = 0, *, strict: bool = True) -> Instruction:
    """Decode one instruction from ``data[offset:]`` located at ``address``.

    ``address`` is the virtual address of ``data[offset]`` (needed to resolve
    relative branch targets).
    """
    if offset >= len(data):
        raise IllegalInstruction(address, b"", "decode past end of buffer")

    opcode = data[offset]
    one_byte = _ONE_BYTE[opcode]
    if one_byte is not None:
        return Instruction(address, 1, one_byte[0], one_byte[1], _RAW1[opcode])
    raw1 = _RAW1[opcode]
    available = len(data) - offset

    # -- immediates ------------------------------------------------------------
    if opcode == 0x68:
        if available < 5:
            return _bad(address, raw1, "truncated push imm32", strict)
        raw = data[offset : offset + 5]
        return Instruction(address, 5, "push", (struct.unpack("<I", raw[1:])[0],), raw)
    if opcode == 0x6A:
        if available < 2:
            return _bad(address, raw1, "truncated push imm8", strict)
        raw = data[offset : offset + 2]
        return Instruction(address, 2, "push", (_sign8(raw[1]) & 0xFFFFFFFF,), raw)
    if 0xB8 <= opcode <= 0xBF:
        if available < 5:
            return _bad(address, raw1, "truncated mov reg, imm32", strict)
        raw = data[offset : offset + 5]
        value = struct.unpack("<I", raw[1:])[0]
        return Instruction(address, 5, "mov", (X86_REGISTERS[opcode - 0xB8], value), raw)
    if 0xB0 <= opcode <= 0xB7:
        if available < 2:
            return _bad(address, raw1, "truncated mov r8, imm8", strict)
        raw = data[offset : offset + 2]
        return Instruction(address, 2, "mov8", (X86_REG8[opcode - 0xB0], raw[1]), raw)
    if opcode == 0xC2:
        if available < 3:
            return _bad(address, raw1, "truncated ret imm16", strict)
        raw = data[offset : offset + 3]
        return Instruction(address, 3, "retn", (struct.unpack("<H", raw[1:])[0],), raw)
    if opcode == 0xCD:
        if available < 2:
            return _bad(address, raw1, "truncated int imm8", strict)
        raw = data[offset : offset + 2]
        return Instruction(address, 2, "int", (raw[1],), raw)
    if opcode == 0x3D:
        if available < 5:
            return _bad(address, raw1, "truncated cmp eax, imm32", strict)
        raw = data[offset : offset + 5]
        return Instruction(address, 5, "cmp", ("eax", struct.unpack("<I", raw[1:])[0]), raw)

    # -- ModR/M register-direct forms ------------------------------------------
    kind = _TWO_OP.get(opcode)
    if kind is not None:
        if available < 2:
            return _bad(address, raw1, "truncated modrm instruction", strict)
        raw = data[offset : offset + 2]
        mod, reg, rm = raw[1] >> 6, (raw[1] >> 3) & 7, raw[1] & 7
        if mod == 0 and kind in ("mov_rm_r", "mov_r_rm") and rm not in (4, 5):
            # Register-indirect MOV without displacement: [reg] forms.
            reg_name, base_name = X86_REGISTERS[reg], X86_REGISTERS[rm]
            if kind == "mov_rm_r":
                return Instruction(address, 2, "store", (base_name, reg_name), raw)
            return Instruction(address, 2, "load", (reg_name, base_name), raw)
        if mod != 3:
            return _bad(address, raw1, "memory-form ModR/M not supported by this core", strict)
        reg_name, rm_name = X86_REGISTERS[reg], X86_REGISTERS[rm]
        if kind == "mov_rm_r":
            return Instruction(address, 2, "mov", (rm_name, reg_name), raw)
        if kind == "mov_r_rm":
            return Instruction(address, 2, "mov", (reg_name, rm_name), raw)
        return Instruction(address, 2, kind, (rm_name, reg_name), raw)

    # -- group F7: NOT/NEG (register-direct) --------------------------------------
    if opcode == 0xF7:
        if available < 2:
            return _bad(address, raw1, "truncated group-3 instruction", strict)
        raw = data[offset : offset + 2]
        mod, group, rm = raw[1] >> 6, (raw[1] >> 3) & 7, raw[1] & 7
        if mod != 3 or group not in (2, 3):
            return _bad(address, raw1, "unsupported group-3 form", strict)
        return Instruction(address, 2, "not" if group == 2 else "neg",
                           (X86_REGISTERS[rm],), raw)

    # -- group C1: SHL/SHR imm8 (register-direct) ----------------------------------
    if opcode == 0xC1:
        if available < 3:
            return _bad(address, raw1, "truncated shift instruction", strict)
        raw = data[offset : offset + 3]
        mod, group, rm = raw[1] >> 6, (raw[1] >> 3) & 7, raw[1] & 7
        if mod != 3 or group not in (4, 5):
            return _bad(address, raw1, "unsupported shift form", strict)
        return Instruction(address, 3, "shl" if group == 4 else "shr",
                           (X86_REGISTERS[rm], raw[2] & 0x1F), raw)

    # -- group FF: indirect call/jmp through a register ------------------------------
    if opcode == 0xFF:
        if available < 2:
            return _bad(address, raw1, "truncated group-5 instruction", strict)
        raw = data[offset : offset + 2]
        mod, group, rm = raw[1] >> 6, (raw[1] >> 3) & 7, raw[1] & 7
        if mod != 3 or group not in (2, 4):
            return _bad(address, raw1, "unsupported group-5 form", strict)
        # Register operand (a str) distinguishes these from direct call/jmp,
        # whose operand is the resolved int target.
        mnemonic = "call" if group == 2 else "jmp"
        return Instruction(address, 2, mnemonic, (X86_REGISTERS[rm],), raw)

    if opcode == 0x83:
        if available < 3:
            return _bad(address, raw1, "truncated group-1 imm8", strict)
        raw = data[offset : offset + 3]
        mod, group, rm = raw[1] >> 6, (raw[1] >> 3) & 7, raw[1] & 7
        if mod != 3 or group not in (0, 5, 7):
            return _bad(address, raw1, "unsupported group-1 form", strict)
        return Instruction(
            address, 3, _GROUP1[group],
            (X86_REGISTERS[rm], _sign8(raw[2]) & 0xFFFFFFFF), raw,
        )

    # -- relative control flow ----------------------------------------------------
    if opcode in (0xE8, 0xE9):
        if available < 5:
            return _bad(address, raw1, "truncated rel32 branch", strict)
        raw = data[offset : offset + 5]
        rel = _sign32(struct.unpack("<I", raw[1:])[0])
        target = (address + 5 + rel) & 0xFFFFFFFF
        return Instruction(address, 5, "call" if opcode == 0xE8 else "jmp", (target,), raw)
    if opcode in _REL8:
        if available < 2:
            return _bad(address, raw1, "truncated rel8 branch", strict)
        raw = data[offset : offset + 2]
        target = (address + 2 + _sign8(raw[1])) & 0xFFFFFFFF
        return Instruction(address, 2, _REL8[opcode], (target,), raw)

    return _bad(address, raw1, f"unknown opcode {opcode:#04x}", strict)


def linear_sweep(data: bytes, base: int):
    """Yield instructions across ``data``; bad bytes become 1-byte ``(bad)``."""
    offset = 0
    while offset < len(data):
        insn = decode(data, base + offset, offset, strict=False)
        yield insn
        offset += insn.size
