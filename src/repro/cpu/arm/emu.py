"""Execution backend for the ARMv7 (ARM-mode) subset.

PC semantics follow the architecture: reading ``r15`` as an operand yields
the current instruction address + 8 (two words of legacy pipeline), which is
what position-relative shellcode (``add r0, pc, #imm``) depends on.
"""

from __future__ import annotations

from ..emulator import Emulator
from ..events import IllegalInstruction
from ..isa import Branch, DataFlow, Instruction, Mem
from ..registers import MASK32
from ..syscalls import dispatch_arm

N_BIT = 1 << 31
Z_BIT = 1 << 30


# -- data flow (read by _branch, repro.obs.taint and repro.exploit.gadgets) ----

_ALU = ("add", "adds", "sub", "subs", "and", "ands", "eor", "eors", "orr", "orrs")
_CALL = (("r14", ()), ("r15", (0,)))


def _reglist_row(insn: Instruction):
    """push/pop: every slot is addressed from the pre-step sp; STMDB stores
    the lowest register lowest below it, LDMIA loads upward from it."""
    (reglist,) = insn.operands
    if insn.mnemonic == "pop":
        return tuple((name, (Mem("r13", 4 * index),)) for index, name in enumerate(reglist))
    below = 4 * len(reglist)
    return tuple((Mem("r13", 4 * index - below), (name,)) for index, name in enumerate(reglist))


DATA_FLOW = DataFlow(
    rows={
        **dict.fromkeys(("mov", "movs", "mvn", "mvns"), ((0, (1,)),)),
        **dict.fromkeys(_ALU, ((0, (1, 2)),)),
        "cmp": (),
        "pop": _reglist_row,
        "push": _reglist_row,
        **dict.fromkeys(("bx", "b"), (("r15", (0,)),)),
        **dict.fromkeys(("blx", "bl"), _CALL),
        # The syscall result is host-generated, not guest data.
        "svc": (("r0", ()),),
        "ldr": ((0, (Mem(1, offset=2),)),),
        "ldrb": ((0, (Mem(1, width=1, offset=2),)),),
        "str": ((Mem(1, offset=2), (0,)),),
        "strb": ((Mem(1, width=1, offset=2), (0,)),),
    },
    # mvn and ldrb into r15 fall through in _execute, so they are not here.
    pc_via={
        **dict.fromkeys(("mov", "movs") + _ALU, Branch("{m} pc, ...", "jump")),
        "pop": Branch("pop {{..., pc}}", "return"),
        "bx": Branch("bx {0}", "return"),
        "blx": Branch("blx {0}", "call"),
        "b": Branch("b", "jump"),
        "bl": Branch("bl", "call"),
        "ldr": Branch("ldr pc, [...]", "jump"),
    },
    pc="r15",
    pc_read=8,
)


class ArmEmulator(Emulator):
    arch = "arm"
    flow = DATA_FLOW

    def _read_operand(self, operand, insn_address: int) -> int:
        if isinstance(operand, int):
            return operand
        if operand == "r15":
            return (insn_address + 8) & MASK32
        return self.process.registers[operand]

    def _set_nz(self, result: int) -> None:
        cpsr = self.process.registers["cpsr"]
        cpsr &= ~(N_BIT | Z_BIT)
        if result & MASK32 == 0:
            cpsr |= Z_BIT
        if result & 0x80000000:
            cpsr |= N_BIT
        self.process.registers["cpsr"] = cpsr

    def step(self) -> Instruction:
        process = self.process
        address = process.pc
        if address % 4:
            raise IllegalInstruction(address, b"", "misaligned ARM pc")
        # fetch() spans contiguous segments (mirroring the x86 window
        # rule): a word straddling two adjacent executable mappings
        # decodes; only a genuine gap or a non-X segment faults.
        insn = process.decode_cache.decode(process.memory.fetch(address, 4), address)
        self._execute(insn)
        return insn

    def _execute(self, insn: Instruction) -> None:
        process = self.process
        regs = process.registers
        mnemonic = insn.mnemonic
        address = insn.address
        next_pc = insn.end

        if mnemonic in ("mov", "movs"):
            rd, operand2 = insn.operands
            value = self._read_operand(operand2, address)
            if mnemonic == "movs":
                self._set_nz(value)
            if rd == "r15":
                self._branch(insn, value)
                return
            regs[rd] = value
        elif mnemonic in ("mvn", "mvns"):
            rd, operand2 = insn.operands
            value = (~self._read_operand(operand2, address)) & MASK32
            regs[rd] = value
        elif mnemonic in ("add", "adds", "sub", "subs", "and", "ands", "eor", "eors", "orr", "orrs"):
            rd, rn, operand2 = insn.operands
            left = self._read_operand(rn, address)
            right = self._read_operand(operand2, address)
            base = mnemonic.rstrip("s")
            if base == "add":
                result = left + right
            elif base == "sub":
                result = left - right
            elif base == "and":
                result = left & right
            elif base == "eor":
                result = left ^ right
            else:
                result = left | right
            result &= MASK32
            if mnemonic.endswith("s") and mnemonic != base:
                self._set_nz(result)
            if rd == "r15":
                self._branch(insn, result)
                return
            regs[rd] = result
        elif mnemonic == "cmp":
            rn, operand2 = insn.operands
            self._set_nz((self._read_operand(rn, address) - self._read_operand(operand2, address)) & MASK32)
        elif mnemonic == "pop":
            (reglist,) = insn.operands
            # LDMIA: lowest register from the pre-step sp upward, so r15
            # (listed last) loads last; r13 in the list keeps its loaded
            # value over the writeback.
            sp = process.sp
            values = [process.memory.read_u32((sp + 4 * i) & MASK32) for i in range(len(reglist))]
            process.sp = (sp + 4 * len(reglist)) & MASK32
            for name, value in zip(reglist, values):
                if name != "r15":
                    regs[name] = value
            if reglist and reglist[-1] == "r15":
                self._branch(insn, values[-1])
                return
        elif mnemonic == "push":
            (reglist,) = insn.operands
            # STMDB: pre-step values (r13 its original sp), highest highest.
            for value in reversed([self._read_operand(name, address) for name in reglist]):
                process.push_u32(value)
        elif mnemonic in ("b", "bl", "bx", "blx"):
            target = self._read_operand(insn.operands[0], address)
            if mnemonic in ("bl", "blx"):
                regs["r14"] = next_pc
            self._branch(insn, target & ~1)  # Thumb interworking bit ignored: ARM-only core.
            return
        elif mnemonic == "svc":
            process.pc = next_pc
            dispatch_arm(process)
            return
        elif mnemonic == "ldr":
            rd, rn, offset = insn.operands
            value = process.memory.read_u32((self._read_operand(rn, address) + offset) & MASK32)
            if rd == "r15":
                self._branch(insn, value)
                return
            regs[rd] = value
        elif mnemonic == "str":
            rd, rn, offset = insn.operands
            process.memory.write_u32(
                (self._read_operand(rn, address) + offset) & MASK32,
                self._read_operand(rd, address),
            )
        elif mnemonic == "ldrb":
            rd, rn, offset = insn.operands
            value = process.memory.read_u8((self._read_operand(rn, address) + offset) & MASK32)
            regs[rd] = value
        elif mnemonic == "strb":
            rd, rn, offset = insn.operands
            process.memory.write_u8(
                (self._read_operand(rn, address) + offset) & MASK32,
                self._read_operand(rd, address) & 0xFF,
            )
        else:  # pragma: no cover - decoder and executor kept in sync
            raise IllegalInstruction(address, insn.raw, f"unimplemented mnemonic {mnemonic}")

        process.pc = next_pc
