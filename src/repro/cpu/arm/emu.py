"""Execution backend for the ARMv7 (ARM-mode) subset.

PC semantics follow the architecture: reading ``r15`` as an operand yields
the current instruction address + 8 (two words of legacy pipeline), which is
what position-relative shellcode (``add r0, pc, #imm``) depends on.
"""

from __future__ import annotations

from ..emulator import Emulator
from ..events import IllegalInstruction
from ..isa import Instruction
from ..registers import MASK32
from ..syscalls import dispatch_arm
from .disasm import decode

N_BIT = 1 << 31
Z_BIT = 1 << 30


class ArmEmulator(Emulator):
    arch = "arm"

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

    def _branch_to(self, target: int) -> None:
        self.process.pc = target & MASK32

    def step(self) -> Instruction:
        process = self.process
        address = process.pc
        if address % 4:
            raise IllegalInstruction(address, b"", "misaligned ARM pc")
        cache = process.decode_cache
        insn = cache.lookup(address)
        if insn is None:
            # fetch() spans contiguous segments (mirroring the x86 window
            # rule): a word straddling two adjacent executable mappings
            # decodes; only a genuine gap or a non-X segment faults.
            raw = process.memory.fetch(address, 4)
            insn = decode(raw, address, strict=True)
            cache.record_decode(insn)
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
                self._branch_to(value)
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
                self._branch_to(result)
                return
            regs[rd] = result
        elif mnemonic == "cmp":
            rn, operand2 = insn.operands
            self._set_nz((self._read_operand(rn, address) - self._read_operand(operand2, address)) & MASK32)
        elif mnemonic == "pop":
            (reglist,) = insn.operands
            branch_target = None
            for name in reglist:  # LDMIA loads lowest register from lowest address.
                value = process.pop_u32()
                if name == "r15":
                    branch_target = value
                else:
                    regs[name] = value
            if branch_target is not None:
                if process.cfi is not None:
                    process.cfi.check_return(process, address, branch_target)
                self._branch_to(branch_target)
                return
        elif mnemonic == "push":
            (reglist,) = insn.operands
            for name in reversed(reglist):  # STMDB stores highest register highest.
                process.push_u32(self._read_operand(name, address))
        elif mnemonic == "bx":
            target = self._read_operand(insn.operands[0], address)
            if process.cfi is not None:
                process.cfi.check_return(process, address, target)
            self._branch_to(target & ~1)  # Thumb interworking bit ignored: ARM-only core.
            return
        elif mnemonic == "blx":
            target = self._read_operand(insn.operands[0], address)
            regs["r14"] = next_pc
            if process.cfi is not None:
                process.cfi.note_call(process, next_pc)
                process.cfi.check_indirect(process, address, target & ~1)
            self._branch_to(target & ~1)
            return
        elif mnemonic == "b":
            self._branch_to(insn.operands[0])
            return
        elif mnemonic == "bl":
            regs["r14"] = next_pc
            if process.cfi is not None:
                process.cfi.note_call(process, next_pc)
            self._branch_to(insn.operands[0])
            return
        elif mnemonic == "svc":
            process.pc = next_pc
            dispatch_arm(process)
            return
        elif mnemonic == "ldr":
            rd, rn, offset = insn.operands
            value = process.memory.read_u32((self._read_operand(rn, address) + offset) & MASK32)
            if rd == "r15":
                self._branch_to(value)
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


# -- taint propagation (see repro.obs.taint) -------------------------------------

def propagate_taint(engine, process, insn, prev) -> None:
    """Label transfer function mirroring ``_execute``'s data flow.

    Called by :meth:`TaintEngine.step` *after* the instruction retired;
    ``prev`` is the pre-step register file (memory operand addresses —
    r13 for push/pop, the base for ldr/str — come from it).  An r15
    *operand read* yields the constant pc+8, so it never carries labels;
    flags are not shadowed (explicit flows only).

    Memory writes already passed through ``AddressSpace.write`` untainted
    (clearing the covered shadow bytes), so stores only need re-seeding
    when the source register carries labels.
    """

    def value_of(operand):
        if isinstance(operand, int):
            return operand & MASK32
        if operand == "r15":
            return (insn.address + 8) & MASK32
        return prev[operand] & MASK32

    def labels_of(operand):
        if isinstance(operand, int) or operand == "r15":
            return frozenset()
        return engine.reg_labels(operand)

    shadow = engine.shadow
    set_reg = engine.set_reg
    mnemonic = insn.mnemonic
    operands = insn.operands

    if mnemonic in ("mov", "movs", "mvn", "mvns"):
        rd, operand2 = operands
        labels = labels_of(operand2)
        if rd == "r15" and mnemonic in ("mov", "movs"):
            # mvn/mvns to r15 falls through in this interpreter.
            set_reg("r15", labels)
            engine.note_pc_write(labels, pc=process.pc,
                                 via=f"{mnemonic} pc, ...")
            return
        set_reg(rd, labels)
    elif mnemonic in ("add", "adds", "sub", "subs", "and", "ands",
                      "eor", "eors", "orr", "orrs"):
        rd, rn, operand2 = operands
        labels = labels_of(rn) | labels_of(operand2)
        if rd == "r15":
            set_reg("r15", labels)
            engine.note_pc_write(labels, pc=process.pc,
                                 via=f"{mnemonic} pc, ...")
            return
        set_reg(rd, labels)
    elif mnemonic == "pop":
        (reglist,) = operands
        base = prev["r13"] & MASK32
        branch_labels = None
        slot = None
        for index, name in enumerate(reglist):
            labels = shadow.union((base + 4 * index) & MASK32, 4)
            if name == "r15":
                branch_labels = labels
                slot = (base + 4 * index) & MASK32
            else:
                set_reg(name, labels)
        if branch_labels is not None:
            set_reg("r15", branch_labels)
            engine.note_pc_write(branch_labels, pc=process.pc,
                                 via="pop {..., pc}", address=slot)
            return
    elif mnemonic == "push":
        (reglist,) = operands
        # STMDB: reglist[i] lands at sp - 4*(len - i); r15 pushes pc+8
        # (a constant, clean).
        base = prev["r13"] & MASK32
        for index, name in enumerate(reglist):
            labels = labels_of(name)
            if labels:
                slot = (base - 4 * (len(reglist) - index)) & MASK32
                shadow.set_range(slot, (labels,) * 4)
    elif mnemonic in ("bx", "blx"):
        labels = labels_of(operands[0])
        set_reg("r15", labels)
        if mnemonic == "blx":
            set_reg("r14", frozenset())
        engine.note_pc_write(labels, pc=process.pc,
                             via=f"{mnemonic} {operands[0]}")
        return
    elif mnemonic in ("b", "bl"):
        if mnemonic == "bl":
            set_reg("r14", frozenset())
    elif mnemonic == "svc":
        # Syscall results (r0) are host-generated, not wire data.
        set_reg("r0", frozenset())
    elif mnemonic in ("ldr", "ldrb"):
        rd, rn, offset = operands
        width = 4 if mnemonic == "ldr" else 1
        labels = shadow.union((value_of(rn) + offset) & MASK32, width)
        if rd == "r15" and mnemonic == "ldr":
            set_reg("r15", labels)
            engine.note_pc_write(labels, pc=process.pc, via="ldr pc, [...]",
                                 address=(value_of(rn) + offset) & MASK32)
            return
        set_reg(rd, labels)
    elif mnemonic in ("str", "strb"):
        rd, rn, offset = operands
        labels = labels_of(rd)
        if labels:
            width = 4 if mnemonic == "str" else 1
            shadow.set_range((value_of(rn) + offset) & MASK32,
                             (labels,) * width)
    # cmp writes only flags; b/svc fall through to the clear below.
    set_reg("r15", frozenset())
