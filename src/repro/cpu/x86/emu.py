"""Execution backend for the 32-bit x86 subset."""

from __future__ import annotations

from ..emulator import Emulator
from ..events import IllegalInstruction
from ..isa import Instruction
from ..registers import X86_REG8, X86_REGISTERS
from ..syscalls import dispatch_x86
from .disasm import decode

ZF_BIT = 1 << 6
MASK32 = 0xFFFFFFFF

#: Longest encodable instruction in our subset.
MAX_INSN_LEN = 5


class X86Emulator(Emulator):
    """Fetch/decode/execute loop over the shared address space."""

    arch = "x86"

    def _fetch_window(self, address: int) -> bytes:
        """Fetch up to MAX_INSN_LEN bytes, spanning contiguous mapped segments.

        An instruction that straddles two back-to-back executable segments
        must decode; the window only stops early at a genuine mapping gap
        (where the truncated decode then faults like the hardware would).
        """
        memory = self.process.memory
        return memory.fetch(address, memory.contiguous_span(address, MAX_INSN_LEN))

    def _set_zf(self, result: int) -> None:
        flags = self.process.registers["eflags"]
        if result & MASK32 == 0:
            flags |= ZF_BIT
        else:
            flags &= ~ZF_BIT
        self.process.registers["eflags"] = flags

    def _zf(self) -> bool:
        return bool(self.process.registers["eflags"] & ZF_BIT)

    def _write_reg8(self, name: str, value: int) -> None:
        # Hardware encoding: al cl dl bl are the low bytes of eax ecx edx
        # ebx, and ah ch dh bh the high bytes of the *same four* parents.
        index = X86_REG8.index(name)
        parent = X86_REGISTERS[index & 3]
        shift = 8 if index >= 4 else 0
        current = self.process.registers[parent]
        mask = ~(0xFF << shift) & MASK32
        self.process.registers[parent] = (current & mask) | ((value & 0xFF) << shift)

    def step(self) -> Instruction:
        process = self.process
        address = process.pc
        cache = process.decode_cache
        insn = cache.lookup(address)
        if insn is None:
            insn = decode(self._fetch_window(address), address, strict=True)
            cache.record_decode(insn)
        self._execute(insn)
        return insn

    def _execute(self, insn: Instruction) -> None:
        process = self.process
        regs = process.registers
        mnemonic = insn.mnemonic
        next_pc = insn.end

        if mnemonic in ("nop", "daa", "das", "aaa", "aas"):
            pass
        elif mnemonic == "push":
            (operand,) = insn.operands
            value = regs[operand] if isinstance(operand, str) else operand
            process.push_u32(value)
        elif mnemonic == "pop":
            regs[insn.operands[0]] = process.pop_u32()
        elif mnemonic == "mov":
            dst, src = insn.operands
            regs[dst] = regs[src] if isinstance(src, str) else src
        elif mnemonic == "mov8":
            dst, value = insn.operands
            self._write_reg8(dst, value)
        elif mnemonic == "xor":
            dst, src = insn.operands
            result = regs[dst] ^ regs[src]
            regs[dst] = result
            self._set_zf(result)
        elif mnemonic == "add":
            dst, src = insn.operands
            value = regs[src] if isinstance(src, str) else src
            result = (regs[dst] + value) & MASK32
            regs[dst] = result
            self._set_zf(result)
        elif mnemonic == "sub":
            dst, src = insn.operands
            value = regs[src] if isinstance(src, str) else src
            result = (regs[dst] - value) & MASK32
            regs[dst] = result
            self._set_zf(result)
        elif mnemonic == "cmp":
            dst, src = insn.operands
            value = regs[src] if isinstance(src, str) else src
            self._set_zf((regs[dst] - value) & MASK32)
        elif mnemonic == "test":
            dst, src = insn.operands
            self._set_zf(regs[dst] & regs[src])
        elif mnemonic == "and":
            dst, src = insn.operands
            regs[dst] = regs[dst] & regs[src]
            self._set_zf(regs[dst])
        elif mnemonic == "or":
            dst, src = insn.operands
            regs[dst] = regs[dst] | regs[src]
            self._set_zf(regs[dst])
        elif mnemonic == "not":
            name = insn.operands[0]
            regs[name] = ~regs[name] & MASK32
        elif mnemonic == "neg":
            name = insn.operands[0]
            regs[name] = (-regs[name]) & MASK32
            self._set_zf(regs[name])
        elif mnemonic == "shl":
            name, count = insn.operands
            regs[name] = (regs[name] << count) & MASK32
            self._set_zf(regs[name])
        elif mnemonic == "shr":
            name, count = insn.operands
            regs[name] = regs[name] >> count
            self._set_zf(regs[name])
        elif mnemonic == "xchg":
            left, right = insn.operands
            regs[left], regs[right] = regs[right], regs[left]
        elif mnemonic == "store":
            base, src = insn.operands
            process.memory.write_u32(regs[base], regs[src])
        elif mnemonic == "load":
            dst, base = insn.operands
            regs[dst] = process.memory.read_u32(regs[base])
        elif mnemonic == "inc":
            name = insn.operands[0]
            regs[name] = (regs[name] + 1) & MASK32
            self._set_zf(regs[name])
        elif mnemonic == "dec":
            name = insn.operands[0]
            regs[name] = (regs[name] - 1) & MASK32
            self._set_zf(regs[name])
        elif mnemonic == "cdq":
            regs["edx"] = 0xFFFFFFFF if regs["eax"] & 0x80000000 else 0
        elif mnemonic == "leave":
            process.sp = regs["ebp"]
            regs["ebp"] = process.pop_u32()
        elif mnemonic == "ret":
            target = process.pop_u32()
            if process.cfi is not None:
                process.cfi.check_return(process, insn.address, target)
            process.pc = target
            return
        elif mnemonic == "retn":
            target = process.pop_u32()
            process.sp = (process.sp + insn.operands[0]) & MASK32
            if process.cfi is not None:
                process.cfi.check_return(process, insn.address, target)
            process.pc = target
            return
        elif mnemonic == "call":
            (operand,) = insn.operands
            indirect = isinstance(operand, str)
            target = regs[operand] if indirect else operand
            process.push_u32(next_pc)
            if process.cfi is not None:
                process.cfi.note_call(process, next_pc)
                if indirect:
                    process.cfi.check_indirect(process, insn.address, target)
            process.pc = target
            return
        elif mnemonic == "jmp":
            (operand,) = insn.operands
            if isinstance(operand, str):
                target = regs[operand]
                if process.cfi is not None:
                    process.cfi.check_indirect(process, insn.address, target)
                process.pc = target
            else:
                process.pc = operand
            return
        elif mnemonic == "jz":
            process.pc = insn.operands[0] if self._zf() else next_pc
            return
        elif mnemonic == "jnz":
            process.pc = next_pc if self._zf() else insn.operands[0]
            return
        elif mnemonic == "int":
            # Commit the post-instruction pc before the syscall may stop us.
            process.pc = next_pc
            if insn.operands[0] != 0x80:
                raise IllegalInstruction(insn.address, insn.raw, f"int {insn.operands[0]:#x}")
            dispatch_x86(process)
            return
        elif mnemonic == "int3":
            raise IllegalInstruction(insn.address, insn.raw, "breakpoint trap (SIGTRAP)")
        elif mnemonic == "hlt":
            raise IllegalInstruction(insn.address, insn.raw, "privileged instruction in user mode")
        else:  # pragma: no cover - decoder and executor kept in sync
            raise IllegalInstruction(insn.address, insn.raw, f"unimplemented mnemonic {mnemonic}")

        process.pc = next_pc


# -- taint propagation (see repro.obs.taint) -------------------------------------

def propagate_taint(engine, process, insn, prev) -> None:
    """Label transfer function mirroring ``_execute``'s data flow.

    Called by :meth:`TaintEngine.step` *after* the instruction retired;
    ``prev`` is the pre-step register file, which is where every memory
    operand address (sp for push/pop/ret, the base register for
    load/store) must come from.  Explicit flows only: flags are not
    shadowed, so conditional branches never propagate labels — the trust
    boundary is documented in docs/ARCHITECTURE.md.

    Memory writes already passed through ``AddressSpace.write`` untainted
    (clearing the covered shadow bytes), so this function only needs to
    *re-seed* stores whose source register carries labels.
    """
    shadow = engine.shadow
    labels_of = engine.reg_labels
    set_reg = engine.set_reg
    mnemonic = insn.mnemonic
    operands = insn.operands

    if mnemonic == "push":
        (operand,) = operands
        if isinstance(operand, str):
            labels = labels_of(operand)
            if labels:
                shadow.set_range((prev["esp"] - 4) & MASK32, (labels,) * 4)
    elif mnemonic == "pop":
        set_reg(operands[0], shadow.union(prev["esp"], 4))
    elif mnemonic == "mov":
        dst, src = operands
        set_reg(dst, labels_of(src) if isinstance(src, str) else frozenset())
    elif mnemonic == "xor":
        dst, src = operands
        if dst == src:
            set_reg(dst, frozenset())  # the canonical zeroing idiom
        else:
            set_reg(dst, labels_of(dst) | labels_of(src))
    elif mnemonic in ("add", "sub", "and", "or"):
        dst, src = operands
        if isinstance(src, str):
            set_reg(dst, labels_of(dst) | labels_of(src))
    elif mnemonic == "xchg":
        left, right = operands
        left_labels, right_labels = labels_of(left), labels_of(right)
        set_reg(left, right_labels)
        set_reg(right, left_labels)
    elif mnemonic == "store":
        base, src = operands
        labels = labels_of(src)
        if labels:
            shadow.set_range(prev[base] & MASK32, (labels,) * 4)
    elif mnemonic == "load":
        dst, base = operands
        set_reg(dst, shadow.union(prev[base] & MASK32, 4))
    elif mnemonic == "cdq":
        set_reg("edx", labels_of("eax"))  # sign extension derives from eax
    elif mnemonic == "leave":
        set_reg("esp", labels_of("ebp"))
        set_reg("ebp", shadow.union(prev["ebp"] & MASK32, 4))
    elif mnemonic in ("ret", "retn"):
        labels = shadow.union(prev["esp"], 4)
        set_reg("eip", labels)
        engine.note_pc_write(labels, pc=process.pc, via=mnemonic,
                             address=prev["esp"] & MASK32)
        return
    elif mnemonic == "call":
        (operand,) = operands
        if isinstance(operand, str):
            labels = labels_of(operand)
            set_reg("eip", labels)
            engine.note_pc_write(labels, pc=process.pc,
                                 via=f"call {operand}")
        else:
            set_reg("eip", frozenset())
        return
    elif mnemonic == "jmp":
        (operand,) = operands
        if isinstance(operand, str):
            labels = labels_of(operand)
            set_reg("eip", labels)
            engine.note_pc_write(labels, pc=process.pc,
                                 via=f"jmp {operand}")
        else:
            set_reg("eip", frozenset())
        return
    elif mnemonic == "int":
        # The syscall layer consumed registers and wrote a result (or
        # spawned/stopped); its eax result is host-generated, not wire data.
        set_reg("eax", frozenset())
    # Remaining mnemonics (mov8 immediate insert, not/neg, shl/shr by
    # immediate, inc/dec, cmp/test, nop family, jz/jnz) either keep their
    # destination's labels or only write flags/pc from immediates.
    set_reg("eip", frozenset())
