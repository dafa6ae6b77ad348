"""Execution backend for the 32-bit x86 subset."""

from __future__ import annotations

from ..emulator import Emulator
from ..events import IllegalInstruction
from ..isa import Branch, DataFlow, Instruction, Mem
from ..registers import X86_REG8, X86_REGISTERS
from ..syscalls import dispatch_x86

ZF_BIT = 1 << 6
MASK32 = 0xFFFFFFFF

#: Longest encodable instruction in our subset.
MAX_INSN_LEN = 5


# -- data flow (read by _branch, repro.obs.taint and repro.exploit.gadgets) ----

_BINARY = ((0, (0, 1)),)
_RETURN = (("eip", (Mem("esp"),)),)
_BRANCH = (("eip", (0,)),)

DATA_FLOW = DataFlow(
    rows={
        # Flags-only, in-place (the destination keeps its labels) or trapping.
        **dict.fromkeys(("nop", "daa", "das", "aaa", "aas", "mov8", "cmp", "test", "not",
                         "neg", "shl", "shr", "inc", "dec", "int3", "hlt"), ()),
        "push": ((Mem("esp", -4), (0,)),),
        "pop": ((0, (Mem("esp"),)),),
        "mov": ((0, (1,)),),
        # xor r, r is the canonical zeroing idiom.
        "xor": lambda insn: ((0, ()),) if insn.operands[0] == insn.operands[1] else _BINARY,
        **dict.fromkeys(("add", "sub", "and", "or"), _BINARY),
        "xchg": ((0, (1,)), (1, (0,))),
        "store": ((Mem(0), (1,)),),
        "load": ((0, (Mem(1),)),),
        "cdq": (("edx", ("eax",)),),
        "leave": (("esp", ("ebp",)), ("ebp", (Mem("ebp"),))),
        "ret": _RETURN,
        "retn": _RETURN,
        "call": ((Mem("esp", -4), ()),) + _BRANCH,
        **dict.fromkeys(("jmp", "jz", "jnz"), _BRANCH),
        # The syscall result is host-generated, not guest data.
        "int": (("eax", ()),),
    },
    pc_via={"ret": Branch("ret", "return"), "retn": Branch("retn", "return"),
            "call": Branch("call {0}", "call"), "jmp": Branch("jmp {0}", "jump"),
            "jz": Branch("jz", "jump"), "jnz": Branch("jnz", "jump")},
    pc="eip",
)


class X86Emulator(Emulator):
    """Fetch/decode/execute loop over the shared address space."""

    arch = "x86"
    flow = DATA_FLOW

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
        # The window spans back-to-back executable segments, so an
        # instruction straddling two of them decodes; it stops early only
        # at a mapping gap, where the truncated decode faults like the
        # hardware would.
        window = process.memory.fetch_window(address, MAX_INSN_LEN)
        insn = process.decode_cache.decode(window, address)
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
        elif mnemonic in ("ret", "retn"):
            target = process.pop_u32()
            if mnemonic == "retn":
                process.sp = (process.sp + insn.operands[0]) & MASK32
            self._branch(insn, target)
            return
        elif mnemonic in ("call", "jmp"):
            (operand,) = insn.operands
            target = regs[operand] if isinstance(operand, str) else operand
            if mnemonic == "call":
                process.push_u32(next_pc)
            self._branch(insn, target)
            return
        elif mnemonic in ("jz", "jnz"):
            if self._zf() == (mnemonic == "jz"):
                self._branch(insn, insn.operands[0])
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
