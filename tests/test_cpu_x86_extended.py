"""Extended x86 subset: logic/shifts/xchg, memory MOVs, indirect branches."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import IllegalInstruction, Process, make_emulator
from repro.cpu.x86 import asm
from repro.cpu.x86.disasm import decode
from repro.mem import AddressSpace, Perm

from tests.test_cpu_x86 import run_code


class TestDecode:
    def test_and_or(self):
        assert decode(asm.and_reg_reg("eax", "ebx"), 0).mnemonic == "and"
        assert decode(asm.or_reg_reg("ecx", "edx"), 0).mnemonic == "or"

    def test_not_neg(self):
        assert decode(asm.not_reg("esi"), 0).operands == ("esi",)
        assert decode(asm.neg_reg("edi"), 0).mnemonic == "neg"

    def test_shifts_mask_count(self):
        insn = decode(asm.shl_reg_imm8("eax", 36), 0)
        assert insn.operands == ("eax", 4)

    def test_xchg_row(self):
        insn = decode(asm.xchg_eax_reg("ecx"), 0)
        assert insn.mnemonic == "xchg" and insn.operands == ("eax", "ecx")

    def test_xchg_eax_eax_is_nop(self):
        # 0x90 decodes as nop, never as xchg.
        assert decode(b"\x90", 0).mnemonic == "nop"

    def test_indirect_jmp_text(self):
        insn = decode(asm.jmp_reg("esp"), 0)
        assert insn.text() == "jmp esp"
        assert insn.raw == b"\xff\xe4"

    def test_indirect_call(self):
        insn = decode(asm.call_reg("eax"), 0)
        assert insn.mnemonic == "call" and insn.operands == ("eax",)

    def test_esp_ebp_indirect_mov_unencodable(self):
        with pytest.raises(ValueError):
            asm.mov_mem_reg("esp", "eax")
        with pytest.raises(ValueError):
            asm.mov_reg_mem("eax", "ebp")

    def test_unsupported_group3_forms_rejected(self):
        with pytest.raises(IllegalInstruction):
            decode(b"\xf7\xc8", 0)  # test r/m, imm (group 0)


ROUNDTRIP = [
    lambda reg: asm.and_reg_reg(reg, "ebx"),
    lambda reg: asm.or_reg_reg(reg, "ecx"),
    lambda reg: asm.not_reg(reg),
    lambda reg: asm.neg_reg(reg),
    lambda reg: asm.shl_reg_imm8(reg, 3),
    lambda reg: asm.shr_reg_imm8(reg, 7),
    lambda reg: asm.call_reg(reg),
    lambda reg: asm.jmp_reg(reg),
]


@settings(max_examples=60)
@given(builder=st.sampled_from(ROUNDTRIP),
       reg=st.sampled_from(["eax", "ecx", "edx", "ebx", "esi", "edi"]))
def test_property_extended_roundtrip(builder, reg):
    code = builder(reg)
    insn = decode(code, 0x1000)
    assert insn.raw == code and not insn.is_bad


class TestExecute:
    def test_logic_ops(self, scratch_space):
        code = (
            asm.mov_reg_imm32("eax", 0xF0F0)
            + asm.mov_reg_imm32("ebx", 0x0FF0)
            + asm.and_reg_reg("eax", "ebx")     # 0x00F0
            + asm.mov_reg_imm32("ecx", 0x0F00)
            + asm.or_reg_reg("eax", "ecx")      # 0x0FF0
            + asm.hlt()
        )
        process, _ = run_code(scratch_space, code)
        assert process.registers["eax"] == 0x0FF0

    def test_not_neg(self, scratch_space):
        code = (
            asm.mov_reg_imm32("eax", 1)
            + asm.not_reg("eax")                 # 0xFFFFFFFE
            + asm.mov_reg_imm32("ebx", 5)
            + asm.neg_reg("ebx")                 # -5
            + asm.hlt()
        )
        process, _ = run_code(scratch_space, code)
        assert process.registers["eax"] == 0xFFFFFFFE
        assert process.registers["ebx"] == 0xFFFFFFFB

    def test_shifts(self, scratch_space):
        code = (
            asm.mov_reg_imm32("eax", 0x81)
            + asm.shl_reg_imm8("eax", 4)         # 0x810
            + asm.shr_reg_imm8("eax", 1)         # 0x408
            + asm.hlt()
        )
        process, _ = run_code(scratch_space, code)
        assert process.registers["eax"] == 0x408

    def test_xchg(self, scratch_space):
        code = (
            asm.mov_reg_imm32("eax", 1)
            + asm.mov_reg_imm32("edx", 2)
            + asm.xchg_eax_reg("edx")
            + asm.hlt()
        )
        process, _ = run_code(scratch_space, code)
        assert process.registers["eax"] == 2
        assert process.registers["edx"] == 1

    def test_memory_mov_roundtrip(self, scratch_space):
        code = (
            asm.mov_reg_imm32("ebx", 0x4100)
            + asm.mov_reg_imm32("eax", 0xDEAD)
            + asm.mov_mem_reg("ebx", "eax")     # [0x4100] = 0xDEAD
            + asm.mov_reg_mem("ecx", "ebx")     # ecx = [0x4100]
            + asm.hlt()
        )
        process, _ = run_code(scratch_space, code)
        assert process.memory.read_u32(0x4100) == 0xDEAD
        assert process.registers["ecx"] == 0xDEAD

    def test_store_respects_permissions(self, scratch_space):
        code = (
            asm.mov_reg_imm32("ebx", 0x1000)     # code segment is not writable?
            + asm.mov_mem_reg("ebx", "eax")
        )
        # scratch 'code' segment is RWX, so use an unmapped address instead.
        code = (
            asm.mov_reg_imm32("ebx", 0xDEAD0000)
            + asm.mov_mem_reg("ebx", "eax")
        )
        _, result = run_code(scratch_space, code)
        assert result.crashed and result.signal == "SIGSEGV"

    def test_jmp_reg_transfers(self, scratch_space):
        scratch_space.write(0x1100, asm.hlt(), check=False)
        code = asm.mov_reg_imm32("eax", 0x1100) + asm.jmp_reg("eax")
        process, _ = run_code(scratch_space, code)
        assert process.pc == 0x1100

    def test_call_reg_pushes_return(self, scratch_space):
        scratch_space.write(0x1100, asm.ret(), check=False)
        code = asm.mov_reg_imm32("eax", 0x1100) + asm.call_reg("eax") + asm.hlt()
        process, result = run_code(scratch_space, code)
        assert result.crashed  # came back and hit hlt at 0x1007
        assert process.pc == 0x1007  # mov (5) + call_reg (2)

    def test_jmp_esp_executes_stack_bytes(self, scratch_space):
        """The trampoline mechanics in isolation."""
        from repro.exploit import x86_execve_binsh

        shellcode = x86_execve_binsh()

        def setup(process):
            process.push_bytes(shellcode)

        code = asm.mov_reg_imm32("eax", 0) + asm.jmp_reg("esp")
        process, result = run_code(scratch_space, code, setup=setup)
        assert result.spawned
        assert process.spawned_root_shell


class TestGadgetDiscovery:
    def test_jmp_esp_found_in_stock_image(self, x86_binary):
        from repro.exploit import GadgetFinder

        trampolines = GadgetFinder(x86_binary).jmp_reg_gadgets("esp")
        assert trampolines
        # It lives inside __poll_timeout's immediate, not at a function start.
        poll = x86_binary.symbols["__poll_timeout"]
        assert poll.address < trampolines[0].address < poll.address + poll.size
