"""x86 assembler/decoder round-trips and emulator semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import IllegalInstruction, Process, make_emulator
from repro.cpu.x86 import asm
from repro.cpu.x86.disasm import decode, linear_sweep
from repro.mem import AddressSpace, Perm

REGS = ["eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"]


def run_code(scratch_space, code, *, sp=0x2F000, max_steps=1000, setup=None):
    scratch_space.write(0x1000, code, check=False)
    process = Process("x86", scratch_space)
    process.pc = 0x1000
    process.sp = sp
    if setup:
        setup(process)
    result = make_emulator(process).run(max_steps)
    return process, result


class TestAssemblerDecoder:
    def test_nop_roundtrip(self):
        insn = decode(asm.nop(), 0x1000)
        assert insn.mnemonic == "nop" and insn.size == 1

    def test_push_pop_all_registers(self):
        for reg in REGS:
            assert decode(asm.push_reg(reg), 0).operands == (reg,)
            assert decode(asm.pop_reg(reg), 0).operands == (reg,)

    def test_mov_imm32(self):
        insn = decode(asm.mov_reg_imm32("esi", 0xCAFEBABE), 0)
        assert insn.mnemonic == "mov" and insn.operands == ("esi", 0xCAFEBABE)

    def test_mov_reg_reg_direction(self):
        # 89 E3 is the classic `mov ebx, esp` from the shellcode.
        insn = decode(asm.mov_reg_reg("ebx", "esp"), 0)
        assert insn.raw == b"\x89\xe3"
        assert insn.operands == ("ebx", "esp")

    def test_mov8_al(self):
        insn = decode(asm.mov_reg8_imm8("al", 11), 0)
        assert insn.mnemonic == "mov8" and insn.operands == ("al", 11)

    def test_xor_self(self):
        insn = decode(asm.xor_reg_reg("eax", "eax"), 0)
        assert insn.raw == b"\x31\xc0"

    def test_add_esp_imm8(self):
        insn = decode(asm.add_reg_imm8("esp", 0x0C), 0)
        assert insn.mnemonic == "add" and insn.operands == ("esp", 0x0C)

    def test_sub_imm8_sign_extends(self):
        insn = decode(asm.sub_reg_imm8("esp", 0x80), 0)
        assert insn.operands[1] == 0xFFFFFF80

    def test_ret_forms(self):
        assert decode(asm.ret(), 0).mnemonic == "ret"
        insn = decode(asm.ret_imm16(8), 0)
        assert insn.mnemonic == "retn" and insn.operands == (8,)

    def test_call_rel32_target(self):
        insn = decode(asm.call_rel32(0x1000, 0x2000), 0x1000)
        assert insn.mnemonic == "call" and insn.operands == (0x2000,)

    def test_backward_jump(self):
        insn = decode(asm.jmp_rel32(0x2000, 0x1000), 0x2000)
        assert insn.operands == (0x1000,)

    def test_jmp_rel8_range_check(self):
        with pytest.raises(ValueError):
            asm.jmp_rel8(0x1000, 0x2000)

    def test_bcd_nops_decode(self):
        for byte, name in ((0x27, "daa"), (0x2F, "das"), (0x37, "aaa"), (0x3F, "aas")):
            assert decode(bytes([byte]), 0).mnemonic == name

    def test_unknown_opcode_strict_raises(self):
        with pytest.raises(IllegalInstruction):
            decode(b"\x0f\x05", 0)

    def test_unknown_opcode_tolerant_is_bad(self):
        insn = decode(b"\x0f\x05", 0, strict=False)
        assert insn.is_bad and insn.size == 1

    def test_displacement_modrm_rejected(self):
        # mod=1 (disp8 memory operand) is outside the subset.
        with pytest.raises(IllegalInstruction):
            decode(b"\x89\x43\x04", 0)

    def test_register_indirect_mov_supported(self):
        store = decode(b"\x89\x03", 0)  # mov [ebx], eax
        assert store.mnemonic == "store" and store.operands == ("ebx", "eax")
        load = decode(b"\x8b\x01", 0)  # mov eax, [ecx]
        assert load.mnemonic == "load" and load.operands == ("eax", "ecx")

    def test_truncated_imm32_tolerant(self):
        assert decode(b"\x68\x01\x02", 0, strict=False).is_bad

    def test_linear_sweep_covers_all_bytes(self):
        code = asm.nop() + b"\x0f" + asm.ret()
        insns = list(linear_sweep(code, 0x1000))
        assert [i.mnemonic for i in insns] == ["nop", "(bad)", "ret"]
        assert sum(i.size for i in insns) == len(code)


ROUNDTRIP_BUILDERS = [
    lambda reg, imm: asm.push_reg(reg),
    lambda reg, imm: asm.pop_reg(reg),
    lambda reg, imm: asm.mov_reg_imm32(reg, imm),
    lambda reg, imm: asm.inc_reg(reg),
    lambda reg, imm: asm.dec_reg(reg),
    lambda reg, imm: asm.xor_reg_reg(reg, "ecx"),
    lambda reg, imm: asm.add_reg_reg(reg, "edx"),
    lambda reg, imm: asm.sub_reg_reg(reg, "esi"),
    lambda reg, imm: asm.cmp_reg_reg(reg, "edi"),
    lambda reg, imm: asm.test_reg_reg(reg, reg),
    lambda reg, imm: asm.push_imm32(imm),
]


@settings(max_examples=100)
@given(
    builder=st.sampled_from(ROUNDTRIP_BUILDERS),
    reg=st.sampled_from(REGS),
    imm=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_property_asm_disasm_roundtrip(builder, reg, imm):
    """Every emitted instruction decodes to exactly its own bytes."""
    code = builder(reg, imm)
    insn = decode(code, 0x1234)
    assert insn.size == len(code)
    assert insn.raw == code
    assert not insn.is_bad


class TestEmulator:
    def test_mov_and_arithmetic(self, scratch_space):
        code = (
            asm.mov_reg_imm32("eax", 10)
            + asm.mov_reg_imm32("ecx", 32)
            + asm.add_reg_reg("eax", "ecx")
            + asm.sub_reg_imm8("eax", 2)
            + asm.hlt()
        )
        process, result = run_code(scratch_space, code)
        assert process.registers["eax"] == 40
        assert result.reason == "fault"  # hlt is privileged

    def test_push_pop_transfers_values(self, scratch_space):
        code = (
            asm.mov_reg_imm32("eax", 0x1111)
            + asm.push_reg("eax")
            + asm.pop_reg("ebx")
            + asm.hlt()
        )
        process, _ = run_code(scratch_space, code)
        assert process.registers["ebx"] == 0x1111

    def test_stack_pointer_motion(self, scratch_space):
        code = asm.push_imm32(5) + asm.push_imm32(6) + asm.hlt()
        process, _ = run_code(scratch_space, code)
        assert process.sp == 0x2F000 - 8
        assert process.memory.read_u32(process.sp) == 6

    def test_call_pushes_return_address(self, scratch_space):
        # call to 0x1100 which immediately returns; then hlt.
        code = asm.call_rel32(0x1000, 0x1100) + asm.hlt()
        scratch_space.write(0x1100, asm.ret(), check=False)
        process, result = run_code(scratch_space, code)
        assert result.reason == "fault"  # ended at hlt after returning
        assert process.pc == 0x1005

    def test_ret_pops_into_eip(self, scratch_space):
        code = asm.push_imm32(0x1100) + asm.ret()
        scratch_space.write(0x1100, asm.hlt(), check=False)
        process, _ = run_code(scratch_space, code)
        assert process.pc == 0x1100

    def test_retn_clears_arguments(self, scratch_space):
        def setup(process):
            process.push_u32(0xAAAA)      # argument to be cleared
            process.push_u32(0x1100)      # return target
        scratch_space.write(0x1100, asm.hlt(), check=False)
        process, _ = run_code(scratch_space, asm.ret_imm16(4), setup=setup)
        assert process.pc == 0x1100
        assert process.sp == 0x2F000

    def test_leave_restores_frame(self, scratch_space):
        def setup(process):
            process.push_u32(0xBEEF)               # saved ebp value on stack
            process.registers["ebp"] = process.sp  # ebp -> saved slot
            process.sp -= 16                       # locals
        process, _ = run_code(scratch_space, asm.leave() + asm.hlt(), setup=setup)
        assert process.registers["ebp"] == 0xBEEF

    def test_cdq_sign_extends(self, scratch_space):
        code = asm.mov_reg_imm32("eax", 0x80000000) + asm.cdq() + asm.hlt()
        process, _ = run_code(scratch_space, code)
        assert process.registers["edx"] == 0xFFFFFFFF

    def test_mov8_sets_only_low_byte(self, scratch_space):
        code = (
            asm.mov_reg_imm32("eax", 0x11223344)
            + asm.mov_reg8_imm8("al", 0xFF)
            + asm.mov_reg8_imm8("ah", 0x00)
            + asm.hlt()
        )
        process, _ = run_code(scratch_space, code)
        assert process.registers["eax"] == 0x112200FF

    def test_conditional_jump_taken(self, scratch_space):
        code = (
            asm.xor_reg_reg("eax", "eax")       # ZF=1
            + asm.jz_rel8(0x1004, 0x1010)
        )
        code += b"\x90" * (0x10 - len(code))
        code += asm.mov_reg_imm32("ebx", 1) + asm.hlt()
        process, _ = run_code(scratch_space, code)
        assert process.registers["ebx"] == 1

    def test_conditional_jump_not_taken(self, scratch_space):
        code = (
            asm.mov_reg_imm32("eax", 5)
            + asm.test_reg_reg("eax", "eax")     # ZF=0
            + asm.jz_rel8(0x1007, 0x1040)
            + asm.mov_reg_imm32("ebx", 2)
            + asm.hlt()
        )
        process, _ = run_code(scratch_space, code)
        assert process.registers["ebx"] == 2

    def test_int3_faults_with_sigill_class(self, scratch_space):
        process, result = run_code(scratch_space, asm.int3())
        assert result.crashed
        assert isinstance(result.fault, IllegalInstruction)

    def test_exit_syscall(self, scratch_space):
        # 198 arithmetic instructions, then exit(0) through int 0x80.
        code = (asm.inc_reg("eax") + asm.dec_reg("ecx")
                + asm.xor_reg_reg("edx", "edx")) * 66
        code += (asm.mov_reg_imm32("eax", 1) + asm.xor_reg_reg("ebx", "ebx")
                 + asm.int_(0x80))
        process, result = run_code(scratch_space, code)
        assert result.reason == "exit"
        assert result.steps == 200  # the stopping int 0x80 is not counted
        assert process.exit.code == 0

    def test_budget_exhaustion_reports(self, scratch_space):
        code = asm.jmp_rel8(0x1000, 0x1000)  # tight infinite loop
        _, result = run_code(scratch_space, code, max_steps=50)
        assert result.crashed and result.signal == "SIGKILL"

    def test_execution_off_map_faults(self, scratch_space):
        code = asm.push_imm32(0xDEAD0000) + asm.ret()
        _, result = run_code(scratch_space, code)
        assert result.crashed and result.signal == "SIGSEGV"

    def test_shellcode_spawns_root_shell(self, scratch_space):
        from repro.exploit import x86_execve_binsh

        process, result = run_code(scratch_space, x86_execve_binsh())
        assert result.spawned
        assert process.spawned_root_shell
        assert process.spawns[0].argv == ("/bin//sh",)
