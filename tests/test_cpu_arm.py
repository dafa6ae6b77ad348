"""ARM assembler/decoder round-trips and emulator semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import IllegalInstruction, Process, make_emulator
from repro.cpu.arm import asm
from repro.cpu.arm.disasm import decode, decode_word, linear_sweep
from repro.mem import AddressSpace, Perm

LOW_REGS = [f"r{i}" for i in range(8)]


def run_code(scratch_space, code, *, sp=0x2F000, max_steps=1000, setup=None):
    scratch_space.write(0x1000, code, check=False)
    process = Process("arm", scratch_space)
    process.pc = 0x1000
    process.sp = sp
    if setup:
        setup(process)
    result = make_emulator(process).run(max_steps)
    return process, result


class TestAssemblerDecoder:
    def test_mov_r1_r1_is_the_paper_word(self):
        # §III-A2 uses the 4-byte effect-free word as the ARM sled unit.
        insn = decode(asm.mov_r1_r1(), 0)
        assert insn.mnemonic == "mov" and insn.operands == ("r1", "r1")

    def test_mov_imm_rotation(self):
        insn = decode(asm.mov_imm("r0", 0xFF000000), 0)
        assert insn.operands == ("r0", 0xFF000000)

    def test_unencodable_immediate_rejected(self):
        with pytest.raises(ValueError):
            asm.mov_imm("r0", 0x12345678)

    def test_add_imm(self):
        insn = decode(asm.add_imm("r0", "pc", 12), 0)
        assert insn.mnemonic == "add" and insn.operands == ("r0", "r15", 12)

    def test_push_pop_reglists(self):
        insn = decode(asm.pop(["r0", "r1", "r2", "r3", "r5", "r6", "r7", "pc"]), 0)
        assert insn.mnemonic == "pop"
        assert insn.operands[0] == ("r0", "r1", "r2", "r3", "r5", "r6", "r7", "r15")

    def test_pop_gadget_encoding_matches_arm_arm(self):
        # LDMIA sp!, {r0-r3,r5-r7,pc} == 0xE8BD80EF.
        word = asm.pop(["r0", "r1", "r2", "r3", "r5", "r6", "r7", "pc"])
        assert word == bytes.fromhex("ef80bde8")

    def test_empty_reglist_rejected(self):
        with pytest.raises(ValueError):
            asm.push([])

    def test_bx_blx(self):
        assert decode(asm.bx("lr"), 0).operands == ("r14",)
        assert decode(asm.blx_reg("r3"), 0).mnemonic == "blx"

    def test_branch_offsets(self):
        insn = decode(asm.b(0x1000, 0x2000), 0x1000)
        assert insn.mnemonic == "b" and insn.operands == (0x2000,)
        insn = decode(asm.bl(0x2000, 0x1000), 0x2000)
        assert insn.mnemonic == "bl" and insn.operands == (0x1000,)

    def test_branch_range_check(self):
        with pytest.raises(ValueError):
            asm.b(0, 0x04000000)

    def test_svc(self):
        insn = decode(asm.svc(0), 0)
        assert insn.mnemonic == "svc" and insn.operands == (0,)

    def test_ldr_str_offsets(self):
        insn = decode(asm.ldr("r0", "r1", 8), 0)
        assert insn.operands == ("r0", "r1", 8)
        insn = decode(asm.str_("r2", "sp", -4), 0)
        assert insn.operands == ("r2", "r13", -4)

    def test_mvn(self):
        insn = decode(asm.mvn_imm("r3", 0), 0)
        assert insn.mnemonic == "mvn" and insn.operands == ("r3", 0)

    def test_conditional_words_are_bad_in_tolerant_mode(self):
        # A NE-condition instruction is outside the AL-only subset.
        assert decode_word(0x1A000000, 0, strict=False).is_bad

    def test_strict_mode_raises_on_bad(self):
        with pytest.raises(IllegalInstruction):
            decode_word(0xE7F000F0, 0)  # udf

    def test_register_aliases(self):
        assert asm.reg_number("sp") == 13
        assert asm.reg_number("lr") == 14
        assert asm.reg_number("pc") == 15
        with pytest.raises(ValueError):
            asm.reg_number("r16")

    def test_linear_sweep_word_granular(self):
        code = asm.nop() + b"\xff\xff\xff\xff" + asm.bx("lr")
        insns = linear_sweep(code, 0x1000)
        assert [i.mnemonic for i in insns] == ["mov", "(bad)", "bx"]
        assert all(i.size == 4 for i in insns)


ROUNDTRIP_BUILDERS = [
    lambda reg, imm: asm.mov_imm(reg, imm & 0xFF),
    lambda reg, imm: asm.mov_reg(reg, "r1"),
    lambda reg, imm: asm.add_imm(reg, reg, (imm & 0xFF) or 1),
    lambda reg, imm: asm.sub_imm(reg, "r2", (imm & 0xFF) or 1),
    lambda reg, imm: asm.add_reg(reg, reg, "r3"),
    lambda reg, imm: asm.push([reg, "lr"]),
    lambda reg, imm: asm.pop([reg, "pc"]),
    lambda reg, imm: asm.bx(reg),
    lambda reg, imm: asm.blx_reg(reg),
    lambda reg, imm: asm.ldr(reg, "sp", imm & 0xFF),
    lambda reg, imm: asm.str_(reg, "sp", imm & 0xFF),
]


@settings(max_examples=100)
@given(
    builder=st.sampled_from(ROUNDTRIP_BUILDERS),
    reg=st.sampled_from(LOW_REGS),
    imm=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_property_asm_disasm_roundtrip(builder, reg, imm):
    code = builder(reg, imm)
    insn = decode(code, 0x1000)
    assert insn.size == 4
    assert insn.raw == code
    assert not insn.is_bad


@settings(max_examples=60)
@given(value=st.integers(min_value=0, max_value=0xFF),
       rotation=st.integers(min_value=0, max_value=15))
def test_property_rotated_immediates_roundtrip(value, rotation):
    """Any encodable rotated immediate decodes back to the same value."""
    encoded = ((value >> (2 * rotation)) | (value << (32 - 2 * rotation))) & 0xFFFFFFFF if rotation else value
    code = asm.mov_imm("r0", encoded)
    insn = decode(code, 0)
    assert insn.operands == ("r0", encoded)


class TestEmulator:
    def test_mov_and_add(self, scratch_space):
        code = (
            asm.mov_imm("r0", 7)
            + asm.add_imm("r1", "r0", 5)
            + asm.sub_imm("r2", "r1", 2)
            + asm.svc(0x99)  # unknown syscall number -> returns ENOSYS, continues
            + b"\xff\xff\xff\xff"
        )
        process, result = run_code(scratch_space, code)
        assert process.registers["r1"] == 12
        assert process.registers["r2"] == 10
        assert result.crashed  # ends at the bad word

    def test_pc_reads_plus_eight(self, scratch_space):
        code = asm.add_imm("r0", "pc", 0) + b"\xff\xff\xff\xff"
        process, _ = run_code(scratch_space, code)
        assert process.registers["r0"] == 0x1008

    def test_push_pop_order(self, scratch_space):
        code = (
            asm.mov_imm("r4", 4)
            + asm.mov_imm("r5", 5)
            + asm.push(["r4", "r5"])
            + asm.pop(["r6", "r7"])
            + b"\xff\xff\xff\xff"
        )
        process, _ = run_code(scratch_space, code)
        # STMDB stores r4 lowest; LDMIA loads r6 from lowest -> r6 = old r4.
        assert process.registers["r6"] == 4
        assert process.registers["r7"] == 5

    def test_pop_r13_addresses_every_slot_from_the_old_sp(self, scratch_space):
        # LDMIA: r14 comes from the slot above r13's, not through the sp
        # the pop just loaded; r13 keeps its loaded value.
        scratch_space.write(0x4000, (0xDEADBEEF).to_bytes(4, "little"), check=False)

        def setup(process):
            process.push_u32(0x1234)
            process.push_u32(0x4000)

        process, _ = run_code(scratch_space, asm.pop(["sp", "lr"]) + b"\xff\xff\xff\xff",
                              setup=setup)
        assert process.registers["r13"] == 0x4000
        assert process.registers["r14"] == 0x1234

    def test_push_r13_stores_the_original_sp(self, scratch_space):
        # STMDB with r13 lowest in the list stores the pre-instruction sp.
        def setup(process):
            process.registers["r14"] = 0x5555

        process, _ = run_code(scratch_space, asm.push(["sp", "lr"]) + b"\xff\xff\xff\xff",
                              sp=0x2F000, setup=setup)
        assert process.sp == 0x2F000 - 8
        assert process.memory.read_u32(0x2F000 - 8) == 0x2F000
        assert process.memory.read_u32(0x2F000 - 4) == 0x5555

    def test_pop_into_pc_branches(self, scratch_space):
        scratch_space.write(0x1100, b"\xff\xff\xff\xff", check=False)

        def setup(process):
            process.push_u32(0x1100)

        process, result = run_code(scratch_space, asm.pop(["pc"]), setup=setup)
        assert process.pc == 0x1100
        assert result.crashed

    def test_pop_with_an_empty_reglist_steps_on(self, scratch_space):
        # The decoder accepts LDMIA sp! with no registers; it moves nothing.
        process, result = run_code(scratch_space,
                                   (0xE8BD0000).to_bytes(4, "little") + b"\xff\xff\xff\xff")
        assert process.pc == 0x1004
        assert process.sp == 0x2F000
        assert result.crashed  # at the bad word, not a host exception

    def test_bx_lr_returns(self, scratch_space):
        def setup(process):
            process.registers["r14"] = 0x1100
        scratch_space.write(0x1100, b"\xff\xff\xff\xff", check=False)
        process, _ = run_code(scratch_space, asm.bx("lr"), setup=setup)
        assert process.pc == 0x1100

    def test_blx_sets_link_register(self, scratch_space):
        def setup(process):
            process.registers["r3"] = 0x1100
        scratch_space.write(0x1100, b"\xff\xff\xff\xff", check=False)
        process, _ = run_code(scratch_space, asm.blx_reg("r3"), setup=setup)
        assert process.registers["r14"] == 0x1004
        assert process.pc == 0x1100

    def test_bl_and_return(self, scratch_space):
        code = asm.bl(0x1000, 0x1100) + b"\xff\xff\xff\xff"
        scratch_space.write(0x1100, asm.bx("lr"), check=False)
        process, result = run_code(scratch_space, code)
        assert result.crashed
        assert process.pc == 0x1004  # returned, then hit the bad word

    def test_ldr_str_memory(self, scratch_space):
        code = (
            asm.mov_imm("r0", 0x42)
            + asm.str_("r0", "sp", -4)
            + asm.ldr("r1", "sp", -4)
            + b"\xff\xff\xff\xff"
        )
        process, _ = run_code(scratch_space, code)
        assert process.registers["r1"] == 0x42

    def test_misaligned_pc_faults(self, scratch_space):
        def setup(process):
            process.push_u32(0x1101)
        _, result = run_code(scratch_space, asm.pop(["pc"]), setup=setup)
        assert result.crashed
        assert isinstance(result.fault, IllegalInstruction)

    def test_mvn_complements(self, scratch_space):
        code = asm.mvn_imm("r3", 0) + b"\xff\xff\xff\xff"
        process, _ = run_code(scratch_space, code)
        assert process.registers["r3"] == 0xFFFFFFFF

    def test_shellcode_spawns_root_shell(self, scratch_space):
        from repro.exploit import arm_execve_binsh

        process, result = run_code(scratch_space, arm_execve_binsh())
        assert result.spawned
        assert process.spawned_root_shell
        assert process.spawns[0].path == "/bin/sh"

    def test_exit_syscall(self, scratch_space):
        code = asm.mov_imm("r0", 3) + asm.mov_imm("r7", 1) + asm.svc(0)
        process, result = run_code(scratch_space, code)
        assert result.reason == "exit"
        assert process.exit.code == 3
