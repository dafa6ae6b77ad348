"""The per-step run loop: budget, natives, self-modifying code, flags at faults.

Every guest instruction runs through ``Emulator.step``: a fetch, then
the shared decode memo.  These tests pin the concrete registers, flags and outcomes the
run loop produces on both ISAs.
"""

from functools import reduce
from operator import xor

import pytest

from repro.cpu import Process, TraceRecorder, make_emulator
from repro.cpu.arm import asm as arm
from repro.cpu.native import NativeFunction
from repro.cpu.x86 import asm as x86
from repro.cpu.x86.emu import ZF_BIT
from repro.mem import AddressSpace, Perm, Segment

Z_BIT = 1 << 30

TIGHT_LOOP = b"\x40" * 8 + b"\xeb\xf6"  # 8x inc eax; jmp -10


def make_process(arch, segments, code_at=()):
    space = AddressSpace()
    for segment in segments:
        space.map(segment)
    for address, code in dict(code_at).items():
        space.write(address, code, check=False)
    return Process(arch, space, name="run-loop-test")


def run(process, pc, max_steps):
    process.pc = pc
    return make_emulator(process).run(max_steps=max_steps)


class TestBudget:
    @pytest.mark.parametrize("max_steps", [1, 8, 9, 10, 17, 27, 30, 100])
    def test_budget_exhausts_at_exactly_max_steps(self, max_steps, empty_decode_memo):
        process = make_process("x86", [Segment(".text", 0x1000, 0x100, Perm.RX)],
                               {0x1000: TIGHT_LOOP})
        result = run(process, 0x1000, max_steps)
        assert (result.reason, result.signal) == ("fault", "SIGKILL")
        assert result.steps == max_steps
        laps, into_lap = divmod(max_steps, 9)
        assert process.registers["eax"] == 8 * laps + min(into_lap, 8)
        assert process.registers["eip"] == 0x1000 + into_lap
        # Each of the loop's nine instructions decodes exactly once.
        assert process.decode_cache.misses == min(max_steps, 9)


class TestNatives:
    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "trace"])
    def test_natives_count_one_step_each(self, traced):
        calls = []

        def handler(context):
            calls.append(context.process.pc)
            return 0

        process = make_process(
            "x86",
            [Segment(".text", 0x1000, 0x100, Perm.RX),
             Segment("stack", 0x20000, 0x1000, Perm.RW)],
            {0x1000: x86.push_imm32(0x100A)      # return address: the nops
                     + x86.jmp_rel32(0x1005, 0x5000)  # "call" the native
                     + x86.nop() * 3
                     + x86.hlt()},
        )
        process.register_native(0x5000, NativeFunction("stub", handler))
        process.registers["esp"] = 0x20800
        if traced:
            process.observers = (TraceRecorder(),)
        result = run(process, 0x1000, 50)
        assert calls == [0x5000]
        # push, jmp, native invoke, 3 nops: one step each before the hlt
        # faults the run.
        assert (result.reason, result.signal, result.steps) == ("fault", "SIGILL", 6)
        assert process.registers["eip"] == 0x100D
        assert process.registers["esp"] == 0x20800
        if traced:
            trace, = process.observers
            assert len(trace.natives()) == 1
            assert len(trace.entries) == result.steps + 1  # + hlt

    def test_native_registered_after_first_run_is_not_skipped(self):
        process = make_process("x86", [Segment(".text", 0x1000, 0x100, Perm.RX)],
                               {0x1000: x86.nop() * 4 + x86.hlt()})
        emulator = make_emulator(process)
        process.pc = 0x1000
        first = emulator.run(max_steps=20)
        assert (first.reason, first.steps) == ("fault", 4)
        assert process.registers["eip"] == 0x1004

        calls = []

        def handler(context):
            calls.append(context.process.pc)
            context.process.pc = 0x1004  # jump straight to the hlt

        # 0x1002 holds an already-decoded nop.
        process.register_native(0x1002, NativeFunction("probe", handler))
        process.pc = 0x1000
        second = emulator.run(max_steps=20)
        assert calls == [0x1002]
        # nop, nop, the native, then the hlt faults.
        assert (second.reason, second.signal, second.steps) == ("fault", "SIGILL", 3)
        assert process.registers["eip"] == 0x1004


class TestSelfModifyingCode:
    def test_store_rewrites_a_later_instruction_before_it_runs(self):
        # mov eax, 0x41; mov [ebx], eax (turns the inc edx below into inc
        # ecx); inc edx; hlt.
        code = (x86.mov_reg_imm32("eax", 0x41) + x86.mov_mem_reg("ebx", "eax")
                + x86.inc_reg("edx") + x86.hlt())
        process = make_process("x86", [Segment("rwx", 0x1000, 0x1000, Perm.RWX)],
                               {0x1000: code})
        process.registers["ebx"] = 0x1007  # the inc edx
        result = run(process, 0x1000, 20)
        assert (result.reason, result.signal, result.steps) == ("fault", "SIGILL", 3)
        assert process.registers["ecx"] == 1
        assert process.registers["edx"] == 0
        assert process.registers["eip"] == 0x1008

    def test_external_write_between_runs_executes_new_bytes(self, empty_decode_memo):
        process = make_process("x86", [Segment("rwx", 0x1000, 0x1000, Perm.RWX)],
                               {0x1000: b"\x40\x40" + x86.hlt()})
        emulator = make_emulator(process)
        process.pc = 0x1000
        emulator.run(max_steps=20)
        assert process.registers["eax"] == 2
        process.memory.write(0x1000, b"\x41\x41")  # now inc ecx twice
        process.pc = 0x1000
        result = emulator.run(max_steps=20)
        assert (result.reason, result.steps) == ("fault", 2)
        assert process.registers["ecx"] == 2
        assert process.registers["eax"] == 2
        # The write changed both incs' fetch windows, not the hlt's: two
        # new keys decoded, the hlt answered by the memo.
        assert (process.decode_cache.misses, process.decode_cache.hits) == (5, 1)
        assert len(empty_decode_memo["x86"]) == 5

    def test_wx_faults_the_run_on_a_writable_page(self, empty_decode_memo):
        process = make_process("x86", [Segment("data", 0x1000, 0x100, Perm.RW)])
        process.memory.write(0x1000, b"\x40")
        result = run(process, 0x1000, 10)
        assert (result.reason, result.signal, result.steps) == ("fault", "SIGSEGV", 0)
        assert process.registers["eax"] == 0
        assert process.exit.code == 139
        assert process.decode_cache.misses == 0
        assert not empty_decode_memo["x86"]


class TestFlags:
    def test_jz_sees_flags_from_last_writer(self):
        # inc ebx clears ZF, then xor eax, eax sets it: jz takes the branch.
        code = (x86.inc_reg("ebx") + x86.xor_reg_reg("eax", "eax")
                + x86.jz_rel8(0x1003, 0x1020) + x86.hlt())
        process = make_process(
            "x86", [Segment(".text", 0x1000, 0x100, Perm.RX)],
            {0x1000: code, 0x1020: x86.inc_reg("ecx") + x86.hlt()})
        process.registers["eax"] = 7
        result = run(process, 0x1000, 20)
        assert (result.reason, result.signal, result.steps) == ("fault", "SIGILL", 4)
        assert process.registers["ebx"] == 1
        assert process.registers["eax"] == 0
        assert process.registers["ecx"] == 1  # the branch was taken
        assert process.registers["eip"] == 0x1021
        # inc ecx was the last flag writer: 1 is non-zero, so ZF is clear.
        assert not process.registers["eflags"] & ZF_BIT

    def test_flags_at_fault_are_the_last_writers(self):
        code = (x86.xor_reg_reg("eax", "eax")    # ZF=1
                + x86.inc_reg("eax")             # ZF=0
                + x86.mov_mem_reg("ebx", "eax")  # faults: ebx unmapped
                + x86.hlt())
        process = make_process("x86", [Segment(".text", 0x1000, 0x100, Perm.RX)],
                               {0x1000: code})
        process.registers["ebx"] = 0xDEAD0000
        result = run(process, 0x1000, 20)
        assert (result.reason, result.signal, result.steps) == ("fault", "SIGSEGV", 2)
        assert process.registers["eax"] == 1
        assert not process.registers["eflags"] & ZF_BIT
        # pc is architectural at the fault: the store's own address.
        assert process.registers["eip"] == 0x1003


class TestArm:
    def test_tight_loop_at_budget(self):
        code = (arm.add_imm("r0", "r0", 1) + arm.add_imm("r1", "r1", 2)
                + arm.eor_reg("r2", "r2", "r0") + arm.b(0x1000C, 0x10000))
        process = make_process("arm", [Segment(".text", 0x10000, 0x1000, Perm.RX)],
                               {0x10000: code})
        result = run(process, 0x10000, 101)
        assert (result.reason, result.signal, result.steps) == ("fault", "SIGKILL", 101)
        # 25 laps of four, then the 26th lap's first add.
        assert process.registers["r0"] == 26
        assert process.registers["r1"] == 50
        assert process.registers["r2"] == reduce(xor, range(1, 26))
        assert process.registers["r15"] == 0x10004

    def test_store_rewrites_a_later_instruction_before_it_runs(self):
        # r0 holds "add r2, r2, 1"; str r0, [r1] overwrites the
        # "add r3, r3, 1" two slots later.
        patch = int.from_bytes(arm.add_imm("r2", "r2", 1), "little")
        code = (arm.str_("r0", "r1") + arm.add_imm("r4", "r4", 1)
                + arm.add_imm("r3", "r3", 1) + arm.svc())
        process = make_process("arm", [Segment("rwx", 0x10000, 0x1000, Perm.RWX)],
                               {0x10000: code})
        process.registers["r0"] = patch
        process.registers["r1"] = 0x10008
        result = run(process, 0x10000, 10)
        # str, add, the rewritten add, svc; the zero word after svc is illegal.
        assert (result.reason, result.signal, result.steps) == ("fault", "SIGILL", 4)
        assert process.registers["r2"] == 1
        assert process.registers["r3"] == 0
        assert process.registers["r4"] == 1

    def test_fault_state(self):
        code = (arm.mov_imm("r0", 0x44) + arm.cmp_imm("r0", 0x44)
                + arm.ldr("r5", "r6"))  # faults: r6 unmapped
        process = make_process("arm", [Segment(".text", 0x10000, 0x1000, Perm.RX)],
                               {0x10000: code})
        process.registers["r6"] = 0xDEAD0000
        result = run(process, 0x10000, 10)
        assert (result.reason, result.signal, result.steps) == ("fault", "SIGSEGV", 2)
        assert process.registers["r0"] == 0x44
        assert process.registers["r5"] == 0
        assert process.registers["cpsr"] & Z_BIT  # cmp 0x44, 0x44
        assert process.registers["r15"] == 0x10008
