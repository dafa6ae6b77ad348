"""Process model, syscall layer, and native-function ABI."""

import pytest

from repro.cpu import NativeFunction, Process, make_emulator
from repro.cpu.native import NativeCallContext
from repro.cpu.syscalls import ENOSYS, dispatch
from repro.cpu.events import _EmulationStop
from repro.cpu.x86 import asm as x86
from repro.cpu.arm import asm as arm
from repro.mem import AddressSpace, Perm


def make_process(arch="x86"):
    space = AddressSpace()
    space.map_new("code", 0x1000, 0x1000, Perm.RWX)
    space.map_new("stack", 0x20000, 0x10000, Perm.RW | Perm.X)
    process = Process(arch, space)
    process.pc = 0x1000
    process.sp = 0x2F000
    return process


class TestProcess:
    def test_pids_are_unique(self):
        assert make_process().pid != make_process().pid

    def test_push_pop_u32(self):
        process = make_process()
        process.push_u32(0xAABBCCDD)
        assert process.pop_u32() == 0xAABBCCDD
        assert process.sp == 0x2F000

    @pytest.mark.parametrize("arch", ["x86", "arm"])
    def test_pc_and_sp_are_masked_to_32_bits(self, arch):
        process = make_process(arch)
        process.pc = 1 << 32 | 5
        process.sp = 1 << 32 | 8
        assert (process.pc, process.sp) == (5, 8)
        assert (process.registers["pc"], process.registers["sp"]) == (5, 8)

    def test_push_bytes_unaligned(self):
        process = make_process()
        process.push_bytes(b"abc")
        assert process.sp == 0x2F000 - 3
        assert process.memory.read(process.sp, 3) == b"abc"

    def test_spawn_record_shell_detection(self):
        process = make_process()
        record = process.record_spawn("/bin/sh", ())
        assert record.is_shell and record.is_root_shell
        assert process.spawned_root_shell

    def test_non_root_shell_not_root(self):
        space = AddressSpace()
        space.map_new("stack", 0x20000, 0x1000, Perm.RW)
        process = Process("x86", space, uid=1000)
        record = process.record_spawn("/bin/sh", ())
        assert record.is_shell and not record.is_root_shell

    def test_non_shell_spawn(self):
        process = make_process()
        assert not process.record_spawn("/usr/bin/id", ()).is_shell

    def test_exit_state(self):
        process = make_process()
        assert process.alive
        process.record_exit(code=1, signal="SIGSEGV")
        assert not process.alive
        assert process.exit.signal == "SIGSEGV"

    def test_pc_sp_aliases_per_arch(self):
        x = make_process("x86")
        x.pc = 0x1234
        assert x.registers["eip"] == 0x1234
        a = make_process("arm")
        a.sp = 0x2000
        assert a.registers["r13"] == 0x2000

    def test_register_masking(self):
        process = make_process()
        process.registers["eax"] = 0x1_2345_6789
        assert process.registers["eax"] == 0x23456789

    def test_unknown_register_rejected(self):
        with pytest.raises(KeyError):
            make_process().registers["xmm0"]

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            Process("riscv", AddressSpace())


class TestSyscalls:
    def test_unknown_syscall_returns_enosys(self):
        process = make_process()
        assert dispatch(process, 999, (0, 0, 0)) == (-ENOSYS) & 0xFFFFFFFF

    def test_exit_stops(self):
        process = make_process()
        with pytest.raises(_EmulationStop) as stop:
            dispatch(process, 1, (7, 0, 0))
        assert stop.value.reason == "exit"
        assert process.exit.code == 7

    def test_execve_reads_argv_array(self):
        process = make_process()
        memory = process.memory
        memory.write_cstring(0x20000, b"/bin/sh")
        memory.write_cstring(0x20010, b"-i")
        memory.write_u32(0x20100, 0x20000)
        memory.write_u32(0x20104, 0x20010)
        memory.write_u32(0x20108, 0)
        with pytest.raises(_EmulationStop) as stop:
            dispatch(process, 11, (0x20000, 0x20100, 0))
        assert stop.value.reason == "execve"
        assert process.spawns[0].argv == ("/bin/sh", "-i")

    def test_execve_null_argv_accepted(self):
        process = make_process()
        process.memory.write_cstring(0x20000, b"/bin/sh")
        with pytest.raises(_EmulationStop):
            dispatch(process, 11, (0x20000, 0, 0))
        assert process.spawns[0].argv == ()

    def test_write_returns_length(self):
        assert dispatch(make_process(), 4, (1, 0x20000, 17)) == 17


class TestNativeAbi:
    def test_x86_args_read_from_stack(self):
        process = make_process("x86")
        process.push_u32(3)           # arg1
        process.push_u32(2)           # arg0
        process.push_u32(0x4444)      # return-address slot
        ctx = NativeCallContext(process)
        assert ctx.arg(0) == 2
        assert ctx.arg(1) == 3

    def test_arm_args_in_registers_then_stack(self):
        process = make_process("arm")
        for index in range(4):
            process.registers[f"r{index}"] = 10 + index
        process.push_u32(99)  # fifth argument
        ctx = NativeCallContext(process)
        assert [ctx.arg(i) for i in range(5)] == [10, 11, 12, 13, 99]

    def test_x86_return_pops_eip(self):
        process = make_process("x86")
        process.push_u32(0x1100)
        ctx = NativeCallContext(process)
        ctx.return_from_call(42)
        assert process.pc == 0x1100
        assert process.registers["eax"] == 42

    def test_arm_return_uses_lr(self):
        process = make_process("arm")
        process.registers["r14"] = 0x1200
        NativeCallContext(process).return_from_call(7)
        assert process.pc == 0x1200
        assert process.registers["r0"] == 7

    def test_native_invoked_at_registered_address(self):
        process = make_process("x86")
        calls = []

        def handler(ctx):
            calls.append(ctx.arg(0))
            return 123

        process.register_native(0x1000, NativeFunction("probe", handler))
        process.push_u32(55)          # arg0
        process.push_u32(0x1100)      # return address
        process.memory.write(0x1100, x86.hlt(), check=False)
        result = make_emulator(process).run()
        assert calls == [55]
        assert process.registers["eax"] == 123
        assert result.crashed  # ended at hlt after the native returned

    def test_native_redirecting_pc_skips_default_return(self):
        process = make_process("arm")

        def handler(ctx):
            ctx.process.pc = 0x1200
            return None

        process.register_native(0x1000, NativeFunction("jump", handler))
        process.memory.write(0x1200, arm.svc(0), check=False)
        process.registers["r7"] = 1  # exit(r0)
        result = make_emulator(process).run()
        assert result.reason == "exit"
