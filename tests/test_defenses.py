"""Protection profiles, canary, CFI, and software diversity."""

import random

import pytest

from repro.binfmt import build_connman
from repro.cpu import ControlFlowViolation, Process, make_emulator
from repro.cpu.arm import asm as arm_asm
from repro.cpu.events import CanaryClobbered
from repro.defenses import (
    FULL,
    NONE,
    PAPER_LEVELS,
    WX,
    WX_ASLR,
    ProtectionProfile,
    ShadowStackCfi,
    StackCanary,
    compare_builds,
    diversified_population,
)
from repro.mem import AddressSpace, Perm
from tests.conftest import fresh_daemon, loaded_pair


class TestProfiles:
    def test_paper_levels_order(self):
        labels = [label for label, _profile in PAPER_LEVELS]
        assert labels == ["none", "W^X", "W^X+ASLR"]

    def test_labels(self):
        assert NONE.label() == "none"
        assert WX.label() == "W^X"
        assert WX_ASLR.label() == "W^X+ASLR"
        assert "CFI" in FULL.label()
        assert "diversity#3" in ProtectionProfile(diversity_seed=3).label()

    def test_with_override(self):
        assert WX.with_(aslr=True) == WX_ASLR
        assert WX_ASLR.with_(aslr=False) == WX

    def test_profiles_hashable(self):
        assert len({NONE, WX, WX_ASLR, FULL}) == 4


class TestCanary:
    def make_process(self):
        space = AddressSpace()
        space.map_new("stack", 0x20000, 0x1000, Perm.RW)
        return Process("x86", space)

    def test_value_low_byte_zero(self):
        canary = StackCanary(random.Random(1))
        assert canary.value & 0xFF == 0

    def test_values_differ_per_boot(self):
        values = {StackCanary(random.Random(seed)).value for seed in range(16)}
        assert len(values) > 8

    def test_intact_frame_passes(self):
        process = self.make_process()
        canary = StackCanary(random.Random(2))
        canary.arm_frame(process, 0x20100)
        canary.check_frame(process, 0x20100, "f")  # no raise

    def test_clobbered_frame_aborts(self):
        process = self.make_process()
        canary = StackCanary(random.Random(2))
        canary.arm_frame(process, 0x20100)
        process.memory.write_u32(0x20100, 0x41414141)
        with pytest.raises(CanaryClobbered):
            canary.check_frame(process, 0x20100, "f")


class TestShadowStackCfi:
    def make(self):
        loaded = loaded_pair("x86")
        return loaded, ShadowStackCfi.for_loaded(loaded)

    def test_valid_entries_include_functions_and_plt(self):
        loaded, cfi = self.make()
        assert loaded.address_of("parse_response") in cfi.valid_entries
        assert loaded.plt_address("memcpy") in cfi.valid_entries

    def test_matched_call_return_pair(self):
        _loaded, cfi = self.make()
        cfi.note_call(0x08048123)
        cfi.check_return(0, 0x08048123)
        assert cfi.depth == 0

    def test_mismatched_return_violates(self):
        _loaded, cfi = self.make()
        cfi.note_call(0x08048123)
        with pytest.raises(ControlFlowViolation):
            cfi.check_return(0, 0xDEADBEEF)
        assert cfi.violations == 1

    def test_return_with_empty_shadow_violates(self):
        _loaded, cfi = self.make()
        with pytest.raises(ControlFlowViolation):
            cfi.check_return(0, 0x08048123)

    def test_nested_calls_lifo(self):
        _loaded, cfi = self.make()
        cfi.note_call(0x1000)
        cfi.note_call(0x2000)
        cfi.check_return(0, 0x2000)
        cfi.check_return(0, 0x1000)

    def test_indirect_to_function_entry_allowed(self):
        loaded, cfi = self.make()
        cfi.check_indirect(0, loaded.plt_address("execlp"), "call")

    def test_indirect_to_gadget_mid_function_violates(self):
        loaded, cfi = self.make()
        target = loaded.address_of("parse_response") + 2
        with pytest.raises(ControlFlowViolation):
            cfi.check_indirect(0, target, "call")

    @pytest.mark.parametrize("code, registers", [
        (arm_asm.mov_reg("pc", "r3"), {"r3": 0x1800}),
        (arm_asm.add_reg("pc", "r2", "r3"), {"r2": 0x1000, "r3": 0x800}),
        (arm_asm.ldr("pc", "r0"), {"r0": 0x4000}),
    ], ids=["mov pc, r3", "add pc, r2, r3", "ldr pc, [r0]"])
    def test_arm_pc_write_to_a_non_entry_aborts(self, scratch_space, code, registers):
        # Every pc_via jump is an indirect branch to CFI, not only bx/blx.
        scratch_space.write(0x1000, code, check=False)
        scratch_space.write_u32(0x4000, 0x1800)
        process = Process("arm", scratch_space)
        process.pc = 0x1000
        for name, value in registers.items():
            process.registers[name] = value
        process.cfi = cfi = ShadowStackCfi({0x1000})
        result = make_emulator(process).run(100)
        assert result.signal == "SIGABRT"
        assert cfi.violations == 1
        assert (result.fault.kind, result.fault.target) == ("indirect-jump", 0x1800)

    def test_benign_daemon_traffic_unaffected(self):
        from repro.dns import SimpleDnsServer, StubResolver

        daemon = fresh_daemon("arm", profile=FULL)
        upstream = SimpleDnsServer(zone={"ok.example": "1.2.3.4"})
        transport = lambda p: daemon.handle_client_query(p, upstream.handle_query)
        for _ in range(3):
            result = StubResolver().resolve(transport, "ok.example")
            assert result.ok
        assert daemon.alive


class TestDiversity:
    def test_population_all_distinct_text(self):
        population = diversified_population("x86", "1.34", seeds=range(4))
        texts = {bytes(binary.section(".text").data) for binary in population}
        assert len(texts) == 4

    def test_compare_builds_reports(self):
        reference = build_connman("arm", seed=0)
        diversified = build_connman("arm", seed=2)
        report = compare_builds(reference, diversified)
        assert report.seed == 2
        assert 0 <= report.gadget_survival_rate < 1.0
        assert report.plt_total == len(reference.plt)

    def test_self_comparison_full_survival(self):
        reference = build_connman("x86", seed=0)
        report = compare_builds(reference, build_connman("x86", seed=0))
        assert report.gadget_survival_rate == 1.0
        assert report.plt_moved == 0

    def test_diversified_builds_equivalent_behaviour(self):
        """Diversity randomizes addresses, not semantics: both builds are
        exploitable with *their own* recon, and crash with foreign recon."""
        from repro.core import AttackScenario, attacker_knowledge, run_scenario
        from repro.exploit import X86RopMemcpyExeclp, deliver

        stock_knowledge = attacker_knowledge(AttackScenario("x86", "W^X+ASLR", WX_ASLR))
        stock_exploit = X86RopMemcpyExeclp().build(stock_knowledge)
        diversified = fresh_daemon(
            "x86", profile=WX_ASLR.with_(diversity_seed=6)
        )
        assert not deliver(stock_exploit, diversified).got_root_shell

        # Re-recon against the diversified build: works again.
        from repro.exploit import Debugger

        bench = fresh_daemon("x86", profile=WX.with_(diversity_seed=6))
        knowledge = Debugger(bench).knowledge(aslr_blind=True)
        fresh_victim = fresh_daemon("x86", profile=WX_ASLR.with_(diversity_seed=6))
        assert deliver(X86RopMemcpyExeclp().build(knowledge), fresh_victim).got_root_shell
