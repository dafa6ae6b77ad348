"""Superblock translation: dispatch, invalidation, and outcome parity.

The block cache's contract is the decode cache's one level up: it is a pure
optimization, so every observable — outcomes, step counts, budget behaviour,
register and flag state at faults, W^X verdicts — must be bit-identical with
blocks on or off, at any worker count.  This file pins that contract.
"""

import json

import pytest

from repro.cpu import MAX_BLOCK_LEN, BlockCache, Process, TraceRecorder, make_emulator
from repro.cpu.native import NativeFunction
from repro.cpu.x86 import asm as x86
from repro.cpu.x86.emu import X86Emulator
from repro.mem import AddressSpace, Perm, Segment, WxViolation
from repro.obs import Collector


def x86_process(segments, code_at=None):
    space = AddressSpace()
    for segment in segments:
        space.map(segment)
    if code_at:
        for address, code in code_at.items():
            space.write(address, code, check=False)
    return Process("x86", space, name="block-test")


def arm_process(segments, code_at=None):
    space = AddressSpace()
    for segment in segments:
        space.map(segment)
    if code_at:
        for address, code in code_at.items():
            space.write(address, code, check=False)
    return Process("arm", space, name="block-test")


TIGHT_LOOP = b"\x40" * 8 + b"\xeb\xf6"  # 8x inc eax; jmp -10


def run_both(make_process, max_steps):
    """Run the same program blocks-on and blocks-off; return both states."""
    states = []
    for enabled in (True, False):
        process = make_process()
        process.block_cache.enabled = enabled
        result = make_emulator(process).run(max_steps=max_steps)
        states.append({
            "reason": result.reason,
            "steps": result.steps,
            "detail": result.detail,
            "signal": result.signal,
            "registers": dict(process.registers.values),
        })
    return states


class TestBlockDispatch:
    def test_steady_state_executes_through_blocks(self):
        process = x86_process(
            [Segment(".text", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: TIGHT_LOOP},
        )
        process.pc = 0x1000
        result = make_emulator(process).run(max_steps=900)
        blocks = process.block_cache
        assert result.reason == "fault" and result.signal == "SIGKILL"
        assert result.steps == 900
        # 9-insn loop: one build at the entry, then hits; all but the
        # budget tail (< one block) dispatches through compiled blocks.
        assert blocks.builds >= 1
        assert blocks.hits >= 90
        assert blocks.steps >= 900 - 9
        # The loop decodes each distinct instruction exactly once.
        assert process.decode_cache.misses == 9

    def test_disabled_block_cache_never_builds(self):
        process = x86_process(
            [Segment(".text", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: TIGHT_LOOP},
        )
        process.block_cache.enabled = False
        process.pc = 0x1000
        make_emulator(process).run(max_steps=100)
        assert process.block_cache.builds == 0
        assert process.block_cache.steps == 0

    def test_budget_exceeded_at_exactly_max_steps(self):
        # 30 is not a multiple of the 9-insn loop: the final partial block
        # must single-step so the budget fires at exactly max_steps, with
        # the same pc and registers the per-step path reaches.
        def build():
            process = x86_process(
                [Segment(".text", 0x1000, 0x100, Perm.RX)],
                code_at={0x1000: TIGHT_LOOP},
            )
            process.pc = 0x1000
            return process

        with_blocks, without_blocks = run_both(build, max_steps=30)
        assert with_blocks == without_blocks
        assert with_blocks["steps"] == 30
        assert with_blocks["signal"] == "SIGKILL"

    @pytest.mark.parametrize("max_steps", [1, 8, 9, 10, 17, 27, 100])
    def test_budget_parity_across_block_boundaries(self, max_steps):
        def build():
            process = x86_process(
                [Segment(".text", 0x1000, 0x100, Perm.RX)],
                code_at={0x1000: TIGHT_LOOP},
            )
            process.pc = 0x1000
            return process

        with_blocks, without_blocks = run_both(build, max_steps=max_steps)
        assert with_blocks == without_blocks

    def test_blocks_split_at_max_block_len(self):
        # 100 straight-line instructions: no single block may exceed the cap.
        code = b"\x40" * 100 + bytes(x86.jmp_rel8(0x1064, 0x1000))
        process = x86_process(
            [Segment(".text", 0x1000, 0x1000, Perm.RX)],
            code_at={0x1000: code},
        )
        process.pc = 0x1000
        process.observer = Collector()
        make_emulator(process).run(max_steps=300)
        blocks = process.block_cache
        lengths = process.observer.metrics.histogram("block.length")
        assert blocks.builds >= 2
        assert lengths.count == blocks.builds
        assert lengths.max <= MAX_BLOCK_LEN
        assert not blocks.built_lengths  # drained when the run ended

    def test_block_length_histogram_counts_only_the_observed_run(self):
        # Unobserved runs (code page rewritten after each, so every run
        # rebuilds) must not leak their build lengths into the next
        # observed run's block.length histogram.
        process = x86_process(
            [Segment(".text", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: TIGHT_LOOP},
        )
        emulator = make_emulator(process)
        blocks = process.block_cache
        for _ in range(3):
            process.pc = 0x1000
            emulator.run(max_steps=50)
            process.memory.write(0x1000, TIGHT_LOOP, check=False)
        assert blocks.builds >= 3
        process.observer = Collector()
        process.pc = 0x1000
        builds_before = blocks.builds
        emulator.run(max_steps=50)
        observed_builds = blocks.builds - builds_before
        metrics = process.observer.metrics
        assert observed_builds >= 1
        assert metrics.value("block_cache_misses") == observed_builds
        assert metrics.histogram("block.length").count == observed_builds

    def test_trace_recorder_forces_per_step_dispatch(self):
        process = x86_process(
            [Segment(".text", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: TIGHT_LOOP},
        )
        process.pc = 0x1000
        process.trace = TraceRecorder()
        make_emulator(process).run(max_steps=40)
        assert process.block_cache.builds == 0
        assert process.block_cache.steps == 0
        assert len(process.trace.entries) == 40

    def test_per_step_path_counts_natives_one_step_each(self):
        """Blocks off or traced, a native call costs exactly one step."""
        for mode in ("blocks-off", "trace"):
            calls = []

            def handler(context):
                calls.append(context.process.pc)
                return 0

            process = x86_process(
                [
                    Segment(".text", 0x1000, 0x100, Perm.RX),
                    Segment("stack", 0x20000, 0x1000, Perm.RW),
                ],
                code_at={
                    0x1000: x86.push_imm32(0x100A)      # return address: the nops
                    + x86.jmp_rel32(0x1005, 0x5000)     # "call" the native
                    + x86.nop() * 3
                    + x86.hlt(),
                },
            )
            process.register_native(0x5000, NativeFunction("stub", handler))
            process.registers["esp"] = 0x20800
            process.pc = 0x1000
            if mode == "blocks-off":
                process.block_cache.enabled = False
            else:
                process.trace = TraceRecorder()
            result = make_emulator(process).run(max_steps=50)
            assert calls == [0x5000], mode  # the native ran exactly once
            assert result.reason == "fault"
            # push, jmp, native invoke, 3 nops: one step each before the
            # hlt fault ends the run.
            assert result.steps == 6, mode
            assert process.block_cache.steps == 0, mode
            if mode == "trace":
                assert len(process.trace.natives()) == 1
                assert len(process.trace.entries) == result.steps + 1  # + hlt


class TestBlockInvalidation:
    def test_self_modifying_store_bails_mid_block(self):
        """A store that rewrites a *later* instruction in its own block must
        bail out so the new bytes execute — same registers as per-step."""
        # mov eax, 0x41        (inc ecx opcode in the low byte)
        # mov [ebx], eax       (overwrites the inc edx below with inc ecx)
        # inc edx              <- rewritten before it executes
        # hlt
        def build():
            target = 0x1000 + 5 + 2  # address of the inc edx
            code = (
                x86.mov_reg_imm32("eax", 0x41)
                + x86.mov_mem_reg("ebx", "eax")
                + x86.inc_reg("edx")
                + x86.hlt()
            )
            process = x86_process(
                [Segment("rwx", 0x1000, 0x1000, Perm.RWX)],
                code_at={0x1000: code},
            )
            process.registers["ebx"] = target
            process.pc = 0x1000
            return process

        with_blocks, without_blocks = run_both(build, max_steps=20)
        assert with_blocks == without_blocks
        # The rewritten byte executed: ecx incremented, edx untouched.
        assert with_blocks["registers"]["ecx"] == 1
        assert with_blocks["registers"]["edx"] == 0

    def test_stale_block_dropped_on_reentry_after_external_write(self):
        process = x86_process(
            [Segment("rwx", 0x1000, 0x1000, Perm.RWX)],
            code_at={0x1000: b"\x40\x40" + x86.hlt()},
        )
        process.pc = 0x1000
        emulator = make_emulator(process)
        emulator.run(max_steps=20)
        assert process.registers["eax"] == 2
        process.memory.write(0x1000, b"\x41\x41")  # now inc ecx twice
        process.pc = 0x1000
        emulator.run(max_steps=20)
        assert process.registers["ecx"] == 2
        assert process.registers["eax"] == 2
        assert process.block_cache.invalidations >= 1
        assert process.block_cache.epoch_flushes == 0

    def test_remap_at_same_base_flushes_whole_cache(self):
        process = x86_process(
            [Segment("old", 0x1000, 0x1000, Perm.RX)],
            code_at={0x1000: b"\x40" + x86.hlt()},
        )
        process.pc = 0x1000
        emulator = make_emulator(process)
        emulator.run(max_steps=20)
        assert process.registers["eax"] == 1
        space = process.memory
        space.unmap("old")
        space.map(Segment("new", 0x1000, 0x1000, Perm.RX))
        space.write(0x1000, b"\x41" + x86.hlt(), check=False)
        process.pc = 0x1000
        emulator.run(max_steps=20)
        assert process.registers["ecx"] == 1
        assert process.block_cache.epoch_flushes >= 1

    def test_native_registered_after_build_is_not_skipped(self):
        """A native handler installed mid-run at an address inside a compiled
        block's straight line must flush the cache and be dispatched."""
        code = x86.nop() * 4 + x86.hlt()
        process = x86_process(
            [Segment(".text", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: code},
        )
        process.pc = 0x1000
        emulator = make_emulator(process)
        emulator.run(max_steps=20)
        assert process.block_cache.builds >= 1

        calls = []

        def handler(context):
            calls.append(context.process.pc)
            context.process.pc = 0x1004  # jump straight to the hlt

        # 0x1002 sits inside the already-compiled 5-insn block.
        process.register_native(0x1002, NativeFunction("probe", handler))
        process.pc = 0x1000
        emulator.run(max_steps=20)
        assert calls == [0x1002]
        # A native registration is its own flush cause, distinct from a
        # mapping-epoch move.
        assert process.block_cache.native_flushes >= 1
        assert process.block_cache.epoch_flushes == 0

    def test_cross_page_block_invalidated_by_second_page_write(self):
        """An instruction straddling the entry page's boundary stamps the
        block with *both* pages; writing only the second page must drop it."""
        # 5-byte mov eax, imm32 at 0x1FFE: bytes span pages 1 and 2.
        def code_for(value):
            return x86.mov_reg_imm32("eax", value) + x86.hlt()

        process = x86_process(
            [Segment("rwx", 0x1000, 0x2000, Perm.RWX)],
            code_at={0x1FFE: code_for(0x11223344)},
        )
        process.pc = 0x1FFE
        emulator = make_emulator(process)
        emulator.run(max_steps=10)
        assert process.registers["eax"] == 0x11223344
        assert process.block_cache.builds >= 1
        # Rewrite one immediate byte that lives on the *second* page
        # (0x2001 holds the 0x22 of the little-endian immediate).
        process.memory.write(0x2001, b"\x55")
        process.pc = 0x1FFE
        emulator.run(max_steps=10)
        assert process.registers["eax"] == 0x11553344
        assert process.block_cache.invalidations >= 1

    def test_block_ends_at_page_boundary(self):
        # Straight-line nops across a page boundary: the block entered on
        # page 1 must not extend onto page 2 (its invalidation span stays
        # the entry page plus at most one straddled neighbour).
        process = x86_process(
            [Segment(".text", 0x1000, 0x2000, Perm.RX)],
            code_at={0x1FFC: x86.nop() * 8 + x86.hlt()},
        )
        process.pc = 0x1FFC
        make_emulator(process).run(max_steps=20)
        blocks = process.block_cache
        assert blocks.builds >= 2  # one block per page side
        assert blocks.lookup(0x1FFC).length == 4

    def test_wx_still_enforced_with_blocks_on(self):
        process = x86_process([Segment("data", 0x1000, 0x100, Perm.RW)])
        process.memory.write(0x1000, b"\x40")
        process.pc = 0x1000
        with pytest.raises(WxViolation):
            X86Emulator(process).step()
        result = make_emulator(process).run(max_steps=10)
        assert result.reason == "fault"
        assert result.signal == "SIGSEGV"
        assert process.block_cache.builds == 0
        assert len(process.block_cache) == 0


class TestFlagFidelity:
    def test_jz_sees_flags_from_last_writer(self):
        # xor eax, eax sets ZF; the dead earlier write (xor ebx, ebx after
        # it is elided or not) must not change what jz observes.
        def build():
            jz_at = 0x1000 + 2 + 2
            code = (
                x86.xor_reg_reg("ebx", "ebx")   # flag write, dead
                + x86.xor_reg_reg("eax", "eax")  # flag write, live (jz reads)
                + x86.jz_rel8(jz_at, 0x1020)
                + x86.hlt()
            )
            process = x86_process(
                [Segment(".text", 0x1000, 0x100, Perm.RX)],
                code_at={0x1000: code, 0x1020: x86.inc_reg("ecx") + x86.hlt()},
            )
            process.pc = 0x1000
            return process

        with_blocks, without_blocks = run_both(build, max_steps=20)
        assert with_blocks == without_blocks
        assert with_blocks["registers"]["ecx"] == 1  # branch was taken

    def test_flags_at_fault_match_per_step_state(self):
        """A fault mid-block must expose the architectural eflags: the flag
        write *before* a faultable store is never elided."""
        def build():
            code = (
                x86.xor_reg_reg("eax", "eax")    # ZF=1 — dead (inc follows)
                + x86.inc_reg("eax")             # ZF=0 — live across the store
                + x86.mov_mem_reg("ebx", "eax")  # faults: ebx unmapped
                + x86.hlt()
            )
            process = x86_process(
                [Segment(".text", 0x1000, 0x100, Perm.RX)],
                code_at={0x1000: code},
            )
            process.registers["ebx"] = 0xDEAD0000
            process.pc = 0x1000
            return process

        with_blocks, without_blocks = run_both(build, max_steps=20)
        assert with_blocks == without_blocks
        assert with_blocks["reason"] == "fault"
        assert with_blocks["signal"] == "SIGSEGV"
        assert with_blocks["steps"] == 2
        # pc is architectural at the fault: the store's own address.
        assert with_blocks["registers"]["eip"] == 0x1003

    def test_dead_flag_elision_does_not_leak_across_blocks(self):
        # A block ending in plain fall-through (page split) keeps its final
        # flag write live for whatever executes next.
        def build():
            code = (
                x86.xor_reg_reg("eax", "eax")    # ZF=1, last writer in block 1
                + x86.nop() * 4                  # pads exactly to the page edge
            )
            jz_at = 0x2000
            process = x86_process(
                [Segment(".text", 0x1000, 0x2000, Perm.RX)],
                code_at={
                    0x1FFA: code,                      # ends at the page edge
                    0x2000: x86.jz_rel8(jz_at, 0x2010) + x86.hlt(),
                    0x2010: x86.inc_reg("edx") + x86.hlt(),
                },
            )
            process.pc = 0x1FFA
            return process

        with_blocks, without_blocks = run_both(build, max_steps=20)
        assert with_blocks == without_blocks
        assert with_blocks["registers"]["edx"] == 1


class TestArmBlocks:
    def test_tight_loop_parity_and_block_dispatch(self):
        from repro.cpu.arm import asm as arm

        def build():
            code = (
                arm.add_imm("r0", "r0", 1)
                + arm.add_imm("r1", "r1", 2)
                + arm.eor_reg("r2", "r2", "r0")
                + arm.b(0x1000C, 0x10000)
            )
            process = arm_process(
                [Segment(".text", 0x10000, 0x1000, Perm.RX)],
                code_at={0x10000: code},
            )
            process.pc = 0x10000
            return process

        with_blocks, without_blocks = run_both(build, max_steps=101)
        assert with_blocks == without_blocks
        process = build()
        result = make_emulator(process).run(max_steps=101)
        assert result.steps == 101
        assert process.block_cache.steps >= 101 - 4

    def test_arm_store_self_modify_bails(self):
        from repro.cpu.arm import asm as arm

        def build():
            # r0 holds the encoding of "add r2, r2, 1"; str r0, [r1]
            # overwrites the "add r3, r3, 1" two slots later in the block.
            patch = int.from_bytes(arm.add_imm("r2", "r2", 1), "little")
            code = (
                arm.str_("r0", "r1")             # rewrite the later insn
                + arm.add_imm("r4", "r4", 1)
                + arm.add_imm("r3", "r3", 1)     # <- replaced before execute
                + arm.svc()
            )
            process = arm_process(
                [Segment("rwx", 0x10000, 0x1000, Perm.RWX)],
                code_at={0x10000: code},
            )
            process.registers["r0"] = patch
            process.registers["r1"] = 0x10008
            process.pc = 0x10000
            return process

        with_blocks, without_blocks = run_both(build, max_steps=10)
        assert with_blocks == without_blocks
        assert with_blocks["registers"]["r2"] == 1
        assert with_blocks["registers"]["r3"] == 0
        assert with_blocks["registers"]["r4"] == 1

    def test_arm_fault_state_parity(self):
        from repro.cpu.arm import asm as arm

        def build():
            code = (
                arm.mov_imm("r0", 0x44)
                + arm.cmp_imm("r0", 0x44)        # flags live across the load
                + arm.ldr("r5", "r6")            # faults: r6 unmapped
            )
            process = arm_process(
                [Segment(".text", 0x10000, 0x1000, Perm.RX)],
                code_at={0x10000: code},
            )
            process.registers["r6"] = 0xDEAD0000
            process.pc = 0x10000
            return process

        with_blocks, without_blocks = run_both(build, max_steps=10)
        assert with_blocks == without_blocks
        assert with_blocks["reason"] == "fault"
        assert with_blocks["registers"]["r15"] == 0x10008


class TestOutcomeParity:
    """Blocks are a pure optimization: no experiment outcome may change."""

    def _scenario_outcomes(self):
        from repro.core import PAPER_MATRIX, run_scenario

        return [run_scenario(scenario).row() for scenario in PAPER_MATRIX[:3]]

    def test_scenarios_identical_blocks_on_and_off(self, monkeypatch):
        monkeypatch.setattr(BlockCache, "enabled_by_default", True)
        with_blocks = self._scenario_outcomes()
        monkeypatch.setattr(BlockCache, "enabled_by_default", False)
        without_blocks = self._scenario_outcomes()
        assert with_blocks == without_blocks

    def test_bruteforce_identical_blocks_on_and_off(self, monkeypatch):
        from repro.exploit import BruteForceTrial, run_bruteforce_trial

        trial = BruteForceTrial(victim_seed=7, attacker_seed=8,
                                max_attempts=256, entropy_pages=16)
        monkeypatch.setattr(BlockCache, "enabled_by_default", True)
        with_blocks = run_bruteforce_trial(trial)
        monkeypatch.setattr(BlockCache, "enabled_by_default", False)
        without_blocks = run_bruteforce_trial(trial)
        assert with_blocks == without_blocks
        assert with_blocks.succeeded

    def test_chaos_sweep_byte_identical_on_off_and_parallel(self, monkeypatch):
        from repro.core import run_chaos_sweep

        kwargs = dict(queries_per_rate=6, attack_budget=6)
        monkeypatch.setattr(BlockCache, "enabled_by_default", True)
        with_blocks = run_chaos_sweep((0.0, 0.4), workers=1, **kwargs)
        parallel = run_chaos_sweep((0.0, 0.4), workers=2, **kwargs)
        monkeypatch.setattr(BlockCache, "enabled_by_default", False)
        without_blocks = run_chaos_sweep((0.0, 0.4), workers=1, **kwargs)
        on = json.dumps(with_blocks.to_dict(), sort_keys=True)
        off = json.dumps(without_blocks.to_dict(), sort_keys=True)
        par = json.dumps(parallel.to_dict(), sort_keys=True)
        assert on == off == par
