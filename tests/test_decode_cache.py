"""Decode memo, fetch-window, reg8 aliasing, and unmap semantics."""

import pytest

from repro.cpu import DecodeCache, Process, make_emulator
from repro.cpu.cache import DECODERS
from repro.cpu.events import IllegalInstruction
from repro.cpu.registers import X86_REG8, X86_REGISTERS
from repro.cpu.x86.emu import X86Emulator
from repro.mem import AddressSpace, Perm, Segment, UnmappedAddressError, WxViolation


def x86_process(segments, code_at=None):
    space = AddressSpace()
    for segment in segments:
        space.map(segment)
    if code_at:
        for address, code in code_at.items():
            space.write(address, code, check=False)
    return Process("x86", space, name="cache-test")


class TestReg8Aliasing:
    """al/cl/dl/bl write the low byte; ah/ch/dh/bh the second byte."""

    @pytest.mark.parametrize("name", X86_REG8)
    def test_write_reg8_touches_exactly_one_byte(self, name):
        process = x86_process([Segment(".text", 0x1000, 0x100, Perm.RX)])
        emulator = X86Emulator(process)
        for parent in X86_REGISTERS:
            process.registers[parent] = 0x11223344
        emulator._write_reg8(name, 0xAB)
        index = X86_REG8.index(name)
        parent = X86_REGISTERS[index & 3]
        expected = 0x112233AB if index < 4 else 0x1122AB44
        assert process.registers[parent] == expected, name
        for other in X86_REGISTERS:
            if other != parent:
                assert process.registers[other] == 0x11223344, (name, other)

    def test_mov_r8_imm8_executes_into_high_byte(self):
        # mov ah, 0x99 (0xB0+reg encoding, reg index 4 = ah)
        process = x86_process(
            [Segment(".text", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: b"\xb4\x99"},
        )
        process.registers["eax"] = 0x11223344
        process.pc = 0x1000
        X86Emulator(process).step()
        assert process.registers["eax"] == 0x11229944


class TestFetchWindow:
    """Instruction fetch spans contiguous segments; gaps still truncate."""

    def test_x86_insn_straddling_contiguous_segments_decodes(self):
        # mov eax, 0x11223344 starts 2 bytes before the segment boundary.
        process = x86_process(
            [
                Segment("lo", 0x400000, 0x1000, Perm.RX),
                Segment("hi", 0x401000, 0x1000, Perm.RX),
            ],
            code_at={0x400FFE: b"\xb8\x44\x33\x22\x11"},
        )
        process.pc = 0x400FFE
        X86Emulator(process).step()
        assert process.registers["eax"] == 0x11223344
        assert process.pc == 0x400FFE + 5

    def test_x86_insn_truncated_at_genuine_gap_faults(self):
        process = x86_process(
            [Segment("lo", 0x400000, 0x1000, Perm.RX)],
            code_at={0x400FFE: b"\xb8\x44"},
        )
        process.pc = 0x400FFE
        with pytest.raises(IllegalInstruction):
            X86Emulator(process).step()

    def test_arm_word_straddling_contiguous_segments_decodes(self):
        from repro.cpu.arm.asm import add_imm

        space = AddressSpace()
        space.map(Segment("lo", 0x10000, 2, Perm.RX))
        space.map(Segment("hi", 0x10002, 0x1000, Perm.RX))
        space.write(0x10000, add_imm("r1", "r1", 1), check=False)
        process = Process("arm", space, name="cache-test")
        process.pc = 0x10000
        make_emulator(process).step()
        assert process.registers["r1"] == 1

    def test_contiguous_span_stops_at_gap(self):
        space = AddressSpace()
        space.map(Segment("a", 0x1000, 0x100, Perm.RX))
        space.map(Segment("b", 0x1100, 0x100, Perm.RX))
        space.map(Segment("c", 0x2000, 0x100, Perm.RX))
        assert space.contiguous_span(0x10F0, 64) == 64  # spans a→b
        assert space.contiguous_span(0x11F0, 64) == 16  # gap after b
        with pytest.raises(UnmappedAddressError):
            space.contiguous_span(0x3000, 4)


def decode_every_step(monkeypatch):
    """Bypass the shared memo: from here on every step runs the decoder."""
    def decode(self, window, address):
        self.misses += 1
        return DECODERS[self.arch](window, address, strict=True)

    monkeypatch.setattr(DecodeCache, "decode", decode)


class TestDecodeCacheSemantics:
    def test_steady_state_is_all_hits(self, empty_decode_memo):
        # 8x inc eax + jmp back: 9 distinct instructions.
        process = x86_process(
            [Segment(".text", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: b"\x40" * 8 + b"\xeb\xf6"},
        )
        process.pc = 0x1000
        emulator = X86Emulator(process)
        for _ in range(30):
            emulator.step()
        cache = process.decode_cache
        assert cache.misses == 9
        assert cache.hits == 21
        assert len(empty_decode_memo["x86"]) == 9

    def test_second_process_decodes_nothing(self, empty_decode_memo):
        # The memo is shared: a second boot of the same bytes at the same
        # addresses is answered entirely by the first boot's decodes.
        code = {0x1000: b"\x40" * 8 + b"\xeb\xf6"}
        for expected_misses in (9, 0):
            process = x86_process([Segment(".text", 0x1000, 0x100, Perm.RX)], code_at=code)
            process.pc = 0x1000
            emulator = X86Emulator(process)
            for _ in range(30):
                emulator.step()
            assert process.registers["eax"] == 8 * 3 + 3
            cache = process.decode_cache
            assert (cache.misses, cache.hits) == (expected_misses, 30 - expected_misses)
        assert len(empty_decode_memo["x86"]) == 9

    def test_disabled_cache_decodes_every_step(self, monkeypatch):
        # The "off" side of the parity tests below must really bypass it.
        process = x86_process(
            [Segment(".text", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: b"\x40" * 8 + b"\xeb\xf6"},
        )
        decode_every_step(monkeypatch)
        process.pc = 0x1000
        emulator = X86Emulator(process)
        for _ in range(30):
            emulator.step()
        assert process.decode_cache.misses == 30
        assert process.decode_cache.hits == 0

    def test_self_modifying_code_executes_new_bytes(self, empty_decode_memo):
        process = x86_process(
            [Segment("rwx", 0x1000, 0x100, Perm.RWX)],
            code_at={0x1000: b"\x40"},  # inc eax
        )
        process.pc = 0x1000
        emulator = X86Emulator(process)
        emulator.step()
        assert process.registers["eax"] == 1
        assert len(empty_decode_memo["x86"]) == 1
        process.memory.write(0x1000, b"\x41")  # overwrite with inc ecx
        process.pc = 0x1000
        emulator.step()
        assert process.registers["ecx"] == 1
        assert process.registers["eax"] == 1
        # The new bytes are a new key: decoded afresh, the old entry kept.
        assert (process.decode_cache.misses, process.decode_cache.hits) == (2, 0)
        assert len(empty_decode_memo["x86"]) == 2

    def test_remap_at_same_base_runs_new_bytes(self, empty_decode_memo):
        process = x86_process(
            [Segment("old", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: b"\x40"},  # inc eax
        )
        process.pc = 0x1000
        emulator = X86Emulator(process)
        emulator.step()
        space = process.memory
        space.unmap("old")
        space.map(Segment("new", 0x1000, 0x100, Perm.RX))
        space.write(0x1000, b"\x41", check=False)  # inc ecx
        process.pc = 0x1000
        emulator.step()
        assert process.registers["ecx"] == 1
        assert process.decode_cache.misses == 2

    def test_wx_still_enforced_with_cache_on(self, empty_decode_memo):
        process = x86_process([Segment("data", 0x1000, 0x100, Perm.RW)])
        process.memory.write(0x1000, b"\x40")
        process.pc = 0x1000
        with pytest.raises(WxViolation):
            X86Emulator(process).step()
        assert process.decode_cache.misses == 0
        assert not empty_decode_memo["x86"]

    def test_wx_enforced_on_bytes_the_memo_holds(self, empty_decode_memo):
        # The same bytes at the same address, decoded once from an RX
        # mapping: the fetch still faults when the page is not executable.
        code = {0x1000: b"\x40"}
        executable = x86_process([Segment("text", 0x1000, 0x100, Perm.RX)], code_at=code)
        executable.pc = 0x1000
        X86Emulator(executable).step()
        process = x86_process([Segment("data", 0x1000, 0x100, Perm.RW)], code_at=code)
        process.pc = 0x1000
        with pytest.raises(WxViolation):
            X86Emulator(process).step()
        assert process.registers["eax"] == 0
        assert (process.decode_cache.hits, process.decode_cache.misses) == (0, 0)


class TestCrossPageEntries:
    """An instruction whose bytes straddle a page boundary is keyed by all
    of them, so a write to either page makes a new key."""

    def test_second_page_write_invalidates_cross_page_entry(self, empty_decode_memo):
        # mov eax, imm32 at 0x1FFE: opcode on page 1, the immediate's last
        # three bytes on page 2.  A write that touches only the second page
        # must still not be answered with the old decode.
        process = x86_process(
            [Segment("rwx", 0x1000, 0x2000, Perm.RWX)],
            code_at={0x1FFE: b"\xb8\x44\x33\x22\x11"},
        )
        process.pc = 0x1FFE
        emulator = X86Emulator(process)
        emulator.step()
        assert process.registers["eax"] == 0x11223344
        process.memory.write(0x2001, b"\x55")  # the 0x22 immediate byte
        process.pc = 0x1FFE
        emulator.step()
        assert process.registers["eax"] == 0x11553344
        assert process.decode_cache.misses == 2

    def test_first_page_write_also_invalidates_cross_page_entry(self, empty_decode_memo):
        process = x86_process(
            [Segment("rwx", 0x1000, 0x2000, Perm.RWX)],
            code_at={0x1FFE: b"\xb8\x44\x33\x22\x11"},
        )
        process.pc = 0x1FFE
        emulator = X86Emulator(process)
        emulator.step()
        process.memory.write(0x1FFF, b"\x99")  # low immediate byte, page 1
        process.pc = 0x1FFE
        emulator.step()
        assert process.registers["eax"] == 0x11223399
        assert process.decode_cache.misses == 2


class TestInvalidationAccounting:
    """Nothing is invalidated: each remap's new bytes are a new key,
    decoded once."""

    def test_repeated_unmap_remap_never_serves_stale_decodes(self, empty_decode_memo):
        # Three map/write/execute/unmap rounds at the same base: each round
        # must execute its own fresh bytes, never a prior round's decode.
        targets = ("eax", "ecx", "edx")
        opcodes = (b"\x40", b"\x41", b"\x42")
        process = x86_process([Segment("seed", 0x2000, 0x100, Perm.RX)])
        emulator = X86Emulator(process)
        for round_index, (target, opcode) in enumerate(zip(targets, opcodes)):
            name = f"round{round_index}"
            process.memory.map(Segment(name, 0x1000, 0x100, Perm.RX))
            process.memory.write(0x1000, opcode, check=False)
            process.pc = 0x1000
            emulator.step()
            process.memory.unmap(name)
        for target in targets:
            assert process.registers[target] == 1, target
        assert (process.decode_cache.misses, len(empty_decode_memo["x86"])) == (3, 3)


class TestUnmapSemantics:
    def test_unmap_ambiguous_duplicate_name_raises(self):
        space = AddressSpace()
        space.map(Segment("dup", 0x1000, 0x100, Perm.RW))
        space.map(Segment("dup", 0x2000, 0x100, Perm.RW))
        with pytest.raises(ValueError, match="ambiguous"):
            space.unmap("dup")
        assert space.segment_at(0x1000).base == 0x1000
        assert space.segment_at(0x2000).base == 0x2000

    def test_unmap_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            AddressSpace().unmap("ghost")

    def test_map_unmap_remap_same_base_resolves_new_segment(self):
        space = AddressSpace()
        space.map(Segment("old", 0x1000, 0x100, Perm.RW))
        space.write_u32(0x1000, 0xAAAAAAAA)  # warm the resolution memo
        assert space.segment_at(0x1000).name == "old"
        space.unmap("old")
        with pytest.raises(UnmappedAddressError):
            space.segment_at(0x1000)
        space.map(Segment("new", 0x1000, 0x100, Perm.RW))
        assert space.segment_at(0x1000).name == "new"
        assert space.read_u32(0x1000) == 0  # fresh zeroed backing


class TestOutcomeParity:
    """The cache is a pure optimization: no experiment outcome may change."""

    def _scenario_outcomes(self):
        from repro.core import PAPER_MATRIX, run_scenario

        return [run_scenario(scenario).row() for scenario in PAPER_MATRIX[:3]]

    def test_scenarios_identical_cache_on_and_off(self, monkeypatch):
        with_cache = self._scenario_outcomes()
        decode_every_step(monkeypatch)
        without_cache = self._scenario_outcomes()
        assert with_cache == without_cache

    def test_bruteforce_identical_cache_on_and_off(self, monkeypatch):
        from repro.exploit import BruteForceTrial, run_bruteforce_trial

        trial = BruteForceTrial(victim_seed=7, attacker_seed=8,
                                max_attempts=256, entropy_pages=16)
        with_cache = run_bruteforce_trial(trial)
        decode_every_step(monkeypatch)
        without_cache = run_bruteforce_trial(trial)
        assert with_cache == without_cache
        assert with_cache.succeeded
