"""The strict-decode memo shared across boots, and the one-byte x86 table.

Every step fetches and then asks ``DecodeCache.decode``, which answers
from one memo per ISA keyed by the fetched bytes and the address.  The
decode is a pure function of both, so the memo must be indistinguishable
from calling the decoder: same instruction, same ``IllegalInstruction``,
new bytes at an old address decoded afresh.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connman import ConnmanDaemon, EventKind
from repro.cpu import DecodeCache, Process, make_emulator
from repro.cpu.arm import disasm as arm_disasm
from repro.cpu.arm.asm import add_imm
from repro.cpu.cache import DECODE_MEMO_SIZE, DECODERS
from repro.cpu.events import IllegalInstruction
from repro.cpu.isa import Instruction
from repro.cpu.registers import X86_REGISTERS
from repro.cpu.x86 import disasm as x86_disasm
from repro.defenses import NONE
from repro.exploit import X86CodeInjection, deliver
from repro.mem import AddressSpace, Perm, Segment

ARCHES = {
    "x86": (x86_disasm.decode, st.binary(min_size=1, max_size=5)),
    "arm": (arm_disasm.decode, st.binary(min_size=4, max_size=4)),
}


def _outcome(call):
    try:
        return "ok", call()
    except IllegalInstruction as error:
        return "sigill", error.address, error.raw, str(error)


@pytest.mark.parametrize("arch", sorted(ARCHES))
@settings(max_examples=300, deadline=None)
@given(data=st.data(), address=st.integers(0, 0xFFFFFFFF))
def test_property_memo_matches_a_fresh_strict_decode(arch, data, address):
    decode, windows = ARCHES[arch]
    window = data.draw(windows)
    fresh = _outcome(lambda: decode(window, address, strict=True))
    cache = DecodeCache(arch)
    # Twice: the first call may fill the memo, the second may be served by it.
    assert _outcome(lambda: cache.decode(window, address)) == fresh
    assert _outcome(lambda: cache.decode(window, address)) == fresh


@pytest.mark.parametrize("arch", sorted(ARCHES))
def test_illegal_instruction_is_never_memoized(arch, empty_decode_memo):
    cache = DecodeCache(arch)
    window = b"\x0f\x0b" if arch == "x86" else b"\xff\xff\xff\xff"
    for _ in range(2):
        with pytest.raises(IllegalInstruction):
            cache.decode(window, 0x1000)
    # Both calls ran the decoder, and neither stored an entry.
    assert (cache.misses, cache.hits) == (2, 0)
    assert not empty_decode_memo[arch]


def test_memo_is_bounded_and_evicts_oldest_first(empty_decode_memo):
    # A sled of DECODE_MEMO_SIZE + 100 nops: one distinct key per address.
    count = DECODE_MEMO_SIZE + 100
    process = _booted("x86", b"\x90" * count + b"\xf4")
    emulator = make_emulator(process)
    for _ in range(count):
        emulator.step()
    memo = empty_decode_memo["x86"]
    cache = process.decode_cache
    assert len(memo) == DECODE_MEMO_SIZE
    assert (cache.misses, cache.hits) == (count, 0)
    # The newest key hits; the oldest was evicted and decodes again.
    process.pc = 0x10000 + count - 1
    emulator.step()
    assert (cache.misses, cache.hits) == (count, 1)
    process.pc = 0x10000
    emulator.step()
    assert (cache.misses, cache.hits) == (count + 1, 1)
    assert len(memo) == DECODE_MEMO_SIZE


def _booted(arch, code):
    """A fresh process with ``code`` at 0x10000 and the pc on it."""
    space = AddressSpace()
    space.map(Segment(".text", 0x10000, 0x2000, Perm.RX, data=code))
    process = Process(arch, space, name="memo-test")
    process.pc = 0x10000
    return process


@pytest.mark.parametrize("arch", ["x86", "arm"])
def test_new_boot_with_new_bytes_at_a_memoized_address_runs_them(arch):
    # mov eax, imm32 / add r0, r0, #imm: each boot must see its own value.
    def code(value):
        if arch == "x86":
            return b"\xb8" + value.to_bytes(4, "little")
        return add_imm("r0", "r0", value)

    result = "eax" if arch == "x86" else "r0"
    for value in (1, 2, 1):
        process = _booted(arch, code(value))
        process.registers[result] = 0
        make_emulator(process).step()
        assert process.registers[result] == value


def test_restarted_victim_decodes_no_sled_instruction(knowledge_x86_plain, monkeypatch,
                                                     empty_decode_memo):
    decoded = []

    def counting_decode(window, address, **kwargs):
        insn = x86_disasm.decode(window, address, **kwargs)
        decoded.append(insn)
        return insn

    monkeypatch.setitem(DECODERS, "x86", counting_decode)
    exploit = X86CodeInjection().build(knowledge_x86_plain)
    victim = ConnmanDaemon(arch="x86", profile=NONE)

    def attack():
        """(decoder runs, sled decoder runs) of one restarted boot."""
        decoded.clear()
        victim.restart()
        process = victim.loaded.process
        report = deliver(exploit, victim)
        assert report.event.kind == EventKind.COMPROMISED, report.event.describe()
        return process.decode_cache.misses, sum(insn.mnemonic == "nop" for insn in decoded)

    first_misses, first_sled = attack()
    second_misses, second_sled = attack()
    assert first_misses > first_sled > 0
    # The memo outlives the boot: the restarted victim ran the decoder for
    # no instruction, its sled included.
    assert (second_misses, second_sled) == (0, 0)


def _one_byte_reference():
    """opcode -> (mnemonic, operands) for every one-byte instruction of the
    subset, from the encoding rules; every other opcode needs more bytes
    or is unknown."""
    table = {0x90: ("nop", ()), 0xC3: ("ret", ()), 0xC9: ("leave", ()),
             0x99: ("cdq", ()), 0xCC: ("int3", ()), 0xF4: ("hlt", ()),
             0x27: ("daa", ()), 0x2F: ("das", ()), 0x37: ("aaa", ()),
             0x3F: ("aas", ())}
    for number, register in enumerate(X86_REGISTERS):
        table[0x40 | number] = ("inc", (register,))
        table[0x48 | number] = ("dec", (register,))
        table[0x50 | number] = ("push", (register,))
        table[0x58 | number] = ("pop", (register,))
        if number:
            table[0x90 | number] = ("xchg", ("eax", register))
    return table


@pytest.mark.parametrize("opcode", range(256), ids=lambda opcode: f"{opcode:#04x}")
def test_every_one_byte_x86_decode(opcode):
    reference = _one_byte_reference()
    raw = bytes([opcode])
    address = 0x8048000 + opcode
    if opcode in reference:
        mnemonic, operands = reference[opcode]
        want = Instruction(address, 1, mnemonic, operands, raw)
        for strict in (True, False):
            got = x86_disasm.decode(raw, address, strict=strict)
            assert got == want and type(got.raw) is bytes
        # Trailing bytes never change a one-byte instruction.
        assert x86_disasm.decode(raw + b"\x90\xcc\x00\xff", address) == want
        return
    with pytest.raises(IllegalInstruction) as error:
        x86_disasm.decode(raw, address, strict=True)
    assert (error.value.address, error.value.raw) == (address, raw)
    assert x86_disasm.decode(raw, address, strict=False) == Instruction(
        address, 1, "(bad)", (), raw)
