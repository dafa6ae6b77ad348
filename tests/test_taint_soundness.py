"""Flip-one-byte taint soundness oracle over seeded straight-line programs.

Each byte of a data segment carries its own label.  A program runs once
under the taint engine, then again with one labelled byte flipped.  When
both runs take the same path (step count, pc/sp sequence and memory
access addresses), every register and memory byte whose value changed
must carry the flipped byte's label: the data-flow tables next to each
``_execute`` may over-taint, but never under-taint.  Implicit flows
(flags steering a branch) and address flows (a tainted pointer) are
outside the taint policy, which is why diverging samples are discarded.
"""

import random

import pytest

from repro.cpu import Process, make_emulator
from repro.cpu.arm import asm as arm
from repro.cpu.arm.disasm import decode as arm_decode
from repro.cpu.arm.emu import DATA_FLOW as ARM_FLOW
from repro.cpu.emulator import RunObserver
from repro.cpu.x86 import asm as x86
from repro.cpu.x86.disasm import linear_sweep as x86_sweep
from repro.cpu.x86.emu import DATA_FLOW as X86_FLOW
from repro.mem import AddressSpace, Perm
from repro.obs import TaintEngine

PROGRAMS = 150
FLIPS_PER_PROGRAM = 3
TEMPLATES_PER_PROGRAM = 18

# Data sits right after the code segment, so ARM pc-relative loads reach it.
DATA = {"x86": 0x4000, "arm": 0x11000}
CODE = {arch: data - 0x800 for arch, data in DATA.items()}
DATA_SIZE = 64
STACK, STACK_SIZE = 0x20000, 0x1000
STACK_TOP = STACK + 0x800
FLAGS = {"x86": "eflags", "arm": "cpsr"}

X86_GP = ("eax", "ecx", "edx", "ebx", "esi", "edi")
ARM_GP = tuple(f"r{i}" for i in range(13))


class LoggedSpace(AddressSpace):
    """An address space that records every data access's address."""

    def __init__(self):
        super().__init__()
        self.log = []

    def read(self, address, length, *, check=True):
        self.log.append(("r", address, length))
        return super().read(address, length, check=check)

    def write(self, address, payload, *, check=True, taint=None):
        self.log.append(("w", address, len(payload)))
        super().write(address, payload, check=check, taint=taint)


class PathRecorder(RunObserver):
    def __init__(self):
        self.trail = []

    def before_step(self, process):
        self.trail.append((process.pc, process.sp))


# -- program generators ----------------------------------------------------------


def _x86_program(rng):
    code = bytearray()
    data = DATA["x86"]

    def here():
        return CODE["x86"] + len(code)

    def gp():
        return rng.choice(X86_GP)

    def pointer(base):
        code.extend(x86.mov_reg_imm32(base, rng.choice((
            data + rng.randrange(DATA_SIZE - 3), STACK_TOP - 0x40 + 4 * rng.randrange(16)))))

    def load():
        base = gp()
        code.extend(x86.mov_reg_imm32(base, data + rng.randrange(DATA_SIZE - 3)))
        code.extend(x86.mov_reg_mem(gp(), base))

    def store():
        base = gp()
        pointer(base)
        code.extend(x86.mov_mem_reg(base, gp()))

    def alu():
        dst, src = gp(), gp()
        pick = rng.randrange(9)
        if pick == 0:
            code.extend(x86.xor_reg_reg(dst, dst if rng.random() < 0.3 else src))
        elif pick == 1:
            code.extend(x86.mov_reg_imm32(dst, rng.getrandbits(32)))
        elif pick == 2:
            code.extend(rng.choice((x86.add_reg_imm8, x86.sub_reg_imm8))(dst, rng.getrandbits(8)))
        elif pick == 3:
            code.extend(x86.mov_reg8_imm8(rng.choice(("al", "cl", "dl", "bl", "ah", "ch", "dh", "bh")),
                                          rng.getrandbits(8)))
        elif pick == 4:
            code.extend(rng.choice((x86.not_reg, x86.neg_reg, x86.inc_reg, x86.dec_reg))(dst))
        elif pick == 5:
            code.extend(rng.choice((x86.shl_reg_imm8, x86.shr_reg_imm8))(dst, rng.randrange(32)))
        elif pick == 6:
            code.extend(x86.xchg_eax_reg(dst))
        elif pick == 7:
            # cdq, nop, or one of the flag-only BCD adjusts daa/das/aaa/aas.
            code.extend(rng.choice((x86.cdq(), x86.nop(), bytes([rng.choice((0x27, 0x2F, 0x37, 0x3F))]))))
        else:
            code.extend(rng.choice((x86.mov_reg_reg, x86.xor_reg_reg, x86.add_reg_reg, x86.sub_reg_reg,
                                    x86.and_reg_reg, x86.or_reg_reg, x86.cmp_reg_reg,
                                    x86.test_reg_reg))(dst, src))

    def stack():
        pick = rng.randrange(5)
        if pick == 0:
            code.extend(x86.push_reg(gp()))
        elif pick == 1:
            code.extend(rng.choice((x86.push_imm32(rng.getrandbits(32)), x86.push_imm8(rng.getrandbits(8)))))
        elif pick == 2:
            code.extend(x86.pop_reg(gp()))
        elif pick == 3:
            code.extend(x86.push_reg("esp") + x86.pop_reg("esp"))
        else:
            code.extend(x86.mov_reg_imm32("ebp", STACK_TOP - 0x40 + 4 * rng.randrange(16)) + x86.leave())

    def branch():
        # Every branch lands on the next instruction, so the program stays
        # straight-line while each control-transfer row still executes.
        pick = rng.randrange(8)
        if pick == 0:
            code.extend(x86.push_imm32(here() + 6) + x86.ret())
        elif pick == 1:
            code.extend(x86.push_imm32(here() + 8) + x86.ret_imm16(rng.choice((0, 4, 8))))
        elif pick == 2:
            code.extend(x86.call_rel32(here(), here() + 5))
        elif pick == 3:
            reg = gp()
            code.extend(x86.mov_reg_imm32(reg, here() + 7))
            code.extend(rng.choice((x86.call_reg, x86.jmp_reg))(reg))
        elif pick == 4:
            code.extend(rng.choice((x86.jmp_rel8(here(), here() + 2), x86.jmp_rel32(here(), here() + 5))))
        elif pick in (5, 6):
            code.extend(rng.choice((x86.jz_rel8, x86.jnz_rel8))(here(), here() + 2))
        else:
            # An unknown syscall number: ENOSYS in eax, execution continues.
            code.extend(x86.mov_reg_imm32("eax", 200) + x86.int_(0x80))

    for _ in range(3):
        load()
    for _ in range(TEMPLATES_PER_PROGRAM):
        rng.choice((load, store, alu, alu, stack, branch))()
    code.extend(rng.choice((x86.hlt, x86.int3))())
    return bytes(code)


def _arm_program(rng):
    code = bytearray()
    data = DATA["arm"]

    def here():
        return CODE["arm"] + len(code)

    def gp():
        return rng.choice(ARM_GP)

    def with_s(word):
        return (int.from_bytes(word, "little") | 1 << 20).to_bytes(4, "little")

    def maybe_s(word):
        return with_s(word) if rng.random() < 0.5 else word

    def memory():
        load = rng.random() < 0.6
        byte = rng.random() < 0.4
        op = {(True, False): arm.ldr, (True, True): arm.ldrb,
              (False, False): arm.str_, (False, True): arm.strb}[load, byte]
        reg, pick = gp(), rng.randrange(4)
        if pick == 0:  # pc-relative: r15 reads as this instruction + 8
            code.extend(op(reg, "pc", data + rng.randrange(DATA_SIZE - 3) - (here() + 8)))
        elif pick == 1 and not load:  # stores just below sp, from r13
            code.extend(op(reg, "sp", -4 * rng.randrange(1, 16)))
        else:
            base = gp()
            code.extend(arm.mov_imm(base, data))
            if pick == 2:
                code.extend(arm.add_imm(base, base, DATA_SIZE))
                code.extend(op(reg, base, -rng.randrange(4, DATA_SIZE + 1)))
            else:
                code.extend(op(reg, base, rng.randrange(DATA_SIZE - 3)))

    def alu():
        rd, rn, rm = gp(), gp(), gp()
        pick = rng.randrange(6)
        imm = rng.getrandbits(8) << 2 * rng.randrange(4)
        if pick == 0:
            code.extend(maybe_s(rng.choice((arm.mov_reg(rd, rm), arm.mov_imm(rd, imm), arm.mvn_imm(rd, imm),
                                            arm._data_processing_reg(0b1111, False, 0, int(rd[1:]),
                                                                     int(rm[1:]))))))
        elif pick == 1:
            code.extend(maybe_s(rng.choice((arm.add_reg, arm.sub_reg, arm.and_reg, arm.orr_reg,
                                            arm.eor_reg))(rd, rn, rm)))
        elif pick == 2:
            code.extend(maybe_s(rng.choice((arm.add_imm, arm.sub_imm, arm.and_imm, arm.orr_imm,
                                            arm.eor_imm))(rd, rn, imm)))
        elif pick == 3:
            code.extend(rng.choice((arm.add_imm(rd, "pc", imm), arm.mov_reg(rd, "pc"))))
        elif pick == 4:
            code.extend(arm.cmp_imm(rn, imm))
        else:
            # Writes to r15 that _execute lets fall through.
            code.extend(rng.choice((arm.mvn_imm("pc", imm), arm.ldrb("pc", "pc", data - (here() + 8)))))

    def reglist(count):
        return sorted(rng.sample(ARM_GP, count), key=lambda name: int(name[1:]))

    def stack():
        pick = rng.randrange(3)
        if pick == 0:
            code.extend(arm.push(reglist(rng.randrange(1, 4)) + (["lr"] if rng.random() < 0.3 else [])
                                 + (["pc"] if rng.random() < 0.2 else [])))
        elif pick == 1:
            code.extend(arm.pop(reglist(rng.randrange(1, 4)) + (["lr"] if rng.random() < 0.3 else [])))
        else:
            # r13 in both lists at the same slot: the pop restores the sp
            # the push stored, so the program keeps a valid stack.
            low, lr = rng.randrange(0, 3), rng.random() < 0.5
            code.extend(arm.push(reglist(low) + ["sp"] + (["lr"] if lr else [])))
            code.extend(arm.pop(reglist(low) + ["sp"] + (["lr"] if lr else [])))

    def branch():
        # Every branch lands on the next instruction (see _x86_program).
        reg = gp()
        pick = rng.randrange(7)
        if pick == 0:
            code.extend(rng.choice((arm.b, arm.bl))(here(), here() + 4))
        elif pick == 1:
            code.extend(arm.add_imm(reg, "pc", 0) + rng.choice((arm.bx, arm.blx_reg))(reg))
        elif pick == 2:
            code.extend(arm.add_imm(reg, "pc", 0))
            code.extend(maybe_s(rng.choice((arm.mov_reg("pc", reg), arm.add_imm("pc", reg, 0),
                                            arm.sub_imm("pc", reg, 0), arm.orr_imm("pc", reg, 0),
                                            arm.eor_imm("pc", reg, 0), arm.and_reg("pc", reg, reg)))))
        elif pick == 3:
            low, high = reglist(2)
            code.extend(arm.add_imm(high, "pc", 4) + arm.push([low, high]) + arm.pop([gp(), "pc"]))
        elif pick == 4:
            code.extend(arm.add_imm(reg, "pc", 4) + arm.str_(reg, "sp", -4) + arm.ldr("pc", "sp", -4))
        elif pick == 5:
            code.extend(arm.mov_imm(reg, data) + arm.str_("pc", reg, rng.randrange(0, DATA_SIZE - 3)))
        else:
            # An unknown syscall number: ENOSYS in r0, execution continues.
            code.extend(arm.mov_imm("r7", 200) + arm.svc(0))

    for _ in range(3):
        base = gp()
        code.extend(arm.mov_imm(base, data) + arm.ldr(gp(), base, rng.randrange(DATA_SIZE - 3)))
    for _ in range(TEMPLATES_PER_PROGRAM):
        rng.choice((memory, memory, alu, alu, stack, branch))()
    code.extend(b"\xff\xff\xff\xff")
    return bytes(code)


GENERATORS = {"x86": _x86_program, "arm": _arm_program}


def _instructions(arch, code):
    if arch == "x86":
        return list(x86_sweep(code, CODE["x86"]))
    return [arm_decode(code, CODE["arm"] + offset, offset, strict=False)
            for offset in range(0, len(code), 4)]


# -- one run ---------------------------------------------------------------------


def _run(arch, code, data, registers, *, taint, cfi=None):
    space = LoggedSpace()
    space.map_new("code", DATA[arch] - 0x1000, 0x1000, Perm.RWX)
    space.map_new("data", DATA[arch], DATA_SIZE, Perm.RW)
    space.map_new("stack", STACK, STACK_SIZE, Perm.RW)
    process = Process(arch, space)
    process.cfi = cfi
    engine = None
    if taint:
        engine = TaintEngine()
        engine.attach_process(process)
    space.write(CODE[arch], code, check=False)
    space.write(DATA[arch], data,
                taint=tuple(frozenset({(0, index)}) for index in range(DATA_SIZE)) if taint else None)
    for name, value in registers.items():
        process.registers[name] = value
    process.pc = CODE[arch]
    process.sp = STACK_TOP
    recorder = PathRecorder()
    process.observers = (recorder,) + ((engine,) if engine else ())
    space.log.clear()
    result = make_emulator(process).run(1000)
    memory = {seg.name: bytes(seg.data) for seg in space.segments()}
    path = (result.reason, result.steps, recorder.trail, space.log)
    return process, engine, memory, path


def _program(arch, seed):
    """Program ``seed``: its rng (for the flips), code, data and registers."""
    rng = random.Random(seed)
    code = GENERATORS[arch](rng)
    data = bytes(rng.getrandbits(8) for _ in range(DATA_SIZE))
    names = X86_GP + ("ebp",) if arch == "x86" else ARM_GP + ("r14",)
    registers = {name: rng.getrandbits(32) for name in names}
    return rng, code, data, registers


def _violations(arch, seed, flips=FLIPS_PER_PROGRAM):
    """Run program ``seed`` and its flipped twins; return under-taint
    findings and the number of samples that kept the same path."""
    rng, code, data, registers = _program(arch, seed)
    base, engine, base_memory, base_path = _run(arch, code, data, registers, taint=True)
    read = sorted({address - DATA[arch] + index
                   for kind, address, length in base_path[3] if kind == "r"
                   for index in range(length)
                   if 0 <= address - DATA[arch] + index < DATA_SIZE})
    findings, kept = [], 0
    for index in rng.sample(read, min(flips, len(read))):
        flipped = bytearray(data)
        flipped[index] ^= rng.randrange(1, 256)
        twin, _, twin_memory, twin_path = _run(arch, code, bytes(flipped), registers, taint=False)
        if twin_path != base_path:
            continue
        kept += 1
        label = (0, index)
        for name, value in base.registers.values.items():
            if name != FLAGS[arch] and twin.registers.values[name] != value \
                    and label not in engine.reg_labels(name):
                findings.append(f"seed {seed} data[{index}]: {name} changed, unlabelled")
        for seg in base.memory.segments():
            before, after = base_memory[seg.name], twin_memory[seg.name]
            for offset in range(seg.size):
                if before[offset] != after[offset] \
                        and label not in engine.labels_at(seg.base + offset):
                    findings.append(f"seed {seed} data[{index}]: "
                                    f"mem {seg.base + offset:#x} changed, unlabelled")
    return findings, kept


class CountingCfi:
    """A CFI policy that records every hook call and allows every branch."""

    def __init__(self):
        self.calls = []

    def note_call(self, return_address):
        self.calls.append(("note_call", return_address))

    def check_return(self, at, target):
        self.calls.append(("check_return", at, target))

    def check_indirect(self, at, target, kind):
        self.calls.append(("check_indirect", at, target, kind))


def _table_cfi_calls(flow, insns, trail, steps):
    """The hook calls the table implies for the ``steps`` completed steps of
    ``trail``: ``note_call`` once per call-kind branch, then one check per
    indirect branch, on the pc the next step starts from."""
    calls = []
    for (pc, _sp), (target, _) in zip(trail[:steps], trail[1:steps + 1]):
        insn = insns[pc]
        if flow.branch(insn) is None:
            continue
        kind = flow.pc_via[insn.mnemonic].cfi
        if kind == "call":
            calls.append(("note_call", insn.end))
        if flow.indirect(insn):
            calls.append(("check_return", pc, target) if kind == "return"
                         else ("check_indirect", pc, target, kind))
    return calls


@pytest.mark.parametrize("arch", ["x86", "arm"])
class TestTaintSoundness:
    def test_no_changed_cell_lacks_the_flipped_label(self, arch):
        findings, kept = [], 0
        for seed in range(PROGRAMS):
            found, count = _violations(arch, seed)
            findings += found
            kept += count
        assert not findings, "\n".join(findings[:20])
        # Most samples keep their path; the oracle must not be vacuous.
        assert kept >= PROGRAMS

    def test_programs_cover_every_table_row(self, arch):
        flow = X86_FLOW if arch == "x86" else ARM_FLOW
        seen = set()
        for seed in range(PROGRAMS):
            seen.update(insn.mnemonic for insn in _instructions(arch, GENERATORS[arch](random.Random(seed))))
        assert set(flow.rows) <= seen

    def test_pc_writes_cover_every_branch(self, arch):
        flow = X86_FLOW if arch == "x86" else ARM_FLOW
        branches = set()
        for seed in range(PROGRAMS):
            for insn in _instructions(arch, GENERATORS[arch](random.Random(seed))):
                if flow.branch(insn) is not None:
                    branches.add(insn.mnemonic)
        assert branches == set(flow.pc_via)

    def test_cfi_hooks_fire_once_per_table_branch(self, arch):
        flow = X86_FLOW if arch == "x86" else ARM_FLOW
        executed, hooks, kinds = set(), set(), set()
        for seed in range(PROGRAMS):
            _rng, code, data, registers = _program(arch, seed)
            insns = {insn.address: insn for insn in _instructions(arch, code)}
            cfi = CountingCfi()
            _, _, _, (_reason, steps, trail, _log) = _run(arch, code, data, registers,
                                                          taint=False, cfi=cfi)
            assert cfi.calls == _table_cfi_calls(flow, insns, trail, steps), f"seed {seed}"
            executed.update(insns[pc].mnemonic for pc, _sp in trail[:steps])
            hooks.update(call[0] for call in cfi.calls)
            kinds.update(call[3] for call in cfi.calls if call[0] == "check_indirect")
        # Every branch row ran, and every hook and indirect kind fired.
        assert set(flow.pc_via) <= executed
        assert hooks == {"note_call", "check_return", "check_indirect"}
        assert kinds == {"call", "jump"}


class TestArmRegisterListsAndPcReads:
    def _arm_insns(self):
        for seed in range(PROGRAMS):
            yield from _instructions("arm", _arm_program(random.Random(seed)))

    def test_register_lists_include_r13(self):
        lists = {insn.mnemonic for insn in self._arm_insns()
                 if insn.mnemonic in ("push", "pop") and "r13" in insn.operands[0]}
        assert lists == {"push", "pop"}

    def test_pc_relative_reads_and_writes(self):
        mnemonics = {insn.mnemonic for insn in self._arm_insns()
                     if insn.mnemonic in ("ldr", "ldrb", "str", "strb")
                     and insn.operands[1] == "r15"}
        assert mnemonics == {"ldr", "ldrb", "str", "strb"}

    def test_pop_into_r13_then_r14_is_labelled(self):
        # push {r5}; pop {r13, r14} with r5 pointing at data[16]: the pop
        # addresses both slots from the pre-step sp, so r14 never reads
        # through the sp it just loaded, and whatever it loads is labelled.
        code = arm.push(["r5"]) + arm.pop(["sp", "lr"]) + b"\xff\xff\xff\xff"
        data = bytes(range(DATA_SIZE))
        registers = {"r5": DATA["arm"] + 16, "r14": 0x1234}
        base, engine, _, base_path = _run("arm", code, data, registers, taint=True)
        flipped = bytearray(data)
        flipped[16] ^= 0xFF
        twin, _, _, twin_path = _run("arm", code, bytes(flipped), registers, taint=False)
        assert twin_path == base_path
        for name, value in base.registers.values.items():
            if twin.registers[name] != value:
                assert (0, 16) in engine.reg_labels(name), name
