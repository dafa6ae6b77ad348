"""Tight-loop dispatch microbench for the emulation core.

``run_dispatch_bench`` drives the full run loop over a self-branching
9-instruction loop until the step budget runs out.  The end-to-end
benchmark (``benchmarks/e2e``) reports its ``steps_per_s`` as the
guest-emulation layer figure; ``tests/test_parallel_and_bench.py`` pins
its counters (steps, decoder runs, memo hits) from an empty decode memo.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict

from ..cpu import Process, make_emulator
from ..cpu.arm.asm import add_imm, b as arm_b
from ..mem import AddressSpace, Perm, Segment

_CODE_BASE = 0x0804_8000


def _loop_code(arch: str) -> bytes:
    """A 9-instruction infinite loop (8 increments + a back branch).

    The x86 loop is eight ``inc eax`` one-byte opcodes and a ``jmp rel8``
    back to the top; the ARM loop is eight ``add r1, r1, #1`` words and an
    unconditional ``b`` (the emulated ARM subset has no conditional
    branches, so the loop never terminates — the harness bounds it by step
    count, not by control flow).
    """
    if arch == "x86":
        return b"\x40" * 8 + b"\xeb\xf6"  # jmp rel8 back to _CODE_BASE
    body = b"".join(add_imm("r1", "r1", 1) for _ in range(8))
    return body + arm_b(_CODE_BASE + len(body), _CODE_BASE)


def _build_loop_emulator(arch: str):
    """A minimal process whose pc sits on the benchmark loop (R|X text)."""
    memory = AddressSpace()
    code = _loop_code(arch)
    memory.map(Segment(".text", _CODE_BASE, 0x1000, Perm.R | Perm.X))
    memory.write(_CODE_BASE, code, check=False)  # loader-style text install
    process = Process(arch, memory, name=f"bench-{arch}")
    process.pc = _CODE_BASE
    return make_emulator(process)


def run_dispatch_bench(arch: str = "x86", steps: int = 12_000, *,
                       blocks_enabled: bool = True) -> Dict[str, object]:
    """Run the full run loop to budget exhaustion; report dispatch counters.

    Goes through ``Emulator.run`` — the path every experiment takes — so
    every step fetches and the shared decode memo answers all but the
    loop's first pass.  The memo outlives the run: a second bench of the
    same arch in one interpreter runs the decoder zero times.
    """
    # Read by benchmarks/e2e/child.py: delete with the benchmark's cpu.block_* / blocks_{on,off} metrics.
    del blocks_enabled
    emulator = _build_loop_emulator(arch)
    cache = emulator.process.decode_cache
    started = perf_counter()
    result = emulator.run(max_steps=steps)
    wall_s = max(perf_counter() - started, 1e-9)
    return {
        "arch": arch,
        "steps": result.steps,
        "outcome": result.reason,
        "decode_calls": cache.misses,
        "cache_hits": cache.hits,
        "wall_s": wall_s,
        "steps_per_s": result.steps / wall_s,
    }
