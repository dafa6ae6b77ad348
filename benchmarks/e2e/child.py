"""One (round, workload) pair, in a fresh single-threaded process.

Started by the runner as ``python -m benchmarks.e2e.child``; prints one
JSON object on standard output.  ``setup_s`` runs from this module's first
line, before ``import repro``, to the first timed operation.  Every time
it reports is scaled to reference host speed (see :mod:`.reference`).
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402  (the clock above must start first)
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from . import SRC  # noqa: E402
from .layers import LOOP_ARCHES, LayerTracer  # noqa: E402
from .reference import REFERENCE_S, ReferenceKernel, at_reference_speed  # noqa: E402

#: Steps per tight-loop run, as in ``benchmarks/BENCH.json``.
LOOP_STEPS = 12_000


def _loop_bench(kernel: ReferenceKernel) -> dict:
    from repro.core.bench import run_dispatch_bench

    out = {}
    for arch in LOOP_ARCHES:
        for blocks in (True, False):
            before = kernel.timed()
            run = run_dispatch_bench(arch, LOOP_STEPS, blocks_enabled=blocks)
            seconds = at_reference_speed(LOOP_STEPS / run["steps_per_s"], before, kernel.timed())
            key = "blocks_on" if blocks else "blocks_off"
            out[f"cpu.loop_steps_per_s.{arch}.{key}"] = LOOP_STEPS / seconds
    return out


def run_round(workload_name: str, seed: int, size: str, trace: bool) -> dict:
    kernel = ReferenceKernel()
    # Kernel times at each stage of set-up, which scale set-up as a whole.
    kernels = [kernel.timed()]
    sys.path.insert(0, str(SRC))
    from .workloads import WORKLOADS

    kernels.append(kernel.timed())
    workload = WORKLOADS[workload_name](seed, size)
    kernels.append(kernel.timed())
    workload.warm_up()
    tracer = None
    loop = {}
    if trace:
        loop = _loop_bench(kernel)
        tracer = LayerTracer().install()
    ops = workload.ops()
    op = next(ops)
    kernels.append(kernel.timed())
    setup_s = (perf_counter() - STARTED) * REFERENCE_S / statistics.mean(kernels)
    latencies = []
    wall = []
    failed = 0
    digest = hashlib.sha256()
    before = kernels[-1]
    while op is not None:
        # The kernel runs between steps too, so a long operation is scaled
        # by the host's speed close to each of its parts.
        op_wall = op_latency = 0.0
        oks, outcomes = [], []
        for step in op:
            step_started = perf_counter()
            ok, outcome = step()
            elapsed = perf_counter() - step_started
            after = kernel.timed()
            kernels.append(after)
            op_wall += elapsed
            op_latency += at_reference_speed(elapsed, before, after)
            before = after
            oks.append(ok)
            outcomes.append(outcome)
        wall.append(op_wall)
        latencies.append(op_latency)
        failed += not all(oks)
        digest.update("; ".join(outcomes).encode() + b"\n")
        op = next(ops, None)
    if tracer is not None:
        tracer.uninstall()
    result = {
        "workload": workload_name,
        "traced": trace,
        "attempted": len(latencies),
        "failed": failed,
        "outcome_digest": digest.hexdigest(),
        "wall_s": sum(wall),
        "latencies_s": latencies,
        "setup_s": setup_s,
        "host_slowdown": statistics.median(kernels) / REFERENCE_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = tracer.metrics(len(latencies), sum(wall), sum(latencies) / sum(wall))
        # Reported only by the workloads they apply to.
        if workload.queries:
            layers["connman.cache.hit_ratio"] = workload.cache_hits / workload.queries
        if workload.deliveries:
            layers["exploit.shell_ratio"] = workload.shells / workload.deliveries
        layers.update(loop)
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_round(args.workload, args.seed, args.size, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
