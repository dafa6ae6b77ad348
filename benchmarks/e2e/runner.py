"""Round orchestration, aggregation and reporting.

A run is a sequence of rounds.  Each round runs every selected workload
once, in order, each (round, workload) pair in a fresh child process, one
child at a time, and every round of a workload repeats the same work.
With tracing, every untraced child is followed by a traced one of the same
workload, so both kinds come in equal numbers and close together in time.
See :func:`aggregate` for how rounds become metrics.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from . import ROOT, SRC, load_spec

SPEC = load_spec()
WORKLOAD_NAMES = tuple(workload["name"] for workload in SPEC["workloads"])

#: Rounds in a run without ``--seconds``.
ROUNDS = {"full": 6, "ci": 2}

#: Units of the metrics BENCHMARK.json does not declare.  ``error_rate`` is
#: 0 in every correct run, and BENCHMARK.json's end-to-end metrics must never
#: read 0 (failures reach the result line as ``failed``).  ``host_slowdown``
#: describes the host, not the program: the median kernel time over the
#: reference time.  The ratios have a 0 denominator on some workload
#: (resolver and bruteforce retire no guest step, resolver delivers no
#: exploit, only resolver sends benign queries), so they are reported only
#: where they apply and not declared.
UNDECLARED_UNITS = {
    "error_rate": "failed/attempted",
    "host_slowdown": "ratio",
    "cpu.decode_hit_ratio": "ratio",
    "cpu.block_step_share": "share",
    "connman.cache.hit_ratio": "ratio",
    "exploit.shell_ratio": "ratio",
}
UNITS = {**UNDECLARED_UNITS,
         **{m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}}

CHILD_TIMEOUT_S = 170
REPORT_SCHEMA = "repro-e2e/v2"


class RoundFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, size: str, trace: bool) -> dict:
    """One (round, workload) pair; waits for the child to end."""
    command = [sys.executable, "-m", "benchmarks.e2e.child", "--workload", workload,
               "--seed", str(seed), "--size", size, "--trace", str(int(trace))]
    # A fixed hash seed: every round runs exactly the same code paths.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as timeout:
        raise RoundFailed(f"{workload}: round exceeded {CHILD_TIMEOUT_S} s") from timeout
    if proc.returncode != 0:
        raise RoundFailed(f"{workload}: round exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(1, math.ceil(q * len(ordered) - 1e-9)) - 1]


def latency_metrics(latencies_s: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(latencies_s)
    return {
        # Closed loop, one client: throughput over the time spent inside
        # operations (the harness's work between them is not the program's).
        "ops_per_s": len(ordered) / sum(ordered),
        "op_p50_ms": _percentile(ordered, 0.50) * 1e3,
        "op_p90_ms": _percentile(ordered, 0.90) * 1e3,
    }


def _median_summary(name: str, samples: Sequence[float]) -> dict:
    return {"value": statistics.median(samples), "min": min(samples),
            "max": max(samples), "unit": UNITS[name], "samples": len(samples)}


def _medians(samples: List[Dict[str, float]]) -> Dict[str, dict]:
    return {name: _median_summary(name, [metrics[name] for metrics in samples])
            for name in samples[0]}


def aggregate(plain: List[dict], traced: List[dict]) -> dict:
    """One workload's report entry from its untraced and traced rounds.

    Every metric is given with the min and max of its samples beside it.
    End-to-end metrics take one sample per untraced round, per-layer
    metrics one per traced round, and ``trace_overhead`` one per traced
    round and the untraced round before it: the traced round's summed
    operation time over the untraced round's, minus 1.  The value is the
    median of the samples, except for ``ops_per_s`` and the latency
    percentiles: they are taken over the operations of every untraced
    round together, so that p90 has enough operations beyond it.
    Operation times are at reference host speed (see :mod:`.reference`).
    """
    rounds = plain + traced
    digests = sorted({r["outcome_digest"] for r in rounds})
    entry = {
        "ops": rounds[0]["attempted"],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "outcome_digest": digests[0] if len(digests) == 1 else None,
        "round_digests": [{"traced": r["traced"], "digest": r["outcome_digest"]}
                          for r in rounds],
    }
    if plain:
        entry["metrics"] = _medians([
            {**latency_metrics(r["latencies_s"]), "error_rate": r["failed"] / r["attempted"],
             "setup_s": r["setup_s"], "peak_rss_mb": r["peak_rss_mb"],
             "host_slowdown": r["host_slowdown"]}
            for r in plain])
        pooled = latency_metrics([latency for r in plain for latency in r["latencies_s"]])
        for name, value in pooled.items():
            entry["metrics"][name]["value"] = value
    if traced:
        entry["layers"] = _medians([r["layers"] for r in traced])
        overheads = [sum(t["latencies_s"]) / sum(p["latencies_s"]) - 1.0
                     for p, t in zip(plain, traced)]
        if overheads:
            entry["layers"]["trace_overhead"] = _median_summary("trace_overhead", overheads)
    return entry


def run(workloads: Sequence[str], seed: int, size: str, *, trace: bool,
        seconds: Optional[float] = None, log=sys.stderr) -> dict:
    """Run rounds and return the report.

    A round runs, per workload, an untraced child and, when ``trace`` is
    set, a traced one.  Without ``seconds`` a run is ``ROUNDS[size]``
    rounds; with it, rounds repeat while the next one is expected to end
    within the budget, going by the previous round's duration.  At least
    one round runs.
    """
    if not (SRC / "repro").is_dir():
        raise RoundFailed(f"no program sources at {SRC}")
    plain: Dict[str, List[dict]] = {name: [] for name in workloads}
    traced: Dict[str, List[dict]] = {name: [] for name in workloads}

    def one(name: str, with_trace: bool) -> None:
        result = run_child(name, seed, size, with_trace)
        (traced if with_trace else plain)[name].append(result)
        print(f"  {name:<14} {'traced' if with_trace else 'round'} "
              f"{result['attempted']} ops in {result['wall_s']:.2f} s, "
              f"{result['failed']} failed", file=log)

    started = perf_counter()
    rounds = 0
    while True:
        round_started = perf_counter()
        for name in workloads:
            one(name, False)
            if trace:
                one(name, True)
        rounds += 1
        now = perf_counter()
        if seconds is None:
            if rounds >= ROUNDS[size]:
                break
        elif now - started + (now - round_started) > seconds:
            break
    return {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "size": size,
        "workloads": {name: aggregate(plain[name], traced[name]) for name in workloads},
    }


def is_correct(report: dict) -> bool:
    return all(entry["failed"] == 0 and entry["outcome_digest"] is not None
               for entry in report["workloads"].values())


def result_line(report: dict, *, layers: bool) -> dict:
    """The final summary line: the end-to-end metrics BENCHMARK.json
    declares (or, with ``layers``, its per-layer ones), named ``metric``
    for a single workload and ``workload/metric`` otherwise."""
    declared = {m["name"] for m in SPEC["per_layer" if layers else "end_to_end"]}
    entries = report["workloads"]
    metrics = {}
    for workload, entry in entries.items():
        prefix = "" if len(entries) == 1 else f"{workload}/"
        for name, summary in entry.get("layers" if layers else "metrics", {}).items():
            if name in declared:
                metrics[prefix + name] = {"value": summary["value"], "unit": summary["unit"]}
    return {
        "correct": is_correct(report),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    }


def render(report: dict) -> str:
    """Human-readable tables: end-to-end metrics, then per-layer metrics."""
    lines = [f"seed {report['seed']}, size {report['size']}"]
    for workload, entry in report["workloads"].items():
        digest = entry["outcome_digest"] or "MISMATCH between rounds"
        lines.append(f"\n{workload}: {entry['ops']} ops/round, {entry['attempted']} "
                     f"attempted, {entry['failed']} failed, outcome_digest {digest[:16]}")
        for section in ("metrics", "layers"):
            for name, s in entry.get(section, {}).items():
                lines.append(f"  {name:<36} {s['value']:>14.6g} {s['unit']:<16} "
                             f"samples={s['samples']} [{s['min']:.6g} .. {s['max']:.6g}]")
    return "\n".join(lines)
