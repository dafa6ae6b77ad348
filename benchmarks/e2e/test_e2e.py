"""CI-size checks of the end-to-end benchmark (under two minutes).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.e2e import ROOT, SRC, load_spec
from benchmarks.e2e.compare import FAILING, compare, load_bounds
from benchmarks.e2e.reference import REFERENCE_S, at_reference_speed
from benchmarks.e2e.runner import WORKLOAD_NAMES, aggregate, result_line

SPEC = load_spec()

#: Layers the README's table marks as dominant on each workload.  The
#: ``connman.boot`` and ``exploit.plan`` rows guard the two patching traps:
#: ``restart = boot`` is a separate class attribute, and builders bind
#: ``plan_labels`` with ``from ..payload import plan_labels``.
DOMINANT = {
    "attack-matrix": ("exploit.gadgets", "binfmt.build", "exploit.plan"),
    "bruteforce": ("exploit.plan", "binfmt.load", "connman.boot", "connman.dnsproxy"),
    "resolver": ("connman.cache", "net.deliver", "dns.codec", "dns.server"),
    "reliability": ("cpu.run", "connman.dnsproxy", "binfmt.load", "connman.boot"),
}


def _run(tmp_path, seed: int, *extra: str) -> dict:
    out = tmp_path / f"seed{seed}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--size", "ci", "--seed", str(seed),
         "--out", str(out), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("traced"), 0, "--trace")


@pytest.fixture(scope="module")
def other_seed(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("plain"), 1)


def test_every_workload_runs_without_errors(traced):
    assert list(traced["workloads"]) == list(WORKLOAD_NAMES)
    for entry in traced["workloads"].values():
        assert entry["failed"] == 0
        assert entry["metrics"]["error_rate"]["value"] == 0


def test_digest_is_the_same_with_and_without_trace(traced):
    for workload, entry in traced["workloads"].items():
        rounds = entry["round_digests"]
        assert {r["traced"] for r in rounds} == {False, True}, workload
        assert len({r["digest"] for r in rounds}) == 1, workload
        assert entry["outcome_digest"] == rounds[0]["digest"]


def test_another_seed_changes_the_digest(traced, other_seed):
    # The attack-matrix exploits are deterministic against their level and
    # run_scenario does not expose the victim, so the seed (the victims'
    # ASLR draws) leaves its outcomes unchanged by design.
    for workload in ("bruteforce", "resolver", "reliability"):
        assert (traced["workloads"][workload]["outcome_digest"]
                != other_seed["workloads"][workload]["outcome_digest"]), workload


def test_dominant_layers_record_calls(traced):
    for workload, layers in DOMINANT.items():
        metrics = traced["workloads"][workload]["layers"]
        for layer in layers:
            assert metrics[f"{layer}.calls_per_op"]["value"] > 0, (workload, layer)


def test_layers_cover_the_operations(traced):
    for workload, entry in traced["workloads"].items():
        assert entry["layers"]["other.share"]["value"] <= 0.10, workload


def test_result_line_carries_exactly_the_declared_metrics(traced):
    for workload, entry in traced["workloads"].items():
        alone = {**traced, "workloads": {workload: entry}}
        for layers, section in ((False, "end_to_end"), (True, "per_layer")):
            line = result_line(alone, layers=layers)
            assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}, workload


def test_ratios_are_reported_only_where_they_apply(traced):
    workloads = traced["workloads"]
    for workload, entry in workloads.items():
        layers = entry["layers"]
        assert ("connman.cache.hit_ratio" in layers) == (workload == "resolver"), workload
        assert ("exploit.shell_ratio" in layers) == (workload != "resolver"), workload
        ran_guest_code = layers["cpu.steps_per_op"]["value"] > 0
        if workload in ("attack-matrix", "reliability"):
            assert ran_guest_code, workload
        assert ("cpu.decode_hit_ratio" in layers) == ran_guest_code, workload
        assert ("cpu.block_step_share" in layers) == ran_guest_code, workload
    assert workloads["resolver"]["layers"]["connman.cache.hit_ratio"]["value"] > 0
    assert workloads["reliability"]["layers"]["exploit.shell_ratio"]["value"] == 1


def test_latencies_pool_the_rounds_and_other_metrics_take_medians():
    def round_(latencies_s, setup_s):
        return {"latencies_s": latencies_s, "attempted": 2, "failed": 0, "traced": False,
                "outcome_digest": "d", "setup_s": setup_s, "peak_rss_mb": 10.0,
                "host_slowdown": 1.0}

    entry = aggregate([round_([1.0, 1.0], 0.3), round_([2.0, 2.0], 0.9),
                       round_([1.0, 3.0], 0.4)], [])
    ops_per_s = entry["metrics"]["ops_per_s"]
    # Six operations in ten seconds; per round 1, 0.5 and 0.5 ops/s.
    assert (ops_per_s["value"], ops_per_s["min"], ops_per_s["max"]) == (0.6, 0.5, 1.0)
    assert ops_per_s["samples"] == 3
    assert entry["metrics"]["op_p90_ms"]["value"] == 3e3
    assert entry["metrics"]["setup_s"]["value"] == 0.4


def test_times_scale_to_reference_speed():
    # Kernel at twice its reference time on both sides: the host ran at
    # half speed, so the operation would take half as long at reference speed.
    slow = 2 * REFERENCE_S
    assert at_reference_speed(0.010, slow, slow) == pytest.approx(0.005)
    assert at_reference_speed(0.010, REFERENCE_S, slow) == pytest.approx(0.010 / 1.5)


def test_compare_accepts_a_run_against_itself(traced):
    rows = compare(traced, traced, load_bounds())
    assert not [row for row in rows if row["verdict"] in FAILING]
    assert {row["workload"] for row in rows} == set(WORKLOAD_NAMES)


def test_compare_flags_a_regression(traced):
    slower = json.loads(json.dumps(traced))
    metric = slower["workloads"]["resolver"]["metrics"]["op_p90_ms"]
    metric["value"] *= 1.5
    rows = compare(traced, slower, load_bounds())
    failing = [(r["workload"], r["metric"]) for r in rows if r["verdict"] in FAILING]
    assert failing == [("resolver", "op_p90_ms")]


#: Trial 0 of seeds 2 and 3 roots after 4 and 53 attempts; seed 5's gives
#: up at the attempt cap.
@pytest.mark.parametrize("seed", [2, 3, 5])
def test_attempt_loop_matches_run_bruteforce_trial(seed):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.exploit import run_bruteforce_trial

    from benchmarks.e2e.workloads import BruteForce, BruteForceRun

    trial = BruteForce(seed, "ci").trial(0)
    run = BruteForceRun(trial)
    while not run.done:
        ok, _outcome, _shell = run.attempt()
        assert ok
    reference = run_bruteforce_trial(trial)
    assert (run.attempts, run.winning_slide_pages) == (
        reference.attempts, reference.winning_slide_pages)
