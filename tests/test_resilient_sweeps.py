"""Supervised sweep execution: retries, timeouts, quarantine, resume.

The resilience contract under test: a trial that raises is retried
bit-identically and, past its budget, quarantined into a typed slot; a
hung or OS-killed worker surfaces as a missed heartbeat and costs only a
pool respawn; a SIGKILLed sweep resumes from its JSONL checkpoint into a
byte-identical artifact, re-executing only the unfinished trials.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.core import (
    CheckpointMismatch,
    RunPolicy,
    SweepCheckpoint,
    TaskError,
    TrialFailure,
    describe_sweep_health,
    grid_hash,
    load_checkpoint_results,
    run_chaos_sweep,
    run_experiment,
    run_supervised,
    run_tasks,
)
from repro.core import parallel as parallel_mod
from repro.exploit.bruteforce import BruteForceTrial
from repro.obs import Collector

REPO_ROOT = Path(__file__).resolve().parent.parent
FAST = RunPolicy(retries=0, on_failure="quarantine")


def _executed(observer):
    """Trials a sweep ran to completion: one duration observation each."""
    return observer.metrics.histogram("sweep.trial.duration").count


# -- module-level workers (pool-picklable) ------------------------------------

def _square(value):
    return value * value


def _explode_on_odd(value):
    if value % 2:
        raise ValueError(f"odd task {value}")
    return value * 10


def _flaky_until_marker(task):
    """Fails until its marker file exists; creating it makes the retry pass.

    The marker crosses process boundaries, so the flake behaves the same
    under pool dispatch and in-process retry.
    """
    value, marker = task
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("tried")
        raise RuntimeError(f"transient fault on task {value}")
    return value * value


def _hang_on_seven(value):
    if value == 7:
        time.sleep(60.0)
    return value + 100


def _sleep_briefly(value):
    time.sleep(0.25)
    return value + 1000


def _die_on_three(value):
    if value == 3:
        os._exit(3)  # a worker the OS reaped: no exception, no result
    return value * 2


# -- satellite 1: strict-mode errors carry task context -----------------------

class TestTaskErrorContext:
    def test_sequential_error_names_index_and_seed(self):
        trials = [BruteForceTrial(victim_seed=40 + i, attacker_seed=1,
                                  max_attempts=4) for i in range(3)]

        def boom(trial):
            raise ValueError("nope")

        # Sequential fast path still wraps with context (worker is a
        # closure here, which only the in-process path allows).
        with pytest.raises(TaskError) as excinfo:
            run_tasks(boom, trials, workers=1)
        assert excinfo.value.index == 0
        assert excinfo.value.seed == 40  # victim_seed of task 0
        assert "seed 40" in str(excinfo.value)

    def test_pool_error_names_index(self):
        with pytest.raises(TaskError) as excinfo:
            run_tasks(_explode_on_odd, [0, 2, 4, 5, 6], workers=2)
        assert excinfo.value.index == 3
        assert "odd task 5" in excinfo.value.failure.error

    def test_run_tasks_forces_strict_mode(self):
        # Even a quarantine policy cannot make run_tasks swallow failures.
        with pytest.raises(TaskError):
            run_tasks(_explode_on_odd, [1],
                      policy=RunPolicy(on_failure="quarantine"))


class TestRunPolicyValidation:
    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite_timeout(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            RunPolicy(timeout=timeout)


# -- tentpole: quarantine, retry, heartbeat -----------------------------------

class TestQuarantine:
    def test_failures_occupy_positional_slots(self):
        observer = Collector()
        outcome = run_supervised(_explode_on_odd, [0, 1, 2, 3, 4],
                                 workers=1, policy=FAST, observer=observer)
        assert outcome.results[0] == 0
        assert isinstance(outcome.results[1], TrialFailure)
        assert outcome.results[2] == 20
        assert isinstance(outcome.results[3], TrialFailure)
        assert outcome.results[4] == 40
        assert [f.index for f in outcome.failures] == [1, 3]
        assert outcome.completed() == [0, 20, 40]
        assert not outcome.ok
        assert observer.metrics.value("sweep.quarantined") == 2
        assert _executed(observer) == 3

    def test_quarantine_record_is_typed(self):
        outcome = run_supervised(_explode_on_odd, [5], workers=1, policy=FAST)
        failure = outcome.failures[0]
        assert failure.kind == "error"
        assert failure.attempts == 1
        assert "odd task 5" in failure.error
        assert "quarantined after 1 attempt(s)" in failure.describe()
        assert failure.to_dict()["index"] == 0

    def test_retry_results_bit_identical(self, tmp_path):
        markers = [str(tmp_path / f"marker-{i}") for i in range(6)]
        tasks = list(zip(range(6), markers))
        policy = RunPolicy(retries=1, on_failure="quarantine")
        observer = Collector()
        outcome = run_supervised(_flaky_until_marker, tasks, workers=2,
                                 policy=policy, observer=observer)
        # Every trial failed once, then succeeded — with the same result a
        # never-faulting run produces.
        assert outcome.ok
        assert outcome.results == [v * v for v in range(6)]
        assert observer.metrics.value("sweep.retries") == 6
        assert observer.metrics.value("sweep.quarantined") == 0

    def test_retry_budget_exhaustion_quarantines(self, tmp_path):
        # retries=0: the first transient fault is already terminal.
        marker = str(tmp_path / "never-helped")
        outcome = run_supervised(_flaky_until_marker, [(1, marker)],
                                 workers=1, policy=FAST)
        assert isinstance(outcome.results[0], TrialFailure)
        assert outcome.failures[0].attempts == 1

    def test_hung_worker_times_out_and_others_complete(self):
        policy = RunPolicy(timeout=0.8, retries=0, on_failure="quarantine")
        observer = Collector()
        outcome = run_supervised(_hang_on_seven, [1, 7, 2], workers=2,
                                 policy=policy, observer=observer)
        assert outcome.results[0] == 101
        assert outcome.results[2] == 102
        failure = outcome.results[1]
        assert isinstance(failure, TrialFailure)
        assert failure.kind == "timeout"
        assert "deadline" in failure.error
        assert observer.metrics.value("sweep.timeouts") == 1
        assert observer.metrics.value("sweep.respawns") >= 1

    def test_deadline_clocks_execution_not_queue_time(self):
        # 8 x 0.25s trials over 2 workers is ~1s of sweep wall-clock with
        # a 0.6s per-trial timeout: if deadlines started at submission
        # (the whole queue dispatched at once), every queued trial would
        # be spuriously declared hung.  Bounded in-flight dispatch means
        # the deadline only ever covers actual execution.
        policy = RunPolicy(timeout=0.6, retries=0, on_failure="quarantine")
        observer = Collector()
        outcome = run_supervised(_sleep_briefly, list(range(8)), workers=2,
                                 policy=policy, observer=observer)
        assert outcome.ok
        assert outcome.results == [v + 1000 for v in range(8)]
        assert observer.metrics.value("sweep.timeouts") == 0
        assert observer.metrics.value("sweep.respawns") == 0

    def test_keyboard_interrupt_is_not_supervised(self):
        # ^C is the operator stopping the sweep, not a trial failing: it
        # must propagate instead of being retried and quarantined.
        def interrupt(value):
            raise KeyboardInterrupt

        policy = RunPolicy(retries=3, on_failure="quarantine")
        with pytest.raises(KeyboardInterrupt):
            run_supervised(interrupt, [1, 2, 3], workers=1, policy=policy)

    def test_worker_killed_midtrial_is_detected(self):
        # os._exit(3) in the pool child: the task can never complete, so
        # the heartbeat deadline is the detection path.
        policy = RunPolicy(timeout=1.0, retries=0, on_failure="quarantine")
        observer = Collector()
        outcome = run_supervised(_die_on_three, [1, 3, 5], workers=2,
                                 policy=policy, observer=observer)
        assert outcome.results[0] == 2
        assert outcome.results[2] == 10
        assert isinstance(outcome.results[1], TrialFailure)
        assert observer.metrics.value("sweep.respawns") >= 1


class TestFallback:
    def test_pool_creation_failure_falls_back_loudly(self, monkeypatch):
        class _BrokenContext:
            def Pool(self, processes):
                raise OSError("no POSIX semaphores in this sandbox")

        monkeypatch.setattr(parallel_mod, "_pool_context",
                            lambda: _BrokenContext())
        observer = Collector()
        outcome = run_supervised(_square, [1, 2, 3, 4], workers=4,
                                 policy=FAST, observer=observer)
        assert outcome.results == [1, 4, 9, 16]
        assert outcome.ok
        assert observer.metrics.value("sweep.fallback") == 1
        events = [e for e in observer.bus.events if e.kind == "sweep.fallback"]
        assert events and events[0].detail["stage"] == "pool-creation"
        health = describe_sweep_health(observer)
        assert health.startswith("sweep health: 4/4 executed, 0 resumed")
        assert "in-process fallback (OSError('no POSIX semaphores" in health


# -- tentpole: the checkpoint journal -----------------------------------------

class TestCheckpoint:
    def test_journal_round_trip(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        tasks = [10, 11, 12]
        digest = grid_hash(tasks)
        outcome = run_supervised(_square, tasks, workers=1, policy=FAST,
                                 checkpoint=path, experiment="unit", seed=9)
        assert outcome.results == [100, 121, 144]
        lines = Path(path).read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == "repro-sweep-checkpoint/v1"
        assert header["experiment"] == "unit"
        assert header["grid_hash"] == digest
        assert header["total"] == 3
        assert len(lines) == 4  # header + one line per trial
        assert load_checkpoint_results(path) == {0: 100, 1: 121, 2: 144}

    def test_resume_short_circuits_completed_trials(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        tasks = [10, 11, 12]
        digest = grid_hash(tasks)
        with SweepCheckpoint(path, experiment="unit", grid_hash=digest,
                             total=3) as journal:
            journal.record(0, 100)
            journal.record(2, 144)
        assert load_checkpoint_results(path) == {0: 100, 2: 144}
        observer = Collector()
        outcome = run_supervised(_square, tasks, workers=1, policy=FAST,
                                 checkpoint=path, resume=True,
                                 experiment="unit", observer=observer)
        assert outcome.results == [100, 121, 144]
        assert observer.metrics.value("sweep.resumed_trials") == 2
        assert _executed(observer) == 1  # only trial 1 re-ran
        assert describe_sweep_health(observer).startswith(
            "sweep health: 1/3 executed, 2 resumed")

    def test_resume_without_checkpoint_is_an_error(self):
        # Every sweep hands resume= to the runner, so one check covers the
        # raw runner, a sweep function and both registry paths.
        with pytest.raises(ValueError, match="checkpoint"):
            run_supervised(_square, [1], resume=True)
        with pytest.raises(ValueError, match="checkpoint"):
            run_chaos_sweep(rates=[0.0], resume=True)
        for experiment_id in ("E1", "E14"):  # grid path, inner path
            with pytest.raises(ValueError, match="checkpoint"):
                run_experiment(experiment_id, resume=True)

    def test_resume_rejects_different_grid(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        with SweepCheckpoint(path, experiment="unit",
                             grid_hash=grid_hash([1, 2]), total=2) as journal:
            journal.record(0, 1)
        with pytest.raises(CheckpointMismatch, match="grid_hash"):
            SweepCheckpoint(path, experiment="unit",
                            grid_hash=grid_hash([3, 4]), total=2, resume=True)

    def test_resume_rejects_different_experiment(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        digest = grid_hash([1])
        SweepCheckpoint(path, experiment="E16.chaos", grid_hash=digest,
                        total=1).close()
        with pytest.raises(CheckpointMismatch, match="experiment"):
            SweepCheckpoint(path, experiment="E15.entropy", grid_hash=digest,
                            total=1, resume=True)

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        digest = grid_hash([10, 11])
        with SweepCheckpoint(path, experiment="unit", grid_hash=digest,
                             total=2) as journal:
            journal.record(0, 100)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 1, "crc": 0, "payl')  # SIGKILL mid-write
        with SweepCheckpoint(path, experiment="unit", grid_hash=digest,
                             total=2, resume=True) as journal:
            assert journal.completed == {0: 100}

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "never-written.ckpt")
        with SweepCheckpoint(path, experiment="unit",
                             grid_hash=grid_hash([1]), total=1,
                             resume=True) as journal:
            assert journal.completed == {}
            journal.record(0, 7)
        assert load_checkpoint_results(path) == {0: 7}

    def test_resume_header_only_journal_writes_header_once(self, tmp_path):
        # A run killed before its first trial leaves a header-only file;
        # resuming it must append to the existing header, not a second one.
        path = str(tmp_path / "sweep.ckpt")
        digest = grid_hash([1, 2])
        SweepCheckpoint(path, experiment="unit", grid_hash=digest,
                        total=2).close()
        with SweepCheckpoint(path, experiment="unit", grid_hash=digest,
                             total=2, resume=True) as journal:
            journal.record(0, 10)
        lines = Path(path).read_text().splitlines()
        headers = [line for line in lines if "schema" in json.loads(line)]
        assert len(lines) == 2  # one header + one trial
        assert len(headers) == 1

    def test_tampered_payload_cannot_execute_code(self, tmp_path):
        # The CRC is integrity, not authentication: a hostile journal with
        # a *valid* CRC over a malicious pickle must fail to unpickle, not
        # invoke the callable it smuggles in.
        import base64
        import binascii
        import pickle

        from repro.core.resume import _decode_payload

        path = str(tmp_path / "hostile.ckpt")
        digest = grid_hash([1])
        with SweepCheckpoint(path, experiment="unit", grid_hash=digest,
                             total=1) as journal:
            blob = pickle.dumps(os.system)
            journal._append({
                "index": 0,
                "crc": binascii.crc32(blob) & 0xFFFFFFFF,
                "payload": base64.b64encode(blob).decode("ascii"),
            })
        # The loader skips the hostile line (trial re-executes) ...
        assert load_checkpoint_results(path) == {}
        # ... because the restricted unpickler refuses the global.
        record = json.loads(Path(path).read_text().splitlines()[1])
        with pytest.raises(pickle.UnpicklingError, match="allowlist"):
            _decode_payload(record)


def test_chaos_sweep_example_removes_its_journal(tmp_path, monkeypatch, capsys):
    # The example's checkpoint round trip journals into a temporary
    # directory; nothing of it may outlive the example.
    spec = importlib.util.spec_from_file_location(
        "chaos_sweep_example", REPO_ROOT / "examples" / "chaos_sweep.py")
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    example.show_checkpoint_resume()
    assert "artifact identical: True" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


# -- acceptance: kill mid-sweep, resume, byte-identical artifact --------------

def _run_chaos_cli(tmp_path, *extra, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_SWEEP_KILL_AFTER", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro", "run", "E16",
         "--set", "rates=0,0.2,0.5", "--set", "queries_per_rate=5",
         "--set", "attack_budget=5", "--workers", "2", "--json", *extra],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
        timeout=120,
    )


class TestKillAndResume:
    def test_sigkilled_sweep_resumes_byte_identical(self, tmp_path):
        clean = _run_chaos_cli(tmp_path)
        assert clean.returncode == 0, clean.stderr

        ckpt = str(tmp_path / "chaos.ckpt")
        killed = _run_chaos_cli(tmp_path, "--checkpoint", ckpt,
                                env_extra={"REPRO_SWEEP_KILL_AFTER": "1"})
        assert killed.returncode == -9  # SIGKILL, mid-sweep
        journaled = load_checkpoint_results(ckpt)
        assert len(journaled) == 1  # died right after the first journal line

        resumed = _run_chaos_cli(tmp_path, "--resume", ckpt)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean.stdout  # byte-identical artifact
        assert "1 resumed" in resumed.stderr
        # Only the two unfinished trials re-executed.
        assert len(load_checkpoint_results(ckpt)) == 3

    def test_checkpoint_refuses_to_truncate_without_resume(self, tmp_path):
        ckpt = str(tmp_path / "chaos.ckpt")
        killed = _run_chaos_cli(tmp_path, "--checkpoint", ckpt,
                                env_extra={"REPRO_SWEEP_KILL_AFTER": "1"})
        assert killed.returncode == -9
        rerun = _run_chaos_cli(tmp_path, "--checkpoint", ckpt)
        assert rerun.returncode == 2
        assert "--resume" in rerun.stderr


class TestChaosParity:
    def test_sequential_sweep_honors_policy_and_health_observer(self):
        # A plain workers=1 sweep with a supervision policy must still
        # route through the supervised runner: the CLI's --retries /
        # --trial-timeout and health counters cannot silently no-op.
        plain = run_chaos_sweep(rates=[0.0, 0.3], seed=11, queries_per_rate=5,
                                attack_budget=5, workers=1)
        sweep_observer = Collector()
        supervised = run_chaos_sweep(
            rates=[0.0, 0.3], seed=11, queries_per_rate=5, attack_budget=5,
            workers=1, policy=RunPolicy(retries=2, on_failure="quarantine"),
            sweep_observer=sweep_observer)
        assert supervised.cells == plain.cells
        assert _executed(sweep_observer) == 2
        assert sweep_observer.metrics.value("sweep.quarantined") == 0

    def test_failing_point_names_index_and_seed(self, monkeypatch):
        from repro.core import chaos

        real = chaos.run_chaos_point

        def flaky(level, **kwargs):
            if level > 0:
                raise RuntimeError("faulty point")
            return real(level, **kwargs)

        monkeypatch.setattr(chaos, "run_chaos_point", flaky)
        with pytest.raises(TaskError) as excinfo:
            run_chaos_sweep(rates=[0.0, 0.3], seed=11, queries_per_rate=5,
                            attack_budget=5, workers=1)
        assert excinfo.value.index == 1
        assert excinfo.value.seed == 11 + 7919

    def test_checkpointed_parallel_matches_sequential(self, tmp_path):
        plain = run_chaos_sweep(rates=[0.0, 0.3], seed=11, queries_per_rate=5,
                                attack_budget=5, workers=1)
        sweep_observer = Collector()
        journaled = run_chaos_sweep(rates=[0.0, 0.3], seed=11,
                                    queries_per_rate=5, attack_budget=5,
                                    workers=2,
                                    checkpoint=str(tmp_path / "c.ckpt"),
                                    sweep_observer=sweep_observer)
        assert (json.dumps(plain.to_dict(), sort_keys=True)
                == json.dumps(journaled.to_dict(), sort_keys=True))
        assert _executed(sweep_observer) == 2
        assert journaled.failures == []
