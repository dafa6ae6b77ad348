"""The declarative experiment registry and its repro-results/v1 artifact.

Contract under test: specs expand deterministic seeded grids (stable
``grid_hash``), single-point registry runs render exactly like the legacy
hand-wired calls, the columnar artifact validates strictly and round-trips,
and a grid sweep sharded over workers — or SIGKILLed and resumed — emits a
byte-identical artifact.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    REGISTRY,
    RunPolicy,
    e1_dos,
    e6_firmware_survey,
    load_results,
    render_table,
    run_experiment,
    validate_results,
    write_results,
)
from repro.core.registry import (
    ExperimentSpec,
    all_experiments,
    derive_seed,
    get_experiment,
    register_experiment,
    registry_index_markdown,
)
from repro.cli import main
from repro.core.resume import load_checkpoint_results

REPO_ROOT = Path(__file__).resolve().parent.parent

EXPECTED_IDS = ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                "E10", "E11", "E12", "E13", "E14", "E15", "E16"]


class TestSeedDerivation:
    def test_deterministic_and_31_bit(self):
        seed = derive_seed("E15.entropy", 64, 3, "victim")
        assert seed == derive_seed("E15.entropy", 64, 3, "victim")
        assert 0 <= seed < 2 ** 31

    def test_roles_and_runs_do_not_collide(self):
        seeds = {
            derive_seed("E15.entropy", entropy, run, role)
            for entropy in (16, 64, 256, 1024)
            for run in range(32)
            for role in ("victim", "attacker")
        }
        assert len(seeds) == 4 * 32 * 2

    def test_adjacent_run_roles_differ(self):
        """The historical ``attacker = victim + 1`` collision class."""
        for run in range(16):
            attacker = derive_seed("E15.entropy", 64, run, "attacker")
            next_victim = derive_seed("E15.entropy", 64, run + 1, "victim")
            assert attacker != next_victim


class TestRegistryContents:
    def test_all_paper_experiments_registered_in_order(self):
        assert [spec.id for spec in all_experiments()] == EXPECTED_IDS

    def test_unknown_id_names_known_ones(self):
        with pytest.raises(KeyError, match="E15"):
            get_experiment("E99")

    def test_specs_reachable_from_runner(self):
        assert e1_dos.spec is REGISTRY["E1"]
        assert e1_dos.spec.title == REGISTRY["E1"].title

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            register_experiment("E1", "again")(lambda: None)

    def test_index_markdown_lists_every_spec(self):
        index = registry_index_markdown()
        for experiment_id in EXPECTED_IDS:
            assert f"| {experiment_id} |" in index

    def test_experiments_md_carries_the_generated_index(self):
        document = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        assert registry_index_markdown() in document


class TestGridExpansion:
    def test_default_grid_is_single_point(self):
        spec = get_experiment("E1")
        assert spec.grid_points() == [{}]
        assert len(spec.trials()) == 1

    def test_grid_widening_is_sorted_product(self):
        spec = get_experiment("E16")
        points = spec.grid_points(
            grid={"queries_per_rate": (8, 12), "attack_budget": (4, 6)})
        assert points == [
            {"attack_budget": 4, "queries_per_rate": 8},
            {"attack_budget": 4, "queries_per_rate": 12},
            {"attack_budget": 6, "queries_per_rate": 8},
            {"attack_budget": 6, "queries_per_rate": 12},
        ]

    def test_params_pin_single_values(self):
        spec = get_experiment("E14")
        assert spec.grid_points(params={"trials": 4}) == [{"trials": 4}]

    def test_unknown_parameter_names_runner_signature(self):
        spec = get_experiment("E14")
        with pytest.raises(ValueError, match="bogus"):
            spec.grid_points(grid={"bogus": (1,)})

    def test_harness_names_are_not_grid_axes(self, capsys):
        # As an axis, ``workers`` would run the same science once per
        # value and leak into every trial's params and the grid hash.
        with pytest.raises(ValueError, match="workers"):
            get_experiment("E10").grid_points(grid={"workers": (1, 2)})
        assert main(["run", "E10", "--grid", "workers=1,2", "--json"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_harness_names_are_not_set_params(self, tmp_path, capsys):
        # As a parameter, ``checkpoint`` would truncate an existing journal
        # behind the back of --checkpoint's overwrite refusal.
        journal = tmp_path / "journal.ckpt"
        journal.write_text("earlier run\n")
        with pytest.raises(ValueError, match="checkpoint"):
            get_experiment("E16").grid_points(
                params={"checkpoint": str(journal)})
        assert main(["run", "E16", "--set", f"checkpoint={journal}"]) == 2
        assert "checkpoint" in capsys.readouterr().err
        assert journal.read_text() == "earlier run\n"

    def test_trial_seeds_follow_the_derivation_rule(self):
        spec = get_experiment("E14")
        for trial in spec.trials(grid={"trials": (2, 3)}):
            assert trial.seed == derive_seed(
                "E14", spec.entropy, trial.index, "trial")

    def test_grid_hash_stable_and_input_sensitive(self):
        spec = get_experiment("E10")
        assert spec.grid_hash == spec.grid_hash
        # Pinned: locks the seed rule + trial repr the checkpoints trust.
        assert spec.grid_hash == "716af68bc681e463"
        from repro.core.resume import grid_hash
        widened = grid_hash(spec.trials(grid={"max_attempts": (512, 2048)}))
        assert widened != spec.grid_hash


class TestDescribeParity:
    def test_e1_registry_run_matches_legacy_call(self):
        assert run_experiment("E1").describe() == e1_dos().describe()

    def test_e6_registry_run_matches_legacy_call(self):
        assert run_experiment("E6").describe() == e6_firmware_survey().describe()


def _artifact(tmp_path):
    run = run_experiment("E14", grid={"trials": (2, 3)})
    path = str(tmp_path / "e14.jsonl")
    write_results(path, run.artifact_header(), run.artifact_rows())
    return run, path


class TestResultsArtifact:
    def test_roundtrip(self, tmp_path):
        run, path = _artifact(tmp_path)
        header, rows = load_results(path)
        assert header == run.artifact_header()
        assert rows == run.artifact_rows()
        assert header["schema"] == "repro-results/v1"
        assert [row["outcome"] for row in rows] == ["pass", "pass"]

    def test_validation_names_the_offending_row(self, tmp_path):
        run, _ = _artifact(tmp_path)
        header, rows = run.artifact_header(), run.artifact_rows()
        bad = [dict(row) for row in rows]
        bad[1]["outcome"] = "exploded"
        with pytest.raises(ValueError, match="row 1"):
            validate_results(header, bad)

    def test_validation_rejects_header_drift(self, tmp_path):
        run, _ = _artifact(tmp_path)
        header = dict(run.artifact_header(), total=5)
        with pytest.raises(ValueError, match="total"):
            validate_results(header, run.artifact_rows())

    def test_validation_rejects_misindexed_rows(self, tmp_path):
        run, _ = _artifact(tmp_path)
        rows = [dict(row) for row in run.artifact_rows()]
        rows[0]["index"] = 7
        with pytest.raises(ValueError, match="row 0"):
            validate_results(run.artifact_header(), rows)

    def test_loader_rejects_tampered_file(self, tmp_path):
        _, path = _artifact(tmp_path)
        lines = Path(path).read_text().splitlines()
        lines[0] = lines[0].replace("repro-results/v1", "repro-results/v9")
        Path(path).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="schema"):
            load_results(path)


class TestRaggedTables:
    def test_render_table_names_the_ragged_row(self):
        with pytest.raises(ValueError, match="row 1"):
            render_table(("a", "b"), [(1, 2), (1, 2, 3)])

    def test_generator_rows_still_validated(self):
        rows = ((value,) * value for value in (2, 3))
        with pytest.raises(ValueError, match="row 0"):
            render_table(("a", "b", "c"), rows)


class TestGridOrchestrator:
    def test_workers_bit_identical_to_sequential(self):
        sequential = run_experiment("E14", grid={"trials": (2, 3)}, workers=1)
        sharded = run_experiment("E14", grid={"trials": (2, 3)}, workers=2)
        dump = lambda run: json.dumps(run.to_artifact(), sort_keys=True)
        assert dump(sharded) == dump(sequential)
        assert sharded.describe() == sequential.describe()

    def test_single_point_run_exposes_result(self):
        run = run_experiment("E1")
        assert run.ok
        assert run.result.experiment_id == "E1"
        assert run.quarantined == 0

    def test_spec_objects_run_directly(self):
        spec = get_experiment("E6")
        assert isinstance(spec, ExperimentSpec)
        assert run_experiment(spec).ok

    @pytest.mark.parametrize("grid, failing", [
        pytest.param({"queries_per_rate": (2,)},
                     lambda task: task.level == 0.2, id="inner"),
        pytest.param({"queries_per_rate": (2, 3)},
                     lambda task: task.queries == 3, id="grid"),
    ])
    def test_quarantined_trial_fails_the_run(self, grid, failing, monkeypatch):
        # One grid point runs E16's own chaos sweep under the policy; two
        # run as grid trials, each with a strict inner sweep.
        import repro.core.chaos as chaos

        run_point = chaos._chaos_point_task

        def point(task):
            if failing(task):
                raise RuntimeError("injected chaos point failure")
            return run_point(task)

        monkeypatch.setattr(chaos, "_chaos_point_task", point)
        run = run_experiment("E16", grid=grid, params={"attack_budget": 2},
                             policy=RunPolicy(on_failure="quarantine"))
        assert run.quarantined == 1
        assert not run.ok
        if len(run.trials) == 1:
            # The inner sweep's lost point fails its own row.
            assert run.trials[0].failure is None
            assert not run.trials[0].expected_ok
            assert run.trials[0].result.rows[2][-2:] == (
                "lost: error after 1 attempt(s)", "FAIL")
        else:
            assert [trial.status for trial in run.trials] == [
                "pass", "quarantined"]


# -- acceptance: SIGKILL a sweep, resume, byte-identical artifact -------------

#: The registry's two journaling paths: a widened grid journals one line
#: per grid point; a single-point run delegates to the experiment's own
#: sweep, which journals one line per inner trial (E14 cell, E15 trial).
KILL_RESUME_CASES = {
    "E14-grid": (("E14", "--grid", "trials=2,3"), 2),
    "E14-single": (("E14", "--set", "trials=2"), 9),
    "E15-single": (("E15", "--set", "runs_per_point=2"), 8),
}


def _run_registry_cli(tmp_path, case, *extra, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_SWEEP_KILL_AFTER", None)
    if env_extra:
        env.update(env_extra)
    argv, _total = KILL_RESUME_CASES[case]
    return subprocess.run(
        [sys.executable, "-m", "repro", "run", *argv, "--workers", "2",
         *extra],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
        timeout=120,
    )


def _assert_kill_resume_byte_identical(tmp_path, case):
    clean = _run_registry_cli(tmp_path, case, "--results", "clean.jsonl")
    assert clean.returncode == 0, clean.stderr

    ckpt = str(tmp_path / "sweep.ckpt")
    killed = _run_registry_cli(
        tmp_path, case, "--checkpoint", ckpt, "--results", "killed.jsonl",
        env_extra={"REPRO_SWEEP_KILL_AFTER": "1"})
    assert killed.returncode == -9  # SIGKILL mid-sweep
    assert len(load_checkpoint_results(ckpt)) == 1
    assert not (tmp_path / "killed.jsonl").exists()

    resumed = _run_registry_cli(
        tmp_path, case, "--resume", ckpt, "--results", "resumed.jsonl")
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == clean.stdout
    clean_bytes = (tmp_path / "clean.jsonl").read_bytes()
    assert (tmp_path / "resumed.jsonl").read_bytes() == clean_bytes
    # Only the unfinished trials re-executed, each journaled once more.
    assert len(load_checkpoint_results(ckpt)) == KILL_RESUME_CASES[case][1]
    return resumed


class TestKillAndResumeCli:
    def test_sigkilled_grid_resumes_byte_identical(self, tmp_path):
        resumed = _assert_kill_resume_byte_identical(tmp_path, "E14-grid")
        assert "resumed" in resumed.stderr

    @pytest.mark.parametrize("case", ["E14-single", "E15-single"])
    def test_sigkilled_single_point_resumes_byte_identical(self, tmp_path,
                                                           case):
        _assert_kill_resume_byte_identical(tmp_path, case)

    def test_checkpoint_refuses_overwrite_without_resume(self, tmp_path):
        ckpt = str(tmp_path / "grid.ckpt")
        killed = _run_registry_cli(tmp_path, "E14-grid", "--checkpoint", ckpt,
                                   env_extra={"REPRO_SWEEP_KILL_AFTER": "1"})
        assert killed.returncode == -9
        rerun = _run_registry_cli(tmp_path, "E14-grid", "--checkpoint", ckpt)
        assert rerun.returncode == 2
        assert "--resume" in rerun.stderr
