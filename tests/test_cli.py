"""Command-line interface."""

import hashlib
import re

import pytest

import repro.core.chaos as chaos
import repro.core.reliability as reliability
from repro.cli import LEVELS, build_parser, main
from repro.core.registry import experiment_ids
from repro.core.resume import load_results
from repro.cpu import Process

_RUN_CHAOS_POINT = chaos._chaos_point_task
_RUN_RELIABILITY_CELL = reliability._reliability_cell


def _failing_chaos_point(task):
    """E16's chaos point with the 0.2 fault level raising; module-level,
    so a worker pool can unpickle it."""
    if task.level == 0.2:
        raise RuntimeError("injected chaos point failure")
    return _RUN_CHAOS_POINT(task)


def _failing_reliability_cell(task):
    """E14's cell with STUDY_PLAN row 1 raising; module-level, so a worker
    pool can unpickle it."""
    if task.plan_index == 1:
        raise RuntimeError("injected reliability cell failure")
    return _RUN_RELIABILITY_CELL(task)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        # The experiment verbs are gone: `run` and `report` replace them
        # (`chaos` is `run E16 --set rates=...`).
        for verb in ("frobnicate", "matrix", "experiments", "dos",
                     "pineapple", "audit", "bruteforce", "offpath", "chaos"):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([verb])
            assert exit_info.value.code == 2, verb

    def test_levels_cover_paper_ladder(self):
        assert set(LEVELS) == {"none", "wx", "wx+aslr"}

    def test_experiment_registry(self):
        assert {"E1", "E5", "E8", "E10", "E11"} <= set(experiment_ids())


class TestCommands:
    def test_matrix(self, capsys):
        assert main(["report", "--only", "E2,E3,E4"]) == 0
        out = capsys.readouterr().out
        assert out.count("root shell") == 6

    @pytest.mark.parametrize("argv", [
        pytest.param(["observe", "chaos", "--emit", "events", "--limit", "-2"],
                     id="observe-limit"),
        pytest.param(["observe", "attack", "--emit", "trace", "--limit", "-1"],
                     id="observe-trace-limit"),
        pytest.param(["observe", "chaos", "--emit", "metrics",
                      "--fault-level", "1.5"], id="observe-fault-level"),
        pytest.param(["observe", "chaos", "--emit", "metrics",
                      "--fault-level", "nan"], id="observe-fault-level-nan"),
        pytest.param(["observe", "chaos", "--emit", "metrics",
                      "--queries", "-1"], id="observe-queries"),
        pytest.param(["observe", "chaos", "--emit", "metrics",
                      "--attack-budget", "-1"], id="observe-attack-budget"),
        pytest.param(["observe", "lan", "--emit", "pcap", "--corrupt", "2"],
                     id="observe-corrupt"),
        pytest.param(["observe", "lan", "--emit", "pcap", "--duplicate", "-0.5"],
                     id="observe-duplicate"),
        pytest.param(["run", "E16", "--trial-timeout", "-1"],
                     id="run-trial-timeout"),
        pytest.param(["run", "E16", "--trial-timeout", "nan"],
                     id="run-trial-timeout-nan"),
        pytest.param(["run", "E16", "--retries", "-1"], id="run-retries"),
        pytest.param(["run", "E16", "--workers", "-1"], id="run-workers"),
        # The chaos sweep's one shell path, with its rates pinned, rejects
        # the same bad harness flags.
        pytest.param(["run", "E16", "--set", "rates=0,0.1",
                      "--trial-timeout", "-1"], id="chaos-trial-timeout"),
        pytest.param(["run", "E16", "--set", "rates=0,0.1", "--retries", "-1"],
                     id="chaos-retries"),
        pytest.param(["run", "E16", "--set", "rates=0,0.1", "--workers", "-1"],
                     id="chaos-workers"),
        pytest.param(["gadgets", "--limit", "-1"], id="gadgets-limit"),
    ])
    def test_rejects_bad_numeric_input(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("setting, parameter", [
        pytest.param("E11 burst=-1", "burst", id="offpath-burst"),
        pytest.param("E11 burst=0", "burst", id="offpath-burst-zero"),
        pytest.param("E11 burst=70000", "burst", id="offpath-burst-range"),
        pytest.param("E11 max_queries=-2", "max_queries",
                     id="offpath-max-queries"),
        pytest.param("E10 max_attempts=-3", "max_attempts",
                     id="bruteforce-max-attempts"),
        pytest.param("E16 rates=0,1.5", "rates", id="chaos-rates-range"),
        pytest.param("E16 rates=nan", "rates", id="chaos-rates-nan"),
        pytest.param("E16 rates=0,x", "rates", id="chaos-rates-syntax"),
        pytest.param("E16 queries_per_rate=-1", "queries_per_rate",
                     id="chaos-queries-per-rate"),
        pytest.param("E16 attack_budget=-1", "attack_budget",
                     id="chaos-attack-budget"),
    ])
    def test_run_rejects_bad_library_input(self, setting, parameter, capsys):
        experiment, pinned = setting.split()
        assert main(["run", experiment, "--set", pinned]) != 0
        assert parameter in capsys.readouterr().err

    def test_experiments_selected(self, capsys):
        assert main(["report", "--only", "E1,E6"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out and "E6:" in out and "E2:" not in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["report", "--only", "E1,E99"]) == 2
        captured = capsys.readouterr()
        assert "unknown experiment 'E99'" in captured.err
        assert "known: E1, E2" in captured.err
        assert captured.out == ""  # rejected before anything runs

    def test_report_list(self, capsys):
        assert main(["report", "--list"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            f"experiment registry ({len(experiment_ids())} experiments)")
        for experiment in experiment_ids():
            assert f"\n{experiment} " in out
        assert "E1:" not in out  # listed, not run

    @pytest.mark.parametrize("argv", [
        ["--only", "E1", "--list"],
        ["--only", "E1", "--results", "r.jsonl"],
        ["--list", "--results", "r.jsonl"],
    ])
    def test_report_sources_are_exclusive(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", *argv])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_dos(self, capsys):
        assert main(["run", "E1"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        alive = {row[-2] for row in rows if row[:1] in (["x86"], ["arm"])}
        assert alive == {"True", "False"}  # 1.35 drops, 1.34 goes down

    def test_audit(self, capsys):
        assert main(["run", "E6"]) == 0
        out = capsys.readouterr().out
        assert "CVE-2017-12865" in out and "openelec-8" in out

    def test_gadgets_filter(self, capsys):
        assert main(["gadgets", "--arch", "arm", "--contains", "blx r3"]) == 0
        out = capsys.readouterr().out
        assert "blx r3" in out

    def test_gadgets_limit(self, capsys):
        assert main(["gadgets", "--arch", "x86", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "total)" in out

    def test_gadgets_limit_zero_lists_no_gadget(self, capsys):
        assert main(["gadgets", "--arch", "x86", "--limit", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("... (") and lines[0].endswith(" total)")
        assert len(lines) == 2  # the total, then the finder summary

    def test_recon_blind(self, capsys):
        assert main(["recon", "--arch", "x86", "--aslr"]) == 0
        out = capsys.readouterr().out
        assert "(assumed)" in out and "memcpy@plt" in out

    def test_recon_sighted(self, capsys):
        assert main(["recon", "--arch", "arm"]) == 0
        assert "(assumed)" not in capsys.readouterr().out

    def test_trace_shows_chain(self, capsys):
        assert main(["observe", "attack", "--emit", "trace", "--arch", "arm",
                     "--level", "wx+aslr"]) == 0
        out = capsys.readouterr().out
        assert "blx r3" in out and "execlp@plt" in out

    def test_autogen(self, capsys):
        assert main(["autogen", "--arch", "x86", "--level", "wx"]) == 0
        out = capsys.readouterr().out
        assert "verdict: root shell via ret2libc" in out

    def test_offpath_small(self, capsys):
        assert main(["run", "E11", "--set", "max_queries=256"]) == 0
        assert "code execution" in capsys.readouterr().out

    def test_bruteforce(self, capsys):
        assert main(["run", "E10"]) == 0
        assert "root shell" in capsys.readouterr().out

    def test_run_fails_on_a_quarantined_inner_trial(self, capsys, monkeypatch):
        # E16 runs its chaos points in its own inner sweep: a quarantined
        # point's row turns into a FAIL row, and the quarantine count
        # fails the run.
        argv = ["run", "E16", "--retries", "0",
                "--set", "queries_per_rate=2", "--set", "attack_budget=2"]
        assert main(argv) == 0
        assert "\n0.20 " in capsys.readouterr().out
        monkeypatch.setattr(chaos, "_chaos_point_task", _failing_chaos_point)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert re.search(r"\n0\.20 .* lost: error .*FAIL\n", captured.out)
        assert re.search(r"sweep\.quarantined.*\b1\b", captured.err)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_lost_chaos_point_fails_the_artifact(self, workers, tmp_path,
                                                 capsys, monkeypatch):
        # The artifact itself must carry the loss: re-rendering it with
        # ``report --results`` exits 1 without the run's own exit status.
        monkeypatch.setattr(chaos, "_chaos_point_task", _failing_chaos_point)
        path = tmp_path / "e16.jsonl"
        assert main(["run", "E16", "--retries", "0", "--workers", workers,
                     "--set", "queries_per_rate=2", "--set", "attack_budget=2",
                     "--results", str(path)]) == 1
        capsys.readouterr()
        _header, rows = load_results(str(path))
        assert [row["outcome"] for row in rows] == ["fail"]
        lost = [cells for cells in rows[0]["result"]["rows"]
                if cells[-1] == "FAIL"]
        assert lost == [["0.20", "-", "-", "-", "-", "-",
                         "lost: error after 1 attempt(s)", "FAIL"]]
        assert main(["report", "--results", str(path)]) == 1
        assert "lost: error after 1 attempt(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_lost_reliability_cell_fails_the_artifact(self, workers, tmp_path,
                                                      capsys, monkeypatch):
        # E14 under a supervision policy keeps the cells that finished and
        # turns the lost one into a FAIL row the artifact carries.
        monkeypatch.setattr(reliability, "_reliability_cell",
                            _failing_reliability_cell)
        path = tmp_path / "e14.jsonl"
        assert main(["run", "E14", "--retries", "0", "--workers", workers,
                     "--set", "trials=2", "--results", str(path)]) == 1
        assert re.search(r"sweep\.quarantined.*\b1\b", capsys.readouterr().err)
        _header, rows = load_results(str(path))
        assert [row["outcome"] for row in rows] == ["fail"]
        table = rows[0]["result"]["rows"]
        assert len(table) == len(reliability.STUDY_PLAN)
        assert table[1] == ["code-injection", "arm", "none",
                            "lost: error after 1 attempt(s)", "always", "FAIL"]
        assert [cells[-1] for cells in table[:1] + table[2:]] == ["ok"] * 8
        assert main(["report", "--results", str(path)]) == 1
        assert "lost: error after 1 attempt(s)" in capsys.readouterr().out

    def test_report_exits_when_a_trial_raises(self, capsys, monkeypatch):
        # ``report`` runs E16 under the strict default policy, so the
        # failing chaos point aborts the sweep with a TaskError: it must
        # end as exit 1 with one line on stderr, as ``run`` does.
        def failing_point(task):
            raise RuntimeError("injected chaos point failure")

        monkeypatch.setattr(chaos, "_chaos_point_task", failing_point)
        assert main(["report", "--only", "E16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro report: task 0 ")
        assert "injected chaos point failure" in captured.err

#: ``repro observe`` invocations and the sha256 of their stdout.  The
#: digests were recorded from the per-view verbs ``observe`` replaced
#: (``metrics``, ``trace-events``, ``spans``, ``trace-export``,
#: ``postmortem``, ``taint``, ``pcap``, ``trace``), so each view renders
#: byte for byte what it did before.  Seeds 2910 (0x0B5E) and 3243 (0xCAB)
#: are the defaults the ``taint`` and ``pcap --taint`` crash captures used
#: to run.  The two ``chaos --emit events --json`` digests were re-recorded
#: when the collector lost its time series: each document is the earlier
#: one without its ``"series"`` key.
OBSERVE_DIGESTS = [
    ("chaos --emit metrics",
     "fd3c1e4142589547f248b695b743f4912e2b3acf6bea5d14422ec5995553ac4c"),
    ("chaos --emit metrics --json",
     "7b56008f73342a3986d64c22735a69c9455d1e579990216574a48b3c48a24cb5"),
    ("chaos --emit metrics --json --queries 8 --attack-budget 6",
     "a8933c7670b7b409e7b5e083c3f350e3e62dda61a201a96fcdafb8e56c709145"),
    ("chaos --emit events",
     "dc99823df9186ad0cae058c21580efc8278dfb82942555922cc328c0a0f2b14a"),
    ("chaos --emit events --json",
     "f47a706c9edb1580448dea0b4fc769eb879360062625f2d3f949e3b758d37013"),
    ("chaos --emit events --json --queries 8 --attack-budget 6",
     "cb096cb8d08dd0b4e42eda3f59d1bb666a94471cbce7fee2096545a1df0301bb"),
    ("chaos --emit events --limit 5",
     "ef7c730ba791d1c5704d7b1d8f7ce5f27b6225e5adbf8760ce9808aefd88c9d5"),
    ("attack --emit spans",
     "00bb7a6ce4225b9cef68019659cdc0ee8731681dc230b2736a7f35ac8e1a22f7"),
    ("attack --emit spans --json",
     "0c3873c30864e7cd5e48624dd72f2cdaddcc538973b6b650356bb2cd96a4b44e"),
    ("attack --emit spans --arch arm --level wx",
     "8df94d0787d8ce8910b63b1d92d8b88affc1d6bdeb0d36d9d6079636dffaba49"),
    ("crash --emit postmortem",
     "c801f1b5fed2506f8253d8b7b49cec0b8c3ca53f1261d3f0713248290b5eb6a4"),
    ("crash --emit postmortem --json",
     "f670e45661deca81c32a10cfbc0f3d755e05cd5701fa20f50bd593211028fac8"),
    ("crash --emit postmortem --taint",
     "065c41781b949448f261aee7541414afe5c4c204afb5c30c93e8567f6dc0036e"),
    ("crash --emit postmortem --taint --json",
     "ca024616f1c6e060018ff08a851820176b567e2333605de9e3cd37cab3bf934a"),
    ("crash --emit postmortem --arch arm",
     "37cbb8a1fc2a139ff8cf979fed294ae95a21e96794e7c59dde3559678b30cdd4"),
    ("crash --emit taint --seed 2910",
     "184764876ac4174d9e48ce46c533a3b00a697addfce16cf8e8f2617b00735fe3"),
    ("crash --emit taint --json --seed 2910",
     "317a4c1a6790da983aa0e88e875fc9b29e963fb00b4a00a4cbd07eaf6ea63cc1"),
    ("crash --emit taint --arch arm --seed 2910",
     "8b8a80da1eebf31d05db9b7f60c1a3d290a37e23309f7499c4ced14bc66d78df"),
    ("crash --emit taint --arch arm --json --seed 2910",
     "1243891285be4a3858e30b2fffcfae52fe146e1e475bfe2fb86acdd93a614812"),
    ("attack --emit taint",
     "ab0f84c18881409abc259537dc3da2a4219e20f0eb9ffd5c2963d7ab227fcac0"),
    ("lan --emit pcap",
     "8b2e151b3386986f0a9450759fa3a6426517f8a71a4e3ecf54286afae0d376cd"),
    ("lan --emit sniff",
     "76becebfbd96e4c66ac1a6d5495eed742fafa040a27728da2f350d37201c7378"),
    ("crash --emit pcap --taint --seed 3243",
     "bef0dbd147413c5c9ff877bda410e6e6f412babae3ad616fa66e36dff7ca14ae"),
    ("crash --emit sniff --taint --seed 3243",
     "15ee8882f9ce93c1233413575866382ee73208cdf9c2ca052b14c7b8ce7ed356"),
    ("attack --emit trace --arch x86 --level none",
     "341c2b622d913bfe67a932d93fbbc90abf092ccd46b38b5f44e07259caf675ab"),
    ("attack --emit trace --arch x86 --level wx",
     "335b43c4a1c6586aff3dfceda0d3d75daa1468656f88584d3cd62e67c59ea7d0"),
    ("attack --emit trace --arch x86 --level wx+aslr",
     "1e4b877492df672a945244268dd82ab9f8587c42378559f68007bcb96fa1e942"),
    ("attack --emit trace --arch arm --level none",
     "fb24f75228a366523eb50f9e290c969dc6ebf489fcbdf9f09befb07bf2d1e418"),
    ("attack --emit trace --arch arm --level wx",
     "7dc842318c87de38544d02a7544291f2945ab677da6ad3b33b4727d3ac869712"),
    ("attack --emit trace --arch arm --level wx+aslr",
     "d510821c30ef0d8ea9a82cdea07a5b8ecc68910850437b7860f73751068707e0"),
    # The ROP chains: PC events via pop {..., pc}, blx r3, ret and native returns.
    ("attack --arch arm --level wx+aslr --emit taint --json",
     "fa024fdd276c3dc40e9299624994ee50ecbb32accf1dba6d7433bf7949d7ecbb"),
    ("attack --arch x86 --level wx+aslr --emit taint --json",
     "3b00ab0a52ccba44617acbd3291fe7d330c187a27a6f5280cd21590a40cf1bea"),
]


class TestObserve:
    @pytest.mark.parametrize("argv, digest", OBSERVE_DIGESTS,
                             ids=[argv for argv, _ in OBSERVE_DIGESTS])
    def test_output_is_byte_identical(self, argv, digest, capsys, monkeypatch):
        # Guest pids count up per process; start where a fresh CLI does.
        monkeypatch.setattr(Process, "_next_pid", 100)
        assert main(["observe", *argv.split()]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    @pytest.mark.parametrize("verb", ["trace-events", "metrics", "spans",
                                      "trace-export", "profile", "postmortem",
                                      "taint", "pcap", "trace", "dash"])
    def test_replaced_verbs_no_longer_parse(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        "attack --emit profile", "attack --emit folded",
        "attack --emit trace --sample-interval 23",
        "attack --emit trace --top 5"])
    def test_removed_views_and_flags_no_longer_parse(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["observe", *argv.split()])
        assert exit_info.value.code == 2

    def test_help_lists_scenarios_and_views(self, capsys):
        with pytest.raises(SystemExit):
            main(["observe", "--help"])
        out = capsys.readouterr().out
        assert "{attack,crash,chaos,lan}" in out
        assert ("{events,metrics,spans,postmortem,taint,trace,pcap,sniff}"
                in out)
        assert "--sample-interval" not in out and "--top" not in out
        assert "--compact" not in out

    @pytest.mark.parametrize("argv", ["chaos --emit pcap", "chaos --emit sniff",
                                      "lan --emit spans", "lan --emit metrics"])
    def test_unservable_view_exits_2(self, argv, capsys):
        assert main(["observe", *argv.split()]) == 2
        assert "cannot emit" in capsys.readouterr().err

    def test_postmortem_without_crash_exits_1(self, capsys):
        assert main(["observe", "attack", "--emit", "postmortem"]) == 1
        assert "no crash captured" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_corrupting_lan_capture_survives_high_bytes(self, seed, capsys):
        # A corrupted QNAME byte >= 0x80 once crashed the capture's DNS server.
        assert main(["observe", "lan", "--emit", "sniff", "--corrupt", "0.5",
                     "--duplicate", "0", "--queries", "16",
                     "--seed", str(seed)]) == 0
