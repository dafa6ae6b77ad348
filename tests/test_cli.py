"""Command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, LEVELS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_levels_cover_paper_ladder(self):
        assert set(LEVELS) == {"none", "wx", "wx+aslr"}

    def test_experiment_registry(self):
        assert {"E1", "E5", "E8", "E10", "E11"} <= set(EXPERIMENTS)


class TestCommands:
    def test_matrix(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert out.count("root shell") == 6

    def test_trace_events_cli_rejects_negative_limit(self, capsys):
        assert main(["trace-events", "--limit", "-2"]) == 2
        assert "--limit" in capsys.readouterr().err

    def test_experiments_selected(self, capsys):
        assert main(["experiments", "--only", "E1,E6"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out and "E6:" in out and "E2:" not in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "--only", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_dos(self, capsys):
        assert main(["dos", "--arch", "arm"]) == 0
        out = capsys.readouterr().out
        assert "[DOWN]" in out and "[alive]" in out

    def test_audit(self, capsys):
        assert main(["audit"]) == 0
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

    def test_recon_blind(self, capsys):
        assert main(["recon", "--arch", "x86", "--aslr"]) == 0
        out = capsys.readouterr().out
        assert "(assumed)" in out and "memcpy@plt" in out

    def test_recon_sighted(self, capsys):
        assert main(["recon", "--arch", "arm"]) == 0
        assert "(assumed)" not in capsys.readouterr().out

    def test_trace_shows_chain(self, capsys):
        assert main(["trace", "--arch", "arm", "--level", "wx+aslr"]) == 0
        out = capsys.readouterr().out
        assert "blx r3" in out and "execlp@plt" in out

    def test_autogen(self, capsys):
        assert main(["autogen", "--arch", "x86", "--level", "wx"]) == 0
        out = capsys.readouterr().out
        assert "verdict: root shell via ret2libc" in out

    def test_offpath_small(self, capsys):
        assert main(["offpath", "--burst", "2048", "--max-queries", "256"]) == 0
        assert "code execution" in capsys.readouterr().out

    def test_bruteforce(self, capsys):
        assert main(["bruteforce", "--max-attempts", "2048"]) == 0
        assert "root shell" in capsys.readouterr().out
