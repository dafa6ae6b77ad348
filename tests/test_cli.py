"""Command-line interface."""

import hashlib

import pytest

from repro.cli import EXPERIMENTS, LEVELS, build_parser, main
from repro.cpu import Process


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

    @pytest.mark.parametrize("argv", [
        pytest.param(["dash", "--once", "--interval", "0"], id="dash-interval-zero"),
        pytest.param(["dash", "--once", "--interval", "-1"], id="dash-interval"),
        pytest.param(["observe", "attack", "--emit", "profile",
                      "--sample-interval", "-5"], id="observe-sample-interval"),
        pytest.param(["observe", "chaos", "--emit", "events", "--limit", "-2"],
                     id="observe-limit"),
        pytest.param(["observe", "attack", "--emit", "profile", "--top", "-1"],
                     id="observe-top"),
    ])
    def test_rejects_bad_numeric_input(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[-2] in capsys.readouterr().err

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


#: ``repro observe`` invocations and the sha256 of their stdout.  The
#: digests were recorded from the per-view verbs ``observe`` replaced
#: (``metrics``, ``trace-events``, ``spans``, ``trace-export``, ``profile``,
#: ``postmortem``, ``taint``, ``pcap``), so each view renders byte for byte
#: what it did before.  Seeds 2910 (0x0B5E) and 3243 (0xCAB) are the
#: defaults the ``taint`` and ``pcap --taint`` crash captures used to run.
OBSERVE_DIGESTS = [
    ("chaos --emit metrics",
     "1a8bcfae964c1df6140b0afa43dc0134aa06c9419125cb5bff486067d194b04a"),
    ("chaos --emit metrics --json",
     "a7fc99c82457620479b09d6a8a524ca52bfd0ac3b6a3905e7074b4e02296e60e"),
    ("chaos --emit openmetrics",
     "380a3ef0877ea495f5050782494d1f23e67eb89303ac2b503ecb2e363bbd68ec"),
    ("chaos --emit metrics --json --queries 8 --attack-budget 6",
     "7db4ff0e62b1107fdd1854fbfe4a382fbe0e5bba1a255aa58e35d94c7a87bb9b"),
    ("chaos --emit openmetrics --queries 4 --attack-budget 2",
     "02685c0355b98969ff94a47c672a07460f9d7c5f1b0e1f7f5b55cf03ffe8046d"),
    ("chaos --emit events",
     "dc99823df9186ad0cae058c21580efc8278dfb82942555922cc328c0a0f2b14a"),
    ("chaos --emit events --json",
     "31a585011af959955822303e05dadd197b4a32c0c1276950597b4f4d36325ea2"),
    ("chaos --emit events --json --queries 8 --attack-budget 6",
     "9232f775d2a8ed16f68ff246eec6a5aa52006abd1f151f720571f6f66bd7967f"),
    ("chaos --emit events --limit 5",
     "ef7c730ba791d1c5704d7b1d8f7ce5f27b6225e5adbf8760ce9808aefd88c9d5"),
    ("attack --emit spans",
     "00bb7a6ce4225b9cef68019659cdc0ee8731681dc230b2736a7f35ac8e1a22f7"),
    ("attack --emit spans --json",
     "0c3873c30864e7cd5e48624dd72f2cdaddcc538973b6b650356bb2cd96a4b44e"),
    ("attack --emit spans --arch arm --level wx",
     "8df94d0787d8ce8910b63b1d92d8b88affc1d6bdeb0d36d9d6079636dffaba49"),
    ("attack --emit chrome",
     "b6196b99236c51f8f096efc52678c5d6db505b5870e9b0f54849575cf46bd17a"),
    ("attack --emit chrome --compact",
     "5cc6f2ae8ce0437009a52c9b1d42fd6d1dfa51dec615cb439ebe2e9d9d1e55d8"),
    ("attack --emit profile",
     "78258194c0f2358fd0204d22dfdc20f6b6a026132d2177b268b5756774cbf41b"),
    ("attack --arch x86 --emit folded",
     "5c191c1590efc11e11a7424262f8d4371596ee47c168f3dcdf30d7d411a1efd0"),
    ("attack --arch arm --emit folded",
     "f766fd080b54fbc614064ad57a3aaba3989e823ac2d89bee28cd9f1e94868734"),
    ("attack --emit speedscope",
     "d129646e7c0d52c3fd34c2796fdb7aceee3f1734b818e920cd6ea7c84da718a5"),
    ("attack --arch x86 --emit profile --top 5",
     "a591627bcdccb612b67623d88052f87c5dd9d4f688aedfaaa914fc4f9911b970"),
    ("attack --emit profile --json",
     "694f036bf3b107061ad4511e784022ffd4155580ce38f959c984bea09dccb5a5"),
    ("crash --emit profile --seed 2910",
     "210c5aab58220d86838f83b3649b9a2c8753a6c7e3f19784a87a5c3b803d0cc8"),
    ("chaos --emit profile --seed 2910",
     "804e9d8706d01a89b8cc4cff3b07f9fe7d307e0c28147b1470d2c3d0ad538a92"),
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
                                      "taint", "pcap"])
    def test_replaced_verbs_no_longer_parse(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb])
        assert exit_info.value.code == 2

    def test_help_lists_scenarios_and_views(self, capsys):
        with pytest.raises(SystemExit):
            main(["observe", "--help"])
        out = capsys.readouterr().out
        assert "{attack,crash,chaos,lan}" in out
        assert ("{events,metrics,openmetrics,spans,chrome,profile,folded,"
                "speedscope,postmortem,taint,pcap,sniff}") in out

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
