"""Command-line interface: drive the reproduction from a shell.

Every paper experiment (E1–E16) runs through the registry: ``run`` runs
one, ``report`` runs many.  The other verbs are tools and observed
scenarios.

::

    python -m repro report                 # every experiment table
    python -m repro report --only E2,E3,E4 # the six-attack §III matrix
    python -m repro report --list          # the experiment registry
    python -m repro run E1                 # DoS on both arches
    python -m repro run E10 --set max_attempts=512
    python -m repro run E11 --set burst=4096 --set max_queries=256
    python -m repro run E15 --checkpoint /tmp/e15.ckpt --results e15.jsonl
    python -m repro run E14 --grid trials=4,8 --workers 2 --results e14.jsonl
    python -m repro run E16 --set rates=0,0.2,0.5 --workers 2  # chaos sweep
    python -m repro report --results e15.jsonl   # render from the artifact
    python -m repro gadgets --arch arm --contains "blx"
    python -m repro recon --arch x86 --aslr
    python -m repro autogen --arch arm --level wx
    python -m repro observe chaos --emit events --json   # observed chaos point
    python -m repro observe chaos --emit metrics --json  # its metrics registry
    python -m repro observe attack --emit spans   # wire-to-verdict span tree
    python -m repro observe attack --emit trace --arch arm --level wx+aslr
    python -m repro observe crash --emit postmortem --taint  # gdb-style report
    python -m repro observe crash --emit taint  # wire offset -> memory -> PC
    python -m repro observe lan --emit pcap     # faulty LAN capture, reprocap
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional

from .connman import ConnmanDaemon
from .cpu import TraceRecorder
from .defenses import NONE, WX, WX_ASLR, ProtectionProfile
from .dns import SimpleDnsServer, make_query
from .core import (
    SUPERVISED_POLICY,
    AttackScenario,
    ObservedAttack,
    RunPolicy,
    attacker_knowledge,
    describe_sweep_health,
    render_table,
    run_chaos_point,
    run_forced_crash,
    run_observed_attack,
)
from .core.registry import all_experiments
from .exploit import AutoExploiter, GadgetFinder, builder_for
from .net import DNS_PORT, FaultPolicy, Host, Network
from .obs import (
    Collector,
    TaintEngine,
    export_pcap_text,
    render_provenance,
    sniff_capture,
)

LEVELS: Dict[str, ProtectionProfile] = {
    "none": NONE,
    "wx": WX,
    "wx+aslr": WX_ASLR,
}


def _render_artifact_tables(document) -> None:
    """Print one results artifact's experiment tables (report body)."""
    for row in document["rows"]:
        result = row.get("result")
        if result is None:
            error = row.get("error") or {}
            print(f"{document['header']['experiment']} trial {row['index']}: "
                  f"QUARANTINED after {error.get('attempts', '?')} attempt(s): "
                  f"{error.get('error', 'unknown failure')}")
            continue
        print(render_table(result["headers"], [tuple(r) for r in result["rows"]],
                           title=f"{result['experiment']}: {result['title']}"))
        if result.get("notes"):
            print(result["notes"])


def cmd_report(args) -> int:
    """Print the measured experiment tables (EXPERIMENTS.md body).

    Every experiment runs through the registry and renders from its
    ``repro-results/v1`` document — the same artifact ``repro run
    --results`` writes, ``--results PATH`` re-reads, and ``--emit-results
    DIR`` persists, one file per experiment.  ``--only`` picks experiments by
    id and ``--list`` prints the registry without running it.  Exits
    non-zero when any trial failed or ended unexpectedly.
    """
    import os

    from .core import TaskError
    from .core.registry import (get_experiment, render_registry_table,
                                results_ok, run_experiment)
    from .core.resume import load_results, write_results

    if args.list:
        print(render_registry_table())
        return 0
    documents = []
    if args.results:
        for path in args.results:
            try:
                header, rows = load_results(path)
            except (OSError, ValueError) as error:
                print(f"repro report: cannot read results artifact {path}: "
                      f"{error}", file=sys.stderr)
                return 2
            documents.append({"header": header, "rows": rows})
    else:
        try:
            specs = ([get_experiment(name.strip().upper())
                      for name in args.only.split(",")]
                     if args.only else all_experiments())
        except KeyError as error:
            print(f"repro report: {error.args[0]}", file=sys.stderr)
            return 2
        try:
            for spec in specs:
                documents.append(run_experiment(spec).to_artifact())
        except TaskError as error:
            print(f"repro report: {error}", file=sys.stderr)
            return 1
        if args.emit_results:
            os.makedirs(args.emit_results, exist_ok=True)
            for document in documents:
                path = os.path.join(
                    args.emit_results,
                    f"{document['header']['experiment']}.jsonl")
                write_results(path, document["header"], document["rows"])
            print(f"wrote {len(documents)} repro-results/v1 artifacts to "
                  f"{args.emit_results}", file=sys.stderr)
    if args.json:
        print(json.dumps(documents, indent=2, sort_keys=True))
    else:
        for document in documents:
            _render_artifact_tables(document)
            print()
    return 0 if all(results_ok(doc["rows"]) for doc in documents) else 1


def _add_arch(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arch", choices=("x86", "arm"), default="x86")


def _add_level(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--level", choices=sorted(LEVELS), default="none",
                        help="victim protection level")


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """The harness flags of ``run``: workers, journal and supervision.

    Supervision (quarantine instead of abort) is on when
    ``--trial-timeout`` or ``--retries`` is given.
    """
    parser.add_argument("--workers", type=_non_negative_int, default=1,
                        help="fan trials out over N processes "
                             "(0 = one per CPU); output matches --workers 1")
    journal = parser.add_mutually_exclusive_group()
    journal.add_argument("--checkpoint", metavar="PATH",
                         help="journal completed trials to an append-only "
                              "JSONL checkpoint at PATH")
    journal.add_argument("--resume", metavar="PATH",
                         help="resume a killed run from its checkpoint; only "
                              "unfinished trials re-execute and the output "
                              "is byte-identical to an uninterrupted run "
                              "(PATH is trusted input: payloads are "
                              "unpickled, restricted to repro classes)")
    parser.add_argument("--trial-timeout", type=_positive_float,
                        help="wall-clock seconds before a hung trial's pool "
                             "is respawned (enables quarantine supervision)")
    parser.add_argument("--retries", type=_non_negative_int,
                        help="retry budget per trial before quarantine "
                             "(enables quarantine supervision)")


def _sweep_settings(args):
    """Resolve :func:`_add_sweep_flags` into ``(checkpoint, resume,
    policy)``, or None (after saying why on stderr) when ``--checkpoint``
    would overwrite a journal that ``--resume`` should continue."""
    import os

    checkpoint = args.resume or args.checkpoint
    resume = args.resume is not None
    if (not resume and checkpoint and os.path.exists(checkpoint)
            and os.path.getsize(checkpoint) > 0):
        print(f"repro run: checkpoint {checkpoint!r} already has "
              "journaled trials; pass --resume to continue it or remove the "
              "file to start over", file=sys.stderr)
        return None
    policy = None
    if args.trial_timeout is not None or args.retries is not None:
        retries = args.retries
        policy = RunPolicy(
            timeout=args.trial_timeout or SUPERVISED_POLICY.timeout,
            retries=SUPERVISED_POLICY.retries if retries is None else retries,
            on_failure="quarantine")
    return checkpoint, resume, policy


def _parse_value(text: str):
    """Literal-eval a CLI parameter value, falling back to the raw string."""
    import ast

    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_values(text: str) -> tuple:
    """Literal-eval a ``--grid`` value list as one list, so sequence values
    keep their commas (``(0,0.5),(0.2,)`` is two tuples); bare words fall
    back to a comma split (``x86,arm``)."""
    import ast

    try:
        return tuple(ast.literal_eval(f"[{text}]"))
    except (ValueError, SyntaxError):
        return tuple(_parse_value(value) for value in text.split(","))


def cmd_run(args) -> int:
    """Run one registered experiment: grids, checkpoints, results artifact.

    The registry-driven entry point.  ``--grid key=v1,v2`` widens a spec
    axis into a sharded sweep, ``--checkpoint``/``--resume`` journal it
    (per inner trial for experiments that support it, per grid point
    otherwise), and ``--results PATH`` writes the ``repro-results/v1``
    artifact that ``repro report --results`` renders.  Exits 1 when any
    trial failed, ended unexpectedly, or was quarantined.
    """
    from .core import CheckpointMismatch, TaskError
    from .core.registry import get_experiment, run_experiment
    from .core.resume import write_results

    try:
        spec = get_experiment(args.experiment.strip().upper())
    except KeyError as error:
        print(f"repro run: {error.args[0]}", file=sys.stderr)
        return 2
    grid = {}
    for item in args.grid or []:
        key, sep, values = item.partition("=")
        if not sep or not key.strip() or not values.strip():
            print(f"repro run: --grid wants KEY=V1,V2,... got {item!r}",
                  file=sys.stderr)
            return 2
        grid[key.strip()] = _parse_values(values)
    params = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            print(f"repro run: --set wants KEY=VALUE, got {item!r}",
                  file=sys.stderr)
            return 2
        params[key.strip()] = _parse_value(value)
    settings = _sweep_settings(args)
    if settings is None:
        return 2
    checkpoint, resume, policy = settings
    sweep_observer = Collector()
    try:
        run = run_experiment(
            spec, grid=grid or None, params=params or None,
            workers=args.workers, policy=policy, checkpoint=checkpoint,
            resume=resume, sweep_observer=sweep_observer)
    except CheckpointMismatch as error:
        print(f"repro run: {error}", file=sys.stderr)
        return 2
    except ValueError as error:  # unknown or harness grid/param name
        print(f"repro run: {error}", file=sys.stderr)
        return 2
    except TaskError as error:
        print(f"repro run: {error}", file=sys.stderr)
        return 1
    if args.results:
        write_results(args.results, run.artifact_header(), run.artifact_rows())
    # stdout is the artifact (tables or JSON); harness health and
    # quarantines go to stderr so clean and resumed runs byte-compare.
    if args.json:
        print(json.dumps(run.to_artifact(), indent=2, sort_keys=True))
    else:
        print(run.describe())
    health = describe_sweep_health(sweep_observer)
    if health is not None:
        print(health, file=sys.stderr)
    for trial in run.trials:
        if trial.failure is not None:
            print(f"repro run: {trial.failure.describe()}", file=sys.stderr)
    if run.quarantined:
        print(f"repro run: sweep.quarantined = {run.quarantined}: results "
              "are missing", file=sys.stderr)
    return 0 if run.ok else 1


def cmd_gadgets(args) -> int:
    from .binfmt import build_connman

    binary = build_connman(args.arch, seed=args.seed)
    finder = GadgetFinder(binary)
    if args.census:
        for category, count in sorted(finder.census().items(), key=lambda kv: -kv[1]):
            print(f"  {count:5d}  {category}")
        print(finder.summary())
        return 0
    gadgets = finder.all_gadgets()
    shown = 0
    for gadget in gadgets:
        if args.contains and args.contains not in gadget.text:
            continue
        if shown >= args.limit:
            print(f"... ({len(gadgets)} total)")
            break
        print(gadget)
        shown += 1
    print(finder.summary())
    return 0


def cmd_recon(args) -> int:
    profile = WX_ASLR if args.aslr else NONE
    knowledge = attacker_knowledge(AttackScenario(args.arch, "cli", profile))
    print(knowledge.describe())
    print(f"  ret offset        : name+{knowledge.ret_offset}")
    print(f"  .bss scratch      : {knowledge.bss:#010x}")
    for name, address in sorted(knowledge.plt.items()):
        print(f"  {name + '@plt':<18}: {address:#010x}")
    for name, address in sorted(knowledge.libc.items()):
        suffix = " (assumed)" if knowledge.libc_is_assumed else ""
        print(f"  libc {name:<13}: {address:#010x}{suffix}")
    return 0


def cmd_listing(args) -> int:
    """Print the paper-Listing-style rendering of one exploit's chain."""
    from .exploit import render_exploit_listing

    profile = LEVELS[args.level]
    knowledge = attacker_knowledge(AttackScenario(args.arch, args.level, profile))
    exploit = builder_for(args.arch, profile).build(knowledge)
    print(render_exploit_listing(exploit))
    return 0


def cmd_autogen(args) -> int:
    victim = ConnmanDaemon(arch=args.arch, profile=LEVELS[args.level])
    result = AutoExploiter(victim).run()
    print(result.describe())
    return 0 if result.succeeded else 1


#: Observed scenarios and their default seeds (``repro observe <scenario>``).
SCENARIO_SEEDS = {"attack": 0x0B5E, "crash": 0xC4A5, "chaos": 0xB5EC, "lan": 0xCAB}
#: Emit values that render a packet capture; the only ones ``lan`` serves.
CAPTURES = ("pcap", "sniff")


def _capture_lan(args) -> Network:
    """Faulty-LAN capture: client queries to a DNS server over a lossy link."""
    policy = FaultPolicy(args.seed, corrupt=args.corrupt, duplicate=args.duplicate)
    network = Network("capture-lan", subnet_prefix="10.77.0", faults=policy)
    server = Host("dns-server")
    network.attach(server, ip="10.77.0.1")
    dns = SimpleDnsServer(default_address="203.0.113.77")
    server.bind_udp(DNS_PORT, lambda payload, _dgram: dns.handle_query(payload))
    client = Host("client")
    network.attach(client)
    for number in range(args.queries):
        query = make_query(0x7000 + number, f"host{number}.capture.example")
        client.send_udp(server.ip, DNS_PORT, query.encode())
    return network


def _run_scenario(args, collector: Collector):
    """Run ``args.scenario`` under ``collector`` for ``observe``.

    Returns an :class:`ObservedAttack` for attack and crash, the
    :class:`ChaosCell` for chaos, and the captured network for lan.
    """
    if args.scenario == "chaos":
        return run_chaos_point(args.fault_level, seed=args.seed,
                               queries=args.queries,
                               attack_budget=args.attack_budget,
                               observer=collector)
    if args.scenario == "crash":
        return run_forced_crash(arch=args.arch, seed=args.seed,
                                observer=collector)
    if args.scenario == "attack":
        return run_observed_attack(arch=args.arch, level_label=args.level,
                                   seed=args.seed, observer=collector)
    return _capture_lan(args)


def _spans_text(_args, collector, run) -> str:
    tree = collector.tracer.render_tree()
    if not isinstance(run, ObservedAttack):
        return tree + "\n"
    verdict = run.event.kind.value if run.event is not None else run.error
    return (f"{run.exploit.name if run.exploit else '(no exploit)'} -> "
            f"{verdict}\n{tree}\n")


def _trace_text(_args, collector, run) -> str:
    header = ""
    if isinstance(run, ObservedAttack):
        exploit = run.exploit.describe() if run.exploit else "(no exploit)"
        outcome = run.event.describe() if run.event else run.error
        header = f"exploit : {exploit}\noutcome : {outcome}\n"
    return (f"{header}trace (hijacked control flow):\n"
            f"{collector.trace.describe()}\n")


def _capture_text(args, collector, run) -> str:
    engine = collector.taint
    text = export_pcap_text(run if args.scenario == "lan" else run.network,
                            taint=engine)
    if args.emit == "pcap":
        return text
    # Round-trip: parse the text document back and re-analyze it.
    return "".join(
        packet.describe()
        + (" [bytes reached tainted PC]" if engine is not None
           and engine.datagram_reached_pc(packet.datagram.payload) else "")
        + "\n"
        for packet in sniff_capture(text))


#: ``--emit`` value -> (its ``--json`` payload or ``None``, its text), both
#: functions of ``(args, collector, run)`` over one observed run.
EMITTERS: Dict[str, tuple] = {
    "events": (lambda args, c, _run: c.to_dict(last_events=args.limit),
               lambda args, c, _run:
                   f"{c.summary()}\n{c.bus.describe(last=args.limit)}\n"),
    "metrics": (lambda _args, c, _run: c.metrics.to_dict(),
                lambda _args, c, _run:
                    f"{c.summary()}\n{c.metrics.describe()}\n"),
    "spans": (lambda _args, c, _run: c.tracer.to_dicts(), _spans_text),
    "postmortem": (lambda _args, c, _run: c.last_postmortem.to_dict(),
                   lambda _args, c, _run: f"{c.last_postmortem.render()}\n\n"
                                          f"{c.tracer.render_tree()}\n"),
    "taint": (lambda _args, c, _run: c.taint.to_dict(),
              lambda _args, c, _run: render_provenance(c.taint) + "\n"),
    "trace": (None, _trace_text),
    "pcap": (None, _capture_text),
    "sniff": (None, _capture_text),
}


def cmd_observe(args) -> int:
    """Run one observed scenario and render the ``--emit`` view of it."""
    if (args.scenario in ("lan", "chaos")
            and (args.scenario == "lan") != (args.emit in CAPTURES)):
        print(f"repro observe: {args.scenario} cannot emit {args.emit} (lan "
              "emits only pcap or sniff; chaos has no LAN to capture)",
              file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = SCENARIO_SEEDS[args.scenario]
    if args.queries is None:
        args.queries = 8 if args.scenario == "lan" else 16
    collector = Collector()
    if args.emit == "taint" or args.taint:
        collector.attach_taint(TaintEngine())
    if args.emit == "trace":
        collector.attach_trace(
            TraceRecorder(limit=64 if args.limit is None else args.limit))
    run = _run_scenario(args, collector)
    if args.emit == "postmortem" and collector.last_postmortem is None:
        print("no crash captured (daemon survived?)", file=sys.stderr)
        return 1
    as_json, as_text = EMITTERS[args.emit]
    if args.json and as_json is not None:
        sys.stdout.write(json.dumps(as_json(args, collector, run), indent=2) + "\n")
    else:
        sys.stdout.write(as_text(args, collector, run))
    if args.emit == "trace" and not (isinstance(run, ObservedAttack)
                                     and run.succeeded):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DSN'19 Connman CVE-2017-12865 reproduction (simulated substrate)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report = subparsers.add_parser(
        "report", help="run registered experiments and print their tables")
    report.add_argument("--json", action="store_true", help="machine-readable output")
    source = report.add_mutually_exclusive_group()
    source.add_argument("--only", help="comma-separated ids, e.g. E1,E5")
    source.add_argument("--list", action="store_true",
                        help="print the experiment registry (ids, grids, "
                             "passthrough capabilities) without running")
    source.add_argument("--results", action="append", metavar="PATH",
                        help="render from existing repro-results/v1 "
                             "artifact(s) instead of re-running (repeatable)")
    report.add_argument("--emit-results", metavar="DIR",
                        help="also write one repro-results/v1 artifact per "
                             "experiment into DIR")
    report.set_defaults(run=cmd_report)

    run = subparsers.add_parser(
        "run", help="run one registered experiment (grids, checkpoints, "
                    "repro-results/v1 artifact)")
    run.add_argument("experiment", help="registry id, e.g. E15")
    _add_sweep_flags(run)
    run.add_argument("--grid", action="append", metavar="KEY=V1,V2",
                     help="widen a spec parameter into a sweep axis "
                          "(repeatable; the values are literal-eval'd as one "
                          "list, so 'rates=(0,0.5),(0.2,)' is two points)")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="pin one spec parameter (repeatable)")
    run.add_argument("--results", metavar="PATH",
                     help="write the repro-results/v1 artifact to PATH")
    run.add_argument("--json", action="store_true",
                     help="print the artifact document instead of tables")
    run.set_defaults(run=cmd_run)

    gadgets = subparsers.add_parser("gadgets", help="scan the Connman image for gadgets")
    _add_arch(gadgets)
    gadgets.add_argument("--seed", type=int, default=0, help="diversity build seed")
    gadgets.add_argument("--contains", help="filter by substring of the gadget text")
    gadgets.add_argument("--limit", type=_non_negative_int, default=40)
    gadgets.add_argument("--census", action="store_true",
                         help="print category counts instead of a listing")
    gadgets.set_defaults(run=cmd_gadgets)

    recon = subparsers.add_parser("recon", help="attacker recon summary")
    _add_arch(recon)
    recon.add_argument("--aslr", action="store_true", help="victim has ASLR (blind recon)")
    recon.set_defaults(run=cmd_recon)

    listing = subparsers.add_parser("listing", help="paper-Listing view of a chain")
    _add_arch(listing)
    _add_level(listing)
    listing.set_defaults(run=cmd_listing)

    autogen = subparsers.add_parser("autogen", help="§VII automated strategy ladder")
    _add_arch(autogen)
    _add_level(autogen)
    autogen.set_defaults(run=cmd_autogen)

    observe = subparsers.add_parser(
        "observe", help="run one observed scenario and render one view of it")
    observe.add_argument(
        "scenario", choices=SCENARIO_SEEDS,
        help="attack = wire-to-verdict exploit; crash = forced "
             "CVE-2017-12865 crash; chaos = one x86 chaos point (--arch "
             "ignored); lan = faulty-LAN capture (pcap/sniff only)")
    observe.add_argument("--emit", choices=EMITTERS, required=True,
                         help="the view to render")
    _add_arch(observe)
    _add_level(observe)
    observe.add_argument("--fault-level", type=_fraction, default=0.3,
                         help="fault level for the chaos scenario")
    observe.add_argument("--seed", type=int, default=None,
                         help="scenario seed (default: attack 0x0B5E, crash "
                              "0xC4A5, chaos 0xB5EC, lan 0xCAB)")
    observe.add_argument("--queries", type=_non_negative_int, default=None,
                         help="client queries for chaos (default 16) and "
                              "lan (default 8)")
    observe.add_argument("--attack-budget", type=_non_negative_int, default=12,
                         help="brute-force attempts for the chaos scenario")
    observe.add_argument("--json", action="store_true",
                         help="machine-readable events, metrics, spans, "
                              "postmortem or taint")
    observe.add_argument("--limit", type=_non_negative_int, default=None,
                         help="events: show only the last N; trace: keep "
                              "the first N records (default 64)")
    observe.add_argument("--taint", action="store_true",
                         help="run under the taint engine: postmortem gains "
                              "the PC-provenance section, pcap/sniff mark "
                              "the datagram whose bytes reached the PC")
    observe.add_argument("--corrupt", type=_fraction, default=0.25,
                         help="lan: corrupt rate on the capture link")
    observe.add_argument("--duplicate", type=_fraction, default=0.25,
                         help="lan: duplicate rate on the capture link")
    observe.set_defaults(run=cmd_observe)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
