"""Command-line interface: drive the reproduction from a shell.

::

    python -m repro matrix                 # the six-attack table
    python -m repro experiments --only E1,E5
    python -m repro experiments --list     # the experiment registry
    python -m repro run E15 --checkpoint /tmp/e15.ckpt --results e15.jsonl
    python -m repro run E14 --grid trials=4,8 --workers 2 --results e14.jsonl
    python -m repro report --results e15.jsonl   # render from the artifact
    python -m repro dos --arch arm
    python -m repro pineapple
    python -m repro audit
    python -m repro gadgets --arch arm --contains "blx"
    python -m repro recon --arch x86 --aslr
    python -m repro trace --arch arm --level wx+aslr
    python -m repro autogen --arch arm --level wx
    python -m repro bruteforce
    python -m repro offpath --burst 2048
    python -m repro chaos --rates 0,0.2,0.5 --workers 2
    python -m repro dash --once --json      # campaign dashboard (series + SLOs)
    python -m repro dash --scenario crash --once            # forced-crash board
    python -m repro observe chaos --emit events --json   # observed chaos point
    python -m repro observe chaos --emit openmetrics     # its metrics registry
    python -m repro observe attack --emit spans   # wire-to-verdict span tree
    python -m repro observe attack --emit chrome  # Perfetto-loadable trace JSON
    python -m repro observe attack --arch arm --emit folded  # flamegraph input
    python -m repro observe crash --emit postmortem --taint  # gdb-style report
    python -m repro observe crash --emit taint  # wire offset -> memory -> PC
    python -m repro observe lan --emit pcap     # faulty LAN capture, reprocap
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Callable, Dict, List, Optional

from .connman import ConnmanDaemon
from .cpu import TraceRecorder
from .defenses import NONE, WX, WX_ASLR, ProtectionProfile
from .dns import SimpleDnsServer, make_query
from .core import (
    AttackScenario,
    ObservedAttack,
    attacker_knowledge,
    e5_pineapple,
    e6_firmware_survey,
    render_table,
    run_chaos_point,
    run_chaos_sweep,
    run_forced_crash,
    run_observed_attack,
    run_paper_matrix,
)
from .core.registry import all_experiments
from .exploit import (
    AslrBruteForcer,
    AutoExploiter,
    GadgetFinder,
    OffPathSpoofer,
    builder_for,
    deliver,
)
from .net import DNS_PORT, FaultPolicy, Host, Network
from .obs import (
    DEFAULT_SAMPLE_INTERVAL,
    Collector,
    DeterministicProfiler,
    TaintEngine,
    TimeSeriesStore,
    export_chrome_trace,
    export_openmetrics,
    export_pcap_text,
    render_profile,
    render_provenance,
    sniff_capture,
    validate_chrome_trace,
    validate_speedscope,
)

LEVELS: Dict[str, ProtectionProfile] = {
    "none": NONE,
    "wx": WX,
    "wx+aslr": WX_ASLR,
}

#: Compatibility view of the experiment registry (id -> runner).  The
#: registry in :mod:`repro.core.registry` is the source of truth; this
#: dict exists because examples and tests address experiments by id.
EXPERIMENTS: Dict[str, Callable] = {
    spec.id: spec.runner for spec in all_experiments()
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
    """Print every measured experiment table (EXPERIMENTS.md body).

    Every experiment runs through the registry and renders from its
    ``repro-results/v1`` document — the same artifact ``repro run
    --results`` writes, ``--results PATH`` re-reads, and ``--emit-results
    DIR`` persists for the dash consumer.  Exits non-zero when any trial
    failed or ended unexpectedly.
    """
    import os

    from .core.registry import results_ok, run_experiment
    from .core.resume import load_results, write_results

    documents = []
    if getattr(args, "results", None):
        for path in args.results:
            try:
                header, rows = load_results(path)
            except (OSError, ValueError) as error:
                print(f"repro report: cannot read results artifact {path}: "
                      f"{error}", file=sys.stderr)
                return 2
            documents.append({"header": header, "rows": rows})
    else:
        for spec in all_experiments():
            documents.append(run_experiment(spec).to_artifact())
        if getattr(args, "emit_results", None):
            os.makedirs(args.emit_results, exist_ok=True)
            for document in documents:
                path = os.path.join(
                    args.emit_results,
                    f"{document['header']['experiment']}.jsonl")
                write_results(path, document["header"], document["rows"])
            print(f"wrote {len(documents)} repro-results/v1 artifacts to "
                  f"{args.emit_results}", file=sys.stderr)
    if getattr(args, "json", False):
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
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def cmd_matrix(_args) -> int:
    results = run_paper_matrix()
    print(render_table(
        ("arch", "protections", "strategy", "outcome"),
        [result.row() for result in results],
        title="§III experiment matrix",
    ))
    return 0 if all(result.succeeded for result in results) else 1


def cmd_experiments(args) -> int:
    from .core.registry import REGISTRY, render_registry_table, run_experiment

    if getattr(args, "list", False):
        print(render_registry_table())
        return 0
    wanted = [name.strip().upper() for name in args.only.split(",")] if args.only else list(REGISTRY)
    status = 0
    for name in wanted:
        if name not in REGISTRY:
            print(f"unknown experiment {name!r}; known: {', '.join(REGISTRY)}",
                  file=sys.stderr)
            return 2
        run = run_experiment(name)
        print(run.describe())
        print()
        if not run.ok:
            status = 1
    return status


def _parse_value(text: str):
    """Literal-eval a CLI parameter value, falling back to the raw string."""
    import ast

    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def cmd_run(args) -> int:
    """Run one registered experiment: grids, checkpoints, results artifact.

    The registry-driven entry point.  ``--grid key=v1,v2`` widens a spec
    axis into a sharded sweep, ``--checkpoint``/``--resume`` journal it
    (per inner trial for experiments that support it, per grid point
    otherwise), and ``--results PATH`` writes the ``repro-results/v1``
    artifact that ``repro report --results`` and ``repro dash --results``
    consume.
    """
    import os

    from .core import CheckpointMismatch, RunPolicy, TaskError
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
        if not sep or not key.strip():
            print(f"repro run: --grid wants KEY=V1,V2,... got {item!r}",
                  file=sys.stderr)
            return 2
        grid[key.strip()] = tuple(_parse_value(value)
                                  for value in values.split(","))
    params = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            print(f"repro run: --set wants KEY=VALUE, got {item!r}",
                  file=sys.stderr)
            return 2
        params[key.strip()] = _parse_value(value)
    checkpoint = args.resume or args.checkpoint
    resume = args.resume is not None
    if (not resume and checkpoint and os.path.exists(checkpoint)
            and os.path.getsize(checkpoint) > 0):
        print(f"repro run: checkpoint {checkpoint!r} already has journaled "
              "trials; pass --resume to continue it or remove the file to "
              "start over", file=sys.stderr)
        return 2
    policy = None
    if args.trial_timeout is not None or args.retries is not None:
        policy = RunPolicy(
            timeout=args.trial_timeout if args.trial_timeout is not None else 120.0,
            retries=args.retries if args.retries is not None else 2,
            on_failure="quarantine")
    sweep_observer = Collector()
    try:
        run = run_experiment(
            spec, grid=grid or None, params=params or None,
            workers=args.workers, policy=policy, checkpoint=checkpoint,
            resume=resume, sweep_observer=sweep_observer)
    except CheckpointMismatch as error:
        print(f"repro run: {error}", file=sys.stderr)
        return 2
    except ValueError as error:  # unknown grid/param name
        print(f"repro run: {error}", file=sys.stderr)
        return 2
    except TaskError as error:
        print(f"repro run: {error}", file=sys.stderr)
        return 1
    if args.results:
        write_results(args.results, run.artifact_header(), run.artifact_rows())
    # stdout is the artifact (tables or JSON); harness health and SLO
    # verdicts go to stderr so clean and resumed runs byte-compare.
    if args.json:
        print(json.dumps(run.to_artifact(), indent=2, sort_keys=True))
    else:
        print(run.describe())
    if run.stats is not None:
        print(run.stats.describe(), file=sys.stderr)
    print(run.slo_report.describe(), file=sys.stderr)
    for trial in run.trials:
        if trial.failure is not None:
            print(f"repro run: {trial.failure.describe()}", file=sys.stderr)
    return 0 if run.ok and run.slo_report.ok else 1


def cmd_dos(args) -> int:
    from .core import naive_overflow_blob
    from .dns import build_raw_response

    for version in ("1.34", "1.35"):
        daemon = ConnmanDaemon(arch=args.arch, version=version, profile=WX_ASLR)
        query = make_query(0xD05, "crash.example")
        reply = build_raw_response(query, naive_overflow_blob())
        event = daemon.handle_upstream_reply(reply, expected_id=0xD05)
        state = "alive" if daemon.alive else "DOWN"
        print(f"connman {version} / {args.arch}: {event.describe()[:64]} [{state}]")
    return 0


def cmd_pineapple(_args) -> int:
    result = e5_pineapple()
    print(result.describe())
    return 0 if result.all_pass else 1


def cmd_audit(_args) -> int:
    from .firmware import ALL_CVES

    print(e6_firmware_survey().describe())
    print()
    print("CVE database:")
    for cve in ALL_CVES:
        print(f"  {cve.cve_id:<15} {cve.component:<17} {cve.protocol:<5} "
              f"[{cve.adaptation_effort}]")
    return 0


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
        print(gadget)
        shown += 1
        if shown >= args.limit:
            print(f"... ({len(gadgets)} total)")
            break
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


def cmd_trace(args) -> int:
    profile = LEVELS[args.level]
    victim = ConnmanDaemon(arch=args.arch, profile=profile)
    recorder = TraceRecorder(limit=args.limit)
    victim.loaded.process.trace = recorder
    knowledge = attacker_knowledge(AttackScenario(args.arch, args.level, profile))
    exploit = builder_for(args.arch, profile).build(knowledge)
    report = deliver(exploit, victim)
    print(f"exploit : {exploit.describe()}")
    print(f"outcome : {report.event.describe()}")
    print("trace (hijacked control flow):")
    print(recorder.describe())
    return 0 if report.got_root_shell else 1


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


def cmd_bruteforce(args) -> int:
    victim = ConnmanDaemon(arch="x86", profile=WX_ASLR, rng=random.Random(args.seed))
    forcer = AslrBruteForcer(victim, max_attempts=args.max_attempts,
                             rng=random.Random(args.seed + 1))
    result = forcer.run()
    print(result.describe())
    return 0 if result.succeeded else 1


def _parse_rates(text: str) -> tuple:
    try:
        rates = tuple(float(rate) for rate in text.split(","))
    except ValueError:
        raise SystemExit(f"repro chaos: invalid --rates {text!r} "
                         "(want comma-separated floats, e.g. 0,0.2,0.5)")
    if any(rate < 0.0 or rate > 1.0 for rate in rates):
        raise SystemExit(f"repro chaos: --rates values must be in [0, 1], got {text!r}")
    return rates


def cmd_chaos(args) -> int:
    """Sweep fault rates: client availability vs. attack success."""
    import os

    from .core import CheckpointMismatch, RunPolicy
    from .obs import SWEEP_SLOS, SloRuleError, evaluate_slos, parse_rule

    rates = _parse_rates(args.rates)
    checkpoint = args.resume or args.checkpoint
    resume = args.resume is not None
    if (not resume and checkpoint and os.path.exists(checkpoint)
            and os.path.getsize(checkpoint) > 0):
        print(f"repro chaos: checkpoint {checkpoint!r} already has journaled "
              "trials; pass --resume to continue it or remove the file to "
              "start over", file=sys.stderr)
        return 2
    policy = RunPolicy(timeout=args.trial_timeout, retries=args.retries,
                       on_failure="quarantine")
    try:
        health_slos = tuple(
            parse_rule(rule) for rule in args.health_slo
        ) if args.health_slo else SWEEP_SLOS
    except SloRuleError as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return 2
    # Two collectors, deliberately: the scientific observer feeds the
    # deterministic artifact; the sweep observer records wall-clock harness
    # health (retries, timeouts, respawns) that must never leak into it.
    sweep_observer = Collector()
    observer = Collector(series=TimeSeriesStore())
    if args.taint:
        observer.attach_taint(TaintEngine())
    try:
        report = run_chaos_sweep(
            rates,
            seed=args.seed,
            queries_per_rate=args.queries,
            attack_budget=args.attack_budget,
            observer=observer,
            workers=args.workers,
            policy=policy,
            checkpoint=checkpoint,
            resume=resume,
            sweep_observer=sweep_observer,
        )
    except CheckpointMismatch as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    # Harness health goes to stderr so stdout stays a pure artifact that
    # byte-compares across interrupted-then-resumed and clean runs.
    if report.health is not None:
        print(report.health.describe(), file=sys.stderr)
    slo_report = evaluate_slos(health_slos, sweep_observer, emit=False)
    print(slo_report.describe(), file=sys.stderr)
    for failure in report.failures:
        print(f"repro chaos: {failure.describe()}", file=sys.stderr)
    return 0 if not report.failures and slo_report.ok else 1


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
    """Run ``args.scenario`` under ``collector`` (``observe`` and ``dash``).

    Returns an :class:`ObservedAttack` for attack and crash, the
    :class:`ChaosCell` for chaos, and the captured network for lan.
    """
    if args.scenario == "chaos":
        run = run_chaos_point(args.fault_level, seed=args.seed,
                              queries=args.queries,
                              attack_budget=args.attack_budget,
                              observer=collector)
    elif args.scenario == "crash":
        run = run_forced_crash(arch=args.arch, seed=args.seed,
                               observer=collector)
    elif args.scenario == "attack":
        run = run_observed_attack(arch=args.arch, level_label=args.level,
                                  seed=args.seed, observer=collector)
    else:  # lan
        run = _capture_lan(args)
    collector.sample()  # flush a final sample at the scenario's end clock
    return run


def _spans_text(_args, collector, run) -> str:
    tree = collector.tracer.render_tree()
    if not isinstance(run, ObservedAttack):
        return tree + "\n"
    verdict = run.event.kind.value if run.event is not None else run.error
    return (f"{run.exploit.name if run.exploit else '(no exploit)'} -> "
            f"{verdict}\n{tree}\n")


def _validated(document, validate, indent: Optional[int] = 2) -> str:
    validate(document)
    return json.dumps(document, indent=indent) + "\n"


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
    "openmetrics": (None, lambda _args, c, _run: export_openmetrics(c)),
    "spans": (lambda _args, c, _run: c.tracer.to_dicts(), _spans_text),
    "chrome": (None, lambda args, c, _run: _validated(
        export_chrome_trace(c), validate_chrome_trace,
        None if args.compact else 2)),
    "profile": (lambda _args, c, _run: c.profiler.to_dict(),
                lambda args, c, _run:
                    render_profile(c.profiler.data, top=args.top) + "\n"),
    "folded": (None, lambda _args, c, _run: c.profiler.folded()),
    "speedscope": (None, lambda args, c, _run: _validated(
        c.profiler.speedscope(name=f"repro {args.scenario} ({args.arch})"),
        validate_speedscope)),
    "postmortem": (lambda _args, c, _run: c.last_postmortem.to_dict(),
                   lambda _args, c, _run: f"{c.last_postmortem.render()}\n\n"
                                          f"{c.tracer.render_tree()}\n"),
    "taint": (lambda _args, c, _run: c.taint.to_dict(),
              lambda _args, c, _run: render_provenance(c.taint) + "\n"),
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
    collector = Collector(series=TimeSeriesStore())
    if args.emit in ("profile", "folded", "speedscope"):
        collector.attach_profiler(
            DeterministicProfiler(sample_interval=args.sample_interval))
    if args.emit == "taint" or args.taint:
        collector.attach_taint(TaintEngine())
    run = _run_scenario(args, collector)
    if args.emit == "postmortem" and collector.last_postmortem is None:
        print("no crash captured (daemon survived?)", file=sys.stderr)
        return 1
    as_json, as_text = EMITTERS[args.emit]
    if args.json and as_json is not None:
        sys.stdout.write(json.dumps(as_json(args, collector, run), indent=2) + "\n")
    else:
        sys.stdout.write(as_text(args, collector, run))
    return 0


def cmd_dash(args) -> int:
    """Campaign dashboard: series sparklines, SLO verdicts, top spans."""
    import time

    from .obs import (DEFAULT_SLOS, SloRuleError, dashboard_json,
                      evaluate_slos, parse_rule, render_dashboard)
    from .obs.dashboard import CLEAR, frame_times

    try:
        rules = ([parse_rule(text) for text in args.slo]
                 if args.slo else list(DEFAULT_SLOS))
    except SloRuleError as error:
        print(f"repro dash: {error}", file=sys.stderr)
        return 2
    # Results artifacts ride along on the board: each panel renders the
    # per-trial verdicts and failing trials flip the gate exit code.
    documents = []
    for path in args.results or []:
        from .core.resume import load_results

        try:
            header, rows = load_results(path)
        except (OSError, ValueError) as error:
            print(f"repro dash: cannot read results artifact {path}: {error}",
                  file=sys.stderr)
            return 2
        documents.append({"header": header, "rows": rows})
    collector = Collector(series=TimeSeriesStore(interval=args.interval))
    collector.attach_profiler(DeterministicProfiler())
    _run_scenario(args, collector)
    color = not args.no_color
    if not args.once:
        # Replay the recorded campaign as live frames: each frame truncates
        # the series at a later simulated moment and re-evaluates the SLOs
        # read-only at that moment (no breach events, no counter changes).
        for moment in frame_times(collector, args.frames):
            report = evaluate_slos(rules, collector, at=moment, emit=False)
            frame = render_dashboard(collector, report, until=moment,
                                     color=color)
            print((CLEAR if color else "") + frame)
            if args.fps > 0:
                time.sleep(1.0 / args.fps)
    report = evaluate_slos(rules, collector)
    from .core.registry import render_results_panel, results_ok

    artifacts_ok = all(results_ok(doc["rows"]) for doc in documents)
    if args.json:
        payload = json.loads(dashboard_json(collector, report,
                                            scenario=args.scenario))
        if documents:
            payload["results"] = documents
        print(json.dumps(payload, indent=2))
    else:
        print(render_dashboard(collector, report, color=color))
        for document in documents:
            print()
            print(render_results_panel(document["header"], document["rows"]))
    return 0 if report.ok and artifacts_ok else 1


def cmd_offpath(args) -> int:
    profile = WX_ASLR
    knowledge = attacker_knowledge(AttackScenario("arm", "cli", profile))
    exploit = builder_for("arm", profile).build(knowledge)
    victim = ConnmanDaemon(arch="arm", profile=profile, rng=random.Random(args.seed))
    spoofer = OffPathSpoofer(exploit, burst=args.burst, rng=random.Random(args.seed + 1))
    legit = SimpleDnsServer(default_address="1.1.1.1")
    result = spoofer.attack(victim, legit.handle_query, max_queries=args.max_queries)
    print(result.describe())
    return 0 if result.succeeded else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DSN'19 Connman CVE-2017-12865 reproduction (simulated substrate)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("matrix", help="run the six-attack §III matrix").set_defaults(run=cmd_matrix)
    report = subparsers.add_parser("report", help="print every measured experiment table")
    report.add_argument("--json", action="store_true", help="machine-readable output")
    report.add_argument("--results", action="append", metavar="PATH",
                        help="render from existing repro-results/v1 "
                             "artifact(s) instead of re-running (repeatable)")
    report.add_argument("--emit-results", metavar="DIR",
                        help="also write one repro-results/v1 artifact per "
                             "experiment into DIR")
    report.set_defaults(run=cmd_report)

    experiments = subparsers.add_parser("experiments", help="run paper experiments")
    experiments.add_argument("--only", help="comma-separated ids, e.g. E1,E5")
    experiments.add_argument("--list", action="store_true",
                             help="print the experiment registry (ids, grids, "
                                  "passthrough capabilities) without running")
    experiments.set_defaults(run=cmd_experiments)

    run = subparsers.add_parser(
        "run", help="run one registered experiment (grids, checkpoints, "
                    "repro-results/v1 artifact)")
    run.add_argument("experiment", help="registry id, e.g. E15")
    run.add_argument("--workers", type=int, default=1,
                     help="fan grid/inner trials out over N processes "
                          "(0 = one per CPU); output matches --workers 1")
    run.add_argument("--grid", action="append", metavar="KEY=V1,V2",
                     help="widen a spec parameter into a sweep axis "
                          "(repeatable; values literal-eval'd)")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="pin one spec parameter (repeatable)")
    journal = run.add_mutually_exclusive_group()
    journal.add_argument("--checkpoint", metavar="PATH",
                         help="journal completed trials to an append-only "
                              "JSONL checkpoint at PATH")
    journal.add_argument("--resume", metavar="PATH",
                         help="resume a killed run from its checkpoint; only "
                              "unfinished trials re-execute and the results "
                              "artifact is byte-identical to an uninterrupted "
                              "run (PATH is trusted input: payloads are "
                              "unpickled, restricted to repro classes)")
    run.add_argument("--trial-timeout", type=float, default=None,
                     help="wall-clock seconds before a hung trial's pool is "
                          "respawned (enables quarantine supervision)")
    run.add_argument("--retries", type=int, default=None,
                     help="retry budget per trial before quarantine "
                          "(enables quarantine supervision)")
    run.add_argument("--results", metavar="PATH",
                     help="write the repro-results/v1 artifact to PATH")
    run.add_argument("--json", action="store_true",
                     help="print the artifact document instead of tables")
    run.set_defaults(run=cmd_run)

    dos = subparsers.add_parser("dos", help="E1 crash PoC")
    _add_arch(dos)
    dos.set_defaults(run=cmd_dos)

    subparsers.add_parser("pineapple", help="E5 remote MITM").set_defaults(run=cmd_pineapple)
    subparsers.add_parser("audit", help="E6 firmware survey + CVE db").set_defaults(run=cmd_audit)

    gadgets = subparsers.add_parser("gadgets", help="scan the Connman image for gadgets")
    _add_arch(gadgets)
    gadgets.add_argument("--seed", type=int, default=0, help="diversity build seed")
    gadgets.add_argument("--contains", help="filter by substring of the gadget text")
    gadgets.add_argument("--limit", type=int, default=40)
    gadgets.add_argument("--census", action="store_true",
                         help="print category counts instead of a listing")
    gadgets.set_defaults(run=cmd_gadgets)

    recon = subparsers.add_parser("recon", help="attacker recon summary")
    _add_arch(recon)
    recon.add_argument("--aslr", action="store_true", help="victim has ASLR (blind recon)")
    recon.set_defaults(run=cmd_recon)

    trace = subparsers.add_parser("trace", help="run one attack with an execution trace")
    _add_arch(trace)
    _add_level(trace)
    trace.add_argument("--limit", type=int, default=64)
    trace.set_defaults(run=cmd_trace)

    listing = subparsers.add_parser("listing", help="paper-Listing view of a chain")
    _add_arch(listing)
    _add_level(listing)
    listing.set_defaults(run=cmd_listing)

    autogen = subparsers.add_parser("autogen", help="§VII automated strategy ladder")
    _add_arch(autogen)
    _add_level(autogen)
    autogen.set_defaults(run=cmd_autogen)

    bruteforce = subparsers.add_parser("bruteforce", help="E10 ASLR brute force")
    bruteforce.add_argument("--max-attempts", type=int, default=4096)
    bruteforce.add_argument("--seed", type=int, default=99)
    bruteforce.set_defaults(run=cmd_bruteforce)

    chaos = subparsers.add_parser("chaos", help="fault-rate sweep (E16 chaos table)")
    chaos.add_argument("--rates", default="0,0.2,0.5",
                       help="comma-separated fault levels, e.g. 0,0.1,0.3")
    chaos.add_argument("--seed", type=int, default=0xC4A05)
    chaos.add_argument("--queries", type=int, default=24,
                       help="client queries per fault level")
    chaos.add_argument("--attack-budget", type=int, default=32,
                       help="brute-force attempts per fault level")
    chaos.add_argument("--workers", type=int, default=1,
                       help="fan sweep points out over N processes "
                            "(0 = one per CPU); cells match --workers 1")
    chaos.add_argument("--json", action="store_true", help="machine-readable output")
    journal = chaos.add_mutually_exclusive_group()
    journal.add_argument("--checkpoint", metavar="PATH",
                         help="journal completed trials to an append-only "
                              "JSONL checkpoint at PATH")
    journal.add_argument("--resume", metavar="PATH",
                         help="resume a killed sweep from its checkpoint; "
                              "only unfinished trials re-execute and the "
                              "artifact is byte-identical to an "
                              "uninterrupted run (PATH is trusted input: "
                              "payloads are unpickled, restricted to "
                              "classes from the repro package)")
    chaos.add_argument("--trial-timeout", type=float, default=120.0,
                       help="wall-clock seconds before a hung trial's pool "
                            "is respawned (default 120)")
    chaos.add_argument("--retries", type=int, default=2,
                       help="retry budget per trial before it is "
                            "quarantined (default 2)")
    chaos.add_argument("--health-slo", action="append", metavar="RULE",
                       help="sweep-health SLO gating the exit code, e.g. "
                            "'sweep.quarantined count == 0' (repeatable; "
                            "default: the built-in sweep set)")
    chaos.add_argument("--taint", action="store_true",
                       help="run every trial under the taint engine; taint.* "
                            "counters land in the artifact, outcome cells "
                            "stay byte-identical")
    chaos.set_defaults(run=cmd_chaos)

    dash = subparsers.add_parser(
        "dash", help="campaign dashboard: series, SLO verdicts, top spans")
    dash.add_argument("--scenario", choices=("chaos", "crash", "attack"),
                      default="chaos",
                      help="which observed scenario feeds the board")
    dash.add_argument("--level", dest="fault_level", type=float, default=0.3,
                      help="fault level for the chaos scenario")
    dash.add_argument("--seed", type=int, default=0xB5EC)
    dash.add_argument("--queries", type=int, default=16)
    dash.add_argument("--attack-budget", type=int, default=12)
    dash.add_argument("--interval", type=_positive_float, default=1.0,
                      help="series sampling interval (simulated seconds)")
    dash.add_argument("--slo", action="append", metavar="RULE",
                      help="SLO rule, e.g. 'daemon.crashes count == 0' "
                           "(repeatable; default: the built-in set)")
    dash.add_argument("--once", action="store_true",
                      help="render one final frame instead of the replay")
    dash.add_argument("--json", action="store_true",
                      help="machine-readable output (implies --once frame)")
    dash.add_argument("--no-color", action="store_true",
                      help="plain text, no ANSI escapes")
    dash.add_argument("--frames", type=int, default=12,
                      help="replay frames in live mode")
    dash.add_argument("--fps", type=float, default=8.0,
                      help="replay speed (frames/second; 0 = no delay)")
    dash.add_argument("--results", action="append", metavar="PATH",
                      help="append repro-results/v1 artifact panel(s) to the "
                           "board; failing trials flip the gate (repeatable)")
    # The board's attack and crash scenarios run the default x86 victim.
    dash.set_defaults(run=cmd_dash, arch="x86", level="none")

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
    observe.add_argument("--fault-level", type=float, default=0.3,
                         help="fault level for the chaos scenario")
    observe.add_argument("--seed", type=int, default=None,
                         help="scenario seed (default: attack 0x0B5E, crash "
                              "0xC4A5, chaos 0xB5EC, lan 0xCAB)")
    observe.add_argument("--queries", type=int, default=None,
                         help="client queries for chaos (default 16) and "
                              "lan (default 8)")
    observe.add_argument("--attack-budget", type=int, default=12,
                         help="brute-force attempts for the chaos scenario")
    observe.add_argument("--json", action="store_true",
                         help="machine-readable events, metrics, spans, "
                              "profile, postmortem or taint")
    observe.add_argument("--limit", type=_non_negative_int, default=None,
                         help="events: show only the last N")
    observe.add_argument("--sample-interval", type=_non_negative_int,
                         default=DEFAULT_SAMPLE_INTERVAL,
                         help="profile: guest steps between stack samples "
                              "(0 disables stack sampling)")
    observe.add_argument("--top", type=_non_negative_int, default=10,
                         help="profile: rows per table in the text report")
    observe.add_argument("--compact", action="store_true",
                         help="chrome: single-line JSON")
    observe.add_argument("--taint", action="store_true",
                         help="run under the taint engine: postmortem gains "
                              "the PC-provenance section, pcap/sniff mark "
                              "the datagram whose bytes reached the PC")
    observe.add_argument("--corrupt", type=float, default=0.25,
                         help="lan: corrupt rate on the capture link")
    observe.add_argument("--duplicate", type=float, default=0.25,
                         help="lan: duplicate rate on the capture link")
    observe.set_defaults(run=cmd_observe)

    offpath = subparsers.add_parser("offpath", help="E11 off-path spoofing")
    offpath.add_argument("--burst", type=int, default=2048)
    offpath.add_argument("--max-queries", type=int, default=512)
    offpath.add_argument("--seed", type=int, default=3)
    offpath.set_defaults(run=cmd_offpath)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
