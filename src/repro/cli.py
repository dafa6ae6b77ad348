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
    python -m repro trace-events --json     # observed chaos point: event trace
    python -m repro metrics --json          # same run, metrics registry
    python -m repro metrics --openmetrics   # OpenMetrics text exposition
    python -m repro pcap                    # faulty LAN capture, reprocap text
    python -m repro spans                   # span tree of one wire-to-verdict attack
    python -m repro trace-export --chrome   # Perfetto-loadable Chrome trace JSON
    python -m repro postmortem              # forced crash, gdb-style crash report
    python -m repro postmortem --taint --json  # report embeds wire-offset taint
    python -m repro taint --scenario crash  # wire offset -> memory -> PC chain
    python -m repro pcap --taint --sniff    # capture with tainted-PC datagram marks
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Callable, Dict, List, Optional

from .connman import ConnmanDaemon
from .cpu import TraceRecorder
from .defenses import NONE, WX, WX_ASLR, ProtectionProfile
from .dns import SimpleDnsServer
from .core import (
    AttackScenario,
    attacker_knowledge,
    e5_pineapple,
    e6_firmware_survey,
    render_table,
    run_chaos_sweep,
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
from .obs import DEFAULT_SAMPLE_INTERVAL

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
    import json
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
    import json
    import os

    from .core import CheckpointMismatch, RunPolicy, TaskError
    from .core.registry import get_experiment, run_experiment
    from .core.resume import write_results
    from .obs import Collector

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
    from .dns import build_raw_response, make_query

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
    import json
    import os

    from .core import CheckpointMismatch, RunPolicy
    from .obs import (SWEEP_SLOS, Collector, SloRuleError, TimeSeriesStore,
                      evaluate_slos, parse_rule)

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
    try:
        report = run_chaos_sweep(
            rates,
            seed=args.seed,
            queries_per_rate=args.queries,
            attack_budget=args.attack_budget,
            observer=Collector(series=TimeSeriesStore()),
            workers=args.workers,
            policy=policy,
            checkpoint=checkpoint,
            resume=resume,
            sweep_observer=sweep_observer,
            taint=args.taint,
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


def _observed_chaos_run(args):
    """One observed chaos point: the CLI's canonical traced scenario."""
    from .core import run_chaos_point
    from .obs import Collector, TimeSeriesStore

    collector = Collector(series=TimeSeriesStore())
    cell = run_chaos_point(
        args.level,
        seed=args.seed,
        queries=args.queries,
        attack_budget=args.attack_budget,
        observer=collector,
    )
    collector.sample()  # flush a final sample at the scenario's end clock
    return cell, collector


def _add_observed_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--level", type=float, default=0.3,
                        help="fault level for the observed run")
    parser.add_argument("--seed", type=int, default=0xB5EC)
    parser.add_argument("--queries", type=int, default=16)
    parser.add_argument("--attack-budget", type=int, default=12)
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def cmd_trace_events(args) -> int:
    """Run an observed chaos point and print its structured event trace."""
    import json

    if args.limit is not None and args.limit < 0:
        print(f"repro trace-events: --limit must be >= 0, got {args.limit}",
              file=sys.stderr)
        return 2
    _cell, collector = _observed_chaos_run(args)
    if args.json:
        print(json.dumps(collector.to_dict(last_events=args.limit), indent=2))
    else:
        print(collector.summary())
        print(collector.bus.describe(last=args.limit))
    return 0


def cmd_metrics(args) -> int:
    """Run an observed chaos point and print the metrics registry."""
    import json

    _cell, collector = _observed_chaos_run(args)
    if args.openmetrics:
        from .obs import export_openmetrics

        print(export_openmetrics(collector), end="")
    elif args.json:
        print(json.dumps(collector.metrics.to_dict(), indent=2))
    else:
        print(collector.summary())
        print(collector.metrics.describe())
    return 0


def _observed_attack_run(args):
    """One span-traced wire-to-verdict attack (the tracing CLI's scenario)."""
    from .core import run_observed_attack

    return run_observed_attack(arch=args.arch, level_label=args.level,
                               seed=args.seed)


def cmd_spans(args) -> int:
    """Render the span tree of one observed end-to-end attack."""
    import json

    run = _observed_attack_run(args)
    if args.json:
        print(json.dumps(run.collector.tracer.to_dicts(), indent=2))
    else:
        verdict = run.event.kind.value if run.event is not None else run.error
        print(f"{run.exploit.name if run.exploit else '(no exploit)'} -> {verdict}")
        print(run.collector.tracer.render_tree())
    return 0


def cmd_trace_export(args) -> int:
    """Export one observed attack as Chrome trace-event JSON (Perfetto)."""
    import json

    from .core import run_observed_attack
    from .obs import (Collector, TimeSeriesStore, export_chrome_trace,
                      validate_chrome_trace)

    # A series-attached collector so the export carries Perfetto counter
    # tracks (ph "C") alongside the span events.
    collector = Collector(series=TimeSeriesStore(interval=1.0))
    run = run_observed_attack(arch=args.arch, level_label=args.level,
                              seed=args.seed, observer=collector)
    collector.sample()
    document = export_chrome_trace(run.collector)
    validate_chrome_trace(document)
    print(json.dumps(document, indent=None if args.compact else 2))
    return 0


def cmd_profile(args) -> int:
    """Deterministic cost attribution for one observed scenario.

    Runs the selected scenario with a :class:`DeterministicProfiler`
    riding the collector and prints, by flag: the text attribution
    report (default), folded stacks for ``flamegraph.pl`` (``--folded``),
    a speedscope JSON document (``--speedscope``), or the full profile
    payload (``--json``).  Sampling happens on the simulated step clock,
    so the output is a pure function of the scenario seed.
    """
    import json

    from .obs import Collector, DeterministicProfiler, render_profile

    collector = Collector()
    profiler = collector.attach_profiler(
        DeterministicProfiler(sample_interval=args.sample_interval))
    if args.scenario == "chaos":
        from .core import run_chaos_point

        # The chaos scenario is the x86 daemon under LAN faults; --arch
        # is ignored here (see the subparser help).
        run_chaos_point(args.fault_level, seed=args.seed,
                        queries=args.queries,
                        attack_budget=args.attack_budget, observer=collector)
    elif args.scenario == "crash":
        from .core import run_forced_crash

        run_forced_crash(arch=args.arch, seed=args.seed, observer=collector)
    else:  # attack
        from .core import run_observed_attack

        run_observed_attack(arch=args.arch, level_label=args.level,
                            seed=args.seed, observer=collector)
    if args.folded:
        print(profiler.folded(), end="")
    elif args.speedscope:
        from .obs import validate_speedscope

        document = profiler.speedscope(
            name=f"repro {args.scenario} ({args.arch})")
        validate_speedscope(document)
        print(json.dumps(document, indent=2))
    elif args.json:
        print(json.dumps(profiler.to_dict(), indent=2))
    else:
        print(render_profile(profiler.data, top=args.top))
    return 0


def cmd_postmortem(args) -> int:
    """Force the CVE-2017-12865 crash and print its crash report."""
    import json

    from .core import run_forced_crash

    run = run_forced_crash(arch=args.arch, seed=args.seed, taint=args.taint)
    report = run.collector.last_postmortem
    if report is None:
        print("no crash captured (daemon survived?)", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
        print()
        print(run.collector.tracer.render_tree())
    return 0


def cmd_taint(args) -> int:
    """Byte-level taint provenance: wire offsets -> memory -> registers -> PC."""
    import json

    from .obs import Collector, TaintEngine, render_provenance

    collector = Collector()
    engine = collector.attach_taint(TaintEngine())
    if args.scenario == "crash":
        from .core import run_forced_crash

        run_forced_crash(arch=args.arch, seed=args.seed, observer=collector)
    else:  # attack
        from .core import run_observed_attack

        run_observed_attack(arch=args.arch, level_label=args.level,
                            seed=args.seed, observer=collector)
    if args.json:
        print(json.dumps(engine.to_dict(), indent=2))
    else:
        print(render_provenance(engine))
    return 0


def cmd_pcap(args) -> int:
    """Capture a faulty LAN exchange and print the reprocap text document."""
    from .dns import SimpleDnsServer, make_query
    from .net import DNS_PORT, FaultPolicy, Host, Network
    from .obs import export_pcap_text, sniff_capture

    if args.taint:
        # Capture the forced-crash exchange under the taint engine so the
        # document marks the datagram whose bytes reached the guest PC.
        from .core import run_forced_crash
        from .obs import Collector, TaintEngine

        collector = Collector()
        engine = collector.attach_taint(TaintEngine())
        run = run_forced_crash(arch=args.arch, seed=args.seed,
                               observer=collector)
        text = export_pcap_text(run.network, taint=engine)
        if args.sniff:
            for packet in sniff_capture(text):
                marker = (" [bytes reached tainted PC]"
                          if engine.datagram_reached_pc(packet.datagram.payload)
                          else "")
                print(packet.describe() + marker)
        else:
            print(text, end="")
        return 0
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
    text = export_pcap_text(network)
    if args.sniff:
        # Round-trip: parse the text document back and re-analyze it.
        for packet in sniff_capture(text):
            print(packet.describe())
    else:
        print(text, end="")
    return 0


def _dash_collector(args):
    """Run the selected scenario under a series-attached collector."""
    from .obs import Collector, DeterministicProfiler, TimeSeriesStore

    collector = Collector(series=TimeSeriesStore(interval=args.interval))
    collector.attach_profiler(DeterministicProfiler())
    if args.scenario == "chaos":
        from .core import run_chaos_point

        run_chaos_point(args.level, seed=args.seed, queries=args.queries,
                        attack_budget=args.attack_budget, observer=collector)
    elif args.scenario == "crash":
        from .core import run_forced_crash

        run_forced_crash(seed=args.seed, observer=collector)
    else:  # attack
        from .core import run_observed_attack

        run_observed_attack(seed=args.seed, observer=collector)
    collector.sample()  # flush a final sample at the scenario's end clock
    return collector


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
    collector = _dash_collector(args)
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
        import json as _json

        payload = _json.loads(dashboard_json(collector, report,
                                             scenario=args.scenario))
        if documents:
            payload["results"] = documents
        print(_json.dumps(payload, indent=2))
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
    dash.add_argument("--level", type=float, default=0.3,
                      help="fault level for the chaos scenario")
    dash.add_argument("--seed", type=int, default=0xB5EC)
    dash.add_argument("--queries", type=int, default=16)
    dash.add_argument("--attack-budget", type=int, default=12)
    dash.add_argument("--interval", type=float, default=1.0,
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
    dash.set_defaults(run=cmd_dash)

    trace_events = subparsers.add_parser(
        "trace-events", help="structured event trace of an observed chaos point")
    _add_observed_args(trace_events)
    trace_events.add_argument("--limit", type=int, default=None,
                              help="show only the last N events")
    trace_events.set_defaults(run=cmd_trace_events)

    metrics = subparsers.add_parser(
        "metrics", help="counters/histograms from an observed chaos point")
    _add_observed_args(metrics)
    metrics.add_argument("--openmetrics", action="store_true",
                         help="OpenMetrics text exposition instead of JSON")
    metrics.set_defaults(run=cmd_metrics)

    def _add_attack_args(sub: argparse.ArgumentParser) -> None:
        _add_arch(sub)
        _add_level(sub)
        sub.add_argument("--seed", type=int, default=0x0B5E)
        sub.add_argument("--json", action="store_true", help="machine-readable output")

    spans = subparsers.add_parser(
        "spans", help="span tree of one wire-to-verdict observed attack")
    _add_attack_args(spans)
    spans.set_defaults(run=cmd_spans)

    profile = subparsers.add_parser(
        "profile", help="deterministic cost attribution for one observed "
                        "scenario (opcodes, blocks, caches, flamegraphs)")
    _add_attack_args(profile)
    profile.add_argument("--scenario", choices=("attack", "crash", "chaos"),
                         default="attack",
                         help="attack = wire-to-verdict exploit (default); "
                              "crash = forced CVE-2017-12865 crash; chaos = "
                              "one x86 chaos point (--arch ignored)")
    profile.add_argument("--fault-level", type=float, default=0.3,
                         help="fault level for the chaos scenario")
    profile.add_argument("--queries", type=int, default=16,
                         help="client queries for the chaos scenario")
    profile.add_argument("--attack-budget", type=int, default=12,
                         help="brute-force attempts for the chaos scenario")
    profile.add_argument("--sample-interval", type=int,
                         default=DEFAULT_SAMPLE_INTERVAL,
                         help="guest steps between stack samples "
                              "(0 disables stack sampling)")
    profile.add_argument("--top", type=int, default=10,
                         help="rows per table in the text report")
    profile.add_argument("--folded", action="store_true",
                         help="emit folded stacks (flamegraph.pl input)")
    profile.add_argument("--speedscope", action="store_true",
                         help="emit a speedscope JSON document")
    profile.set_defaults(run=cmd_profile)

    trace_export = subparsers.add_parser(
        "trace-export", help="Chrome trace-event JSON of an observed attack")
    _add_attack_args(trace_export)
    trace_export.add_argument(
        "--chrome", action="store_true",
        help="emit Chrome trace-event JSON (the default and only format)")
    trace_export.add_argument("--compact", action="store_true",
                              help="single-line JSON")
    trace_export.set_defaults(run=cmd_trace_export)

    postmortem = subparsers.add_parser(
        "postmortem", help="force the CVE-2017-12865 crash, print forensics")
    _add_arch(postmortem)
    postmortem.add_argument("--seed", type=int, default=0xC4A5)
    postmortem.add_argument("--json", action="store_true",
                            help="machine-readable output")
    postmortem.add_argument("--taint", action="store_true",
                            help="run under the taint engine; the report "
                                 "gains the PC-provenance section and --json "
                                 "embeds the repro-taint/v1 summary")
    postmortem.set_defaults(run=cmd_postmortem)

    taint = subparsers.add_parser(
        "taint", help="taint provenance: wire offsets -> memory -> "
                      "registers -> PC")
    _add_attack_args(taint)
    taint.add_argument("--scenario", choices=("crash", "attack"),
                       default="crash",
                       help="crash = forced CVE-2017-12865 crash (default); "
                            "attack = wire-to-verdict exploit (--level "
                            "applies)")
    taint.set_defaults(run=cmd_taint)

    pcap = subparsers.add_parser(
        "pcap", help="reprocap text capture of a faulty LAN exchange")
    pcap.add_argument("--seed", type=int, default=0xCAB)
    pcap.add_argument("--queries", type=int, default=8)
    pcap.add_argument("--corrupt", type=float, default=0.25,
                      help="corrupt rate on the capture LAN")
    pcap.add_argument("--duplicate", type=float, default=0.25,
                      help="duplicate rate on the capture LAN")
    pcap.add_argument("--sniff", action="store_true",
                      help="round-trip the capture through the sniffer and "
                           "print the analysis instead of the document")
    pcap.add_argument("--taint", action="store_true",
                      help="capture the forced-crash exchange under the "
                           "taint engine instead of the faulty LAN; records "
                           "whose bytes reached a tainted PC are annotated "
                           "(--sniff marks them)")
    _add_arch(pcap)
    pcap.set_defaults(run=cmd_pcap)

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
