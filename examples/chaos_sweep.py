#!/usr/bin/env python3
"""Chaos sweep: fault injection, supervision, and resilient forwarding.

Sweeps the seeded fault fabric from a clean wire to a badly lossy one and
prints the reliability table: how many client queries the supervised
Connman answered fresh, how many degraded to serve-stale, how many failed
outright — and whether the §VI ASLR brute force (its spoofed replies
crossing the same fabric, its crashes metered by the supervisor's
start-limit budget) still gets a shell.

Also shows the two headline mechanisms in isolation:
  * a ResilientResolver beating a 60%-loss fabric with retries+failover,
  * the supervisor halting a brute force that bare init would let win.

Run:  python examples/chaos_sweep.py
"""

import json
import os
import random
import tempfile

from repro.connman import ConnmanDaemon, DaemonSupervisor
from repro.defenses import WX_ASLR
from repro.dns import ResilientResolver, SimpleDnsServer, make_query
from repro.exploit import AslrBruteForcer
from repro.net import FaultPolicy, faulty_transport
from repro.core import describe_sweep_health, run_chaos_sweep
from repro.obs import Collector


def show_resilient_resolution() -> None:
    print("=== ResilientResolver vs. a 60%-loss fabric ===")
    dns = SimpleDnsServer(default_address="198.51.100.7")
    policy = FaultPolicy(seed=5, drop=0.6)
    resolver = ResilientResolver(
        [faulty_transport(dns.handle_query, policy, dst=f"ns{i}")
         for i in (1, 2)],
        retries=3,
        rng=random.Random(2),
    )
    served = sum(
        1 for number in range(20)
        if resolver(make_query(number, "host.example").encode()) is not None
    )
    timeouts = sum(1 for a in resolver.attempt_log if a.outcome == "timeout")
    print(f"queries served    : {served}/20")
    print(f"upstream timeouts : {timeouts} (absorbed by retries + failover)")
    print(f"faults injected   : {policy.fault_count()}")
    print()


def show_supervised_bruteforce() -> None:
    print("=== supervisor start-limit vs. ASLR brute force ===")
    profile = WX_ASLR.with_(aslr_entropy_pages=64)

    bare = ConnmanDaemon(arch="x86", profile=profile, rng=random.Random(424))
    free = AslrBruteForcer(bare, max_attempts=192, rng=random.Random(17)).run()
    print(f"bare init   : {free.describe()}")

    watched = ConnmanDaemon(arch="x86", profile=profile, rng=random.Random(424))
    supervisor = DaemonSupervisor(watched, start_limit_burst=8)
    capped = AslrBruteForcer(watched, max_attempts=192, rng=random.Random(17),
                             supervisor=supervisor).run()
    print(f"supervised  : {capped.describe()}")
    print(f"supervisor  : {supervisor.describe()}")
    print()


def show_checkpoint_resume() -> None:
    """A sweep journaled to a checkpoint, then resumed from it.

    On the command line the same round trip is:

        python -m repro run E16 --workers 4 --checkpoint run.ckpt --json
        ... SIGKILL mid-sweep ...
        python -m repro run E16 --workers 4 --resume run.ckpt --json

    The resumed artifact is byte-identical to an uninterrupted run;
    only the trials missing from the journal re-execute.
    """
    print("=== checkpointed sweep, then resume ===")
    # The journal lives only as long as the round trip.
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "chaos.ckpt")
        first = run_chaos_sweep((0.0, 0.2, 0.5), checkpoint=path)
        health = Collector()
        resumed = run_chaos_sweep((0.0, 0.2, 0.5), checkpoint=path, resume=True,
                                  sweep_observer=health)
    identical = (json.dumps(first.to_dict(), sort_keys=True)
                 == json.dumps(resumed.to_dict(), sort_keys=True))
    print(f"journal           : {path}")
    print(f"resume health     : {describe_sweep_health(health)}")
    print(f"artifact identical: {identical}")
    print()


def main() -> None:
    print(__doc__)
    show_resilient_resolution()
    show_supervised_bruteforce()
    show_checkpoint_resume()
    report = run_chaos_sweep((0.0, 0.2, 0.5))
    print(report.describe())


if __name__ == "__main__":
    main()
