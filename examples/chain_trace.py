#!/usr/bin/env python3
"""Watch a hijack execute, instruction by instruction.

Attaches an execution trace to the victim and delivers each of the three
ARM exploits in turn, printing the emulated control flow from the moment
the corrupted return address is popped: shellcode stepping through
``mov``/``svc``, Listing 2's single wide gadget into ``execlp@plt``, and
Listing 5's full ``pop → blx r3 → memcpy@plt → pop {r4, pc}`` loop.

Run:  python examples/chain_trace.py
"""

from repro.connman import ConnmanDaemon
from repro.core import AttackScenario, attacker_knowledge
from repro.cpu import TraceRecorder
from repro.defenses import NONE, WX, WX_ASLR
from repro.exploit import builder_for, deliver
from repro.obs import Collector


def trace_attack(label, profile):
    print(f"=== {label} ===")
    collector = Collector()
    recorder = collector.attach_trace(TraceRecorder(limit=48))
    victim = ConnmanDaemon(arch="arm", profile=profile, observer=collector)
    knowledge = attacker_knowledge(AttackScenario("arm", label, profile))
    exploit = builder_for("arm", profile).build(knowledge)
    report = deliver(exploit, victim)
    print(f"strategy: {exploit.strategy} | outcome: {report.event.describe()[:64]}")
    print(recorder.describe())
    natives = [entry.text for entry in recorder.natives()]
    print(f"native calls: {' -> '.join(natives) if natives else '(none)'}")
    print()


def main() -> None:
    print(__doc__)
    trace_attack("no protections (shellcode)", NONE)
    trace_attack("W^X (gadget -> execlp@plt)", WX)
    trace_attack("W^X + ASLR (blx r3 ROP loop)", WX_ASLR)


if __name__ == "__main__":
    main()
