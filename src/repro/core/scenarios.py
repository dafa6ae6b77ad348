"""The paper's attack scenarios as runnable objects.

One :class:`AttackScenario` = one cell of the §III experiment matrix
(architecture x protection level).  Running it performs the full loop:
boot the victim, recon on an attacker bench copy, build the strategy the
ladder prescribes, deliver over DNS, observe the outcome.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..connman import ConnmanDaemon, DaemonEvent, EventKind
from ..defenses import NONE, PAPER_LEVELS, ProtectionProfile
from ..dns import Message, build_raw_response, make_query
from ..exploit import (
    DEFAULT_LURE,
    Debugger,
    Exploit,
    ExploitError,
    TargetKnowledge,
    builder_for,
    deliver,
    malicious_server_for,
)
from ..net import DNS_PORT, Host, Network
from ..obs import Collector


@dataclass(frozen=True)
class AttackScenario:
    arch: str
    level_label: str
    profile: ProtectionProfile
    version: str = "1.34"

    @property
    def key(self) -> str:
        return f"{self.arch}/{self.level_label}"


#: The six §III-A/B/C cells, in paper order.
PAPER_MATRIX: Tuple[AttackScenario, ...] = tuple(
    AttackScenario(arch=arch, level_label=label, profile=profile)
    for arch in ("x86", "arm")
    for label, profile in PAPER_LEVELS
)


@dataclass
class ScenarioResult:
    scenario: AttackScenario
    exploit: Optional[Exploit]
    event: Optional[DaemonEvent]
    error: str = ""

    @property
    def succeeded(self) -> bool:
        return (
            self.event is not None
            and self.event.kind == EventKind.COMPROMISED
            and self.event.is_root_shell
        )

    @property
    def outcome(self) -> str:
        if self.error:
            return f"not built: {self.error}"
        assert self.event is not None
        return "root shell" if self.succeeded else self.event.describe()

    def row(self) -> Tuple[str, str, str, str]:
        strategy = self.exploit.strategy if self.exploit else "-"
        return (self.scenario.arch, self.scenario.level_label, strategy, self.outcome)


def attacker_knowledge(scenario: AttackScenario,
                       rng: Optional[random.Random] = None) -> TargetKnowledge:
    """Recon on the attacker's bench copy of the same firmware (ASLR off on
    the bench; blindness matches the victim's ASLR setting)."""
    bench = ConnmanDaemon(
        arch=scenario.arch,
        version=scenario.version,
        profile=scenario.profile.with_(aslr=False),
        rng=rng,
    )
    return Debugger(bench).knowledge(aslr_blind=scenario.profile.aslr)


def run_scenario(scenario: AttackScenario,
                 rng: Optional[random.Random] = None) -> ScenarioResult:
    """One full attack: boot victim, recon, build, deliver, observe."""
    rng = rng or random.Random(0x5EED)
    victim = ConnmanDaemon(
        arch=scenario.arch, version=scenario.version, profile=scenario.profile,
        rng=rng,
    )
    knowledge = attacker_knowledge(scenario)
    builder = builder_for(scenario.arch, scenario.profile)
    try:
        exploit = builder.build(knowledge)
    except ExploitError as why:
        return ScenarioResult(scenario=scenario, exploit=None, event=None, error=str(why))
    report = deliver(exploit, victim, rng=rng)
    return ScenarioResult(scenario=scenario, exploit=exploit, event=report.event)


def run_paper_matrix(version: str = "1.34") -> List[ScenarioResult]:
    """All six cells of the §III matrix."""
    return [
        run_scenario(AttackScenario(s.arch, s.level_label, s.profile, version))
        for s in PAPER_MATRIX
    ]


# -- canonical observed scenarios (span tracing / postmortem drivers) ----------


@dataclass
class ObservedAttack:
    """One wire-to-verdict attack run plus the collector that watched it."""

    collector: Collector
    network: Network
    daemon: ConnmanDaemon
    exploit: Optional[Exploit]
    event: Optional[DaemonEvent]
    error: str = ""

    @property
    def succeeded(self) -> bool:
        return (
            self.event is not None
            and self.event.kind == EventKind.COMPROMISED
            and self.event.is_root_shell
        )


#: CLI spellings of the paper's protection labels (``repro ... --level``).
_LEVEL_ALIASES = {"wx": "W^X", "wx+aslr": "W^X+ASLR"}


def _profile_for(level_label: str) -> ProtectionProfile:
    level_label = _LEVEL_ALIASES.get(level_label.lower(), level_label)
    for label, profile in PAPER_LEVELS:
        if label == level_label:
            return profile
    known = ", ".join(label for label, _ in PAPER_LEVELS)
    raise ValueError(f"unknown protection level {level_label!r} (known: {known})")


def _attack_lan(observer: Collector) -> Tuple[Network, Host, Host, Host]:
    network = Network("attack-lan", subnet_prefix="10.66.0", observer=observer)
    client = Host("iot-client")
    victim_host = Host("victim-device")
    attacker_host = Host("attacker-server")
    for host in (client, victim_host, attacker_host):
        network.attach(host)
    return network, client, victim_host, attacker_host


def run_observed_attack(
    *,
    arch: str = "x86",
    level_label: str = "none",
    version: str = "1.34",
    seed: int = 0x0B5E,
    observer: Optional[Collector] = None,
) -> ObservedAttack:
    """One attack over a real simulated LAN, fully span-traced.

    Client, victim, and attacker are hosts on one :class:`Network`, so a
    single attempt is one connected span tree from wire to verdict::

        exploit.attempt
        └─ net.deliver                    (client query -> victim device)
           └─ daemon.handle_query
              ├─ net.deliver              (victim -> attacker's upstream)
              └─ daemon.parse             (the malicious reply)
                 └─ cpu.run               (emulated dnsproxy parser)

    This is the CLI's canonical observed scenario (``repro observe
    attack``).
    """
    collector = observer if observer is not None else Collector()
    profile = _profile_for(level_label)
    rng = random.Random(seed)
    scenario = AttackScenario(arch=arch, level_label=level_label,
                              profile=profile, version=version)
    network, client, victim_host, attacker_host = _attack_lan(collector)
    daemon = ConnmanDaemon(arch=arch, version=version, profile=profile,
                           rng=rng, observer=collector)
    knowledge = attacker_knowledge(scenario)
    builder = builder_for(arch, profile)
    try:
        exploit = builder.build(knowledge)
    except ExploitError as why:
        return ObservedAttack(collector, network, daemon, None, None,
                              error=str(why))
    server = malicious_server_for(exploit)
    attacker_host.bind_udp(
        DNS_PORT, lambda payload, _dgram: server.handle_query(payload)
    )

    def upstream(packet: bytes) -> Optional[bytes]:
        return victim_host.send_udp(attacker_host.ip, DNS_PORT, packet)

    victim_host.bind_udp(
        DNS_PORT,
        lambda payload, _dgram: daemon.handle_client_query(payload, upstream),
    )
    query = make_query(rng.randrange(1 << 16), DEFAULT_LURE).encode()
    with collector.tracer.span(
        "exploit.attempt", exploit=exploit.name, strategy=exploit.strategy,
        lure=DEFAULT_LURE,
    ) as span:
        client.send_udp(victim_host.ip, DNS_PORT, query)
        if daemon.last_event is not None:
            span.attrs["outcome"] = daemon.last_event.kind.value
    return ObservedAttack(collector, network, daemon, exploit, daemon.last_event)


def run_forced_crash(
    *,
    arch: str = "x86",
    version: str = "1.34",
    seed: int = 0xC4A5,
    observer: Optional[Collector] = None,
) -> ObservedAttack:
    """Force the CVE-2017-12865 stack smash over the wire; capture forensics.

    An unprotected daemon forwards one lure query to an upstream that
    answers with an oversized Type A name (the naive E1 blob).  The parse
    crashes the guest, and the collector ends the run holding a
    :class:`~repro.obs.CrashReport` whose causal span resolves to the
    exact malicious datagram (``repro observe crash --emit postmortem``
    renders it).
    """
    from .experiments import naive_overflow_blob

    collector = observer if observer is not None else Collector()
    rng = random.Random(seed)
    network, client, victim_host, attacker_host = _attack_lan(collector)
    daemon = ConnmanDaemon(arch=arch, version=version, profile=NONE,
                           rng=rng, observer=collector)
    blob = naive_overflow_blob()

    def crash_server(payload: bytes, _dgram) -> Optional[bytes]:
        try:
            query = Message.decode(payload)
        except Exception:
            return None
        return build_raw_response(query, blob)

    attacker_host.bind_udp(DNS_PORT, crash_server)

    def upstream(packet: bytes) -> Optional[bytes]:
        return victim_host.send_udp(attacker_host.ip, DNS_PORT, packet)

    victim_host.bind_udp(
        DNS_PORT,
        lambda payload, _dgram: daemon.handle_client_query(payload, upstream),
    )
    query = make_query(rng.randrange(1 << 16), "crash-me.example").encode()
    with collector.tracer.span("exploit.attempt", exploit="naive-overflow",
                               strategy="dos", lure="crash-me.example") as span:
        client.send_udp(victim_host.ip, DNS_PORT, query)
        if daemon.last_event is not None:
            span.attrs["outcome"] = daemon.last_event.kind.value
    return ObservedAttack(collector, network, daemon, None, daemon.last_event)
