"""The paper's experiments (E1–E8), runnable end to end.

Each function performs one experiment from DESIGN.md's index and returns an
:class:`ExperimentResult` whose rows print like the paper reports them.
Benchmarks and examples call these; tests assert on their fields.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..connman import ConnmanDaemon, EventKind
from ..defenses import (
    NONE,
    WX,
    WX_ASLR,
    ProtectionProfile,
    compare_builds,
)
from ..dns import SimpleDnsServer, build_raw_response, make_query
from ..exploit import (
    ArmExeclpGadget,
    ArmRopMemcpyExeclp,
    X86Ret2Libc,
    builder_for,
    deliver,
    malicious_server_for,
)
from ..firmware import FIRMWARE_CATALOG, IoTDevice, UBUNTU_X86, audit_firmware, raspberry_pi_3b
from ..net import AccessPoint, DhcpServer, DNS_PORT, Host, Network, RadioEnvironment, WifiPineapple
from ..othercves import ALL_SPECS, AdaptedService, adapt_exploit, deliver_to_service
from .registry import register_experiment
from .report import render_table
from .scenarios import AttackScenario, attacker_knowledge, run_scenario


@dataclass
class ExperimentResult:
    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Tuple] = field(default_factory=list)
    notes: str = ""
    #: Metrics summary from an attached :class:`~repro.obs.Collector`
    #: (counters + histograms), when the experiment ran observed.
    metrics: Optional[dict] = None

    def describe(self) -> str:
        table = render_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")
        return table + (f"\n{self.notes}" if self.notes else "")

    @property
    def all_pass(self) -> bool:
        """True when every row's final 'expected' column says ok."""
        return all(row[-1] == "ok" for row in self.rows)

    def to_dict(self) -> dict:
        """JSON-serializable form (CLI ``report --json``, results artifact)."""
        payload = {
            "experiment": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[_jsonable(cell) for cell in row] for row in self.rows],
            "notes": self.notes,
            "all_pass": self.all_pass,
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload


def _jsonable(cell):
    if isinstance(cell, (str, int, float, bool)) or cell is None:
        return cell
    return str(cell)


def _check(expected: bool) -> str:
    return "ok" if expected else "MISMATCH"


def _lost(failure) -> str:
    """The verdict cell of a row whose trial the sweep quarantined."""
    return f"lost: {failure.kind} after {failure.attempts} attempt(s)"


# -- E1: crash / DoS (§III intro) -------------------------------------------------


def naive_overflow_blob(length: int = 1400) -> bytes:
    """An un-engineered oversized name: max-size labels of 'A's."""
    out = bytearray()
    remaining = length
    while remaining > 0:
        chunk = min(63, remaining)
        out.append(chunk)
        out += b"A" * chunk
        remaining -= chunk + 1
    out.append(0)
    return bytes(out)


@register_experiment("E1", "DoS via malformed DNS response (CVE-2017-12865)")
def e1_dos() -> ExperimentResult:
    """Oversized Type A response: crash on <=1.34, dropped on 1.35."""
    result = ExperimentResult(
        "E1", "DoS via malformed DNS response (CVE-2017-12865)",
        headers=("arch", "connman", "outcome", "daemon alive", "expected"),
    )
    blob = naive_overflow_blob()
    query = make_query(0xD05, "crash-me.example")
    reply = build_raw_response(query, blob)
    for arch in ("x86", "arm"):
        for version, should_survive in (("1.34", False), ("1.35", True)):
            daemon = ConnmanDaemon(arch=arch, version=version, profile=WX_ASLR)
            event = daemon.handle_upstream_reply(reply, expected_id=0xD05)
            survived = daemon.alive
            expected = (survived == should_survive) and (
                event.kind == (EventKind.DROPPED if should_survive else EventKind.CRASHED)
            )
            result.rows.append(
                (arch, version, event.describe()[:48], survived, _check(expected))
            )
    return result


# -- E2–E4: the six-attack matrix (§III-A/B/C) ------------------------------------


@register_experiment("E2", "code injection, no protections (§III-A)")
def e2_code_injection() -> ExperimentResult:
    """No protections: code injection spawns a root shell on both arches;
    the same payload faults under W^X."""
    result = ExperimentResult(
        "E2", "code injection, no protections (§III-A)",
        headers=("arch", "protections", "strategy", "outcome", "expected"),
    )
    for arch in ("x86", "arm"):
        outcome = run_scenario(AttackScenario(arch, "none", NONE))
        result.rows.append(
            (arch, "none", "code-injection", outcome.outcome, _check(outcome.succeeded))
        )
        # Negative control: same payload against a W^X victim -> W^X fault.
        scenario = AttackScenario(arch, "none", NONE)
        exploit = builder_for(arch, NONE).build(attacker_knowledge(scenario))
        victim = ConnmanDaemon(arch=arch, profile=WX)
        report = deliver(exploit, victim)
        blocked = report.event.kind == EventKind.CRASHED and report.event.signal == "SIGSEGV"
        result.rows.append(
            (arch, "W^X", "code-injection", report.event.describe()[:48], _check(blocked))
        )
    return result


@register_experiment("E3", "W^X bypass (§III-B)")
def e3_wx_bypass() -> ExperimentResult:
    """W^X enabled: ret2libc (x86) / gadget execlp (ARM) succeed; the ARM
    narrow gadget fails in parse_rr; both fail against ASLR."""
    result = ExperimentResult(
        "E3", "W^X bypass (§III-B)",
        headers=("arch", "variant", "outcome", "expected"),
    )
    for arch in ("x86", "arm"):
        outcome = run_scenario(AttackScenario(arch, "W^X", WX))
        result.rows.append((arch, "vs W^X victim", outcome.outcome, _check(outcome.succeeded)))

    # §III-B2's reported failure: narrow gadget leaves parse_rr slots garbage.
    scenario = AttackScenario("arm", "W^X", WX)
    short_exploit = ArmExeclpGadget(use_short_gadget=True).build(attacker_knowledge(scenario))
    victim = ConnmanDaemon(arch="arm", profile=WX)
    report = deliver(short_exploit, victim)
    blocked = report.event.kind == EventKind.CRASHED and report.event.signal == "SIGSEGV"
    result.rows.append(("arm", "short gadget (pop {r0, pc})",
                        report.event.describe()[:48], _check(blocked)))

    # Negative control: stale libc addresses vs an ASLR victim.
    for arch, builder in (("x86", X86Ret2Libc()), ("arm", ArmExeclpGadget())):
        blind = attacker_knowledge(AttackScenario(arch, "W^X+ASLR", WX_ASLR))
        exploit = builder.build(blind)
        victim = ConnmanDaemon(arch=arch, profile=WX_ASLR)
        report = deliver(exploit, victim)
        blocked = report.event.kind == EventKind.CRASHED
        result.rows.append((arch, "same technique vs ASLR victim",
                            report.event.describe()[:48], _check(blocked)))
    return result


@register_experiment("E4", "W^X + ASLR bypass via ROP (§III-C)")
def e4_aslr_bypass() -> ExperimentResult:
    """W^X + ASLR: the memcpy->.bss->execlp ROP chains succeed; the ARM
    full-string chain dies after three calls (the overwrite horizon)."""
    result = ExperimentResult(
        "E4", "W^X + ASLR bypass via ROP (§III-C)",
        headers=("arch", "variant", "outcome", "expected"),
    )
    for arch in ("x86", "arm"):
        outcome = run_scenario(AttackScenario(arch, "W^X+ASLR", WX_ASLR))
        result.rows.append((arch, "rop (paper chain)", outcome.outcome,
                            _check(outcome.succeeded)))

    # §III-C2: copying the full "/bin/sh" exceeds the three-call budget.
    blind = attacker_knowledge(AttackScenario("arm", "W^X+ASLR", WX_ASLR))
    greedy = ArmRopMemcpyExeclp(string=b"/bin/sh", enforce_horizon=False).build(blind)
    victim = ConnmanDaemon(arch="arm", profile=WX_ASLR)
    report = deliver(greedy, victim)
    blocked = report.event.kind == EventKind.CRASHED and report.event.signal == "SIGSEGV"
    result.rows.append(("arm", 'full "/bin/sh" chain (too long)',
                        report.event.describe()[:48], _check(blocked)))
    return result


# -- E5: Wi-Fi Pineapple man-in-the-middle (§III-D, Fig. 1) ---------------------------


@dataclass
class PineappleWorld:
    """The Fig. 1 setup: home LAN + legit AP + victim device + Pineapple."""

    radio: RadioEnvironment
    home_network: Network
    legit_dns: SimpleDnsServer
    pineapple: Optional[WifiPineapple] = None

    @classmethod
    def build(cls, ssid: str = "HomeWiFi") -> "PineappleWorld":
        home = Network("home-lan", subnet_prefix="192.168.1")
        gateway = Host("home-router")
        home.attach(gateway, ip="192.168.1.1")
        legit_dns = SimpleDnsServer(default_address="203.0.113.7")
        gateway.bind_udp(DNS_PORT, lambda payload, _dgram: legit_dns.handle_query(payload))
        dhcp = DhcpServer("192.168.1", router="192.168.1.1", dns_server="192.168.1.1")
        radio = RadioEnvironment()
        radio.add(AccessPoint(ssid=ssid, network=home, dhcp=dhcp, signal_dbm=-55))
        return cls(radio=radio, home_network=home, legit_dns=legit_dns)


@register_experiment("E5", "remote MITM via Wi-Fi Pineapple (§III-D)")
def e5_pineapple() -> ExperimentResult:
    """Remote exploitation through a rogue AP, exactly the §III-D protocol:
    x86 basic stack smash as feasibility, then all three ARM exploits."""
    result = ExperimentResult(
        "E5", "remote MITM via Wi-Fi Pineapple (§III-D)",
        headers=("device", "protections", "roamed", "dns via", "outcome", "expected"),
    )
    ssid = "HomeWiFi"

    runs: List[Tuple[str, IoTDevice, ProtectionProfile]] = [
        ("x86 media box", IoTDevice("media-box", UBUNTU_X86, known_ssids=[ssid],
                                    profile=NONE), NONE),
        ("rpi3 (none)", raspberry_pi_3b("rpi-none", known_ssids=[ssid], profile=NONE), NONE),
        ("rpi3 (W^X)", raspberry_pi_3b("rpi-wx", known_ssids=[ssid], profile=WX), WX),
        ("rpi3 (W^X+ASLR)", raspberry_pi_3b("rpi-full", known_ssids=[ssid],
                                            profile=WX_ASLR), WX_ASLR),
    ]
    for label, device, profile in runs:
        world = PineappleWorld.build(ssid)
        device.join_wifi(world.radio)
        baseline = device.lookup("connectivity-check.example")
        assert baseline is not None and baseline.kind == EventKind.RESPONDED

        arch = device.firmware.arch
        knowledge = attacker_knowledge(AttackScenario(arch, "bench", profile))
        exploit = builder_for(arch, profile).build(knowledge)
        pineapple = WifiPineapple(malicious_server_for(exploit))
        pineapple.impersonate(ssid, world.radio)
        world.pineapple = pineapple

        moved = device.join_wifi(world.radio)  # periodic rescan -> evil twin wins
        roamed = moved is not None and moved.ap in pineapple.broadcasts
        event = device.lookup("ota.vendor.example")
        got_root = event is not None and event.is_root_shell
        result.rows.append(
            (
                label,
                profile.label(),
                roamed,
                device.host.dns_server,
                event.describe()[:40] if event else "device offline",
                _check(roamed and got_root),
            )
        )
    return result


# -- E6: firmware survey (§III intro) ------------------------------------------------


@register_experiment("E6", "shipping firmware still carrying CVE-2017-12865 (§III)")
def e6_firmware_survey() -> ExperimentResult:
    """Which catalog images ship a vulnerable Connman (paper's survey)."""
    result = ExperimentResult(
        "E6", "shipping firmware still carrying CVE-2017-12865 (§III)",
        headers=("firmware", "connman", "vulnerable", "expected"),
        notes="Paper: Yocto builds 1.31, OpenELEC ships 1.34, Tizen vulnerable "
              "until 4.0; the fix shipped in 1.35 (Aug 2017).",
    )
    expectations = {
        "yocto-pyro": True,
        "openelec-8": True,
        "tizen-3": True,
        "tizen-4": False,
        "ubuntu-16.04-x86": True,
        "ubuntu-mate-16.04-rpi": True,
    }
    for image in FIRMWARE_CATALOG:
        findings = audit_firmware(image)
        vulnerable = bool(findings)
        result.rows.append(
            (
                image.name,
                str(image.connman_version),
                vulnerable,
                _check(vulnerable == expectations[image.name]),
            )
        )
    return result


# -- E7: suggested mitigations (§IV) -----------------------------------------------------


@register_experiment("E7", "suggested mitigations vs. the paper's attacks (§IV)")
def e7_mitigations() -> ExperimentResult:
    """Every §IV mitigation against the strongest applicable attack."""
    result = ExperimentResult(
        "E7", "suggested mitigations vs. the paper's attacks (§IV)",
        headers=("mitigation", "arch", "attack", "outcome", "expected"),
    )

    # Patching: the ROP chain (strongest attack) against 1.35.
    for arch in ("x86", "arm"):
        scenario = AttackScenario(arch, "W^X+ASLR", WX_ASLR)
        exploit = builder_for(arch, WX_ASLR).build(attacker_knowledge(scenario))
        victim = ConnmanDaemon(arch=arch, version="1.35", profile=WX_ASLR)
        report = deliver(exploit, victim)
        blocked = report.event.kind == EventKind.DROPPED and victim.alive
        result.rows.append(("patch to 1.35", arch, "rop", report.event.describe()[:44],
                            _check(blocked)))

    # Stack canary: catches the smash before the hijacked return.
    for arch in ("x86", "arm"):
        profile = ProtectionProfile(canary=True)
        scenario = AttackScenario(arch, "none", NONE)
        exploit = builder_for(arch, NONE).build(attacker_knowledge(scenario))
        victim = ConnmanDaemon(arch=arch, profile=profile)
        report = deliver(exploit, victim)
        blocked = report.event.signal == "SIGABRT"
        result.rows.append(("stack canary", arch, "code-injection",
                            report.event.describe()[:44], _check(blocked)))

    # CFI (shadow stack): stops the very first hijacked return of the ROP.
    for arch in ("x86", "arm"):
        profile = ProtectionProfile(wx=True, aslr=True, cfi=True)
        scenario = AttackScenario(arch, "W^X+ASLR", WX_ASLR)
        exploit = builder_for(arch, WX_ASLR).build(attacker_knowledge(scenario))
        victim = ConnmanDaemon(arch=arch, profile=profile)
        report = deliver(exploit, victim)
        blocked = report.event.signal == "SIGABRT" and "shadow stack" in report.event.detail
        result.rows.append(("CFI (shadow stack)", arch, "rop",
                            report.event.describe()[:44], _check(blocked)))

    # §VII lightweight return-address guard: the epilogue decrypts the
    # saved return address, so attacker-written plaintext lands at garbage.
    for arch in ("x86", "arm"):
        profile = ProtectionProfile(wx=True, aslr=True, ret_guard=True)
        scenario = AttackScenario(arch, "W^X+ASLR", WX_ASLR)
        exploit = builder_for(arch, WX_ASLR).build(attacker_knowledge(scenario))
        victim = ConnmanDaemon(arch=arch, profile=profile)
        report = deliver(exploit, victim)
        blocked = report.event.kind == EventKind.CRASHED and not report.got_root_shell
        result.rows.append(("ret-addr guard (§VII)", arch, "rop",
                            report.event.describe()[:44], _check(blocked)))

    # Compile-time diversity: one exploit vs a fleet of diversified builds.
    for arch in ("x86", "arm"):
        scenario = AttackScenario(arch, "W^X+ASLR", WX_ASLR)
        exploit = builder_for(arch, WX_ASLR).build(attacker_knowledge(scenario))
        shells = 0
        fleet = 8
        for seed in range(1, fleet + 1):
            victim = ConnmanDaemon(arch=arch, profile=WX_ASLR.with_(diversity_seed=seed))
            if deliver(exploit, victim).got_root_shell:
                shells += 1
        result.rows.append(
            ("software diversity", arch, "rop",
             f"{shells}/{fleet} diversified devices compromised", _check(shells == 0))
        )
    return result


def diversity_survival(arch: str = "x86", seeds: int = 8):
    """Gadget/PLT address survival across diversified builds (§IV analysis)."""
    from ..binfmt import build_connman

    reference = build_connman(arch)
    return [
        compare_builds(reference, build_connman(arch, seed=seed))
        for seed in range(1, seeds + 1)
    ]


# -- E8: adapting to other CVEs (§V) --------------------------------------------------------


@register_experiment("E8", "adapting the exploit to other CVEs (§V)")
def e8_adaptation(profiles: Optional[Sequence[Tuple[str, ProtectionProfile]]] = None
                  ) -> ExperimentResult:
    """Port the overflow to the other CVE-bearing services (§V)."""
    result = ExperimentResult(
        "E8", "adapting the exploit to other CVEs (§V)",
        headers=("service", "cve", "protocol", "effort", "protections", "outcome", "expected"),
    )
    if profiles is None:
        profiles = (("none", NONE), ("W^X", WX), ("W^X+ASLR", WX_ASLR))
    for spec in ALL_SPECS:
        for label, profile in profiles:
            service = AdaptedService(spec, profile=profile)
            builder = builder_for(spec.arch, profile)
            exploit = adapt_exploit(builder, service, aslr_blind=profile.aslr)
            report = deliver_to_service(exploit, service)
            result.rows.append(
                (
                    spec.name,
                    spec.cve_id,
                    spec.protocol,
                    spec.adaptation_effort,
                    label,
                    "root shell" if report.got_root_shell else report.event.describe()[:36],
                    _check(report.got_root_shell),
                )
            )
    return result


# -- E10: brute-forcing ASLR against a respawning daemon (§VI related work) -----


@register_experiment("E10", "brute-forcing ASLR (ret2libc, respawning daemon)",
                     grid={"max_attempts": (2048,)})
def e10_bruteforce(max_attempts: int = 2048, *,
                   workers: Optional[int] = 1) -> ExperimentResult:
    """32-bit ASLR entropy is brute-forceable; §IV/§VII defenses are not."""
    from ..exploit import BruteForceTrial, run_bruteforce_trial
    from .parallel import run_tasks

    result = ExperimentResult(
        "E10", "brute-forcing ASLR (ret2libc, respawning daemon)",
        headers=("victim", "attempts", "outcome", "expected"),
        notes="32-bit mmap ASLR: ~8 bits of libc entropy -> expected ~256 tries.",
    )
    report, guarded_report = run_tasks(
        run_bruteforce_trial,
        [
            BruteForceTrial(victim_seed=99, attacker_seed=5,
                            max_attempts=max_attempts),
            BruteForceTrial(victim_seed=99, attacker_seed=5,
                            max_attempts=256, ret_guard=True),
        ],
        workers=workers,
    )
    plausible = report.succeeded and 16 <= report.attempts <= max_attempts
    result.rows.append(("W^X+ASLR", report.attempts, report.describe()[:52],
                        _check(plausible)))
    result.rows.append(("+ ret-addr guard", guarded_report.attempts,
                        guarded_report.describe()[:52],
                        _check(not guarded_report.succeeded)))
    return result


# -- E11: off-path spoofing / cache-poisoning delivery (§III-D remark) ------------


@register_experiment("E11", "off-path DNS spoofing delivery (no MITM)",
                     grid={"burst": (2048,), "max_queries": (512,)})
def e11_offpath(burst: int = 2048, max_queries: int = 512) -> ExperimentResult:
    """Exploitation without MITM: race the resolver with guessed ids."""
    from ..exploit import OffPathSpoofer

    result = ExperimentResult(
        "E11", "off-path DNS spoofing delivery (no MITM)",
        headers=("burst", "victim queries", "outcome", "expected"),
        notes="Each burst guesses `burst` of 65536 transaction ids; a chatty "
              "IoT device hands the attacker ~burst/65536 odds per lookup.",
    )
    knowledge = attacker_knowledge(AttackScenario("arm", "W^X+ASLR", WX_ASLR))
    exploit = builder_for("arm", WX_ASLR).build(knowledge)
    legit = SimpleDnsServer(default_address="1.1.1.1")
    victim = ConnmanDaemon(arch="arm", profile=WX_ASLR, rng=random.Random(3))
    spoofer = OffPathSpoofer(exploit, burst=burst, rng=random.Random(11))
    report = spoofer.attack(victim, legit.handle_query, max_queries=max_queries)
    result.rows.append((burst, report.queries_observed, report.describe()[:52],
                        _check(report.succeeded)))

    # Tiny bursts: overwhelmingly the legitimate reply wins the race.
    small_victim = ConnmanDaemon(arch="arm", profile=WX_ASLR, rng=random.Random(4))
    small = OffPathSpoofer(exploit, burst=4, rng=random.Random(12))
    small_report = small.attack(small_victim, legit.handle_query, max_queries=64)
    result.rows.append((4, small_report.queries_observed, small_report.describe()[:52],
                        _check(not small_report.succeeded)))
    return result


# -- E12: household fleet compromise (§I motivation) ------------------------------


@register_experiment("E12", "household fleet vs. one rogue AP (§I motivation)")
def e12_fleet() -> ExperimentResult:
    """One evil twin vs. the whole household.

    The attacker's Pineapple runs the full strategy ladder per victim
    (devices differ in architecture and protections); everything still
    shipping Connman <= 1.34 falls, the patched straggler survives.
    """
    from ..firmware.fleet import DEFAULT_HOUSEHOLD, FleetAttackOutcome, build_household
    from ..net import WifiPineapple

    result = ExperimentResult(
        "E12", "household fleet vs. one rogue AP (§I motivation)",
        headers=("device", "kind", "connman", "protections", "roamed", "outcome", "expected"),
    )
    ssid = "HomeWiFi"
    world = PineappleWorld.build(ssid)
    devices = build_household(ssid)
    for device in devices:
        device.join_wifi(world.radio)
        baseline = device.lookup("setup-check.example")
        assert baseline is not None and baseline.kind == EventKind.RESPONDED

    outcomes: List[FleetAttackOutcome] = []
    for member, device in zip(DEFAULT_HOUSEHOLD, devices):
        # Per-victim exploit: the ladder keyed on the (known) firmware kind.
        exploit = builder_for(device.firmware.arch, device.profile).build(
            attacker_knowledge(
                AttackScenario(device.firmware.arch, "fleet", device.profile,
                               version=str(device.firmware.connman_version))
            )
        )
        pineapple = WifiPineapple(malicious_server_for(exploit))
        rogue = pineapple.impersonate(ssid, world.radio)
        moved = device.join_wifi(world.radio)
        event = device.lookup(f"ota.{device.name}.example")
        pineapple.stop_broadcast(world.radio)
        outcomes.append(
            FleetAttackOutcome(
                device=device,
                kind=member.kind,
                roamed=moved is not None and moved.ap is rogue,
                compromised=event is not None and event.is_root_shell,
                detail=event.describe()[:32] if event else "offline",
            )
        )
    for outcome in outcomes:
        should_fall = outcome.device.firmware.ships_vulnerable_connman
        result.rows.append(
            outcome.row() + (_check(outcome.compromised == should_fall),)
        )
    vulnerable = sum(1 for o in outcomes if o.device.firmware.ships_vulnerable_connman)
    fallen = sum(1 for o in outcomes if o.compromised)
    result.notes = (f"{fallen}/{len(outcomes)} devices rooted "
                    f"({vulnerable} shipped vulnerable Connman).")
    return result


# -- E13: botnet recruitment via resolver poisoning (§III-D Mirai remark) ---------


@register_experiment("E13", "botnet via poisoned forwarder delegation (§III-D remark)")
def e13_botnet() -> ExperimentResult:
    """Fully off-path: poison the home forwarder's delegation, recruit the
    fleet through its own trusted resolver."""
    from ..dns import CachingForwarder
    from ..exploit.botnet import BotnetCampaign, universal_arm_payload, VENDOR_ZONE
    from ..firmware.fleet import build_household
    from ..net import AccessPoint, DhcpServer, Host, Network, RadioEnvironment

    result = ExperimentResult(
        "E13", "botnet via poisoned forwarder delegation (§III-D remark)",
        headers=("device", "firmware", "arch", "protections", "outcome", "recruited",
                 "expected"),
    )

    # The home LAN: the router runs the shared caching forwarder.
    ssid = "HomeWiFi"
    home = Network("home-lan", subnet_prefix="192.168.1")
    router = Host("home-router")
    home.attach(router, ip="192.168.1.1")
    legit = SimpleDnsServer(default_address="203.0.113.7")
    forwarder = CachingForwarder(default_upstream=legit.handle_query)
    router.bind_udp(DNS_PORT, lambda payload, _dgram: forwarder.handle_query(payload))
    dhcp = DhcpServer("192.168.1", router="192.168.1.1", dns_server="192.168.1.1")
    radio = RadioEnvironment()
    radio.add(AccessPoint(ssid=ssid, network=home, dhcp=dhcp, signal_dbm=-55))

    # An x86 device joins the ARM household to show the collateral DoS.
    devices = build_household(ssid)
    x86_box = IoTDevice("desktop-vm", UBUNTU_X86, known_ssids=[ssid], profile=WX_ASLR)
    devices.append(x86_box)
    for device in devices:
        device.join_wifi(radio)
        baseline = device.lookup("connectivity.example")
        assert baseline is not None and baseline.kind == EventKind.RESPONDED

    campaign = BotnetCampaign(
        forwarder, universal_arm_payload(), burst=2048, rng=random.Random(0xB07)
    )
    report = campaign.run(devices)
    assert report.poisoning.succeeded, report.poisoning.describe()

    for outcome, device in zip(report.outcomes, devices):
        if not device.firmware.ships_vulnerable_connman:
            expected = not outcome.recruited and "dropped" in outcome.outcome
        elif device.firmware.arch == "arm":
            expected = outcome.recruited
        else:  # vulnerable x86 fed the ARM payload: collateral crash.
            expected = not outcome.recruited and "crashed" in outcome.outcome
        result.rows.append(
            (outcome.device_name, outcome.firmware, outcome.arch,
             outcome.protections, outcome.outcome[:36], outcome.recruited,
             _check(expected))
        )
    result.notes = (
        f"{report.poisoning.describe()}; botnet size {report.c2.size} of "
        f"{len(devices)} devices (one payload, zero radio presence)."
    )
    return result


# -- E14: exploit reliability across randomization draws ---------------------------


@register_experiment("E14", "exploit reliability across fresh boots",
                     grid={"trials": (10,)})
def e14_reliability(trials: int = 10, *,
                    workers: Optional[int] = 1,
                    checkpoint: Optional[str] = None, resume: bool = False,
                    policy=None, sweep_observer=None) -> ExperimentResult:
    """Success rates per technique over fresh boots (fresh ASLR draws).

    ``checkpoint``/``resume``/``policy`` flow into the study runner
    (journaled per STUDY_PLAN cell), so an interrupted E14 resumes to the
    same table; ``sweep_observer`` collects the harness-health counters.
    A cell quarantined under a supervision ``policy`` keeps its row, as
    ``lost: ...`` and ``FAIL``, so the artifact itself records the loss.
    """
    from .reliability import STUDY_PLAN, run_reliability_study
    from .resume import TrialFailure

    result = ExperimentResult(
        "E14", "exploit reliability across fresh boots",
        headers=("technique", "arch", "victim", "success", "expectation", "expected"),
        notes="'always' techniques use only non-randomized facts; 'lottery' "
              "is the 1-in-2^entropy residual that E10 brute-forces.",
    )
    cells = run_reliability_study(trials=trials, workers=workers,
                                  policy=policy, checkpoint=checkpoint,
                                  resume=resume, sweep_observer=sweep_observer)
    for plan, cell in zip(STUDY_PLAN, cells):
        if isinstance(cell, TrialFailure):
            label, arch, *_middle, victim_profile, expectation = plan
            result.rows.append((label, arch, victim_profile.label(),
                                _lost(cell), expectation, "FAIL"))
        else:
            result.rows.append(
                cell.row() + (_check(cell.matches_expectation),))
    return result


# -- E15: brute-force cost vs. ASLR entropy (figure series) -------------------------


@register_experiment("E15", "brute-force attempts vs. ASLR entropy (figure series)",
                     grid={"runs_per_point": (5,)})
def e15_entropy_sweep(runs_per_point: int = 5, *,
                      workers: Optional[int] = 1,
                      checkpoint: Optional[str] = None, resume: bool = False,
                      policy=None, sweep_observer=None) -> ExperimentResult:
    """Median brute-force attempts scale linearly with randomization span.

    ``checkpoint``/``resume``/``policy`` reach the underlying entropy
    sweep (journaled per brute-force trial): ``repro run E15 --checkpoint
    ... --resume`` re-executes only the trials a killed run is missing.
    """
    from .sweeps import sweep_bruteforce_entropy

    result = ExperimentResult(
        "E15", "brute-force attempts vs. ASLR entropy (figure series)",
        headers=("entropy (pages)", "median attempts", "range", "expected"),
        notes="Linear scaling: with ~2^8 pages the attack is minutes of DNS "
              "traffic; IoT-class 32-bit targets cannot widen the span enough.",
    )
    points = sweep_bruteforce_entropy(runs_per_point=runs_per_point,
                                      workers=workers, policy=policy,
                                      checkpoint=checkpoint, resume=resume,
                                      sweep_observer=sweep_observer)
    for point in points:
        result.rows.append(point.row() + (_check(point.plausible),))
    medians = [point.median_attempts for point in points]
    scaling_holds = medians[-1] > medians[0] * 4
    result.rows.append(
        ("(scaling)", f"{medians[0]:.0f} -> {medians[-1]:.0f}", "64x span",
         _check(scaling_holds))
    )
    return result


# -- E16: chaos sweep — resilience & attack success under injected faults ---------


@register_experiment("E16", "chaos sweep: availability and attack success under faults",
                     grid={"queries_per_rate": (24,), "attack_budget": (32,)})
def e16_chaos(rates: Sequence[float] = (0.0, 0.2, 0.5),
              queries_per_rate: int = 24, attack_budget: int = 32, *,
              workers: Optional[int] = 1, checkpoint: Optional[str] = None,
              resume: bool = False, policy=None,
              sweep_observer=None) -> ExperimentResult:
    """Fault-rate sweep plus the supervised-vs-unsupervised brute force.

    ``checkpoint``/``resume``/``policy``/``sweep_observer`` flow straight
    into :func:`~repro.core.chaos.run_chaos_sweep`: an E16 run killed
    mid-sweep resumes from its journal with a byte-identical table.
    """
    from ..connman import DaemonSupervisor
    from ..exploit import AslrBruteForcer
    from ..obs import Collector
    from .chaos import run_chaos_sweep

    result = ExperimentResult(
        "E16", "chaos sweep: availability and attack success under faults",
        headers=("fault rate", "answered", "stale", "failed", "restarts",
                 "availability", "attack", "expected"),
        notes="Faulty upstreams degrade to stale answers; the supervisor's "
              "start-limit turns the attacker's crash-restart oracle off.",
    )
    collector = Collector()
    report = run_chaos_sweep(rates, queries_per_rate=queries_per_rate,
                             attack_budget=attack_budget, observer=collector,
                             workers=workers, checkpoint=checkpoint,
                             resume=resume, policy=policy,
                             sweep_observer=sweep_observer)
    result.metrics = collector.metrics.to_dict()
    for cell in report.cells:
        if cell.fault_rate == 0.0:
            expected = cell.failed == 0 and cell.stale == 0
        else:
            expected = cell.answered < cell.queries and (cell.stale + cell.failed) > 0
        result.rows.append(cell.row() + (_check(expected),))
    # A quarantined point fails its own row, from fields that do not
    # depend on the worker count.
    for failure in report.failures:
        result.rows.append(
            (f"{rates[failure.index]:.2f}", "-", "-", "-", "-", "-",
             _lost(failure), "FAIL"))

    # The supervision headline: same victim seed, same guess stream, with
    # and without init's restart budget.
    narrowed = WX_ASLR.with_(aslr_entropy_pages=64)
    free_victim = ConnmanDaemon(arch="x86", profile=narrowed, rng=random.Random(424))
    free = AslrBruteForcer(free_victim, max_attempts=192,
                           rng=random.Random(17)).run()
    capped_victim = ConnmanDaemon(arch="x86", profile=narrowed, rng=random.Random(424))
    supervisor = DaemonSupervisor(capped_victim, start_limit_burst=8)
    capped = AslrBruteForcer(capped_victim, max_attempts=192,
                             rng=random.Random(17), supervisor=supervisor).run()
    result.rows.append(
        ("(bruteforce, bare init)", f"{free.attempts} tries", "-", "-",
         free_victim.boots - 1, "-",
         "root shell" if free.succeeded else "no shell",
         _check(free.succeeded)))
    result.rows.append(
        ("(bruteforce, supervised)", f"{capped.attempts} tries", "-", "-",
         supervisor.restart_count, f"{supervisor.availability():.3f}",
         capped.describe()[:28],
         _check(capped.halted_by_supervisor and not capped.succeeded
                and capped.attempts < free.attempts)))
    return result

