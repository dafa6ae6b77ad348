"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload is a closed loop with one client: :meth:`ops` yields one
operation at a time, and the next operation is produced only after the
previous one returned.  An operation is a tuple of zero-argument steps,
which the harness runs in order and times one by one; most operations
have one step.  A step returns ``(ok, outcome)``: ``ok`` is the workload's
oracle verdict and ``outcome`` a short deterministic description that
feeds the round's ``outcome_digest``.

Everything random is seeded through the registry's seed rule,
``derive_seed(seed, workload, index, role)``; warm-up work uses the index
``"warmup"``, which no timed operation uses.  Every round of a workload
re-creates its fixtures from the seed, so every round repeats the same work.
"""

from __future__ import annotations

import gc
import hashlib
import random
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.connman import ConnmanDaemon
from repro.core.registry import derive_seed
from repro.core.reliability import STUDY_PLAN
from repro.core.scenarios import PAPER_MATRIX, AttackScenario, attacker_knowledge, run_scenario
from repro.defenses import WX_ASLR
from repro.dns import Message, SimpleDnsServer, make_query
from repro.exploit import AslrBruteForcer, BruteForceTrial, X86Ret2Libc, deliver
from repro.mem import BASE_LAYOUTS, PAGE_SIZE
from repro.net import DNS_PORT, Host, Network

Step = Callable[[], Tuple[bool, str]]
Op = Tuple[Step, ...]

#: Round sizes: ``full`` is what a full run repeats every round, about 2.5 s
#: of operations at reference speed; ``ci`` is about a tenth of it.
SIZES = ("full", "ci")


class Workload:
    """Shared counters; subclasses define the fixtures and the op stream."""

    name = ""

    def __init__(self, seed: int, size: str):
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r} (known: {', '.join(SIZES)})")
        self.seed = seed
        self.full = size == "full"
        #: Exploit deliveries and how many of them got a root shell.
        self.deliveries = 0
        self.shells = 0
        #: Benign client queries and how many the daemon's cache answered.
        self.queries = 0
        self.cache_hits = 0

    def rng(self, index, role: str) -> random.Random:
        return random.Random(derive_seed(self.seed, self.name, index, role))

    def warm_up(self) -> None:
        """One operation of each kind on the warm-up seed (part of set-up)."""
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError


class AttackMatrix(Workload):
    """The §III matrix (E2–E4): every op is one pass over its six cells,
    one ``run_scenario`` step each, as ``run_paper_matrix`` runs them.

    A pass, not a cell, is the operation because the cells' costs differ
    by up to 5x: with one cell per op the median fell in the gap between
    the cheaper and the dearer three, and read 5% apart between seeds.
    Each cell is its own step, so that the harness times it on its own.
    """

    name = "attack-matrix"

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.repeats = 50 if self.full else 5

    def warm_up(self) -> None:
        for cell in PAPER_MATRIX:
            run_scenario(cell, self.rng("warmup", cell.key))

    def ops(self) -> Iterator[Op]:
        for index in range(self.repeats):
            yield tuple(partial(self._attack, cell, self.rng(index, cell.key))
                        for cell in PAPER_MATRIX)

    def _attack(self, cell: AttackScenario, rng: random.Random) -> Tuple[bool, str]:
        result = run_scenario(cell, rng)
        self.deliveries += 1
        self.shells += result.succeeded
        blob = hashlib.sha256(result.exploit.blob).hexdigest()[:12] if result.exploit else "-"
        return result.succeeded, f"{cell.key} {blob} {result.outcome}"


class BruteForceRun:
    """One E10 trial, one :meth:`attempt` at a time.

    Mirrors :meth:`AslrBruteForcer.run` through public calls only
    (``restart`` -> ``knowledge_for_slide`` -> ``X86Ret2Libc.build`` ->
    ``deliver``), so the harness can time every attempt.  The trial's
    set-up (victim boot, bench recon) runs inside its first attempt.
    """

    def __init__(self, trial: BruteForceTrial):
        self.trial = trial
        self.attempts = 0
        self.winning_slide_pages: Optional[int] = None

    @property
    def done(self) -> bool:
        return (self.winning_slide_pages is not None
                or self.attempts >= self.trial.max_attempts)

    def _set_up(self) -> None:
        profile = WX_ASLR.with_(aslr_entropy_pages=self.trial.entropy_pages)
        self.victim = ConnmanDaemon(arch="x86", profile=profile,
                                    rng=random.Random(self.trial.victim_seed))
        self.forcer = AslrBruteForcer(self.victim, max_attempts=self.trial.max_attempts,
                                      rng=random.Random(self.trial.attacker_seed))
        self.builder = X86Ret2Libc()

    def attempt(self) -> Tuple[bool, str, bool]:
        """One guess; returns ``(ok, outcome, got_root_shell)``."""
        if self.attempts == 0:
            self._set_up()
        victim, forcer = self.victim, self.forcer
        self.attempts += 1
        if not victim.alive:
            victim.restart()
        guess = forcer.rng.randrange(forcer.entropy_pages)
        actual = (BASE_LAYOUTS["x86"].libc_base - victim.loaded.layout.libc_base) // PAGE_SIZE
        exploit = self.builder.build(forcer.knowledge_for_slide(guess))
        report = deliver(exploit, victim, rng=forcer.rng)
        if report.got_root_shell:
            self.winning_slide_pages = guess
        if self.done:
            # Drop the daemon, and with it every boot its event log keeps.
            self.victim = self.forcer = None
        ok = report.got_root_shell == (guess == actual)
        return ok, f"{guess}/{actual} {report.event.kind.value}", report.got_root_shell


class BruteForce(Workload):
    """E10: ret2libc against a respawning x86 W^X+ASLR daemon; an op is
    one attempt.

    ``MAX_ATTEMPTS`` is half a randomization span, not E10's 2048.  A trial
    keeps every crashed boot alive through its event log (about 0.36 MiB
    per attempt), so peak memory follows the round's longest trial.  At
    2048 that trial's length spreads by 55% across seeds; with the cap it
    is about equally long for every seed: 53% of trials reach it, so all
    but about 1 in 9,000 rounds have a trial that does.
    """

    name = "bruteforce"
    ENTROPY_PAGES = 256
    MAX_ATTEMPTS = 128

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.trials = 12 if self.full else 1

    def trial(self, index) -> BruteForceTrial:
        return BruteForceTrial(
            victim_seed=derive_seed(self.seed, self.name, index, "victim"),
            attacker_seed=derive_seed(self.seed, self.name, index, "attacker"),
            max_attempts=self.MAX_ATTEMPTS,
            entropy_pages=self.ENTROPY_PAGES,
        )

    def warm_up(self) -> None:
        BruteForceRun(self.trial("warmup")).attempt()

    def ops(self) -> Iterator[Op]:
        for index in range(self.trials):
            # A finished trial's boots sit in reference cycles (each crash
            # keeps its traceback); collect them so peak memory is the
            # longest trial's, not an accident of when the collector ran.
            gc.collect()
            run = BruteForceRun(self.trial(index))
            while not run.done:
                yield (partial(self._attempt, run, index),)

    def _attempt(self, run: BruteForceRun, index: int) -> Tuple[bool, str]:
        ok, outcome, shell = run.attempt()
        self.deliveries += 1
        self.shells += shell
        return ok, f"t{index} {outcome}"


#: 160 names of 16 characters: one guest cache entry is 25 bytes, so the
#: 0x800-byte ``dns_cache_storage`` table holds 81 of them, half the pool.
RESOLVER_NAMES = tuple(f"dev-{index:03d}.iot.test" for index in range(160))


class ResolverLan:
    """client -> ARM W^X+ASLR connmand -> benign upstream, on one Network."""

    def __init__(self, workload: Workload, index):
        zone_rng = workload.rng(index, "zone")
        self.server = SimpleDnsServer(zone={
            name: ".".join(str(zone_rng.randrange(1, 255)) for _ in range(4))
            for name in RESOLVER_NAMES
        })
        self.daemon = ConnmanDaemon(arch="arm", profile=WX_ASLR,
                                    rng=workload.rng(index, "victim"))
        network = Network("resolver-lan", subnet_prefix="10.77.0")
        self.client, victim, upstream = Host("iot-client"), Host("connman"), Host("upstream")
        for host in (self.client, victim, upstream):
            network.attach(host)
        upstream.bind_udp(DNS_PORT, lambda payload, _dgram: self.server.handle_query(payload))
        victim.bind_udp(DNS_PORT, lambda payload, _dgram: self.daemon.handle_client_query(
            payload, lambda query: victim.send_udp(upstream.ip, DNS_PORT, query)))
        self.victim_ip = victim.ip

    def query(self, message_id: int, name: str) -> Tuple[bool, bool, str]:
        """One A lookup; returns ``(ok, cache_hit, address)``."""
        self.daemon.cache.advance(1)
        upstream_before = len(self.server.log)
        reply = self.client.send_udp(self.victim_ip, DNS_PORT,
                                     make_query(message_id, name).encode())
        answers = Message.decode(reply).answers if reply is not None else ()
        address = answers[0].address if len(answers) == 1 else "-"
        ok = address == self.server.zone[name]
        return ok, len(self.server.log) == upstream_before, address


class Resolver(Workload):
    """Benign A queries through the daemon's guest-memory cache."""

    name = "resolver"

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.count = 2400 if self.full else 240

    def warm_up(self) -> None:
        lan = ResolverLan(self, "warmup")
        lan.query(0, RESOLVER_NAMES[0])  # miss: upstream + guest parse + put
        lan.query(1, RESOLVER_NAMES[0])  # hit

    def ops(self) -> Iterator[Op]:
        lan = ResolverLan(self, 0)
        names = self.rng(0, "client")
        for index in range(self.count):
            yield (partial(self._query, lan, index, names.choice(RESOLVER_NAMES)),)

    def _query(self, lan: ResolverLan, index: int, name: str) -> Tuple[bool, str]:
        ok, hit, address = lan.query(index & 0xFFFF, name)
        self.queries += 1
        self.cache_hits += hit
        return ok, f"{name} {address} {'hit' if hit else 'miss'}"


#: E14's deterministic rows: the exploits expected to root every boot.
ALWAYS_ROWS = tuple(row for row in STUDY_PLAN if row[-1] == "always")


class Reliability(Workload):
    """E14: each op restarts one cell's victim and delivers its exploit."""

    name = "reliability"

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.repeats = 300 if self.full else 30
        # Exploits are built once, in set-up, exactly as E14 does.
        self.exploits = []
        for _label, arch, builder_cls, recon, blind, victim_profile, _ in ALWAYS_ROWS:
            scenario = AttackScenario(arch, "reliability", victim_profile if blind else recon)
            self.exploits.append(builder_cls().build(attacker_knowledge(scenario)))

    def _victims(self, index) -> List[Tuple[str, ConnmanDaemon, random.Random]]:
        victims = []
        for cell, (label, arch, _b, _r, _bl, victim_profile, _e) in enumerate(ALWAYS_ROWS):
            rng = self.rng(index, f"cell{cell}")
            victims.append((f"{label}/{arch}",
                            ConnmanDaemon(arch=arch, profile=victim_profile, rng=rng), rng))
        return victims

    def warm_up(self) -> None:
        for exploit, (_key, victim, rng) in zip(self.exploits, self._victims("warmup")):
            victim.restart()
            deliver(exploit, victim, rng=rng)

    def ops(self) -> Iterator[Op]:
        cells = list(zip(self.exploits, self._victims(0)))
        for _ in range(self.repeats):
            for exploit, (key, victim, rng) in cells:
                yield (partial(self._attack, exploit, key, victim, rng),)

    def _attack(self, exploit, key: str, victim: ConnmanDaemon,
                rng: random.Random) -> Tuple[bool, str]:
        victim.restart()
        libc_base = victim.loaded.layout.libc_base
        report = deliver(exploit, victim, rng=rng)
        self.deliveries += 1
        self.shells += report.got_root_shell
        return report.got_root_shell, f"{key} {libc_base:#x} {report.event.kind.value}"


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (AttackMatrix, BruteForce, Resolver, Reliability)
}
