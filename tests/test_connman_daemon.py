"""Daemon lifecycle, proxy data path, and overflow semantics."""

import gc
import random
import weakref

import pytest

from repro.connman import ConnmanDaemon, EventKind
from repro.core import AttackScenario, attacker_knowledge, naive_overflow_blob
from repro.core.reliability import STUDY_PLAN
from repro.defenses import NONE, WX_ASLR, ProtectionProfile
from repro.dns import (
    Message,
    SimpleDnsServer,
    StubResolver,
    build_raw_response,
    fixed_blob_server,
    make_query,
)
from repro.exploit import AslrBruteForcer, deliver
from repro.exploit.builders import X86Ret2Libc
from tests.conftest import fresh_daemon


def crash_reply(query_id=0xD05):
    query = make_query(query_id, "crash.example")
    return build_raw_response(query, naive_overflow_blob()), query_id


class TestLifecycle:
    def test_boot_state(self):
        daemon = fresh_daemon("x86")
        assert daemon.alive and not daemon.compromised
        assert daemon.boots == 1
        assert daemon.loaded.process.uid == 0  # runs as root, as shipped

    def test_crash_marks_daemon_down(self):
        daemon = fresh_daemon("x86")
        reply, qid = crash_reply()
        daemon.handle_upstream_reply(reply, expected_id=qid)
        assert not daemon.alive

    def test_down_daemon_drops_everything(self):
        daemon = fresh_daemon("x86")
        reply, qid = crash_reply()
        daemon.handle_upstream_reply(reply, expected_id=qid)
        event = daemon.handle_upstream_reply(reply, expected_id=qid)
        assert event.kind == EventKind.DROPPED and "down" in event.detail

    def test_restart_revives(self):
        daemon = fresh_daemon("x86")
        reply, qid = crash_reply()
        daemon.handle_upstream_reply(reply, expected_id=qid)
        daemon.restart()
        assert daemon.alive
        assert daemon.boots == 2

    def test_restart_redraws_aslr(self):
        daemon = fresh_daemon("x86", profile=WX_ASLR)
        first = daemon.loaded.layout.libc_base
        bases = set()
        for _ in range(6):
            daemon.restart()
            bases.add(daemon.loaded.layout.libc_base)
        assert bases != {first}

    def test_restart_keeps_layout_without_aslr(self):
        daemon = fresh_daemon("arm", profile=NONE)
        first = daemon.loaded.layout
        daemon.restart()
        assert daemon.loaded.layout == first

    def test_status_line(self):
        text = fresh_daemon("arm", profile=WX_ASLR).status()
        assert "1.34" in text and "W^X+ASLR" in text and "running" in text

    def test_upstream_timeout_dropped(self):
        daemon = fresh_daemon("x86")
        event = daemon.handle_upstream_reply(None)
        assert event.kind == EventKind.DROPPED


class TestProxyPath:
    def test_full_resolution(self):
        daemon = fresh_daemon("x86")
        upstream = SimpleDnsServer(zone={"www.example.com": "93.184.216.34"})
        result = StubResolver().resolve(
            lambda packet: daemon.handle_client_query(packet, upstream.handle_query),
            "www.example.com",
        )
        assert result.address == "93.184.216.34"

    def test_second_lookup_served_from_cache(self):
        daemon = fresh_daemon("x86")
        upstream = SimpleDnsServer(zone={"a.example": "1.1.1.1"})
        transport = lambda packet: daemon.handle_client_query(packet, upstream.handle_query)
        resolver = StubResolver()
        resolver.resolve(transport, "a.example")
        resolver.resolve(transport, "a.example")
        assert len(upstream.log) == 1  # upstream consulted once

    def test_malicious_upstream_compromises_via_proxy(self):
        from repro.core import AttackScenario, attacker_knowledge
        from repro.exploit import builder_for

        daemon = fresh_daemon("x86", profile=NONE)
        exploit = builder_for("x86", NONE).build(
            attacker_knowledge(AttackScenario("x86", "none", NONE))
        )
        server = fixed_blob_server(exploit.blob)
        query = make_query(0xAB, "lure.example")
        response = daemon.handle_client_query(query.encode(), server.handle_query)
        assert response is None  # the daemon never answered: it is a shell now
        assert daemon.compromised
        assert daemon.last_event.spawn.uid == 0

    def test_client_garbage_ignored(self):
        daemon = fresh_daemon("x86")
        assert daemon.handle_client_query(b"junk", lambda _q: None) is None

    def test_upstream_timeout_gives_no_answer(self):
        daemon = fresh_daemon("x86")
        query = make_query(0xAC, "slow.example")
        assert daemon.handle_client_query(query.encode(), lambda _q: None) is None
        assert daemon.alive


class TestOverflowMechanics:
    def test_crash_is_sigsegv_from_pattern_pc(self):
        daemon = fresh_daemon("x86")
        reply, qid = crash_reply()
        event = daemon.handle_upstream_reply(reply, expected_id=qid)
        assert event.signal == "SIGSEGV"
        # eip was loaded with 'AAAA'-ish bytes from the oversized name.
        assert event.execution is not None
        assert event.execution.fault.address & 0xFF == ord("A")

    def test_expansion_really_wrote_the_stack(self):
        daemon = fresh_daemon("x86")
        place = daemon.proxy.placement()
        reply, qid = crash_reply()
        daemon.handle_upstream_reply(reply, expected_id=qid)
        memory = daemon.loaded.process.memory
        assert memory.read(place.name_address + 100, 4) == b"AAAA"
        assert memory.read(place.ret_slot, 2) == b"AA"

    def test_patched_version_never_writes_past_buffer(self):
        daemon = fresh_daemon("x86", version="1.35")
        place = daemon.proxy.placement()
        reply, qid = crash_reply()
        event = daemon.handle_upstream_reply(reply, expected_id=qid)
        assert event.kind == EventKind.DROPPED
        # The return slot still holds the legitimate return address, not
        # attacker bytes: the bounds check fired before the copy ran over.
        memory = daemon.loaded.process.memory
        assert memory.read_u32(place.ret_slot) == daemon.loaded.address_of("dnsproxy_resume")
        assert b"A" not in memory.read(place.name_address + 1024, 16)

    def test_every_vulnerable_version_crashes(self):
        reply, qid = crash_reply()
        for minor in (24, 28, 31, 33, 34):
            daemon = fresh_daemon("x86", version=f"1.{minor}")
            event = daemon.handle_upstream_reply(reply, expected_id=qid)
            assert event.kind == EventKind.CRASHED, minor

    def test_every_fixed_version_survives(self):
        reply, qid = crash_reply()
        for minor in (35, 36, 37):
            daemon = fresh_daemon("x86", version=f"1.{minor}")
            event = daemon.handle_upstream_reply(reply, expected_id=qid)
            assert event.kind == EventKind.DROPPED, minor

    def test_arm_null_slot_corruption_aborts(self):
        """Overflow that tramples the NULL sentinels without hijacking
        cleanly triggers the §III-A2 abort path."""
        from repro.exploit import fill, fixed, plan_labels, p32

        daemon = fresh_daemon("arm")
        frame = daemon.frame
        place = daemon.proxy.placement()
        # Write a clean frame except non-NULL sentinels and a valid ret.
        fields = [
            fill(min(frame.null_slot_offsets), b"\x00"),
            fixed(b"\x41\x41\x41\x41" * 2),  # sentinels now non-NULL
            fill(frame.ret_offset - min(frame.null_slot_offsets) - 8, b"\x00"),
            fixed(p32(daemon.loaded.address_of("dnsproxy_resume"))),
        ]
        plan = plan_labels(fields)
        query = make_query(3, "x.example")
        reply = build_raw_response(query, plan.blob)
        event = daemon.handle_upstream_reply(reply, expected_id=3)
        assert event.kind == EventKind.CRASHED
        assert event.signal == "SIGABRT"
        assert "sentinel" in event.detail

    def test_events_accumulate(self):
        daemon = fresh_daemon("x86")
        reply, qid = crash_reply()
        daemon.handle_upstream_reply(reply, expected_id=qid)
        assert len(daemon.events) == 1
        assert daemon.last_event is daemon.events[-1]


class TestDiversitySeedBoot:
    def test_diversified_daemon_boots_and_serves(self):
        daemon = fresh_daemon("arm", profile=ProtectionProfile(diversity_seed=5))
        upstream = SimpleDnsServer(zone={"d.example": "4.4.4.4"})
        result = StubResolver().resolve(
            lambda packet: daemon.handle_client_query(packet, upstream.handle_query),
            "d.example",
        )
        assert result.address == "4.4.4.4"


class TestRestartFreesTheVictim:
    """A restarted victim's process and address space die by refcount.

    Nothing may hold the old process in a reference cycle: with the cycle
    collector off, the weakrefs must be dead right after ``restart()``.
    Workloads that restart thousands of victims depend on it.
    """

    @pytest.fixture(autouse=True)
    def no_cycle_collector(self):
        gc.disable()
        yield
        gc.enable()

    @staticmethod
    def _refs(victim):
        process = victim.loaded.process
        return weakref.ref(process), weakref.ref(process.memory)

    def test_after_root_shell_delivery(self):
        # E14's x86 ret2libc row, expected to succeed on every boot.
        label, arch, builder_cls, recon, _blind, profile, expectation = next(
            row for row in STUDY_PLAN if row[:2] == ("ret2libc", "x86"))
        assert expectation == "always"
        exploit = builder_cls().build(
            attacker_knowledge(AttackScenario(arch, "reliability", recon)))
        victim = ConnmanDaemon(arch=arch, profile=profile, rng=random.Random(14))
        report = deliver(exploit, victim, rng=random.Random(14))
        assert report.got_root_shell
        process, memory = self._refs(victim)
        victim.restart()
        assert process() is None and memory() is None

    def test_after_crashed_wrong_slide_guess(self):
        # One E10 brute-force attempt whose libc slide guess is wrong.
        victim = ConnmanDaemon(arch="x86", profile=WX_ASLR, rng=random.Random(10))
        forcer = AslrBruteForcer(victim, max_attempts=1, rng=random.Random(10))
        exploit = X86Ret2Libc().build(forcer.knowledge_for_slide(0))
        report = deliver(exploit, victim, rng=random.Random(10))
        assert (report.event.kind, report.event.signal) == (EventKind.CRASHED, "SIGSEGV")
        process, memory = self._refs(victim)
        victim.restart()
        assert process() is None and memory() is None
