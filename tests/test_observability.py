"""The observability layer: event bus, metrics registry, collector wiring."""

import json

import pytest

from repro.connman import ConnmanDaemon, DaemonSupervisor
from repro.core import run_chaos_point, run_chaos_sweep
from repro.defenses import WX_ASLR
from repro.dns import make_query
from repro.exploit import AslrBruteForcer
from repro.net import DNS_PORT, FaultPolicy, Host, Network
from repro.obs import Collector, EventBus, MetricsRegistry, PcapFormatError, parse_pcap_text


class TestEventBus:
    def test_emit_assigns_monotonic_seq(self):
        bus = EventBus()
        first = bus.emit("net", "packet.tx", time=1.0, bytes=10)
        second = bus.emit("fault", "fault.drop", time=2.0)
        assert (first.seq, second.seq) == (0, 1)
        assert len(bus) == 2

    def test_filters(self):
        bus = EventBus()
        bus.emit("net", "packet.tx")
        bus.emit("net", "packet.rx")
        bus.emit("cache", "cache.hit")
        assert len(bus.by_category("net")) == 2
        assert len(bus.by_kind("cache.hit")) == 1
        assert bus.kinds() == {"packet.tx": 1, "packet.rx": 1, "cache.hit": 1}

    def test_ring_limit_sheds_oldest(self):
        bus = EventBus(limit=3)
        for number in range(5):
            bus.emit("net", "packet.tx", index=number)
        assert len(bus) == 3
        assert bus.dropped == 2
        assert bus.events[0].detail["index"] == 2
        assert bus.events[0].seq == 2  # seq numbers survive the shed

    def test_subscriber_sees_every_event(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("daemon", "daemon.boot")
        assert [event.kind for event in seen] == ["daemon.boot"]

    def test_json_export_parses(self):
        bus = EventBus()
        bus.emit("net", "packet.tx", time=0.5, bytes=42, fault="corrupt")
        parsed = json.loads(bus.to_json())
        assert parsed[0]["kind"] == "packet.tx"
        assert parsed[0]["detail"]["fault"] == "corrupt"


class TestMetrics:
    def test_counter_create_on_touch(self):
        registry = MetricsRegistry()
        registry.inc("faults.drop")
        registry.inc("faults.drop", 2)
        assert registry.value("faults.drop") == 3
        assert registry.value("never.touched") == 0

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_histogram_buckets_and_stats(self):
        registry = MetricsRegistry()
        for value in (0.5, 7.0, 80.0, 9000.0):
            registry.observe("latency", value)
        histogram = registry.histogram("latency")
        assert histogram.count == 4
        assert histogram.min == 0.5 and histogram.max == 9000.0
        exported = histogram.to_dict()
        assert exported["buckets"]["le_1"] == 1
        assert exported["buckets"]["le_inf"] == 1

    def test_registry_json_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.observe("c.d", 3.0)
        parsed = json.loads(registry.to_json())
        assert parsed["counters"]["a.b"] == 1
        assert parsed["histograms"][0]["name"] == "c.d"

    def test_registry_merge_mismatch_names_both_bound_tuples(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("lat", (1.0, 10.0))
        right.histogram("lat", (1.0, 5.0))
        with pytest.raises(ValueError) as excinfo:
            left.merge(right)
        assert "(1.0, 10.0)" in str(excinfo.value)
        assert "(1.0, 5.0)" in str(excinfo.value)

    def test_registry_merge_mismatch_mutates_nothing(self):
        """A mid-merge bucket mismatch must not leave half-merged counters."""
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("events", 3)
        left.histogram("lat", (1.0, 10.0)).observe(0.5)
        right.inc("events", 4)
        right.histogram("lat", (1.0, 5.0)).observe(0.5)
        with pytest.raises(ValueError):
            left.merge(right)
        assert left.counters() == {"events": 3}  # untouched, not 7
        assert left.histogram("lat", (1.0, 10.0)).count == 1


class TestCollectorClockAndShedding:
    def test_negative_advance_is_rejected(self):
        collector = Collector()
        collector.advance(2.0)
        with pytest.raises(ValueError, match="backwards"):
            collector.advance(-0.5)
        assert collector.clock == 2.0  # unchanged by the rejected call

    def test_advance_to_never_rewinds(self):
        collector = Collector()
        collector.advance_to(5.0)
        collector.advance_to(1.0)
        assert collector.clock == 5.0

    def test_ring_shedding_surfaces_in_metrics_and_export(self):
        collector = Collector(event_limit=3)
        for number in range(5):
            collector.emit("net", "packet.tx", index=number)
        assert collector.bus.dropped == 2
        assert collector.metrics.value("events.dropped") == 2
        exported = collector.to_dict()
        assert exported["events_dropped"] == 2
        assert exported["metrics"]["counters"]["events.dropped"] == 2
        assert "2 events dropped" in collector.summary()


class TestCollectorWiring:
    def test_network_emits_packet_events(self):
        collector = Collector()
        policy = FaultPolicy(seed=2, corrupt=1.0, observer=collector)
        network = Network("obs-lan", subnet_prefix="10.8.8", faults=policy,
                          observer=collector)
        server = Host("srv")
        network.attach(server, ip="10.8.8.1")
        server.bind_udp(DNS_PORT, lambda payload, _d: None)
        client = Host("cli")
        network.attach(client)
        client.send_udp(server.ip, DNS_PORT, make_query(1, "a.example").encode())
        kinds = collector.bus.kinds()
        assert kinds["packet.tx"] == 1
        assert kinds["packet.rx"] == 1
        assert kinds["fault.corrupt"] == 1
        assert collector.metrics.value("faults.corrupt") == 1
        tx = collector.bus.by_kind("packet.tx")[0]
        assert tx.detail["fault"] == "corrupt"

    def test_daemon_and_supervisor_emit(self):
        collector = Collector()
        daemon = ConnmanDaemon(arch="x86", profile=WX_ASLR, observer=collector)
        assert collector.bus.by_kind("daemon.boot")
        supervisor = DaemonSupervisor(daemon)  # inherits daemon.observer
        daemon.crashed = True
        supervisor.tick(5.0)
        assert supervisor.ensure_running()
        assert collector.metrics.value("supervisor.restarts") == 1
        restart = collector.bus.by_kind("supervisor.restart")[0]
        assert restart.time == supervisor.clock  # simulated-clock stamp

    def test_cache_counters(self):
        collector = Collector()
        cache = ConnmanDaemon(arch="x86", observer=collector).cache
        cache.put("a", "1.1.1.1", ttl=5)
        cache.get("a")
        cache.get("b")
        cache.advance(10)
        cache.get("a")  # expired: the guest table answers a miss
        assert collector.metrics.value("cache.put") == 1
        assert collector.metrics.value("cache.hit") == 1
        assert collector.metrics.value("cache.miss") == 2
        assert collector.bus.kinds()["cache.miss"] == 2

    def test_bruteforce_emits_stages(self):
        collector = Collector()
        victim = ConnmanDaemon(arch="x86",
                               profile=WX_ASLR.with_(aslr_entropy_pages=4),
                               observer=collector)
        result = AslrBruteForcer(victim, max_attempts=16).run()
        attempts = collector.metrics.value("exploit.attempt")
        assert attempts == result.attempts
        if result.succeeded:
            assert collector.metrics.value("exploit.success") == 1

    def test_observation_does_not_perturb_the_run(self):
        """Same seed, with and without a collector: identical ChaosCell."""
        bare = run_chaos_point(0.3, seed=77, queries=8, attack_budget=6)
        observed = run_chaos_point(0.3, seed=77, queries=8, attack_budget=6,
                                   observer=Collector())
        assert bare == observed

    def test_chaos_sweep_metrics_nonzero(self):
        collector = Collector()
        report = run_chaos_sweep((0.0, 0.4), seed=5, queries_per_rate=8,
                                 attack_budget=6, observer=collector)
        assert report.metrics is not None
        counters = report.metrics["counters"]
        assert counters.get("faults.injected", 0) > 0
        assert counters.get("supervisor.restarts", 0) > 0
        assert counters.get("cache.put", 0) > 0
        assert report.to_dict()["metrics"]["counters"] == counters
        # And the whole report (metrics included) is JSON-serializable.
        json.dumps(report.to_dict())

    def test_collector_trace_deterministic_per_seed(self):
        def trace(seed):
            collector = Collector()
            run_chaos_point(0.4, seed=seed, queries=8, attack_budget=6,
                            observer=collector)
            return collector.to_dict()

        assert trace(123) == trace(123)
        assert trace(123) != trace(124)


class TestPcapFormatErrors:
    def test_missing_header(self):
        with pytest.raises(PcapFormatError):
            parse_pcap_text("not a capture\n")

    def test_bad_record(self):
        with pytest.raises(PcapFormatError):
            parse_pcap_text("#reprocap v1 network=x packets=1\ngarbage line\n")

    def test_length_mismatch(self):
        with pytest.raises(PcapFormatError):
            parse_pcap_text("#reprocap v1 network=x packets=1\n"
                            "0 1.1.1.1:1 > 2.2.2.2:2 len=5 aa\n")

    def test_packet_count_mismatch(self):
        with pytest.raises(PcapFormatError):
            parse_pcap_text("#reprocap v1 network=x packets=3\n"
                            "0 1.1.1.1:1 > 2.2.2.2:2 len=1 aa\n")
