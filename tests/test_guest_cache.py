"""The guest-memory-backed DNS cache."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.connman import ConnmanDaemon
from repro.connman.gueststore import ENTRY_OVERHEAD, GuestBackedDnsCache
from repro.cpu import make_emulator
from repro.dns import SimpleDnsServer, StubResolver
from repro.mem import UnmappedAddressError
from repro.obs import Collector, TaintEngine
from tests.conftest import fresh_daemon, loaded_pair

#: Where each arch's ``.bss`` (and so ``dns_cache_storage``) ends.
BSS_END = {"x86": 0x08055800, "arm": 0x0001D800}


def make_cache(size=0x100):
    loaded = loaded_pair("x86")
    storage = loaded.symbol("dns_cache_storage")
    return GuestBackedDnsCache(loaded.process, storage.address, size), loaded


class TestGuestStore:
    def test_put_get(self):
        cache, _loaded = make_cache()
        assert cache.put("a.example", "1.2.3.4")
        assert cache.get("A.Example") == "1.2.3.4"

    def test_miss(self):
        cache, _loaded = make_cache()
        assert cache.get("nope.example") is None

    def test_entries_live_in_guest_memory(self):
        cache, loaded = make_cache()
        cache.put("host.example", "10.0.0.9")
        storage = loaded.symbol("dns_cache_storage")
        raw = loaded.process.memory.read(storage.address, 32)
        assert b"host.example" in raw
        assert bytes([10, 0, 0, 9]) in raw

    def test_multiple_entries(self):
        cache, _loaded = make_cache()
        for index in range(5):
            cache.put(f"h{index}.example", f"10.0.0.{index}")
        assert len(cache) == 5
        assert cache.get("h3.example") == "10.0.0.3"

    def test_ttl_expiry(self):
        cache, _loaded = make_cache()
        cache.put("a.example", "1.1.1.1", ttl=10)
        cache.advance(11)
        assert cache.get("a.example") is None
        assert len(cache) == 0

    def test_full_region_flushes(self):
        cache, _loaded = make_cache(size=0x40)
        for index in range(8):
            cache.put(f"very-long-host-name-{index}.example", "9.9.9.9")
        # Still functional and bounded after wholesale flushes.
        assert len(cache) >= 1

    def test_full_region_compacts_expired_before_flush(self):
        # Region sized for exactly 3 of these 30-byte entries.  With one
        # entry expired, filling up must evict only the dead one — live
        # entries survive.
        cache, _loaded = make_cache(size=0x60)
        cache.put("dead-entry-00.example", "1.1.1.1", ttl=5)
        cache.put("live-entry-01.example", "2.2.2.2", ttl=1000)
        cache.advance(10)  # first entry expires
        cache.put("live-entry-02.example", "3.3.3.3", ttl=1000)
        cache.put("live-entry-03.example", "4.4.4.4", ttl=1000)
        assert cache.get("dead-entry-00.example") is None
        assert cache.get("live-entry-01.example") == "2.2.2.2"
        assert cache.get("live-entry-02.example") == "3.3.3.3"
        assert cache.get("live-entry-03.example") == "4.4.4.4"

    def test_full_region_still_flushes_when_all_live(self):
        cache, _loaded = make_cache(size=0x60)
        for index in range(4):
            cache.put(f"live-entry-{index:02}.example", "9.9.9.9", ttl=1000)
        # No expired entries to compact away: the wholesale flush ran and
        # only the newest entry remains.
        assert len(cache) == 1
        assert cache.get("live-entry-03.example") == "9.9.9.9"

    def test_expiry_wraps_to_32_bits(self):
        cache, loaded = make_cache()
        cache.advance(5)
        assert cache.put("a.example", "1.2.3.4", ttl=-6)
        assert cache.put("b.example", "1.2.3.4", ttl=2**32)
        raw = loaded.process.memory.read(cache.base, 2 * (ENTRY_OVERHEAD + 9))
        assert raw[14:18] == b"\xff" * 4 and raw[32:36] == (5).to_bytes(4, "little")
        assert cache.get("a.example") == "1.2.3.4" and cache.get("b.example") is None

    def test_ipv6_not_stored(self):
        cache, _loaded = make_cache()
        assert not cache.put("v6.example", "20010db8" + "0" * 24)
        assert cache.get("v6.example") is None

    def test_oversized_name_rejected(self):
        cache, _loaded = make_cache()
        assert not cache.put("x" * 300, "1.1.1.1")

    def test_clear(self):
        cache, _loaded = make_cache()
        cache.put("a.example", "1.1.1.1")
        cache.clear()
        assert len(cache) == 0

    def test_dump_renders(self):
        cache, _loaded = make_cache()
        cache.put("a.example", "1.1.1.1")
        text = cache.dump()
        assert "a.example -> 1.1.1.1" in text


class TestDaemonIntegration:
    def test_daemon_cache_is_guest_backed(self):
        daemon = fresh_daemon("arm")
        assert isinstance(daemon.cache, GuestBackedDnsCache)

    def test_resolution_lands_in_guest_bss(self):
        daemon = fresh_daemon("x86")
        upstream = SimpleDnsServer(zone={"cached.example": "5.6.7.8"})
        StubResolver().resolve(
            lambda packet: daemon.handle_client_query(packet, upstream.handle_query),
            "cached.example",
        )
        storage = daemon.loaded.symbol("dns_cache_storage")
        raw = daemon.loaded.process.memory.read(storage.address, 64)
        assert b"cached.example" in raw

    def test_cache_dies_with_the_process(self):
        daemon = fresh_daemon("x86")
        upstream = SimpleDnsServer(zone={"cached.example": "5.6.7.8"})
        StubResolver().resolve(
            lambda packet: daemon.handle_client_query(packet, upstream.handle_query),
            "cached.example",
        )
        assert daemon.cache.get("cached.example") == "5.6.7.8"
        daemon.restart()
        assert daemon.cache.get("cached.example") is None


def storage_cache(arch, size=None):
    """A cache over (a prefix of) ``dns_cache_storage`` on a fresh process."""
    loaded = loaded_pair(arch)
    storage = loaded.symbol("dns_cache_storage")
    return GuestBackedDnsCache(loaded.process, storage.address,
                               storage.size if size is None else size), loaded


@pytest.mark.parametrize("arch", ["x86", "arm"])
class TestCorruptedTable:
    """The table is guest memory the exploit and the debugger can rewrite:
    a corrupted length byte must make the walk read what a per-field walk
    reads, and fault where it faults."""

    def test_record_running_off_bss_faults_every_walk(self, arch):
        cache, loaded = storage_cache(arch)
        # 102 records of 9 + 11 bytes end exactly 8 bytes short of the
        # region (and .bss) end ...
        for index in range(102):
            assert cache.put(f"host-{index:03}.ex", f"10.0.0.{index}")
        assert cache._append_offset() == cache.base + cache.size - 8
        # ... where a length byte claims a 0x20-byte name: its record runs
        # 33 bytes past the end of .bss.
        loaded.process.memory.write(cache.base + cache.size - 8, b"\x20")
        walks = {
            "get hit": lambda: cache.get("host-005.ex"),
            "get miss": lambda: cache.get("absent.example"),
            "get_stale": lambda: cache.get_stale("host-005.ex"),
            "len": lambda: len(cache),
            "put": lambda: cache.put("new.example", "1.2.3.4"),
            "dump": cache.dump,
        }
        for what, walk in walks.items():
            with pytest.raises(UnmappedAddressError) as fault:
                walk()
            assert fault.value.address == BSS_END[arch], what

    def test_bogus_length_inside_the_region_reframes_the_table(self, arch):
        cache, loaded = storage_cache(arch)
        cache.put("a.example", "1.2.3.4", ttl=300)
        cache.put("b.example", "5.6.7.8", ttl=300)
        # Claim 12 name bytes for the 9-byte first name.  The record then
        # swallows 1.2.3 as name, reads address 4.0x2c.0x01.0x00 out of
        # the expiry, and the expiry out of the next record's first three
        # bytes; the next "length" is the first 'e' (101) of b.example.
        loaded.process.memory.write(cache.base, bytes([12]))
        swallowed = "a.example\x01\x02\x03"
        assert len(cache) == 1
        assert cache.get("a.example") is None
        assert cache.get(swallowed) == "4.44.1.0"
        assert cache.get_stale(swallowed) == "4.44.1.0"
        assert cache.get_stale("b.example") is None
        assert cache._append_offset() == cache.base + 21 + ENTRY_OVERHEAD + 101
        lines = cache.dump().splitlines()
        assert len(lines) == 3
        assert lines[1] == f"  +0x0000 {swallowed} -> 4.44.1.0 [live]"
        assert lines[2].startswith("  +0x0015 xample\x05\x06\x07\x08,\x01\x00\x00\x00")
        assert lines[2].endswith(" -> 0.0.0.0 [expired]")


def _record_reads(memory):
    """Every ``memory.read`` from now on, as its arguments."""
    reads = []
    read = memory.read
    memory.read = lambda *args, **kwargs: reads.append(args) or read(*args, **kwargs)
    return reads


@pytest.mark.parametrize("arch", ["x86", "arm"])
class TestMemoizedTable:
    """The parsed table is kept only until a write into the region."""

    def test_guest_memcpy_into_the_table_changes_the_next_answer(self, arch):
        cache, loaded = storage_cache(arch)
        process = loaded.process
        memory = process.memory
        assert cache.put("a.example", "1.2.3.4")
        assert cache.get("a.example") == "1.2.3.4"
        reads = _record_reads(memory)
        assert cache.get("a.example") == "1.2.3.4"
        assert reads == []  # answered from the memo
        # The guest copies a staged address over the cached one through
        # connman's memcpy@plt -- the kind of .bss write the §III-C chain
        # makes -- and returns into exit@plt.
        source = process.sp - 0x100
        memory.write(source, bytes([6, 6, 6, 6]))
        destination = cache.base + 1 + len("a.example")
        process.pc = loaded.plt_address("memcpy")
        if arch == "x86":
            for word in (4, source, destination, loaded.plt_address("exit")):
                process.push_u32(word)
        else:
            process.registers["r0"], process.registers["r1"] = destination, source
            process.registers["r2"] = 4
            process.registers["r14"] = loaded.plt_address("exit")
        assert make_emulator(process).run().reason == "exit"
        assert cache.get("a.example") == "6.6.6.6"
        assert reads and reads[-1] == (cache.base, cache.size)

    def test_fresh_table_is_answered_without_a_walk(self, arch):
        cache, loaded = storage_cache(arch)
        reads = _record_reads(loaded.process.memory)
        assert cache.get("a.example") is None
        assert cache.put("a.example", "1.2.3.4")
        assert cache.get("a.example") == "1.2.3.4"
        assert cache.dump().splitlines()[1:] == [
            "  +0x0000 a.example -> 1.2.3.4 [live]"]
        assert reads == []


@pytest.mark.parametrize("arch", ["x86", "arm"])
def test_name_outside_latin1_is_refused_without_a_write(arch):
    cache, loaded = storage_cache(arch)
    memory = loaded.process.memory
    assert cache.put("a.example", "1.2.3.4")
    region = memory.read(cache.base, cache.size)
    stamp = memory.page_generation_span(cache.base, cache.size)
    assert cache.put("☃.example", "1.2.3.4") is False
    assert memory.read(cache.base, cache.size) == region
    assert memory.page_generation_span(cache.base, cache.size) == stamp
    assert len(cache) == 1


class ReferenceCache(GuestBackedDnsCache):
    """A per-field table walk: one guest read per field (``read_u8``/
    ``read``/``read``/``read_u32``), every field decoded, and the readers
    built on it -- the reference the one-read walk must match.  ``put``'s
    write path is inherited."""

    def _entries(self, entries=None):
        """Every record; ``entries``, when given, collects them as the
        walk goes, so a caller keeps the ones read before a fault."""
        memory = self.process.memory
        entries = [] if entries is None else entries
        cursor = self.base
        end = self.base + self.size
        while cursor < end:
            name_length = memory.read_u8(cursor)
            if name_length == 0:
                break
            name = memory.read(cursor + 1, name_length).decode("latin-1")
            address = ".".join(
                str(byte) for byte in memory.read(cursor + 1 + name_length, 4)
            )
            expiry = memory.read_u32(cursor + 1 + name_length + 4)
            entries.append((cursor, name, address, expiry))
            cursor += ENTRY_OVERHEAD + name_length
        return entries

    def _append_offset(self):
        entries = self._entries()
        if not entries:
            return self.base
        offset, name, _address, _expiry = entries[-1]
        return offset + ENTRY_OVERHEAD + len(name)

    def _compact_expired(self):
        live = [(name, address, expiry)
                for _offset, name, address, expiry in self._entries()
                if expiry > self._clock]
        memory = self.process.memory
        cursor = self.base
        for name, address, expiry in live:
            encoded = name.encode("latin-1")
            memory.write_u8(cursor, len(encoded))
            memory.write(cursor + 1, encoded)
            memory.write(cursor + 1 + len(encoded),
                         bytes(int(part) for part in address.split(".")))
            memory.write_u32(cursor + 1 + len(encoded) + 4, expiry)
            cursor += ENTRY_OVERHEAD + len(encoded)
        memory.write_u8(cursor, 0)
        return cursor

    def get(self, name):
        wanted = name.lower()
        for _offset, entry_name, address, expiry in self._entries():
            if entry_name == wanted and expiry > self._clock:
                return address
        return None

    def get_stale(self, name):
        wanted = name.lower()
        for _offset, entry_name, address, _expiry in self._entries():
            if entry_name == wanted:
                return address
        return None

    def __len__(self):
        return sum(1 for entry in self._entries() if entry[3] > self._clock)

    def dump(self):
        lines = [f"dns cache @ {self.base:#010x} ({self.size:#x} bytes):"]
        for offset, name, address, expiry in self._entries():
            state = "live" if expiry > self._clock else "expired"
            lines.append(f"  +{offset - self.base:#06x} {name} -> {address} [{state}]")
        return "\n".join(lines)


NAMES = ["a.example", "B.Example", "live-entry-01.example", "\xfcmlaut.example",
         "☃.example", "", "y" * 200, "x" * 256]
ADDRESSES = ["1.2.3.4", "10.0.0.255", "256.1.1.1", "2001:db8::1", "1.2.3"]
#: Two processes per arch, reused across examples: each example rewrites
#: the whole storage reservation, the only memory a cache touches.
_PROCESSES = {}


def _attempt(call):
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the exception is the answer
        return ("raise", type(exc), getattr(exc, "address", None))


def _probe_names(reference):
    """Names worth looking up: a fixed few plus the first and last names
    the table holds before its end or its fault (hits when live)."""
    entries = []
    _attempt(lambda: reference._entries(entries))
    return NAMES[:3] + [entry[1] for entry in entries[:1] + entries[-1:]]


def _observe(cache, names, storage):
    """Every answer the table gives, plus the raw storage bytes."""
    return (
        [_attempt(lambda: cache.get(name)) for name in names],
        [_attempt(lambda: cache.get_stale(name)) for name in names],
        _attempt(lambda: len(cache)),
        _attempt(cache.dump),
        _attempt(cache._append_offset),
        cache.process.memory.read(storage.address, storage.size),
    )


def _agree(cache, reference, storage):
    names = _probe_names(reference)
    assert _observe(cache, names, storage) == _observe(reference, names, storage)


def _poke_offset(reference, size, target):
    """A region offset: a record's length byte (or the append offset), or
    any byte."""
    kind, index = target
    if kind == "byte":
        return index % size
    entries = []
    _attempt(lambda: reference._entries(entries))
    starts = [offset - reference.base for offset, *_rest in entries] or [0]
    if entries:
        starts.append(starts[-1] + ENTRY_OVERHEAD + len(entries[-1][1]))
    return starts[index % len(starts)] % size


def _poke_bytes(offset, size, data):
    if data == "zero":  # a 0 length byte: the table ends here
        return b"\x00"
    if data == "past":  # a length byte whose record runs past the region end
        return bytes([min(size - offset, 255)])
    return data[:size - offset]


@settings(max_examples=80, deadline=None)
@given(
    arch=st.sampled_from(["x86", "arm"]),
    whole_region=st.booleans(),
    fill=st.one_of(st.just(b""), st.binary(min_size=1, max_size=48)),
    ops=st.lists(st.one_of(
        st.tuples(st.just("put"), st.sampled_from(NAMES),
                  st.sampled_from(ADDRESSES), st.integers(0, 600)),
        st.tuples(st.just("advance"), st.integers(0, 400)),
        st.tuples(st.just("poke"),
                  st.tuples(st.sampled_from(["slot", "byte"]), st.integers(0, 0x7FF)),
                  st.one_of(st.sampled_from(["zero", "past"]),
                            st.binary(min_size=1, max_size=12))),
    ), max_size=8),
)
@example(arch="x86", whole_region=False, fill=b"", ops=[("put", "", "1.2.3.4", 300)])
@example(arch="arm", whole_region=True, fill=b"",
         ops=[("put", "a.example", "1.2.3.4", 300), ("put", "", "5.6.7.8", 300),
              ("put", "B.Example", "10.0.0.255", 300)])
def test_property_table_walk_matches_the_per_field_walk(arch, whole_region,
                                                        fill, ops):
    """Random storage bytes (the fill, repeated) or a random history of
    puts, clock advances and raw writes into the region: the cache and the
    per-field reference agree on every answer and on the bytes every put
    leaves, or fault identically.  The cache memoizes its walk between
    calls, so every raw write must be seen by its next answer."""
    if arch not in _PROCESSES:
        _PROCESSES[arch] = (loaded_pair(arch), loaded_pair(arch))
    caches = []
    for loaded, kind in zip(_PROCESSES[arch], (GuestBackedDnsCache, ReferenceCache)):
        storage = loaded.symbol("dns_cache_storage")
        size = storage.size if whole_region else 0x60
        cache = kind(loaded.process, storage.address, size)
        region = (fill * storage.size)[:storage.size].ljust(storage.size, b"\x00")
        loaded.process.memory.write(storage.address, region)
        caches.append(cache)
    cache, reference = caches
    _agree(cache, reference, storage)
    for op in ops:
        if op[0] == "put":
            _kind, name, address, ttl = op
            assert (_attempt(lambda: cache.put(name, address, ttl))
                    == _attempt(lambda: reference.put(name, address, ttl)))
        elif op[0] == "poke":
            offset = _poke_offset(reference, reference.size, op[1])
            data = _poke_bytes(offset, reference.size, op[2])
            for one in caches:
                one.process.memory.write(one.base + offset, data)
        else:
            cache.advance(op[1])
            reference.advance(op[1])
        _agree(cache, reference, storage)


class TestTaintedCacheCopy:
    @pytest.mark.parametrize("arch", ["x86", "arm"])
    def test_cached_name_carries_wire_labels(self, arch):
        """A tainted benign resolution: each cached name byte carries the
        label of the reply byte it came from (a '.' the label-length byte
        it stands for); length, address and expiry bytes carry none."""
        collector = Collector()
        engine = collector.attach_taint(TaintEngine())
        daemon = ConnmanDaemon(arch=arch, observer=collector)
        upstream = SimpleDnsServer(zone={"cached.example": "5.6.7.8"})
        replies = []

        def forward(query):
            reply = upstream.handle_query(query)
            replies.append(reply)
            return reply

        result = StubResolver().resolve(
            lambda packet: daemon.handle_client_query(packet, forward),
            "cached.example",
        )
        assert result.address == "5.6.7.8"
        [reply] = replies
        storage = daemon.loaded.symbol("dns_cache_storage")
        name = b"cached.example"
        record = ENTRY_OVERHEAD + len(name)
        memory = daemon.loaded.process.memory
        assert memory.read(storage.address, 1 + len(name)) == bytes([len(name)]) + name
        labels = engine.shadow.read(storage.address, record)
        name_labels = labels[1:1 + len(name)]
        assert all(len(label) == 1 for label in name_labels)
        offsets = [next(iter(label)) for label in name_labels]
        assert {source for source, _offset in offsets} == {len(engine.sources) - 1}
        wire = [offset for _source, offset in offsets]
        assert wire == list(range(wire[0], wire[0] + len(name)))
        for char, offset in zip(name, wire):
            expected = len(b"example") if char == ord(".") else char
            assert reply[offset] == expected
        assert not labels[0]
        assert not any(labels[1 + len(name):])
