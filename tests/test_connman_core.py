"""Connman version model, frame geometry, and header validation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.connman import (
    ARM_FRAME,
    ConnmanDaemon,
    ConnmanVersion,
    EventKind,
    FIRST_FIXED,
    LAST_VULNERABLE,
    NAME_BUFFER_SIZE,
    X86_FRAME,
    frame_model,
)
from repro.connman.dnsproxy import MAX_POINTER_JUMPS, _Drop
from repro.defenses import NONE
from repro.dns import build_raw_response, make_query, make_response, ResourceRecord
from repro.mem import MemoryFault
from repro.obs import Collector, TaintEngine
from repro.obs.taint import NO_LABELS
from tests.conftest import fresh_daemon


class TestVersion:
    def test_parse(self):
        assert ConnmanVersion.parse("1.34").tuple == (1, 34)

    def test_parse_patch_suffix_ignored(self):
        assert ConnmanVersion.parse("1.34.0").tuple == (1, 34)

    def test_parse_garbage_rejected(self):
        for bad in ("", "1", "one.two"):
            with pytest.raises(ValueError):
                ConnmanVersion.parse(bad)

    def test_vulnerability_boundary(self):
        assert LAST_VULNERABLE.is_vulnerable
        assert not FIRST_FIXED.is_vulnerable
        assert ConnmanVersion.parse("1.24").is_vulnerable
        assert not ConnmanVersion.parse("1.37").is_vulnerable

    def test_ordering(self):
        assert ConnmanVersion.parse("1.31") < ConnmanVersion.parse("1.34")

    def test_equality_with_string(self):
        assert ConnmanVersion.parse("1.34") == "1.34"

    def test_str(self):
        assert str(ConnmanVersion(1, 35)) == "1.35"


class TestFrameModels:
    def test_buffer_size_is_papers_1024(self):
        assert NAME_BUFFER_SIZE == 1024
        assert X86_FRAME.buffer_size == 1024

    def test_x86_ret_offset(self):
        # 1024 buffer + 12 locals + saved ebp.
        assert X86_FRAME.ret_offset == 1040

    def test_arm_ret_offset(self):
        # 1024 buffer + 16 locals + saved {r4-r7}.
        assert ARM_FRAME.ret_offset == 1056

    def test_arm_null_slots_inside_locals(self):
        for offset in ARM_FRAME.null_slot_offsets:
            assert NAME_BUFFER_SIZE <= offset < NAME_BUFFER_SIZE + ARM_FRAME.locals_size

    def test_arm_check_slots_match_restore_gadget_r5_r6(self):
        # pop {r0,r1,r2,r3,r5,...}: r5 pops from ret+20, r6 from ret+24.
        assert ARM_FRAME.check_slot_offsets == (20, 24)

    def test_arm_horizon_allows_sh_forbids_binsh(self):
        sh_chain = 40 * 2 + 36
        binsh_chain = 40 * 7 + 36
        assert sh_chain <= ARM_FRAME.overwrite_horizon < binsh_chain

    def test_canary_sits_below_saved_registers(self):
        for frame in (X86_FRAME, ARM_FRAME):
            assert frame.canary_offset < frame.ret_offset - frame.saved_area_size

    def test_frame_model_lookup(self):
        assert frame_model("x86") is X86_FRAME
        with pytest.raises(ValueError):
            frame_model("mips")

    def test_describe(self):
        assert "name[1024]" in X86_FRAME.describe()


class TestHeaderValidation:
    """'The DNS responses must appear legitimate, otherwise Connman dumps
    the packet and never enters the vulnerable portion of code.'"""

    def overflow_reply(self, query_id=0x11, **kwargs):
        from repro.core import naive_overflow_blob

        query = make_query(query_id, "x.example")
        return build_raw_response(query, naive_overflow_blob(), **kwargs)

    def test_wrong_transaction_id_dropped(self):
        daemon = fresh_daemon("x86")
        event = daemon.handle_upstream_reply(self.overflow_reply(0x11), expected_id=0x22)
        assert event.kind == EventKind.DROPPED
        assert daemon.alive

    def test_query_bit_dropped(self):
        daemon = fresh_daemon("x86")
        query = make_query(5, "x.example")  # QR=0: not a response
        event = daemon.handle_upstream_reply(query.encode(), expected_id=5)
        assert event.kind == EventKind.DROPPED

    def test_nonzero_rcode_dropped(self):
        daemon = fresh_daemon("x86")
        query = make_query(5, "x.example")
        nxdomain = make_response(query, (), rcode=3)
        event = daemon.handle_upstream_reply(nxdomain.encode(), expected_id=5)
        assert event.kind == EventKind.DROPPED

    def test_no_answers_dropped(self):
        daemon = fresh_daemon("x86")
        query = make_query(5, "x.example")
        empty = make_response(query, ())
        event = daemon.handle_upstream_reply(empty.encode(), expected_id=5)
        assert event.kind == EventKind.DROPPED

    def test_short_packet_dropped(self):
        daemon = fresh_daemon("x86")
        event = daemon.handle_upstream_reply(b"\x00\x05\x80", expected_id=5)
        assert event.kind == EventKind.DROPPED

    def test_legitimate_header_reaches_vulnerable_code(self):
        daemon = fresh_daemon("x86")
        event = daemon.handle_upstream_reply(self.overflow_reply(0x11), expected_id=0x11)
        assert event.kind == EventKind.CRASHED

    def test_benign_response_cached(self):
        daemon = fresh_daemon("x86")
        query = make_query(9, "good.example")
        reply = make_response(query, (ResourceRecord.a("good.example", "5.6.7.8"),))
        event = daemon.handle_upstream_reply(reply.encode(), expected_id=9)
        assert event.kind == EventKind.RESPONDED
        assert daemon.cache.get("good.example") == "5.6.7.8"

    def test_aaaa_record_also_parsed(self):
        daemon = fresh_daemon("arm")
        query = make_query(10, "v6.example")
        reply = make_response(query, (ResourceRecord.aaaa("v6.example", "2001:db8::7"),))
        event = daemon.handle_upstream_reply(reply.encode(), expected_id=10)
        assert event.kind == EventKind.RESPONDED
        assert event.cached and event.cached[0][0] == "v6.example"


# -- the expanded name in the stack frame ---------------------------------------


def _tainted_daemon(arch, profile=NONE):
    collector = Collector()
    engine = collector.attach_taint(TaintEngine())
    return ConnmanDaemon(arch=arch, profile=profile, observer=collector), engine


def _labels(length):
    """Distinct per-byte labels, every fifth byte untainted."""
    return [NO_LABELS if index % 5 == 0 else frozenset({(0, index)})
            for index in range(length)]


def _read_back_byte_by_byte(memory, shadow, name_address, buffer_size):
    """Reference walk: one guest read per length byte and per label."""
    labels, char_labels = [], []
    cursor = name_address
    while cursor < name_address + buffer_size:
        length = memory.read_u8(cursor)
        if length == 0 or length > 63:
            break
        labels.append(memory.read(cursor + 1, length).decode("latin-1"))
        if len(labels) > 1:
            char_labels.append(shadow.union(cursor, 1))
        char_labels.extend(shadow.read(cursor + 1, length))
        cursor += 1 + length
    return ".".join(labels), tuple(char_labels)


def _label(length, seed):
    return bytes([length]) + bytes((seed + 37 * index) & 0xFF for index in range(length))


#: Stack contents at ``name``, each ending the walk a different way.
READ_BACK_CASES = {
    # 15 + 1 labels end on the buffer's last byte, where a 63-byte label
    # starts: its last byte is the farthest one the walk can read.
    "63-byte label on the last byte": (
        b"".join(_label(63, seed) for seed in range(15)) + _label(62, 99)
        + _label(63, 200)),
    "length byte over 63": _label(3, 1) + _label(2, 2) + b"\x40" + _label(63, 3) + b"\x00",
    "zero length byte": _label(3, 1) + _label(2, 2) + b"\x00" + _label(1, 3) + b"\x00",
}


@pytest.mark.parametrize("arch", ["x86", "arm"])
class TestNameReadBack:
    @pytest.mark.parametrize("case", sorted(READ_BACK_CASES))
    def test_one_read_matches_the_byte_walk(self, arch, case):
        daemon, engine = _tainted_daemon(arch)
        proxy = daemon.proxy
        memory = daemon.loaded.process.memory
        place = proxy.placement()
        stack = READ_BACK_CASES[case]
        memory.write(place.name_address, stack, taint=_labels(len(stack)))
        reads = []
        read = memory.read
        memory.read = lambda *args, **kwargs: reads.append(args) or read(*args, **kwargs)
        name = proxy._read_back_name(place)
        assert reads == [(place.name_address, proxy.frame.buffer_size + 63)]
        del memory.read
        want, want_labels = _read_back_byte_by_byte(
            memory, engine.shadow, place.name_address, proxy.frame.buffer_size)
        assert name == want and name
        assert engine.derived_labels(name) == want_labels

    def test_read_back_stays_in_the_stack(self, arch):
        daemon = fresh_daemon(arch)
        place = daemon.proxy.placement()
        stack = daemon.loaded.process.memory.segment_at(place.name_address)
        assert stack.name == "stack"
        assert place.name_address + daemon.proxy.frame.buffer_size + 63 <= stack.end

    def test_benign_name_is_one_write(self, arch):
        """An untainted name that stays in the stack costs one guest write:
        Listing 1's stores land as the bytes they leave behind."""
        daemon = fresh_daemon(arch)
        proxy = daemon.proxy
        memory = daemon.loaded.process.memory
        place = proxy.placement()
        packet = b"\x01a\x02bb\x00" + b"\x03ccc\xc0\x00"
        writes = []
        write = memory.write
        memory.write = lambda address, payload, **kwargs: (
            writes.append((address - place.name_address, bytes(payload)))
            or write(address, payload, **kwargs))
        assert proxy._get_name(packet, 6, place.name_address) == len(packet)
        assert writes == [(0, b"\x03ccc\x01a\x02bb\x00")]

    def test_benign_frame_matches_the_per_field_stores(self, arch):
        """The frame goes down in one store to the return slot, the canary,
        and one store of the check slots; bytes and shadow are those of a
        store per field."""
        daemon, engine = _tainted_daemon(arch, NONE.with_(canary=True, ret_guard=True))
        proxy = daemon.proxy
        frame = proxy.frame
        memory = daemon.loaded.process.memory
        place = proxy.placement()
        span = frame.ret_offset + max(frame.check_slot_offsets, default=0) + 8
        dirty = bytes(range(256)) * (span // 256 + 1)

        def set_up(how):
            memory.write(place.name_address, dirty[:span], taint=_labels(span))
            writes = []
            write = memory.write
            memory.write = lambda *args, **kwargs: writes.append(args) or write(*args, **kwargs)
            how(place)
            del memory.write
            return (memory.read(place.name_address, span),
                    engine.shadow.read(place.name_address, span), len(writes))

        got = set_up(proxy._set_up_frame)
        want = set_up(lambda place: _per_field_frame(proxy, place))
        assert got[:2] == want[:2]
        assert got[2] == (3 if arch == "arm" else 2)


def _per_field_frame(proxy, place):
    """The benign activation record written one field at a time."""
    memory = proxy.loaded.process.memory
    frame = proxy.frame
    memory.write(place.name_address, b"\x00" * frame.ret_offset)
    proxy.canary.arm_frame(proxy.loaded.process, place.name_address + frame.canary_offset)
    saved_base = place.ret_slot - frame.saved_area_size
    for index in range(len(frame.saved_registers)):
        memory.write_u32(saved_base + 4 * index, place.ret_slot + 0x40 + 4 * index)
    memory.write_u32(place.ret_slot, proxy.ret_guard.protect(proxy.resume_address))
    for offset, value in zip(frame.check_slot_offsets,
                             (proxy.globals_address, place.name_address)):
        memory.write_u32(place.ret_slot + offset, value)


# -- Listing 1 as the reference model of the name expansion ------------------------


def _listing_1_get_name(proxy, packet, offset, name_address):
    """``get_name`` with one guest store per line of Listing 1::

        name[(*name_len)++] = label_len;
        memcpy(name + *name_len, p + 1, label_len + 1);
        *name_len += label_len;

    ``DnsProxyCore._get_name`` must match it byte for byte, label for
    label, and drop for drop or fault for fault.
    """
    memory = proxy.loaded.process.memory
    taint = proxy.loaded.process.taint

    def wire(cursor_offset, count, note):
        if taint is None:
            return None
        return taint.wire_labels(cursor_offset, count,
                                 address=name_address + name_len, note=note)

    patched = not proxy.version.is_vulnerable
    name_len = 0
    jumps = 0
    cursor = offset
    end = None
    while True:
        if cursor >= len(packet):
            raise _Drop("name runs past end of packet")
        length = packet[cursor]
        if length == 0:
            memory.write_u8(name_address + name_len, 0,
                            taint=wire(cursor, 1, "name terminator"))
            return end if end is not None else cursor + 1
        if length & 0xC0 == 0xC0:
            if end is None:
                end = cursor + 2
            jumps += 1
            if jumps > MAX_POINTER_JUMPS:
                raise _Drop("compression pointer loop")
            if cursor + 1 >= len(packet):
                raise _Drop("truncated pointer")
            cursor = ((length & 0x3F) << 8) | packet[cursor + 1]
            continue
        if length & 0xC0:
            raise _Drop(f"reserved label type {length:#04x}")
        label_length = length
        if patched and name_len + label_length + 2 > proxy.frame.buffer_size:
            raise _Drop("uncompressed name too long (patched bounds check)")
        # Listing 1, line by line:
        memory.write_u8(name_address + name_len, label_length,
                        taint=wire(cursor, 1, "label length"))
        name_len += 1
        chunk = packet[cursor + 1 : cursor + 1 + label_length + 1]  # +1 over-copy
        if len(chunk) < label_length:
            raise _Drop("label runs past end of packet")
        memory.write(name_address + name_len, chunk,
                     taint=wire(cursor + 1, len(chunk), "label bytes"))
        name_len += label_length
        cursor += 1 + label_length


#: Header bytes ahead of the name; a compression pointer into them reads
#: them as labels (0x05 is a 5-byte label).
_HEADER = b"\x00\x05\x81\x80\x00\x01\x00\x01\x00\x00\x00\x00"

_PIECES = st.lists(st.one_of(
    # A length byte of 0-70 (0 ends the name, 64-70 is a reserved type)
    # and that many label bytes.
    st.tuples(st.just("label"), st.integers(0, 70), st.integers(0, 255)),
    # A compression pointer, mostly into the packet (loops included).
    st.tuples(st.just("pointer"),
              st.one_of(st.integers(0, 120), st.integers(0, 0x3FFF)), st.just(0)),
    st.tuples(st.just("reserved"), st.integers(0x40, 0xBF), st.just(0)),
), max_size=40)


def _wire_name(pieces, cut):
    packet = bytearray(_HEADER)
    for kind, value, seed in pieces:
        if kind == "label":
            packet.append(value)
            packet += bytes((seed + 41 * index) & 0xFF for index in range(value))
        elif kind == "pointer":
            packet += bytes((0xC0 | (value >> 8), value & 0xFF))
        else:
            packet.append(value)
    return bytes(packet if cut is None else packet[:len(_HEADER) + cut])


def _expand(how, daemon, engine, packet, name_address):
    """Run one expansion; return everything a reader of the guest can see."""
    memory = daemon.loaded.process.memory
    segment = memory.segment_at(name_address)
    pages = range(segment.base >> 12, ((segment.end - 1) >> 12) + 2)
    span = (pages[0] << 12, len(pages) << 12)
    before = memory.page_generation_span(*span)
    if engine is not None:
        engine.begin_source(packet)
    try:
        outcome = ("offset", how(daemon.proxy, packet, len(_HEADER), name_address))
    except _Drop as drop:
        outcome = ("drop", drop.reason)
    except MemoryFault as fault:
        outcome = ("fault", type(fault).__name__, str(fault))
    finally:
        if engine is not None:
            engine.end_source()
    moved = {page for (page, generation), (_, old) in zip(memory.page_generation_span(*span), before)
             if generation != old}
    return (outcome, memory.read(segment.base, segment.size, check=False), moved,
            None if engine is None else
            (engine.shadow.read(segment.base, segment.size), engine.seeds))


def _expansion_daemon(arch, version, tainted, name_address_from):
    collector = Collector() if tainted else None
    engine = collector.attach_taint(TaintEngine()) if tainted else None
    daemon = ConnmanDaemon(arch=arch, version=version, observer=collector)
    memory = daemon.loaded.process.memory
    name_address = name_address_from(daemon.proxy, memory)
    segment = memory.segment_at(name_address)
    if segment.writable:
        # Stale bytes and labels around ``name``, so a store too few, too
        # many or out of order shows in the bytes or the shadow.
        low = max(segment.base, name_address - 64)
        dirty = bytes(range(7, 256, 3)) * (segment.end - low)
        memory.write(low, dirty[:segment.end - low], taint=_labels(segment.end - low))
    return daemon, engine, name_address


def _assert_matches_listing_1(arch, version, tainted, name_address_from, packet):
    results = []
    for how in (lambda proxy, *args: proxy._get_name(*args), _listing_1_get_name):
        daemon, engine, name_address = _expansion_daemon(
            arch, version, tainted, name_address_from)
        results.append(_expand(how, daemon, engine, packet, name_address))
    got, want = results
    assert got[0] == want[0]  # the offset, drop reason or fault
    assert got[1] == want[1]  # the bytes of the segment holding ``name``
    assert got[2] == want[2]  # the pages whose generation moved
    assert got[3] == want[3]  # its shadow, and the seeds


@settings(max_examples=250, deadline=None)
@given(
    arch=st.sampled_from(["x86", "arm"]),
    version=st.sampled_from(["1.34", "1.35"]),
    tainted=st.booleans(),
    from_end=st.one_of(st.none(), st.integers(1, 200)),
    pieces=_PIECES,
    cut=st.one_of(st.none(), st.integers(0, 400)),
)
@example(arch="x86", version="1.34", tainted=True, from_end=None,
         pieces=[("label", 3, 1), ("pointer", 12, 0)], cut=None)  # loops to the drop
@example(arch="arm", version="1.34", tainted=True, from_end=100,
         pieces=[("label", 63, 9)] * 3 + [("label", 0, 0)], cut=None)  # faults
@example(arch="x86", version="1.35", tainted=False, from_end=None,
         pieces=[("label", 63, 9)] * 20, cut=None)  # patched bounds check
@example(arch="arm", version="1.34", tainted=True, from_end=None,
         pieces=[("label", 5, 1), ("label", 9, 2)], cut=7)  # truncated label
def test_property_get_name_matches_listing_1(arch, version, tainted, from_end,
                                             pieces, cut):
    """Random names (labels of 0-70 bytes, compression pointers, reserved
    label types, truncated packets) expanded at ``name`` or within 200
    bytes of the stack's end: the one-commit expansion and Listing 1's
    per-line stores leave the same stack bytes and shadow, seed the same
    wire bytes, move the same pages' generations, and end the same way."""
    def name_address_from(proxy, memory):
        if from_end is None:
            return proxy.placement().name_address
        return memory.segment("stack").end - from_end

    _assert_matches_listing_1(arch, version, tainted, name_address_from,
                              _wire_name(pieces, cut))


#: Labels of 2, 1 and 3 bytes store up to ``name + 10``; then the name
#: ends, its last label's over-copy is cut off, or a label is truncated.
_EDGE_NAMES = {
    "terminated": _wire_name([("label", 2, 1), ("label", 1, 2), ("label", 3, 3),
                              ("label", 0, 0)], None),
    "no over-copy": _wire_name([("label", 2, 1), ("label", 1, 2), ("label", 3, 3)], None),
    "truncated label": _wire_name([("label", 2, 1), ("label", 1, 2), ("label", 3, 3),
                                   ("label", 4, 4)], 11),
}


@pytest.mark.parametrize("arch", ["x86", "arm"])
@pytest.mark.parametrize("tainted", [False, True], ids=["clean", "tainted"])
@pytest.mark.parametrize("name", sorted(_EDGE_NAMES))
def test_every_stack_end_alignment_matches_listing_1(arch, tainted, name):
    """The stack's end falls before, inside and after each store of the
    name in turn (and ``name`` in a read-only segment faults its first
    store): the expansion matches Listing 1 at every alignment."""
    packet = _EDGE_NAMES[name]
    for from_end in range(1, 12):
        _assert_matches_listing_1(
            arch, "1.34", tainted,
            lambda proxy, memory: memory.segment("stack").end - from_end, packet)
    _assert_matches_listing_1(
        arch, "1.34", tainted,
        lambda proxy, memory: memory.segment("connman:.rodata").base,
        packet)
