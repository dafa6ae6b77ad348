"""Connman version model, frame geometry, and header validation."""

import pytest

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
from repro.defenses import NONE
from repro.dns import build_raw_response, make_query, make_response, ResourceRecord
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

    def test_get_name_keeps_listing_1_stores(self, arch):
        """Two stores per label (its length byte, then its bytes plus the
        one-byte over-copy) and one for the terminator; a compression
        pointer stores nothing."""
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
        assert writes == [(0, b"\x03"), (1, b"ccc\xc0"), (4, b"\x01"), (5, b"a\x02"),
                          (6, b"\x02"), (7, b"bb\x00"), (9, b"\x00")]

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
