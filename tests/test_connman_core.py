"""Connman version model, frame geometry, and header validation."""

import pytest

from repro.connman import (
    ARM_FRAME,
    ConnmanVersion,
    EventKind,
    FIRST_FIXED,
    LAST_VULNERABLE,
    NAME_BUFFER_SIZE,
    X86_FRAME,
    frame_model,
)
from repro.dns import build_raw_response, make_query, make_response, ResourceRecord
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
