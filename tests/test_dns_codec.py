"""DNS name/message codec, including compression and property round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns import (
    Flags,
    Message,
    MessageDecodeError,
    NameEncodingError,
    PointerLoopError,
    Question,
    Rcode,
    RecordType,
    ResourceRecord,
    bytes_to_ip4,
    bytes_to_ip6,
    decode_name,
    encode_name,
    encode_pointer,
    ip4_to_bytes,
    ip6_to_bytes,
    make_query,
    make_response,
    skip_name,
)


class TestNameCodec:
    def test_encode_simple(self):
        assert encode_name("example.com") == b"\x07example\x03com\x00"

    def test_encode_root(self):
        assert encode_name("") == b"\x00"
        assert encode_name(".") == b"\x00"

    def test_trailing_dot_ignored(self):
        assert encode_name("a.b.") == encode_name("a.b")

    def test_empty_label_rejected(self):
        with pytest.raises(NameEncodingError):
            encode_name("a..b")

    def test_long_label_rejected(self):
        with pytest.raises(NameEncodingError):
            encode_name("x" * 64 + ".com")

    def test_long_name_rejected(self):
        with pytest.raises(NameEncodingError):
            encode_name(".".join(["abcdefgh"] * 40))

    def test_decode_simple(self):
        name, offset = decode_name(b"\x03foo\x03bar\x00", 0)
        assert name == "foo.bar"
        assert offset == 9

    def test_decode_with_pointer(self):
        packet = b"\x03com\x00" + b"\x07example" + encode_pointer(0)
        name, offset = decode_name(packet, 5)
        assert name == "example.com"
        assert offset == 15  # ends after the 2-byte pointer

    def test_pointer_loop_detected(self):
        packet = encode_pointer(0)
        with pytest.raises(PointerLoopError):
            decode_name(packet, 0)

    def test_truncated_name_rejected(self):
        with pytest.raises(PointerLoopError):
            decode_name(b"\x05ab", 0)

    def test_reserved_label_type_rejected(self):
        with pytest.raises(PointerLoopError):
            decode_name(b"\x45abc", 0)

    def test_skip_name(self):
        packet = encode_name("a.bb.ccc") + b"\xde\xad"
        assert skip_name(packet, 0) == len(packet) - 2

    def test_pointer_offset_range(self):
        with pytest.raises(NameEncodingError):
            encode_pointer(0x4000)


class TestRfcBoundaries:
    """Encode and decode must agree exactly at the RFC 1035 limits."""

    # 253 presentation chars = 255 wire octets: the largest legal name.
    MAX_PRESENTATION = ".".join(["a" * 63] * 3 + ["a" * 61])

    def test_max_presentation_name_is_253_chars(self):
        assert len(self.MAX_PRESENTATION) == 253
        assert len(encode_name(self.MAX_PRESENTATION)) == 255

    def test_253_char_name_round_trips(self):
        wire = encode_name(self.MAX_PRESENTATION)
        decoded, offset = decode_name(wire, 0)
        assert decoded == self.MAX_PRESENTATION
        assert offset == len(wire) == 255

    def test_254_char_name_rejected_by_encode(self):
        too_long = ".".join(["a" * 63] * 3 + ["a" * 62])  # 254 chars
        with pytest.raises(NameEncodingError):
            encode_name(too_long)

    def test_63_byte_label_round_trips(self):
        name = "b" * 63 + ".example"
        decoded, _offset = decode_name(encode_name(name), 0)
        assert decoded == name

    def test_64_byte_label_rejected_both_ways(self):
        with pytest.raises(NameEncodingError):
            encode_name("c" * 64 + ".example")
        with pytest.raises(PointerLoopError):
            decode_name(b"\x40" + b"c" * 64 + b"\x00", 0)

    def test_oversized_wire_name_rejected_by_decode(self):
        # 4 x 63-byte labels = 257 wire octets but only 255 presentation
        # characters: the old character-count guard let this through even
        # though encode_name could never have produced it.
        wire = (b"\x3f" + b"a" * 63) * 4 + b"\x00"
        assert len(wire) == 257
        with pytest.raises(PointerLoopError):
            decode_name(wire, 0)

    def test_compressed_expansion_past_limit_rejected(self):
        # The tail at offset 0 is itself legal (193 octets); prefixing one
        # more 63-byte label via a pointer expands to 257 octets.
        tail = (b"\x3f" + b"a" * 63) * 3 + b"\x00"
        packet = tail + b"\x3f" + b"b" * 63 + encode_pointer(0)
        with pytest.raises(PointerLoopError):
            decode_name(packet, len(tail))

    def test_compressed_name_at_limit_accepted(self):
        # Same shape but the tail is one label shorter: exactly 255 octets
        # once expanded — the decoder must accept the boundary case.
        tail = (b"\x3f" + b"a" * 63) * 2 + b"\x3d" + b"a" * 61 + b"\x00"
        packet = tail + b"\x3f" + b"b" * 63 + encode_pointer(0)
        decoded, _offset = decode_name(packet, len(tail))
        assert decoded.startswith("b" * 63 + ".")
        assert len(decoded) == 253


DNS_LABEL = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
    min_size=1, max_size=20,
).filter(lambda label: not label.startswith("-"))

DNS_NAME = st.lists(DNS_LABEL, min_size=1, max_size=5).map(".".join).filter(
    lambda name: len(name) <= 200
)


@settings(max_examples=100)
@given(name=DNS_NAME)
def test_property_name_roundtrip(name):
    decoded, offset = decode_name(encode_name(name), 0)
    assert decoded == name
    assert offset == len(encode_name(name))


class TestAddresses:
    def test_ip4_roundtrip(self):
        assert bytes_to_ip4(ip4_to_bytes("192.168.1.200")) == "192.168.1.200"

    def test_ip4_invalid(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                ip4_to_bytes(bad)

    def test_ip6_elision(self):
        assert ip6_to_bytes("::1")[-1] == 1
        assert ip6_to_bytes("2001:db8::1")[:2] == b"\x20\x01"

    def test_ip6_full_form(self):
        data = ip6_to_bytes("1:2:3:4:5:6:7:8")
        assert bytes_to_ip6(data) == "1:2:3:4:5:6:7:8"

    def test_ip6_invalid(self):
        with pytest.raises(ValueError):
            ip6_to_bytes("1:2:3")

    @settings(max_examples=50)
    @given(octets=st.lists(st.integers(0, 255), min_size=4, max_size=4))
    def test_property_ip4_roundtrip(self, octets):
        text = ".".join(map(str, octets))
        assert bytes_to_ip4(ip4_to_bytes(text)) == text


class TestFlags:
    def test_roundtrip_all_bits(self):
        flags = Flags(qr=True, opcode=2, aa=True, tc=True, rd=False, ra=True, rcode=3)
        assert Flags.decode(flags.encode()) == flags

    def test_default_is_recursive_query(self):
        flags = Flags()
        assert not flags.qr and flags.rd

    @settings(max_examples=50)
    @given(word=st.integers(0, 0xFFFF))
    def test_property_decode_encode_preserves_known_bits(self, word):
        # Z bits (4-6) are not modeled; everything else round-trips.
        known = word & ~0x0070
        assert Flags.decode(word).encode() == known


class TestRecords:
    def test_a_record(self):
        record = ResourceRecord.a("host.example", "10.0.0.1", ttl=60)
        assert record.address == "10.0.0.1"
        assert record.rtype == RecordType.A

    def test_aaaa_record(self):
        record = ResourceRecord.aaaa("host.example", "2001:db8::42")
        assert record.address.startswith("2001:db8")

    def test_cname_rdata_is_encoded_name(self):
        record = ResourceRecord.cname("a.example", "b.example")
        assert record.rdata == encode_name("b.example")

    def test_txt_length_limit(self):
        with pytest.raises(ValueError):
            ResourceRecord.txt("t.example", b"x" * 256)

    def test_address_on_non_address_type_rejected(self):
        with pytest.raises(ValueError):
            ResourceRecord.cname("a", "b").address

    def test_record_wire_roundtrip(self):
        record = ResourceRecord.a("www.example.com", "93.184.216.34", ttl=3600)
        decoded, offset = ResourceRecord.decode(record.encode(), 0)
        assert decoded == record
        assert offset == len(record.encode())

    def test_question_wire_roundtrip(self):
        question = Question("www.example.com", RecordType.AAAA)
        decoded, offset = Question.decode(question.encode(), 0)
        assert decoded == question

    def test_type_names(self):
        assert RecordType.name(1) == "A"
        assert RecordType.name(28) == "AAAA"
        assert RecordType.name(999) == "TYPE999"


QUERY_IDS = st.integers(0, 0xFFFF)


class TestMessage:
    def test_query_roundtrip(self):
        query = make_query(0x1234, "www.example.com")
        decoded = Message.decode(query.encode())
        assert decoded == query

    def test_response_echoes_question(self):
        query = make_query(7, "a.example")
        response = make_response(query, (ResourceRecord.a("a.example", "1.2.3.4"),))
        assert response.id == 7
        assert response.is_response
        assert response.questions == query.questions

    def test_nxdomain_response(self):
        query = make_query(7, "missing.example")
        response = make_response(query, (), rcode=Rcode.NXDOMAIN)
        assert response.flags.rcode == Rcode.NXDOMAIN

    def test_short_packet_rejected(self):
        with pytest.raises(MessageDecodeError):
            Message.decode(b"\x00" * 11)

    def test_truncated_body_rejected(self):
        query = make_query(1, "www.example.com").encode()
        with pytest.raises((MessageDecodeError, PointerLoopError)):
            Message.decode(query[:-3])

    def test_describe_contains_sections(self):
        query = make_query(9, "x.example")
        response = make_response(query, (ResourceRecord.a("x.example", "9.9.9.9"),))
        text = response.describe()
        assert "x.example" in text and "9.9.9.9" in text

    @settings(max_examples=60)
    @given(message_id=QUERY_IDS, name=DNS_NAME,
           qtype=st.sampled_from([RecordType.A, RecordType.AAAA, RecordType.TXT]))
    def test_property_query_roundtrip(self, message_id, name, qtype):
        query = make_query(message_id, name, qtype)
        assert Message.decode(query.encode()) == query

    @settings(max_examples=60)
    @given(message_id=QUERY_IDS, name=DNS_NAME,
           octets=st.lists(st.integers(0, 255), min_size=4, max_size=4))
    def test_property_response_roundtrip(self, message_id, name, octets):
        query = make_query(message_id, name)
        answer = ResourceRecord.a(name, ".".join(map(str, octets)))
        response = make_response(query, (answer,))
        assert Message.decode(response.encode()) == response


#: One wire label: 1-63 arbitrary bytes except ``.``, which a dotted name
#: cannot carry inside a label.
WIRE_LABEL = st.binary(min_size=1, max_size=63).filter(lambda label: b"." not in label)


@settings(max_examples=100)
@given(labels=st.lists(WIRE_LABEL, min_size=1, max_size=3))
def test_property_decoded_name_encodes_back(labels):
    """Every name decode_name returns, high bytes included, re-encodes to
    the wire bytes it came from."""
    wire = b"".join(bytes([len(label)]) + label for label in labels) + b"\x00"
    name, offset = decode_name(wire, 0)
    assert offset == len(wire)
    assert encode_name(name) == wire
