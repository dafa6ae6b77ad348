"""Fuzz-style robustness properties.

The simulation must be *total*: arbitrary bytes as guest code, DNS
packets, or upstream replies may crash the emulated daemon (that is the
point of the paper) but must never raise an unexpected exception in the
host — every outcome is a typed event or a clean fault result.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.connman import ConnmanDaemon, DaemonEvent, EventKind
from repro.cpu import Process, make_emulator
from repro.defenses import NONE, WX_ASLR, ShadowStackCfi
from repro.dns import Message, MessageDecodeError, PointerLoopError, SimpleDnsServer
from repro.mem import AddressSpace, Perm
from tests.conftest import fresh_daemon

VALID_END_REASONS = {"fault", "exit", "execve", "abort", "daemon-continue"}


@settings(max_examples=120, deadline=None)
@given(code=st.binary(min_size=1, max_size=256), arch=st.sampled_from(["x86", "arm"]),
       cfi=st.booleans())
# ARM `pop {}` (empty register list): once an IndexError out of the run loop.
@example(code=(0xE8BD0000).to_bytes(4, "little"), arch="arm", cfi=False)
@example(code=(0xE8BD0000).to_bytes(4, "little"), arch="arm", cfi=True)
def test_property_random_code_never_breaks_the_host(code, arch, cfi):
    """Random bytes executed as guest code end in a clean typed result,
    with or without a CFI policy watching every branch."""
    space = AddressSpace()
    space.map_new("code", 0x1000, 0x1000, Perm.RWX)
    space.map_new("stack", 0x20000, 0x4000, Perm.RW | Perm.X)
    space.write(0x1000, code, check=False)
    process = Process(arch, space)
    process.pc = 0x1000
    process.sp = 0x23000
    if cfi:
        process.cfi = ShadowStackCfi({0x1000})
    result = make_emulator(process).run(max_steps=2000)
    assert result.reason in VALID_END_REASONS


@settings(max_examples=150, deadline=None)
@given(packet=st.binary(max_size=128))
def test_property_message_decode_total(packet):
    """Message.decode raises only its own error family."""
    try:
        Message.decode(packet)
    except (MessageDecodeError, PointerLoopError):
        pass


@settings(max_examples=150, deadline=None)
@given(packet=st.binary(max_size=256))
# A well-formed query whose QNAME carries a byte >= 0x80 (what a corrupting
# LAN produces): the reply must re-encode the name it decoded.
@example(packet=b"p\x00\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
                b"\x05h\xecst0\x07capture\x07example\x00\x00\x01\x00\x01")
def test_property_dns_server_total(packet):
    """A resolver fed garbage answers or stays silent, never raises."""
    server = SimpleDnsServer(default_address="1.2.3.4")
    response = server.handle_query(packet)
    assert response is None or len(response) >= 12


@settings(max_examples=100, deadline=None)
@given(reply=st.binary(max_size=512), arch=st.sampled_from(["x86", "arm"]))
def test_property_dnsproxy_total_on_garbage(reply, arch):
    """Arbitrary upstream bytes produce a typed DaemonEvent, never a host
    exception — and garbage that fails header validation leaves the daemon
    alive."""
    daemon = fresh_daemon(arch, profile=WX_ASLR, seed=1)
    event = daemon.handle_upstream_reply(reply)
    assert isinstance(event, DaemonEvent)
    assert event.kind in EventKind


#: One wire edit: flip bits of a byte, or splice bytes in.  Positions
#: wrap modulo the current packet length.
EDIT = st.one_of(
    st.tuples(st.just("flip"), st.integers(min_value=0, max_value=2**16),
              st.integers(min_value=1, max_value=255)),
    st.tuples(st.just("insert"), st.integers(min_value=0, max_value=2**16),
              st.binary(min_size=1, max_size=8)),
)
LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=20)


def mutate(packet, edits, cut=None):
    """Apply ``edits`` in order, then truncate at ``cut`` (if given)."""
    data = bytearray(packet)
    for op, at, arg in edits:
        if op == "flip":
            data[at % len(data)] ^= arg
        else:
            at %= len(data) + 1
            data[at:at] = arg
    if cut is not None:
        del data[cut % (len(data) + 1):]
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(
    arch=st.sampled_from(["x86", "arm"]),
    message_id=st.integers(min_value=0, max_value=0xFFFF),
    name=st.lists(LABEL, min_size=1, max_size=4).map(".".join),
    labels=st.lists(st.binary(min_size=1, max_size=63), min_size=1, max_size=8),
    repeat=st.integers(min_value=1, max_value=32),
    edits=st.lists(EDIT, max_size=6),
    cut=st.none() | st.integers(min_value=0, max_value=2**16),
)
# An overflowing name with one flipped byte: the guest crash path, every run.
@example(arch="x86", message_id=7, name="x.example", labels=[b"A" * 63],
         repeat=20, edits=[("flip", 700, 0x41)], cut=None)
@example(arch="arm", message_id=7, name="x.example", labels=[b"A" * 63],
         repeat=20, edits=[("flip", 700, 0x41)], cut=None)
def test_property_dnsproxy_total_on_mutated_replies(arch, message_id, name,
                                                    labels, repeat, edits, cut):
    """A well-formed reply that matches its query, then bit-flipped,
    spliced or truncated on the wire, ends in a modeled outcome on both
    arches: answered, dropped, or the guest crashed or hung.  Repeating
    the label run lets the answer name outgrow the 1024-byte stack
    buffer, so the edits also land in overflowing replies."""
    from repro.dns import build_raw_response, make_query

    blob = b"".join(bytes([len(label)]) + label
                    for label in labels * repeat) + b"\x00"
    reply = build_raw_response(make_query(message_id, name), blob)
    daemon = fresh_daemon(arch, profile=WX_ASLR, seed=3)
    event = daemon.handle_upstream_reply(mutate(reply, edits, cut),
                                         expected_id=message_id)
    assert event.kind in (EventKind.RESPONDED, EventKind.DROPPED,
                          EventKind.CRASHED, EventKind.HUNG)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    label_lengths=st.lists(st.integers(min_value=1, max_value=63), min_size=1, max_size=40),
)
def test_property_random_label_streams(seed, label_lengths):
    """Syntactically valid but random label streams either get dropped,
    parse fine, or crash the guest — all as typed events."""
    rng = random.Random(seed)
    blob = bytearray()
    for length in label_lengths:
        blob.append(length)
        blob += bytes(rng.randrange(256) for _ in range(length))
    blob.append(0)
    from repro.dns import build_raw_response, make_query

    query = make_query(0x1234, "fuzz.example")
    reply = build_raw_response(query, bytes(blob))
    daemon = fresh_daemon("arm", profile=NONE, seed=2)
    event = daemon.handle_upstream_reply(reply, expected_id=0x1234)
    assert event.kind in (EventKind.RESPONDED, EventKind.DROPPED,
                          EventKind.CRASHED, EventKind.HUNG)
    # Expansions below the buffer size can never take the daemon down.
    expansion = sum(1 + length for length in label_lengths)
    if expansion < 1024 and event.kind != EventKind.DROPPED:
        assert daemon.alive


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_property_daemon_deterministic_per_seed(seed):
    """Identical seeds give byte-identical layouts and outcomes."""
    def boot_and_crash(s):
        daemon = ConnmanDaemon(arch="x86", profile=WX_ASLR, rng=random.Random(s))
        from repro.core import naive_overflow_blob
        from repro.dns import build_raw_response, make_query

        reply = build_raw_response(make_query(1, "x.example"), naive_overflow_blob())
        event = daemon.handle_upstream_reply(reply, expected_id=1)
        return (daemon.loaded.layout, event.kind, event.signal, event.detail)

    assert boot_and_crash(seed) == boot_and_crash(seed)
