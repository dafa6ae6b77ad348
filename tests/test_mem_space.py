"""AddressSpace, Segment and Perm behaviour."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem import (
    AccessViolation,
    AddressSpace,
    Perm,
    Segment,
    SegmentationFault,
    UnmappedAddressError,
    WxViolation,
)
from repro.mem.space import PAGE_SHIFT
from repro.obs.taint import ShadowMemory


def make_space():
    space = AddressSpace()
    space.map_new("low", 0x1000, 0x1000, Perm.RW)
    space.map_new("high", 0x2000, 0x1000, Perm.RW)  # contiguous with low
    space.map_new("code", 0x10000, 0x1000, Perm.RX)
    space.map_new("guarded", 0x20000, 0x1000, Perm.NONE)
    return space


class TestPerm:
    def test_describe_rwx(self):
        assert Perm.RWX.describe() == "rwx"

    def test_describe_rx(self):
        assert Perm.RX.describe() == "r-x"

    def test_describe_none(self):
        assert Perm.NONE.describe() == "---"

    def test_parse_roundtrip(self):
        for perm in (Perm.NONE, Perm.R, Perm.RW, Perm.RX, Perm.RWX):
            assert Perm.parse(perm.describe()) == perm

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Perm.parse("rq")

    def test_flag_membership(self):
        assert Perm.R in Perm.RX
        assert Perm.W not in Perm.RX


class TestSegment:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            Segment("empty", 0x1000, 0, Perm.RW)

    def test_rejects_out_of_32bit_range(self):
        with pytest.raises(ValueError):
            Segment("huge", 0xFFFFF000, 0x2000, Perm.RW)

    def test_contains_boundaries(self):
        seg = Segment("s", 0x1000, 0x100, Perm.RW)
        assert seg.contains(0x1000)
        assert seg.contains(0x10FF)
        assert not seg.contains(0x1100)
        assert not seg.contains(0xFFF)

    def test_overlap_detection(self):
        a = Segment("a", 0x1000, 0x100, Perm.RW)
        b = Segment("b", 0x10FF, 0x10, Perm.RW)
        c = Segment("c", 0x1100, 0x10, Perm.RW)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_describe_format(self):
        seg = Segment("stack", 0x1000, 0x1000, Perm.RW)
        assert seg.describe() == "00001000-00002000 rw- stack"


    def test_access_booleans_for_every_flag_set(self):
        for value in range(8):
            perm = Perm(value)
            seg = Segment("s", 0x1000, 0x10, perm)
            assert (seg.readable, seg.writable, seg.executable) == (
                Perm.R in perm, Perm.W in perm, Perm.X in perm), perm

    def test_read_only_segment_borrows_bytes_until_an_unchecked_write(self):
        image = bytes(range(16))
        seg = Segment("text", 0x1000, 16, Perm.RX, image)
        assert seg.data is image
        with pytest.raises(AccessViolation):
            seg.write(0, b"\xcc")
        assert seg.data is image
        seg.write(0, b"\xcc", check=False)
        assert seg.data == b"\xcc" + image[1:] and type(seg.data) is bytearray
        assert image == bytes(range(16))

    def test_writable_or_short_contents_share_nothing_a_write_can_reach(self):
        image = b"\x01\x02"
        for perm, size in ((Perm.RW, 2), (Perm.RW, 4), (Perm.RX, 4)):
            seg = Segment("s", 0x1000, size, perm, image)
            other = Segment("t", 0x2000, size, perm, image)
            assert seg.data == image + bytes(size - 2)
            seg.write(size - 1, b"\xee", check=False)
            assert seg.read(0, size) == image[:size - 1].ljust(size - 1, b"\x00") + b"\xee"
            assert other.read(0, size) == image + bytes(size - 2)
            assert image == b"\x01\x02"
        with pytest.raises(ValueError, match="holds"):
            Segment("s", 0x1000, 1, Perm.RX, image)

    def test_zero_filled_segments_borrow_one_zero_block_until_written(self):
        first, second = (Segment(name, base, 0x3000, Perm.RW)
                         for name, base in (("heap", 0x10000), ("bss", 0x20000)))
        assert first.data is second.data and type(first.data) is bytes
        first.write(0x1234, b"\xaa\xbb")
        assert type(first.data) is bytearray
        assert first.read(0x1233, 0x1237) == b"\x00\xaa\xbb\x00"
        assert second.read(0, 0x3000) == bytes(0x3000)
        assert Segment("fresh", 0x30000, 0x3000, Perm.RW).data == bytes(0x3000)

    def test_guard_page_write_faults_without_copying(self):
        guard = Segment("stack-guard", 0x1000, 0x1000, Perm.NONE)
        zeros = guard.data
        with pytest.raises(AccessViolation):
            guard.write(0x10, b"\xff")
        assert guard.data is zeros and zeros == bytes(0x1000)

    def test_generations_and_taint_move_before_the_copy(self):
        space = AddressSpace()
        heap = space.map_new("heap", 0x40000, 0x2000, Perm.RW)
        guard = space.map_new("guard", 0x42000, 0x1000, Perm.NONE)
        space.taint = ShadowMemory()
        space.taint.set_range(0x42000, [frozenset({9})])
        zeros = guard.data
        page = 0x42000 >> PAGE_SHIFT
        # The guard write faults before any byte moves, yet its page
        # generation and shadow were already updated: spurious, not missed.
        with pytest.raises(AccessViolation):
            space.write(0x42000, b"\x01")
        assert space.page_generation_span(0x42000, 1) == ((page, 1),)
        assert space.taint.read(0x42000, 1) == (frozenset(),)
        assert guard.data is zeros and zeros == bytes(0x1000)
        # A heap write: the segment copies its zero block only after the
        # generation and the labels moved.
        seen = []
        copy_on_write = heap.write

        def spy(start, payload, *, check=True):
            seen.append((space.page_generation_span(0x41fff, 1),
                         space.taint.read(0x41fff, 1), type(heap.data)))
            copy_on_write(start, payload, check=check)

        heap.write = spy
        space.write(0x41fff, b"\x05", taint=[frozenset({3})])
        assert seen == [(((0x41fff >> PAGE_SHIFT, 1),), (frozenset({3}),), bytes)]
        assert type(heap.data) is bytearray and space.read(0x41fff, 1) == b"\x05"
        assert zeros == bytes(0x1000)


class TestMapping:
    def test_overlapping_map_rejected(self):
        space = make_space()
        with pytest.raises(ValueError, match="overlaps"):
            space.map_new("bad", 0x1800, 0x1000, Perm.RW)

    def test_overlap_error_names_the_lowest_overlapping_segment(self):
        space = make_space()
        with pytest.raises(ValueError, match="overlaps 'low'"):
            space.map_new("bad", 0x0, 0x30000, Perm.RW)  # covers every segment
        with pytest.raises(ValueError, match="overlaps 'high'"):
            space.map_new("bad", 0x2800, 0xE000, Perm.RW)  # high's tail and code

    def test_batch_overlap_names_the_pair_met_in_order(self):
        space = AddressSpace()
        with pytest.raises(ValueError) as error:
            space.map(Segment("a", 0x1000, 0x1000, Perm.RX),
                      Segment("b", 0x1800, 0x1000, Perm.RW))
        assert str(error.value) == "segment 'b' overlaps 'a' (00001000-00002000 r-x a)"
        assert list(space.segments()) == [] and space.mapping_epoch == 0

    def test_batch_overlap_with_an_existing_mapping(self):
        space = make_space()
        epoch = space.mapping_epoch
        # "late" maps first and overlaps nothing; "bad" then covers every
        # segment, "late" included, and the lowest one is named.
        with pytest.raises(ValueError) as error:
            space.map(Segment("late", 0x30000, 0x1000, Perm.RW),
                      Segment("bad", 0x0, 0x40000, Perm.RW))
        assert str(error.value) == "segment 'bad' overlaps 'low' (00001000-00002000 rw- low)"
        with pytest.raises(ValueError, match="segment 'bad' overlaps 'late'"):
            space.map(Segment("late", 0x30000, 0x1000, Perm.RW),
                      Segment("bad", 0x30800, 0x1000, Perm.RW))
        assert not space.has_segment("late") and space.mapping_epoch == epoch

    def test_batch_map_bumps_the_epoch_once(self):
        space = make_space()
        epoch = space.mapping_epoch
        space.map(Segment("z", 0x40000, 0x100, Perm.RW),
                  Segment("y", 0x0, 0x100, Perm.RX),
                  Segment("x", 0x30000, 0x100, Perm.NONE))
        assert space.mapping_epoch == epoch + 1
        assert [seg.name for seg in space.segments()] == [
            "y", "low", "high", "code", "guarded", "x", "z"]
        assert space.segment_at(0x400FF).name == "z"

    def test_map_below_existing_keeps_order(self):
        space = make_space()
        space.map_new("zero", 0x0, 0x100, Perm.RW)
        assert space.maps().splitlines()[0].endswith(" zero")
        assert space.segment_at(0xFF).name == "zero"
        assert space.segment_at(0x1000).name == "low"

    def test_unmap_removes(self):
        space = make_space()
        space.unmap("guarded")
        assert not space.is_mapped(0x20000)

    def test_unmap_unknown_raises(self):
        with pytest.raises(KeyError):
            make_space().unmap("nope")

    def test_segment_lookup_by_name(self):
        assert make_space().segment("code").base == 0x10000

    def test_segment_at_faults_on_gap(self):
        with pytest.raises(UnmappedAddressError):
            make_space().segment_at(0x3000)

    def test_maps_rendering(self):
        text = make_space().maps()
        assert "00010000-00011000 r-x code" in text


class TestReadWrite:
    def test_roundtrip(self):
        space = make_space()
        space.write(0x1100, b"hello")
        assert space.read(0x1100, 5) == b"hello"

    def test_cross_segment_write_and_read(self):
        space = make_space()
        payload = bytes(range(64))
        space.write(0x2000 - 32, payload)  # spans low -> high
        assert space.read(0x2000 - 32, 64) == payload

    def test_write_into_gap_faults(self):
        space = make_space()
        with pytest.raises(UnmappedAddressError):
            space.write(0x2FF0, b"A" * 0x20)  # runs past high's end

    def test_read_requires_r(self):
        space = make_space()
        with pytest.raises(AccessViolation):
            space.read(0x20000, 1)

    def test_write_requires_w(self):
        space = make_space()
        with pytest.raises(AccessViolation):
            space.write(0x10000, b"x")

    def test_check_false_bypasses_permissions(self):
        space = make_space()
        space.write(0x10000, b"\x90", check=False)
        assert space.read(0x10000, 1, check=False) == b"\x90"

    def test_fetch_requires_x(self):
        space = make_space()
        with pytest.raises(WxViolation):
            space.fetch(0x1000, 1)

    def test_fetch_from_code_ok(self):
        space = make_space()
        space.write(0x10010, b"\xc3", check=False)
        assert space.fetch(0x10010, 1) == b"\xc3"

    def test_wx_violation_is_segfault(self):
        assert issubclass(WxViolation, SegmentationFault)

    def test_typed_u32_roundtrip(self):
        space = make_space()
        space.write_u32(0x1200, 0xDEADBEEF)
        assert space.read_u32(0x1200) == 0xDEADBEEF
        assert space.read_u16(0x1200) == 0xBEEF
        assert space.read_u8(0x1203) == 0xDE

    def test_u32_wraps_to_32_bits(self):
        space = make_space()
        space.write_u32(0x1200, 0x1_0000_0005)
        assert space.read_u32(0x1200) == 5

    def test_cstring_roundtrip(self):
        space = make_space()
        space.write_cstring(0x1300, b"/bin/sh")
        assert space.read_cstring(0x1300) == b"/bin/sh"

    def test_cstring_respects_limit(self):
        space = make_space()
        space.write(0x1300, b"A" * 64)
        assert space.read_cstring(0x1300, limit=16) == b"A" * 16


class TestFind:
    def test_find_locates_all_occurrences(self):
        space = make_space()
        space.write(0x1100, b"shshsh")
        hits = space.find(b"sh")
        assert hits[:3] == [0x1100, 0x1102, 0x1104]

    def test_find_overlapping(self):
        space = make_space()
        space.write(0x1100, b"aaa")
        assert space.find(b"aa")[:2] == [0x1100, 0x1101]

    def test_find_restricted_to_segments(self):
        space = make_space()
        space.write(0x1100, b"needle")
        space.write(0x10100, b"needle", check=False)
        assert space.find(b"needle", segment_names=["code"]) == [0x10100]


@settings(max_examples=50)
@given(offset=st.integers(min_value=0, max_value=0x1FF0),
       data=st.binary(min_size=1, max_size=64))
def test_property_write_read_roundtrip(offset, data):
    """Anything written into the contiguous region reads back identically."""
    space = AddressSpace()
    space.map_new("a", 0x1000, 0x1000, Perm.RW)
    space.map_new("b", 0x2000, 0x1000, Perm.RW)
    address = 0x1000 + min(offset, 0x2000 - len(data))
    space.write(address, data)
    assert space.read(address, len(data)) == data


# -- differential check of the range walk against a per-byte model -----------

ADDRESS_SPAN = 1 << 32
_PERMS = {"---": Perm.NONE, "r--": Perm.R, "-w-": Perm.W, "--x": Perm.X,
          "rw-": Perm.RW, "r-x": Perm.RX, "rwx": Perm.RWX}


class _ClearLog:
    """Shadow stand-in: records the ranges an untainted write clears."""

    def __init__(self):
        self.cleared = []

    def clear_range(self, address, length):
        self.cleared.append((address, length))


class _ByteModel:
    """Reference space: address -> [byte, perm], walked one byte at a time."""

    def __init__(self, segments):
        self.cells = {seg.base + i: [0, seg.perm]
                      for seg in segments for i in range(seg.size)}
        self.page_gens = {}
        self.cleared = []

    def _walk(self, address, length):
        addresses = range(address & 0xFFFFFFFF, (address & 0xFFFFFFFF) + max(length, 0))
        for cursor in addresses:
            if cursor not in self.cells:
                raise UnmappedAddressError(cursor & 0xFFFFFFFF)
        return addresses

    def _deny(self, addresses, flag, fault):
        for cursor in addresses:
            if flag not in self.cells[cursor][1]:
                raise fault(cursor)

    def read(self, address, length, check):
        addresses = self._walk(address, length)
        if check:
            self._deny(addresses, Perm.R, lambda at: AccessViolation(at, "R"))
        return bytes(self.cells[cursor][0] for cursor in addresses)

    def fetch(self, address, length):
        addresses = self._walk(address, length)
        self._deny(addresses, Perm.X, WxViolation)
        return bytes(self.cells[cursor][0] for cursor in addresses)

    def write(self, address, payload, check):
        addresses = self._walk(address, len(payload))
        for cursor in addresses:
            page = cursor >> PAGE_SHIFT
            if cursor == addresses[0] or cursor & ((1 << PAGE_SHIFT) - 1) == 0:
                self.page_gens[page] = self.page_gens.get(page, 0) + 1
        self.cleared.append((address & 0xFFFFFFFF, len(payload)))
        for cursor, byte in zip(addresses, payload):
            if check and Perm.W not in self.cells[cursor][1]:
                raise AccessViolation(cursor, "W")
            self.cells[cursor][0] = byte

    def is_mapped(self, address, length):
        try:
            self._walk(address, length)
        except UnmappedAddressError:
            return False
        return True

    def contiguous_span(self, address, limit):
        self._walk(address, 1)
        address &= 0xFFFFFFFF
        span = 0
        while span < limit and address + span in self.cells:
            span += 1
        return span


def _outcome(call):
    try:
        return "ok", call()
    except SegmentationFault as fault:
        return type(fault), fault.address


@st.composite
def _layouts(draw):
    """(start, pieces): segments of mixed perms, adjacent or gapped, placed
    across a page boundary low in memory or ending exactly at 2**32."""
    pieces = draw(st.lists(
        st.tuples(st.sampled_from([0, 0, 1, 3]), st.integers(1, 24),
                  st.sampled_from(sorted(_PERMS))),
        min_size=1, max_size=5))
    total = sum(gap + size for gap, size, _ in pieces)
    if draw(st.booleans()):
        return ADDRESS_SPAN - total, pieces
    return 0x2000 - draw(st.integers(0, total)), pieces


_OPS = st.lists(st.tuples(
    st.sampled_from(["read", "write", "fetch", "is_mapped", "contiguous_span",
                     "fetch_window"]),
    st.integers(-4, 130),  # offset from the layout start
    st.binary(max_size=40),  # write payload; its length sizes the other calls
    st.booleans()),  # check=
    min_size=1, max_size=12)


def _build(start, pieces):
    space = AddressSpace()
    segments = []
    base = start
    for index, (gap, size, perm) in enumerate(pieces):
        base += gap
        segments.append(space.map_new(f"s{index}", base, size, _PERMS[perm]))
        base += size
    if start + 0x40 > ADDRESS_SPAN:
        # Map page zero too: a range that wraps past 2**32 must still fault.
        segments.append(space.map_new("zero", 0, 0x40, Perm.RWX))
    return space, segments


@settings(max_examples=200, deadline=None)
@given(layout=_layouts(), ops=_OPS)
@example(layout=(0x1000, [(0, 8, "rw-"), (0, 8, "r--")]),
         ops=[("write", 4, b"ABCDEFGH", True)])
# Where a one-segment shortcut could part from the walk: empty ranges
# touch no segment, so they neither fault nor bump a generation ...
@example(layout=(0x1000, [(0, 8, "-w-")]), ops=[("read", 2, b"", True)])
@example(layout=(0x1000, [(0, 8, "r--")]), ops=[("write", 2, b"", True)])
# ... a range may end exactly at a segment's end ...
@example(layout=(0x1000, [(0, 8, "rwx"), (1, 8, "rw-")]),
         ops=[("write", 4, b"WXYZ", True), ("read", 4, b"ABCD", True),
              ("fetch", 4, b"ABCD", True), ("contiguous_span", 4, b"ABC", True),
              ("contiguous_span", 4, b"ABCD", True)])
# ... a write inside one segment may cross a page ...
@example(layout=(0x1FFC, [(0, 16, "rw-")]), ops=[("write", 2, b"ABCDEFGH", True)])
# ... and a range starting on a segment's last byte runs into its neighbour.
@example(layout=(0x1000, [(0, 8, "rwx"), (0, 8, "r--")]),
         ops=[("read", 7, b"AB", True), ("fetch", 7, b"AB", True),
              ("contiguous_span", 7, b"AB", True), ("fetch_window", 7, b"AB", True),
              ("write", 7, b"AB", True)])
# A fetch window stops at a gap, and faults on a non-executable neighbour.
@example(layout=(0x1000, [(0, 8, "r-x"), (1, 8, "r-x")]),
         ops=[("fetch_window", 6, b"ABCDE", True), ("fetch_window", 8, b"ABC", True)])
@example(layout=(0x1000, [(0, 8, "r-x"), (0, 8, "rw-")]),
         ops=[("fetch_window", 6, b"ABCDE", True), ("fetch_window", 3, b"ABCDE", True),
              ("fetch_window", 3, b"", True)])
def test_property_range_walk_matches_byte_model(layout, ops):
    """Every access agrees with a per-byte walk: results, bytes, page
    generations (one by one and as a ``page_generation_span`` stamp) and
    cleared shadow ranges — or the fault type and address.

    Pins the write ordering: a gap faults before anything changes, while a
    permission fault partway through leaves the earlier segments written
    and the generations bumped.
    """
    space, segments = _build(*layout)
    space.taint = log = _ClearLog()
    model = _ByteModel(segments)
    for kind, offset, payload, check in ops:
        address = (layout[0] + offset) % ADDRESS_SPAN
        length = len(payload)
        if kind == "read":
            calls = (lambda: space.read(address, length, check=check),
                     lambda: model.read(address, length, check))
        elif kind == "write":
            calls = (lambda: space.write(address, payload, check=check),
                     lambda: model.write(address, payload, check))
        elif kind == "fetch":
            calls = (lambda: space.fetch(address, length),
                     lambda: model.fetch(address, length))
        elif kind == "is_mapped":
            calls = (lambda: space.is_mapped(address, length),
                     lambda: model.is_mapped(address, length))
        elif kind == "fetch_window":
            calls = (lambda: space.fetch_window(address, length),
                     lambda: model.fetch(address, model.contiguous_span(address, length)))
        else:
            calls = (lambda: space.contiguous_span(address, length + 1),
                     lambda: model.contiguous_span(address, length + 1))
        got, want = (_outcome(call) for call in calls)
        assert got == want, (kind, hex(address), length, check)
        for seg in segments:
            assert bytes(seg.data) == bytes(
                model.cells[seg.base + i][0] for i in range(seg.size)), seg.name
        first = address >> PAGE_SHIFT
        pages = range(first, ((address + length) >> PAGE_SHIFT) + 1)
        assert space.page_generation_span(first << PAGE_SHIFT, len(pages) << PAGE_SHIFT) == tuple(
            (page, model.page_gens.get(page, 0)) for page in pages)
        last = (address + max(length, 1) - 1) >> PAGE_SHIFT
        assert space.page_generation_span(address, length) == tuple(
            (page, model.page_gens.get(page, 0)) for page in range(first, last + 1))
        assert log.cleared == model.cleared
