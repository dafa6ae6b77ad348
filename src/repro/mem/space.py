"""The simulated 32-bit address space of a victim process."""

from __future__ import annotations

import struct
from bisect import bisect_right
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import UnmappedAddressError
from .perms import Perm
from .segment import Segment

ADDRESS_MASK = 0xFFFFFFFF

#: log2(PAGE_SIZE); page indices key the write-generation table consumed by
#: the guest DNS cache (:mod:`repro.connman.gueststore`).
PAGE_SHIFT = 12

_BASE = attrgetter("base")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class AddressSpace:
    """A flat 32-bit address space built from non-overlapping segments.

    This is the single source of truth for process memory: the Connman
    simulation writes its stack frames here, the CPU emulators fetch
    instructions from here, and libc stubs (``memcpy``) copy bytes here.
    Accesses that cross segment boundaries or touch unmapped addresses fault
    exactly like the real process would.
    """

    def __init__(self) -> None:
        #: Segments sorted by base.
        self._segments: List[Segment] = []
        #: Sorted segment bases, kept in lockstep with ``_segments`` for
        #: bisect-based resolution.
        self._bases: List[int] = []
        #: Bumped on every map/unmap.  Consumers holding derived state (the
        #: guest DNS cache's parsed table) treat an epoch change as a flush.
        self.mapping_epoch = 0
        #: page index -> write generation; bumped by :meth:`write` so state
        #: parsed from guest bytes (the guest DNS cache's table) is
        #: detected as stale and rebuilt.
        self._page_gens: Dict[int, int] = {}
        #: Optional :class:`~repro.obs.taint.ShadowMemory` attached by a
        #: taint engine.  When set, every :meth:`write` updates the shadow:
        #: the ``taint=`` per-byte labels when given, a *clear* of the
        #: covered range otherwise (untainted data scrubs stale labels).
        self.taint = None

    def _mappings_changed(self) -> None:
        self._bases = [seg.base for seg in self._segments]
        self.mapping_epoch += 1

    # -- mapping -------------------------------------------------------------

    def map(self, *segments: Segment) -> None:
        """Map segments in one step, refusing overlaps.

        One sort and one ``mapping_epoch`` bump however many segments come.
        On an overlap nothing is mapped, and the error names the pair that
        mapping the segments one at a time, in order, would have hit first.
        """
        placed = sorted((*self._segments, *segments), key=_BASE)
        for low, high in zip(placed, placed[1:]):
            if high.base < low.end:
                self._refuse_overlap(segments)
        self._segments = placed
        self._mappings_changed()

    def _refuse_overlap(self, segments: Tuple[Segment, ...]) -> None:
        placed = list(self._segments)
        for segment in segments:
            for existing in sorted(placed, key=_BASE):
                if existing.overlaps(segment):
                    raise ValueError(
                        f"segment {segment.name!r} overlaps {existing.name!r} "
                        f"({existing.describe()})"
                    )
            placed.append(segment)

    def map_new(self, name: str, base: int, size: int, perm: Perm) -> Segment:
        """Create and map a segment in one call."""
        segment = Segment(name, base, size, perm)
        self.map(segment)
        return segment

    def unmap(self, name: str) -> None:
        """Unmap the segment named ``name``.

        Raises :class:`KeyError` when no segment matches, and refuses to
        guess when several segments share the name — callers that mapped
        duplicates must unmap by a disambiguated handle, not silently lose
        every mapping at once.
        """
        matches = [seg for seg in self._segments if seg.name == name]
        if not matches:
            raise KeyError(f"no segment named {name!r}")
        if len(matches) > 1:
            spans = ", ".join(seg.describe() for seg in matches)
            raise ValueError(
                f"segment name {name!r} is ambiguous ({len(matches)} mappings: {spans})"
            )
        self._segments.remove(matches[0])
        self._mappings_changed()

    def segments(self) -> Iterator[Segment]:
        return iter(self._segments)

    def segment(self, name: str) -> Segment:
        for seg in self._segments:
            if seg.name == name:
                return seg
        raise KeyError(f"no segment named {name!r}")

    def has_segment(self, name: str) -> bool:
        return any(seg.name == name for seg in self._segments)

    def segment_at(self, address: int) -> Segment:
        """Return the segment covering ``address`` or fault (a bisect over the bases)."""
        index = bisect_right(self._bases, address) - 1
        if index >= 0:
            seg = self._segments[index]
            if address < seg.end:
                return seg
        raise UnmappedAddressError(address & ADDRESS_MASK)

    def contiguous_span(self, address: int, limit: int) -> int:
        """Mapped bytes reachable from ``address`` without a gap, capped at ``limit``.

        Instruction fetches use this to size their decode window: an
        instruction may straddle two *adjacent* segments (e.g. two
        back-to-back executable mappings) but must never read across a hole.
        Faults when ``address`` itself is unmapped.
        """
        address &= ADDRESS_MASK
        index = bisect_right(self._bases, address) - 1
        if limit > 0 and index >= 0 and address + limit <= self._segments[index].end:
            return limit
        try:
            self._spans(address, max(limit, 1))
        except UnmappedAddressError as gap:
            if gap.address == address:
                raise
            return (gap.address - address) & ADDRESS_MASK
        return limit

    def page_generation_span(self, address: int, length: int) -> Tuple[Tuple[int, int], ...]:
        """Snapshot ``(page, generation)`` for every page a byte range spans.

        The validation stamp used by the guest DNS cache: cheap (one dict
        probe per page, no segment resolution) and taken over the exact
        bytes its parsed table was derived from.
        """
        if length <= 0:
            length = 1
        page_gens = self._page_gens
        first = address >> PAGE_SHIFT
        last = (address + length - 1) >> PAGE_SHIFT
        if first == last:
            return ((first, page_gens.get(first, 0)),)
        return tuple((page, page_gens.get(page, 0)) for page in range(first, last + 1))

    def _note_write(self, address: int, length: int) -> None:
        """Bump the write generation of every page the write touched."""
        if length <= 0:
            return
        page_gens = self._page_gens
        for page in range(address >> PAGE_SHIFT, ((address + length - 1) >> PAGE_SHIFT) + 1):
            page_gens[page] = page_gens.get(page, 0) + 1

    def is_mapped(self, address: int, length: int = 1) -> bool:
        """True if the whole ``[address, address+length)`` range is mapped."""
        try:
            self._spans(address & ADDRESS_MASK, length)
        except UnmappedAddressError:
            return False
        return True

    def _spans(self, address: int, length: int) -> List[Tuple[Segment, int, int]]:
        """``(segment, start, stop)`` data offsets covering a masked range.

        The one walk across segment boundaries, behind every access that
        does not lie inside one segment: it faults on the first gap
        (a range running past 2**32 faults at address 0) before the caller
        touches any byte.
        """
        spans = []
        end = address + length
        while address < end:
            seg = self.segment_at(address)
            if end <= seg.end:
                spans.append((seg, address - seg.base, end - seg.base))
                break
            spans.append((seg, address - seg.base, seg.size))
            address = seg.end
        return spans

    # -- byte access ----------------------------------------------------------
    # ``read``, ``write``, ``fetch_window`` and ``fetch`` bisect once: a
    # non-empty range that ends inside the segment it starts in is served by
    # that segment.  Any other range (one leaving the segment, starting in a
    # gap, or empty) goes through ``_spans``, the only walk across segment
    # boundaries.

    def read(self, address: int, length: int, *, check: bool = True) -> bytes:
        """Read bytes, spanning segment boundaries if mappings are contiguous."""
        address &= ADDRESS_MASK
        index = bisect_right(self._bases, address) - 1
        if index >= 0 and length > 0:
            seg = self._segments[index]
            if address + length <= seg.end:
                start = address - seg.base
                return seg.read(start, start + length, check=check)
        return b"".join([seg.read(start, stop, check=check) for seg, start, stop
                         in self._spans(address, length)])

    def write(self, address: int, payload: bytes, *, check: bool = True,
              taint=None) -> None:
        """Write bytes, spanning contiguous segments; faults on gaps/permissions.

        ``taint`` is an optional per-byte label sequence (one label set per
        payload byte) consumed by an attached shadow map; when omitted the
        write clears any shadow labels it covers.
        """
        address &= ADDRESS_MASK
        length = len(payload)
        index = bisect_right(self._bases, address) - 1
        seg = self._segments[index] if index >= 0 else None
        if length > 0 and seg is not None and address + length <= seg.end:
            spans = None
            page = address >> PAGE_SHIFT
            if page == (address + length - 1) >> PAGE_SHIFT:
                page_gens = self._page_gens
                page_gens[page] = page_gens.get(page, 0) + 1
            else:
                self._note_write(address, length)
        else:
            spans = self._spans(address, length)
            # Bump generations before writing: a permission fault mid-span
            # may leave earlier segments modified, and a spurious
            # invalidation is harmless while a missed one would serve a
            # stale parse.
            self._note_write(address, length)
        if self.taint is not None:
            # Same ordering rationale as the generation bump above: a
            # spurious label after a mid-span fault is harmless over-taint,
            # a missed one would hide real attacker data flow.
            if taint is None:
                self.taint.clear_range(address, length)
            else:
                if len(taint) != length:
                    raise ValueError(
                        f"taint labels cover {len(taint)} bytes but the "
                        f"write covers {length}")
                self.taint.set_range(address, taint)
        if spans is None:
            seg.write(address - seg.base, payload, check=check)
            return
        offset = 0
        for seg, start, stop in spans:
            seg.write(start, payload[offset : offset + stop - start], check=check)
            offset += stop - start

    def fetch_window(self, address: int, limit: int) -> bytes:
        """Instruction fetch of up to ``limit`` bytes, stopping at a mapping gap.

        ``fetch(address, contiguous_span(address, limit))`` in one bisect
        when the window lies inside one segment; any other window takes
        exactly that path, so faults and their addresses are the same.
        """
        address &= ADDRESS_MASK
        index = bisect_right(self._bases, address) - 1
        if index >= 0 and limit > 0:
            seg = self._segments[index]
            if address + limit <= seg.end:
                start = address - seg.base
                return seg.fetch(start, start + limit)
        return self.fetch(address, self.contiguous_span(address, limit))

    def fetch(self, address: int, length: int) -> bytes:
        """Instruction fetch (X-checked) — the W^X enforcement point."""
        address &= ADDRESS_MASK
        index = bisect_right(self._bases, address) - 1
        if index >= 0 and length > 0:
            seg = self._segments[index]
            if address + length <= seg.end:
                start = address - seg.base
                return seg.fetch(start, start + length)
        return b"".join([seg.fetch(start, stop) for seg, start, stop
                         in self._spans(address, length)])

    # -- typed helpers ---------------------------------------------------------

    def read_u8(self, address: int) -> int:
        return self.read(address, 1)[0]

    def read_u16(self, address: int) -> int:
        return _U16.unpack(self.read(address, 2))[0]

    def read_u32(self, address: int) -> int:
        return _U32.unpack(self.read(address, 4))[0]

    def write_u8(self, address: int, value: int, *, taint=None) -> None:
        self.write(address, bytes([value & 0xFF]), taint=taint)

    def write_u16(self, address: int, value: int, *, taint=None) -> None:
        self.write(address, _U16.pack(value & 0xFFFF), taint=taint)

    def write_u32(self, address: int, value: int, *, taint=None) -> None:
        self.write(address, _U32.pack(value & ADDRESS_MASK), taint=taint)

    def read_cstring(self, address: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated string (used by execve/system stubs)."""
        out = bytearray()
        cursor = address
        while len(out) < limit:
            byte = self.read_u8(cursor)
            if byte == 0:
                return bytes(out)
            out.append(byte)
            cursor += 1
        return bytes(out)

    def write_cstring(self, address: int, value: bytes) -> None:
        self.write(address, value + b"\x00")

    # -- search / introspection -------------------------------------------------

    def find(self, needle: bytes, *, segment_names: Optional[Iterable[str]] = None) -> List[int]:
        """Find every occurrence of ``needle`` (the ``-memstr`` primitive)."""
        wanted = set(segment_names) if segment_names is not None else None
        hits: List[int] = []
        for seg in self._segments:
            if wanted is not None and seg.name not in wanted:
                continue
            start = 0
            while True:
                index = seg.data.find(needle, start)
                if index < 0:
                    break
                hits.append(seg.base + index)
                start = index + 1
        return hits

    def maps(self) -> str:
        """Render the mapping table like ``/proc/<pid>/maps``."""
        return "\n".join(seg.describe() for seg in self._segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AddressSpace({len(self._segments)} segments)"
