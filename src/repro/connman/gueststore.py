"""A DNS cache that lives inside the victim process's memory.

Real Connman keeps its dnsproxy cache in process memory; this backing
store puts ours into the emulated ``.bss`` (the ``dns_cache_storage``
reservation in the binary), so cached entries are inspectable with the
debugger, vanish with the process on crash/restart, and are — like
everything else in the image — potential raw material for exploitation.
CVE-2017-12865 lives in the code that expands a compressed name *in order
to cache* an A/AAAA reply, so the cache is part of the faithful model.

Entry wire format, packed sequentially from the region start::

    u8  name_length        (0 terminates the table)
    u8  name[name_length]
    u8  address[4]         (IPv4)
    u32 expiry             (simulated-clock seconds)

Every lookup reads the table as it stands in guest memory, because the
exploit and the debugger may rewrite it between any two calls; nothing is
kept that a write can make stale.  A walk is one guest read of the whole
region, parsed eagerly on the host: every record is collected and indexed
by its raw name bytes before a lookup answers, so only a hit's address
and expiry are decoded.  The parsed table is memoized under the address
space's ``mapping_epoch`` and the write generations of the region's pages,
which every guest or host write bumps, so any write into the region makes
the next lookup walk again; ``put`` extends the memo with the record it
appended when nothing else wrote in between.  A record whose (possibly
corrupted) length byte runs past the region end reads its body from the
guest, so the walk faults exactly where a field-by-field walk would; such
a walk depends on bytes outside the region and is never memoized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..cpu import Process
from ..obs.taint import NO_LABELS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import Collector

ENTRY_OVERHEAD = 1 + 4 + 4
MAX_NAME = 255


def _encoded(name: str) -> Optional[bytes]:
    """``name`` as table bytes; None (matches nothing) outside latin-1."""
    try:
        return name.encode("latin-1")
    except UnicodeEncodeError:
        return None


def _address(tail: bytes) -> str:
    return ".".join(str(byte) for byte in tail[:4])


def _expiry(tail: bytes) -> int:
    return int.from_bytes(tail[4:], "little")


#: (guest address, name bytes, address + expiry bytes) of one table slot.
Record = Tuple[int, bytes, bytes]


class _Table:
    """A parsed table and the write stamp of the bytes it was parsed from."""

    __slots__ = ("stamp", "records", "by_name")

    def __init__(self, stamp: tuple, records: List[Record]):
        self.stamp = stamp
        self.records = records
        #: name -> its records, in table order.
        self.by_name: Dict[bytes, List[Record]] = {}
        for record in records:
            self.by_name.setdefault(record[1], []).append(record)

    def append(self, record: Record) -> None:
        self.records.append(record)
        self.by_name.setdefault(record[1], []).append(record)


class GuestBackedDnsCache:
    """Name -> IPv4 cache with simulated-clock TTL expiry, stored in a
    region of the emulated address space."""

    def __init__(self, process: Process, base: int, size: int,
                 observer: Optional["Collector"] = None):
        self.process = process
        self.base = base
        self.size = size
        self.observer = observer
        self._clock = 0
        self._table: Optional[_Table] = None
        self.clear()

    def _note(self, kind: str, name: str = "") -> None:
        if self.observer is not None:
            self.observer.emit("cache", f"cache.{kind}", name=name)
            self.observer.inc(f"cache.{kind}")

    # -- clock -------------------------------------------------------------

    def advance(self, seconds: float) -> None:
        self._clock += int(seconds)

    # -- raw table walking ----------------------------------------------------

    def _stamp(self) -> tuple:
        """What a write into the region (or a remap) changes."""
        memory = self.process.memory
        return (memory.mapping_epoch, memory.page_generation_span(self.base, self.size))

    def _parsed(self) -> _Table:
        """The table as it stands in guest memory, walked only when a write
        may have changed it since the last walk."""
        stamp = self._stamp()
        table = self._table
        if table is not None and table.stamp == stamp:
            return table
        memory = self.process.memory
        raw = memory.read(self.base, self.size)
        records = []
        inside = True
        offset = 0
        while offset < self.size:
            name_length = raw[offset]
            if name_length == 0:
                break
            end = offset + ENTRY_OVERHEAD + name_length
            if end <= self.size:
                body = raw[offset + 1:end]
            else:
                # The length byte runs past the region: read the record's
                # body from the guest, so it faults where the guest would.
                body = memory.read(self.base + offset + 1, end - offset - 1)
                inside = False
            records.append((self.base + offset, body[:name_length], body[name_length:]))
            offset = end
        table = _Table(stamp, records)
        # Bytes past the region carry no stamp of ours: never keep such a walk.
        self._table = table if inside else None
        return table

    def _records(self) -> List[Record]:
        """(offset, name, address + expiry bytes) for every table slot."""
        return self._parsed().records

    def _append_offset(self) -> int:
        records = self._records()
        if not records:
            return self.base
        offset, name, _tail = records[-1]
        return offset + ENTRY_OVERHEAD + len(name)

    # -- cache interface ------------------------------------------------------------

    def put(self, name: str, address: str, ttl: int = 300) -> bool:
        """Store one entry; returns False when it cannot be stored.

        A name outside latin-1 has no table bytes, so it is not stored
        (``get`` treats it as a miss).  The guest table is IPv4-only
        (4-byte address field); AAAA results pass through the proxy but
        are not cached here.
        """
        if len(name) > MAX_NAME:
            return False
        parts = address.split(".")
        if len(parts) != 4 or not all(part.isdigit() and int(part) <= 255 for part in parts):
            return False
        encoded = _encoded(name.lower())
        if encoded is None:
            return False
        record_size = ENTRY_OVERHEAD + len(encoded)
        cursor = self._append_offset()
        if cursor + record_size + 1 > self.base + self.size:
            # Full: expired entries die first (they are dead weight the
            # table is still carrying); only when compaction cannot make
            # room does the connman-style wholesale flush happen.
            cursor = self._compact_expired()
            if cursor + record_size + 1 > self.base + self.size:
                self.clear()
                self._note("flush")
                cursor = self.base
        taint = self.process.taint
        labels = taint.derived_labels(name) if taint is not None else None
        if labels is not None and len(labels) == len(encoded):
            # The cached name came back out of (possibly tainted) stack
            # memory; its per-character provenance follows it into .bss.
            # The length, address, expiry and terminator bytes carry none.
            labels = (NO_LABELS,) + labels + (NO_LABELS,) * 9
        else:
            labels = None
        tail = (bytes(int(part) for part in parts)
                + ((self._clock + ttl) & 0xFFFFFFFF).to_bytes(4, "little"))
        memory = self.process.memory
        stamp = self._stamp()
        # The record and the table terminator after it, in one write.
        memory.write(cursor, bytes([len(encoded)]) + encoded + tail + b"\x00", taint=labels)
        table = self._table
        if table is not None and table.stamp == stamp:
            # The memo ended at ``cursor`` and nothing else has written the
            # region since; a 0-length name is itself a terminator.
            if encoded:
                table.append((cursor, encoded, tail))
            table.stamp = self._stamp()
        self._note("put", name.lower())
        return True

    def _compact_expired(self) -> int:
        """Rewrite the table keeping only live entries; returns the new
        append offset."""
        records = self._records()
        live = [(name, tail) for _offset, name, tail in records
                if _expiry(tail) > self._clock]
        evicted = len(records) - len(live)
        memory = self.process.memory
        cursor = self.base
        for name, tail in live:
            memory.write(cursor, bytes([len(name)]) + name + tail)
            cursor += ENTRY_OVERHEAD + len(name)
        memory.write_u8(cursor, 0)
        self._table = None
        if evicted and self.observer is not None:
            self.observer.emit("cache", "cache.evict", expired=evicted)
            self.observer.inc("cache.evict", evicted)
        return cursor

    def get(self, name: str) -> Optional[str]:
        wanted = name.lower()
        for _offset, _name, tail in self._parsed().by_name.get(_encoded(wanted), ()):
            if _expiry(tail) > self._clock:
                self._note("hit", wanted)
                return _address(tail)
        self._note("miss", wanted)
        return None

    def get_stale(self, name: str) -> Optional[str]:
        """Serve-stale lookup: ignore expiry (the entry still lives in .bss
        until the table is flushed or the process restarts)."""
        wanted = name.lower()
        for _offset, _name, tail in self._parsed().by_name.get(_encoded(wanted), ()):
            self._note("stale", wanted)
            return _address(tail)
        return None

    def clear(self) -> None:
        self.process.memory.write_u8(self.base, 0)
        self._table = _Table(self._stamp(), [])

    def __len__(self) -> int:
        return sum(1 for _offset, _name, tail in self._records()
                   if _expiry(tail) > self._clock)

    def dump(self) -> str:
        """Debugger view of the guest-resident table."""
        lines = [f"dns cache @ {self.base:#010x} ({self.size:#x} bytes):"]
        for offset, name, tail in self._records():
            state = "live" if _expiry(tail) > self._clock else "expired"
            lines.append(f"  +{offset - self.base:#06x} {name.decode('latin-1')} "
                         f"-> {_address(tail)} [{state}]")
        return "\n".join(lines)
