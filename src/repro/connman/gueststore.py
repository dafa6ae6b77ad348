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

Every lookup walks the table as it stands in guest memory, because the
exploit and the debugger may rewrite it between any two calls; nothing
about it is kept on the host.  A walk is one guest read of the whole
region, parsed eagerly on the host: every record is collected before a
lookup answers, and names are matched as raw bytes, so only a hit's
address and expiry are decoded.  A record whose (possibly corrupted)
length byte runs past the region end reads its body from the guest, so
the walk faults exactly where a field-by-field walk would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..cpu import Process

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
        self.clear()

    def _note(self, kind: str, name: str = "") -> None:
        if self.observer is not None:
            self.observer.emit("cache", f"cache.{kind}", name=name)
            self.observer.inc(f"cache.{kind}")

    # -- clock -------------------------------------------------------------

    def advance(self, seconds: float) -> None:
        self._clock += int(seconds)

    # -- raw table walking ----------------------------------------------------

    def _records(self) -> List[Tuple[int, bytes, bytes]]:
        """(offset, name, address + expiry bytes) for every table slot."""
        memory = self.process.memory
        table = memory.read(self.base, self.size)
        records = []
        offset = 0
        while offset < self.size:
            name_length = table[offset]
            if name_length == 0:
                break
            end = offset + ENTRY_OVERHEAD + name_length
            if end <= self.size:
                body = table[offset + 1:end]
            else:
                # The length byte runs past the region: read the record's
                # body from the guest, so it faults where the guest would.
                body = memory.read(self.base + offset + 1, end - offset - 1)
            records.append((self.base + offset, body[:name_length], body[name_length:]))
            offset = end
        return records

    def _append_offset(self) -> int:
        records = self._records()
        if not records:
            return self.base
        offset, name, _tail = records[-1]
        return offset + ENTRY_OVERHEAD + len(name)

    # -- cache interface ------------------------------------------------------------

    def put(self, name: str, address: str, ttl: int = 300) -> bool:
        """Store one entry; returns False when it cannot be stored.

        The guest table is IPv4-only (4-byte address field); AAAA results
        pass through the proxy but are not cached here.
        """
        if len(name) > MAX_NAME:
            return False
        parts = address.split(".")
        if len(parts) != 4 or not all(part.isdigit() and int(part) <= 255 for part in parts):
            return False
        encoded = name.lower().encode("latin-1")
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
        memory = self.process.memory
        taint = self.process.taint
        labels = taint.derived_labels(name) if taint is not None else None
        memory.write_u8(cursor, len(encoded))
        if labels is not None and len(labels) == len(encoded):
            # The cached name came back out of (possibly tainted) stack
            # memory; its per-character provenance follows it into .bss.
            memory.write(cursor + 1, encoded, taint=labels)
        else:
            memory.write(cursor + 1, encoded)
        memory.write(cursor + 1 + len(encoded),
                     bytes(int(part) for part in address.split(".")))
        memory.write_u32(cursor + 1 + len(encoded) + 4, self._clock + ttl)
        memory.write_u8(cursor + record_size, 0)  # table terminator
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
        if evicted and self.observer is not None:
            self.observer.emit("cache", "cache.evict", expired=evicted)
            self.observer.inc("cache.evict", evicted)
        return cursor

    def get(self, name: str) -> Optional[str]:
        wanted = name.lower()
        key = _encoded(wanted)
        for _offset, entry_name, tail in self._records():
            if entry_name == key and _expiry(tail) > self._clock:
                self._note("hit", wanted)
                return _address(tail)
        self._note("miss", wanted)
        return None

    def get_stale(self, name: str) -> Optional[str]:
        """Serve-stale lookup: ignore expiry (the entry still lives in .bss
        until the table is flushed or the process restarts)."""
        wanted = name.lower()
        key = _encoded(wanted)
        for _offset, entry_name, tail in self._records():
            if entry_name == key:
                self._note("stale", wanted)
                return _address(tail)
        return None

    def clear(self) -> None:
        self.process.memory.write_u8(self.base, 0)

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
