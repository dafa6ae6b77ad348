"""A contiguous mapped region of the simulated address space."""

from __future__ import annotations

from functools import lru_cache

from .errors import AccessViolation, WxViolation
from .perms import Perm

#: ``Perm`` -> ``(readable, writable, executable)``, one entry per flag set.
_ACCESS = {perm: (Perm.R in perm, Perm.W in perm, Perm.X in perm)
           for perm in map(Perm, range(8))}


@lru_cache(maxsize=32)
def _zero_block(size: int) -> bytes:
    """``size`` zero bytes, shared by every segment of that size that
    nothing has written yet (a boot maps the same few sizes every time)."""
    return bytes(size)


class Segment:
    """A named, permissioned, contiguous byte range.

    Mirrors one line of ``/proc/<pid>/maps``: a base address, a size, R/W/X
    permissions and backing bytes.  All accesses are bounds-checked by the
    owning :class:`~repro.mem.space.AddressSpace`; the segment enforces only
    permissions.

    ``data`` gives the initial contents, zero-padded to ``size``.  Until
    its first write a segment holds immutable ``bytes``: frozen ``bytes``
    that fill it exactly are borrowed (every boot of one image shares its
    text), and a segment given no contents (``.bss``, stack, heap, guard
    page) borrows the shared zero block of its size.  The first write
    copies them into the segment's own ``bytearray``, after the permission
    check, so a faulting write (a checked write to text or a guard page)
    copies nothing.  The owning address space bumps page generations and
    taint before the segment is asked to write.
    """

    def __init__(self, name: str, base: int, size: int, perm: Perm, data: bytes = b""):
        if size <= 0:
            raise ValueError(f"segment {name!r} must have positive size, got {size}")
        if base < 0 or base + size > 2**32:
            raise ValueError(
                f"segment {name!r} [{base:#x}, {base + size:#x}) outside 32-bit space"
            )
        if len(data) > size:
            raise ValueError(
                f"segment {name!r} holds {size:#x} bytes, not {len(data):#x}")
        self.name = name
        self.base = base
        self.size = size
        #: One past the last mapped address.
        self.end = base + size
        self.perm = perm
        # A mapping's geometry and permissions never change, so the per-access
        # checks read plain booleans rather than testing ``perm`` flags.
        self.readable, self.writable, self.executable = _ACCESS[perm]
        self.data = bytes(data).ljust(size, b"\x00") if data else _zero_block(size)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def overlaps(self, other: "Segment") -> bool:
        return self.base < other.end and other.base < self.end

    # -- raw access (permission-checked) ------------------------------------
    # ``start``/``stop`` are offsets into ``data``; the owning address space
    # has already bounds-checked them.

    def read(self, start: int, stop: int, *, check: bool = True) -> bytes:
        if check and not self.readable:
            raise AccessViolation(self.base + start, "R",
                                  f"read from non-readable segment {self.name!r}")
        return bytes(self.data[start:stop])

    def write(self, start: int, payload: bytes, *, check: bool = True) -> None:
        if check and not self.writable:
            raise AccessViolation(self.base + start, "W",
                                  f"write to non-writable segment {self.name!r}")
        data = self.data
        if type(data) is bytes:
            data = self.data = bytearray(data)  # stop sharing the borrowed bytes
        data[start : start + len(payload)] = payload

    def fetch(self, start: int, stop: int) -> bytes:
        """Instruction fetch — requires X, raising :class:`WxViolation` otherwise."""
        if not self.executable:
            raise WxViolation(self.base + start,
                              f"fetch from non-executable segment {self.name!r}")
        return bytes(self.data[start:stop])

    def describe(self) -> str:
        return f"{self.base:08x}-{self.end:08x} {self.perm.describe()} {self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Segment({self.describe()})"
