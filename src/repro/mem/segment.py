"""A contiguous mapped region of the simulated address space."""

from __future__ import annotations

from .errors import AccessViolation, WxViolation
from .perms import Perm


class Segment:
    """A named, permissioned, contiguous byte range.

    Mirrors one line of ``/proc/<pid>/maps``: a base address, a size, R/W/X
    permissions and backing bytes.  All accesses are bounds-checked by the
    owning :class:`~repro.mem.space.AddressSpace`; the segment enforces only
    permissions.
    """

    def __init__(self, name: str, base: int, size: int, perm: Perm):
        if size <= 0:
            raise ValueError(f"segment {name!r} must have positive size, got {size}")
        if base < 0 or base + size > 2**32:
            raise ValueError(
                f"segment {name!r} [{base:#x}, {base + size:#x}) outside 32-bit space"
            )
        self.name = name
        self.base = base
        self.size = size
        #: One past the last mapped address.
        self.end = base + size
        self.perm = perm
        # A mapping's geometry and permissions never change, so the per-access
        # checks read plain booleans rather than testing ``perm`` flags.
        self.readable = Perm.R in perm
        self.writable = Perm.W in perm
        self.executable = Perm.X in perm
        self.data = bytearray(size)

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
        self.data[start : start + len(payload)] = payload

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
