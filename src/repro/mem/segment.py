"""A contiguous mapped region of the simulated address space."""

from __future__ import annotations

from .errors import AccessViolation, WxViolation
from .perms import Perm

#: ``Perm`` -> ``(readable, writable, executable)``, one entry per flag set.
_ACCESS = {perm: (Perm.R in perm, Perm.W in perm, Perm.X in perm)
           for perm in map(Perm, range(8))}


class Segment:
    """A named, permissioned, contiguous byte range.

    Mirrors one line of ``/proc/<pid>/maps``: a base address, a size, R/W/X
    permissions and backing bytes.  All accesses are bounds-checked by the
    owning :class:`~repro.mem.space.AddressSpace`; the segment enforces only
    permissions.

    ``data`` gives the initial contents, zero-padded to ``size``.  A
    non-writable segment whose frozen ``bytes`` fill it exactly borrows
    them: every boot of one image shares its text.  The first
    ``check=False`` write (a debugger, a test) copies them into the
    segment's own ``bytearray``; a checked write faults before touching
    them.  Writable segments always own a fresh ``bytearray``.
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
        if not self.writable and len(data) == size and type(data) is bytes:
            self.data = data
        else:
            self.data = bytearray(size)
            self.data[: len(data)] = data

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
        if not self.writable:
            if check:
                raise AccessViolation(self.base + start, "W",
                                      f"write to non-writable segment {self.name!r}")
            if type(self.data) is bytes:
                self.data = bytearray(self.data)  # stop sharing the image's bytes
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
