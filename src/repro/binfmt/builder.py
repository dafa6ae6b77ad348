"""Two-phase builder for simplified binaries.

Phase 1 (:class:`BinaryBuilder`): append bytes to sections, define symbols
at the current cursor, reserve .bss space.  Addresses are absolute from the
start — the builder is seeded with a link base and lays sections out in a
fixed order — so code factories can reference earlier symbols directly and
back-patch forward references with :meth:`patch_u32`.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from ..mem import Perm, page_align_up
from .binary import Binary
from .section import SectionImage, Symbol

#: Canonical section order and permissions for our images.
SECTION_PLAN: List[Tuple[str, Perm]] = [
    (".text", Perm.RX),
    (".plt", Perm.RX),
    (".rodata", Perm.R),
    (".data", Perm.RW),
    (".bss", Perm.RW),
]


class BinaryBuilder:
    """Accumulates section contents and symbols, then links a :class:`Binary`."""

    def __init__(self, name: str, arch: str, link_base: int):
        self.name = name
        self.arch = arch
        self.link_base = link_base
        self._sections: Dict[str, SectionImage] = {}
        self._symbols: List[Symbol] = []
        self._plt: Dict[str, int] = {}
        self._linked = False
        # Pre-assign addresses so emitted code can use absolute references.
        cursor = link_base
        for section_name, perm in SECTION_PLAN:
            section = SectionImage(name=section_name, perm=perm, address=cursor)
            self._sections[section_name] = section
            # Reserve a page-aligned budget per section; actual size is set
            # at link time but must stay within the budget.
            cursor = page_align_up(cursor + self.budget_for(section_name))

    #: Per-section address budget (generous; enforced at link).
    BUDGETS = {".text": 0x8000, ".plt": 0x1000, ".rodata": 0x2000, ".data": 0x1000, ".bss": 0x4000}

    @classmethod
    def budget_for(cls, section_name: str) -> int:
        return cls.BUDGETS[section_name]

    def section(self, name: str) -> SectionImage:
        return self._sections[name]

    def cursor(self, section_name: str) -> int:
        """Current append address in a section."""
        section = self._sections[section_name]
        return section.address + len(section.data)

    def append(self, section_name: str, data: bytes) -> int:
        """Append bytes; returns the address they were placed at."""
        section = self._sections[section_name]
        address = section.address + len(section.data)
        section.data += data
        if len(section.data) > self.budget_for(section_name):
            raise ValueError(
                f"{self.name}: section {section_name} exceeded its "
                f"{self.budget_for(section_name):#x}-byte budget"
            )
        return address

    def align(self, section_name: str, alignment: int, fill: bytes = b"\x00") -> int:
        section = self._sections[section_name]
        while (section.address + len(section.data)) % alignment:
            section.data += fill
        return self.cursor(section_name)

    def define(self, name: str, section_name: str, address: Optional[int] = None,
               size: int = 0, kind: str = "func") -> Symbol:
        symbol = Symbol(
            name=name,
            address=self.cursor(section_name) if address is None else address,
            section=section_name,
            size=size,
            kind=kind,
        )
        self._symbols.append(symbol)
        return symbol

    def add_function(self, name: str, section_name: str, code: bytes) -> Symbol:
        """Append code and define a sized function symbol over it."""
        address = self.append(section_name, code)
        return self.define(name, section_name, address=address, size=len(code))

    def add_string(self, name: str, text: bytes, section_name: str = ".rodata") -> Symbol:
        address = self.append(section_name, text + b"\x00")
        return self.define(name, section_name, address=address, size=len(text) + 1, kind="object")

    def reserve_bss(self, name: str, size: int) -> Symbol:
        """Reserve zero-initialized space and define a symbol at its start."""
        section = self._sections[".bss"]
        address = section.address + section.reserve
        section.reserve += size
        if section.reserve > self.budget_for(".bss"):
            raise ValueError(f"{self.name}: .bss exceeded its budget")
        symbol = Symbol(name=name, address=address, section=".bss", size=size, kind="object")
        self._symbols.append(symbol)
        return symbol

    def add_plt_entry(self, external_name: str, stub: bytes) -> int:
        """Append a PLT stub and record the entry address for the loader."""
        address = self.append(".plt", stub)
        self._plt[external_name] = address
        self.define(f"{external_name}@plt", ".plt", address=address, size=len(stub))
        return address

    def patch_u32(self, address: int, value: int) -> None:
        """Back-patch a 32-bit little-endian word at an absolute address."""
        for section in self._sections.values():
            if section.address <= address < section.address + len(section.data):
                offset = address - section.address
                section.data[offset : offset + 4] = struct.pack("<I", value & 0xFFFFFFFF)
                return
        raise ValueError(f"patch target {address:#010x} not inside emitted data")

    def link(self, **metadata: str) -> Binary:
        """Finalize into a :class:`Binary` whose section contents are frozen.

        Every section's ``data`` becomes ``bytes``, so a linked image can be
        shared read-only: the loader copies it into fresh segments, and an
        in-place write to it raises ``TypeError``.
        """
        if self._linked:
            raise RuntimeError("builder already linked")
        self._linked = True
        binary = Binary(name=self.name, arch=self.arch, metadata=dict(metadata))
        for section in self._sections.values():
            if section.data or section.reserve:
                section.data = bytes(section.data)
                binary.sections[section.name] = section
        for symbol in self._symbols:
            binary.symbols.define(symbol)
        binary.plt = dict(self._plt)
        return binary
