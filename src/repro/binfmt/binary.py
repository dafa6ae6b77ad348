"""The linked binary image: sections + symbols + PLT map."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .section import SectionImage, Symbol, SymbolTable


@dataclass
class Binary:
    """A linked (simplified-ELF) image ready to be mapped by the loader.

    ``plt`` maps external function names to their PLT entry addresses inside
    the image; the loader binds those entries to libc natives.  Non-PIE
    semantics: all addresses here are final at link time.
    """

    name: str
    arch: str
    sections: Dict[str, SectionImage] = field(default_factory=dict)
    symbols: SymbolTable = field(default_factory=SymbolTable)
    plt: Dict[str, int] = field(default_factory=dict)
    metadata: Dict[str, str] = field(default_factory=dict)
    #: ``(libc image, {PLT address: native})``: the loader binds this
    #: image's PLT once per libc image and every later boot shares it.
    plt_natives: Optional[Tuple[object, Dict[int, object]]] = field(
        default=None, init=False, repr=False, compare=False)

    def section(self, name: str) -> SectionImage:
        try:
            return self.sections[name]
        except KeyError:
            raise KeyError(f"{self.name}: no section {name!r}") from None

    def section_at(self, address: int) -> Optional[SectionImage]:
        for section in self.sections.values():
            if section.contains(address):
                return section
        return None

    def read(self, address: int, length: int) -> bytes:
        """Read link-time contents (used by offline gadget scanning)."""
        section = self.section_at(address)
        if section is None:
            raise KeyError(f"{self.name}: {address:#010x} not in any section")
        offset = address - section.address
        return bytes(section.data[offset : offset + length])

    def find_bytes(
        self, needle: bytes, *, sections: Optional[Iterable[str]] = None
    ) -> List[int]:
        """Every address where ``needle`` occurs (ROPgadget's ``-memstr``)."""
        wanted = set(sections) if sections is not None else None
        hits: List[int] = []
        for section in self.sections.values():
            if wanted is not None and section.name not in wanted:
                continue
            start = 0
            while True:
                index = section.data.find(needle, start)
                if index < 0:
                    break
                hits.append(section.address + index)
                start = index + 1
        return sorted(hits)

    def executable_ranges(self) -> List[Tuple[int, bytes]]:
        """(base, bytes) for every executable section — the gadget corpus."""
        from ..mem import Perm

        return [
            (section.address, bytes(section.data))
            for section in self.sections.values()
            if Perm.X in section.perm and section.data
        ]

    def describe(self) -> str:
        lines = [f"{self.name} ({self.arch})"]
        for section in sorted(self.sections.values(), key=lambda s: s.address):
            lines.append(
                f"  {section.name:<10} {section.address:#010x}-{section.end:#010x} "
                f"{section.perm.describe()} {section.size:#x} bytes"
            )
        lines.append(f"  {len(self.symbols)} symbols, {len(self.plt)} PLT entries")
        return "\n".join(lines)


def relocate(binary: Binary, delta: int, new_name: Optional[str] = None) -> Binary:
    """Return a copy of ``binary`` with every address shifted by ``delta``.

    ``LoadedProcess.libc`` uses it to slide the libc image to one boot's
    (possibly ASLR randomized) base, on first read.
    """
    moved = Binary(
        name=new_name or binary.name,
        arch=binary.arch,
        metadata=dict(binary.metadata),
    )
    for name, section in binary.sections.items():
        moved.sections[name] = SectionImage(
            name=section.name,
            perm=section.perm,
            data=bytearray(section.data),
            address=(section.address + delta) & 0xFFFFFFFF,
            reserve=section.reserve,
        )
    for name, symbol in binary.symbols.items():
        moved.symbols.define(
            Symbol(
                name=symbol.name,
                address=(symbol.address + delta) & 0xFFFFFFFF,
                section=symbol.section,
                size=symbol.size,
                kind=symbol.kind,
            )
        )
    moved.plt = {name: (address + delta) & 0xFFFFFFFF for name, address in binary.plt.items()}
    return moved
