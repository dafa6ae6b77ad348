"""Sections and symbols of a simplified (ELF-like) binary image."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..mem import Perm


@dataclass
class SectionImage:
    """One section: name, permissions, contents (or reserved size for .bss).

    ``data`` is a ``bytearray`` while a builder appends to it and frozen
    ``bytes`` once the image is linked.
    """

    name: str
    perm: Perm
    data: Union[bytearray, bytes] = field(default_factory=bytearray)
    #: Link-time virtual address (assigned by the builder's layout pass).
    address: int = 0
    #: For NOBITS sections (.bss): reserved size with no file contents.
    reserve: int = 0

    @property
    def size(self) -> int:
        return self.reserve if self.reserve else len(self.data)

    @property
    def end(self) -> int:
        return self.address + self.size

    def contains(self, address: int) -> bool:
        return self.address <= address < self.end


@dataclass(frozen=True)
class Symbol:
    """A named address, optionally sized (function or object)."""

    name: str
    address: int
    section: str
    size: int = 0
    kind: str = "func"  # "func" | "object" | "label"


class SymbolTable:
    """Name -> :class:`Symbol` with reverse lookup for the debugger."""

    def __init__(self) -> None:
        self._by_name: Dict[str, Symbol] = {}

    def define(self, symbol: Symbol) -> Symbol:
        if symbol.name in self._by_name:
            raise ValueError(f"duplicate symbol {symbol.name!r}")
        self._by_name[symbol.name] = symbol
        return symbol

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"undefined symbol {name!r}") from None

    def get(self, name: str) -> Optional[Symbol]:
        return self._by_name.get(name)

    def address_of(self, name: str) -> int:
        return self[name].address

    def resolve(self, address: int) -> Optional[Symbol]:
        """Best (closest preceding, in-range) symbol for an address."""
        best: Optional[Symbol] = None
        for symbol in self._by_name.values():
            if symbol.address <= address and (symbol.size == 0 or address < symbol.address + symbol.size):
                if best is None or symbol.address > best.address:
                    best = symbol
        return best

    def names(self):
        return sorted(self._by_name)

    def items(self):
        return self._by_name.items()

    def __len__(self) -> int:
        return len(self._by_name)
