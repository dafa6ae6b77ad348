"""Fault model for the simulated 32-bit address space.

Every fault a real process can take on the paper's targets is represented by
an exception type here, so exploit outcomes are *observed* (a bad gadget
address raises :class:`SegmentationFault` during emulation) rather than
asserted by the exploit code.
"""

from __future__ import annotations


class MemoryFault(Exception):
    """Base class for all memory-system faults."""

    #: POSIX signal a real process would receive for this fault.
    signal = "SIGSEGV"

    def __init__(self, address: int, message: str = ""):
        self.address = address
        detail = message or self.__class__.__name__
        super().__init__(f"{detail} at address {address:#010x}")


class SegmentationFault(MemoryFault):
    """Access to an unmapped address or a permission the mapping lacks."""


class UnmappedAddressError(SegmentationFault):
    """Access to an address no segment covers."""


class AccessViolation(SegmentationFault):
    """Access to a mapped address without the required permission."""

    def __init__(self, address: int, required: str, message: str = ""):
        self.required = required
        super().__init__(address, message or f"access requires {required}")


class WxViolation(AccessViolation):
    """Instruction fetch from a non-executable page (W^X / DEP / NX)."""

    def __init__(self, address: int, message: str = ""):
        super().__init__(address, "X", message or "W^X: fetch from non-executable memory")


class StackOverflowFault(SegmentationFault):
    """Stack pointer ran past the guard page below the stack segment."""
