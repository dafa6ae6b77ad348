"""Simulated 32-bit process memory: segments, permissions, layouts, ASLR."""

from .errors import (
    AccessViolation,
    MemoryFault,
    SegmentationFault,
    StackOverflowFault,
    UnmappedAddressError,
    WxViolation,
)
from .layout import (
    ARM_LAYOUT,
    BASE_LAYOUTS,
    PAGE_SIZE,
    X86_LAYOUT,
    AslrPolicy,
    MemoryLayout,
    layout_for,
    page_align_down,
    page_align_up,
)
from .perms import Perm
from .segment import Segment
from .space import AddressSpace

__all__ = [
    "AccessViolation",
    "AddressSpace",
    "ARM_LAYOUT",
    "AslrPolicy",
    "BASE_LAYOUTS",
    "layout_for",
    "MemoryFault",
    "MemoryLayout",
    "PAGE_SIZE",
    "page_align_down",
    "page_align_up",
    "Perm",
    "Segment",
    "SegmentationFault",
    "StackOverflowFault",
    "UnmappedAddressError",
    "WxViolation",
    "X86_LAYOUT",
]
