"""Domain-name wire codec with RFC 1035 compression.

This is the *benign* codec used by clients and legitimate servers — it
enforces the standard limits (labels <= 63 bytes, names <= 255 bytes).
The attacker's label stream deliberately breaks those limits and is
produced by :mod:`repro.exploit.payload` instead.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import NameEncodingError, PointerLoopError

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255
POINTER_MASK = 0xC0
#: Generous loop budget for pointer chasing; benign names need only a few.
MAX_POINTER_JUMPS = 128


def split_labels(name: str) -> List[bytes]:
    """Split ``"www.example.com"`` into label byte strings.

    Labels encode as latin-1, the inverse of :func:`decode_name`, so every
    name the decoder returns (label bytes >= 0x80 included) encodes again.
    """
    trimmed = name.rstrip(".")
    if not trimmed:
        return []
    try:
        return [label.encode("latin-1") for label in trimmed.split(".")]
    except UnicodeEncodeError as why:
        raise NameEncodingError(f"name {name!r} is not latin-1: {why.reason}") from None


def encode_name(name: str) -> bytes:
    """Encode a dotted name into length-prefixed labels + root terminator."""
    out = bytearray()
    for label in split_labels(name):
        if not label:
            raise NameEncodingError(f"empty label in {name!r}")
        if len(label) > MAX_LABEL_LENGTH:
            raise NameEncodingError(f"label {label!r} exceeds {MAX_LABEL_LENGTH} bytes")
        out.append(len(label))
        out += label
    out.append(0)
    if len(out) > MAX_NAME_LENGTH:
        raise NameEncodingError(f"name {name!r} exceeds {MAX_NAME_LENGTH} bytes on the wire")
    return bytes(out)


def encode_pointer(offset: int) -> bytes:
    """Encode a compression pointer to ``offset`` within the message."""
    if offset >= 0x4000:
        raise NameEncodingError(f"compression offset {offset:#x} out of range")
    return bytes([POINTER_MASK | (offset >> 8), offset & 0xFF])


def decode_name(packet: bytes, offset: int) -> Tuple[str, int]:
    """Decode a (possibly compressed) name.

    Returns ``(dotted_name, next_offset)`` where ``next_offset`` is the
    position after the name *in the original read sequence* (pointers do not
    advance it beyond the first pointer).
    """
    labels: List[str] = []
    jumps = 0
    cursor = offset
    next_offset = None
    # RFC 1035 §3.1 caps the *wire* form at 255 octets: one length octet
    # per label plus the label bytes plus the root terminator.  Track the
    # uncompressed wire length as labels accumulate so a compressed name
    # that expands past the limit is rejected exactly where encode_name
    # would refuse to produce it.
    wire_length = 1  # the terminating root octet
    while True:
        if cursor >= len(packet):
            raise PointerLoopError(f"name ran past end of packet at offset {cursor}")
        length = packet[cursor]
        if length == 0:
            if next_offset is None:
                next_offset = cursor + 1
            break
        if length & POINTER_MASK == POINTER_MASK:
            if cursor + 1 >= len(packet):
                raise PointerLoopError("truncated compression pointer")
            target = ((length & 0x3F) << 8) | packet[cursor + 1]
            if next_offset is None:
                next_offset = cursor + 2
            jumps += 1
            if jumps > MAX_POINTER_JUMPS:
                raise PointerLoopError("compression pointer loop detected")
            cursor = target
            continue
        if length & POINTER_MASK:
            raise PointerLoopError(f"reserved label type {length:#04x}")
        if length > MAX_LABEL_LENGTH:
            raise PointerLoopError(f"label length {length} exceeds RFC limit")
        if cursor + 1 + length > len(packet):
            raise PointerLoopError("label runs past end of packet")
        labels.append(packet[cursor + 1 : cursor + 1 + length].decode("latin-1"))
        wire_length += 1 + length
        if wire_length > MAX_NAME_LENGTH:
            raise PointerLoopError(
                f"decoded name exceeds {MAX_NAME_LENGTH} octets on the wire"
            )
        cursor += 1 + length
    name = ".".join(labels)
    assert next_offset is not None
    return name, next_offset


def skip_name(packet: bytes, offset: int) -> int:
    """Advance past a name without decoding it."""
    _, next_offset = decode_name(packet, offset)
    return next_offset
