"""Pcap-style text export of a network's traffic log.

Binary libpcap needs tooling the simulated world doesn't have; what the
workflow actually needs is a capture artifact that (a) a human can read
in a terminal, (b) survives copy/paste into a bug report, and (c)
round-trips losslessly so a :class:`~repro.net.sniffer.PacketSniffer`
can re-analyze a capture taken in another process.  One record per
logged datagram::

    #reprocap v1 network=pineapple-lan packets=2
    0 10.9.9.100:40000 > 10.9.9.1:53 len=31 8f2a0100...
    1 10.9.9.1:53 > 10.9.9.100:40000 len=47 8f2a8180...

The payload is lowercase hex — exactly the post-fault bytes the victim
handler received (see ``Network.deliver``), so replaying a capture shows
the sniffer the same wire the original run saw.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..net.network import Network
from ..net.packets import UdpDatagram

MAGIC = "#reprocap v1"


class PcapFormatError(ValueError):
    """The text capture is not a well-formed reprocap v1 document."""


def export_pcap_text(network: Network, *, taint=None) -> str:
    """Render ``network.traffic`` as a reprocap v1 text document.

    ``taint`` (a :class:`~repro.obs.taint.TaintEngine`) annotates every
    record whose payload bytes reached a tainted program counter with a
    ``#``-comment line; the parser skips comments, so annotated captures
    still round-trip losslessly.
    """
    return export_datagrams(network.traffic, name=network.name, taint=taint)


def export_datagrams(datagrams: Iterable[UdpDatagram], *, name: str = "capture",
                     taint=None) -> str:
    records = list(datagrams)
    lines = [f"{MAGIC} network={name} packets={len(records)}"]
    for index, datagram in enumerate(records):
        lines.append(
            f"{index} {datagram.src_ip}:{datagram.src_port} > "
            f"{datagram.dst_ip}:{datagram.dst_port} "
            f"len={len(datagram.payload)} {datagram.payload.hex() or '-'}"
        )
        if taint is not None and taint.datagram_reached_pc(datagram.payload):
            from .taint import payload_digest

            lines.append(f"# taint: packet {index} bytes reached a tainted "
                         f"PC (payload digest {payload_digest(datagram.payload)})")
    return "\n".join(lines) + "\n"


def _parse_endpoint(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise PcapFormatError(f"bad endpoint {text!r}")
    return host, int(port)


def parse_pcap_text(text: str) -> Tuple[str, List[UdpDatagram]]:
    """Parse a reprocap v1 document back into ``(network_name, datagrams)``."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith(MAGIC):
        raise PcapFormatError("missing reprocap v1 header")
    header_fields = dict(
        field.split("=", 1) for field in lines[0][len(MAGIC):].split() if "=" in field
    )
    name = header_fields.get("network", "capture")
    datagrams: List[UdpDatagram] = []
    for line in lines[1:]:
        if line.lstrip().startswith("#"):
            # Annotation comments (taint markers, operator notes) ride in
            # the document but are not records.
            continue
        parts = line.split()
        if len(parts) != 6 or parts[2] != ">":
            raise PcapFormatError(f"bad record: {line!r}")
        _index, src, _arrow, dst, length_field, payload_hex = parts
        src_ip, src_port = _parse_endpoint(src)
        dst_ip, dst_port = _parse_endpoint(dst)
        payload = b"" if payload_hex == "-" else bytes.fromhex(payload_hex)
        if not length_field.startswith("len=") or int(length_field[4:]) != len(payload):
            raise PcapFormatError(f"length mismatch in record: {line!r}")
        datagrams.append(UdpDatagram(src_ip=src_ip, src_port=src_port,
                                     dst_ip=dst_ip, dst_port=dst_port,
                                     payload=payload))
    declared = header_fields.get("packets")
    if declared is not None and declared.isdigit() and int(declared) != len(datagrams):
        raise PcapFormatError(
            f"header declares {declared} packets, found {len(datagrams)}"
        )
    return name, datagrams


def sniff_capture(text: str):
    """Round-trip a capture through the sniffer: returns the analyzed packets.

    Imports lazily to keep ``repro.obs`` importable without the whole
    ``repro.net`` surface.
    """
    from ..net.sniffer import PacketSniffer

    name, datagrams = parse_pcap_text(text)
    network = Network(name)
    sniffer = PacketSniffer()
    sniffer.attach(network)
    network.traffic.extend(datagrams)
    sniffer.poll()
    return sniffer.captured
