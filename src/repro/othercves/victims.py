"""Generic vulnerable network services — the §V adaptation targets.

"Our code can work out-of-the-box (with minimal modification) against
DNS-based overflow vulnerabilities such as CVE-2017-14493 [dnsmasq],
CVE-2018-9445 [systemd] and CVE-2018-19278 [asterisk] ... With moderate
modification, our code can be adapted to work against a range of
protocol-based vulnerabilities" (HTTP: CVE-2019-8985 / CVE-2019-9125 /
CVE-2018-6692; TCP: CVE-2018-20410).

Each service is the same *shape* as Connman — a root daemon parsing
attacker-controlled bytes into an undersized stack buffer — but with its
own binary build (different gadget/PLT addresses), its own frame geometry,
and its own transport.  Adapting the exploit means re-running recon and the
builders against the new addresses, which is exactly what the paper calls
"changing variables to memory addresses suitable for the targeted
vulnerability".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional

from ..binfmt import build_connman, build_libc, load_process
from ..connman import ConnmanVersion, DaemonEvent, EventKind, FrameModel
from ..connman.daemon import _resume_stop
from ..connman.dnsproxy import DnsProxyCore
from ..cpu import NativeFunction
from ..cpu.events import CanaryClobbered
from ..defenses import (
    NONE,
    ProtectionProfile,
    ReturnAddressGuard,
    ShadowStackCfi,
    StackCanary,
)
from ..mem import AslrPolicy, MemoryFault

VULNERABLE_VERSION = ConnmanVersion(0, 9)
PATCHED_VERSION = ConnmanVersion(9, 9)


@dataclass(frozen=True)
class ServiceSpec:
    """Static description of one adaptation target."""

    name: str
    cve_id: str
    arch: str
    frame: FrameModel
    protocol: str  # "dns" | "http" | "tcp"
    build_seed: int
    adaptation_effort: str

    def describe(self) -> str:
        return (
            f"{self.name} ({self.cve_id}): {self.protocol} service on {self.arch}, "
            f"{self.frame.buffer_size}-byte buffer [{self.adaptation_effort} modification]"
        )


def _frame(arch: str, buffer_size: int, horizon: int = 400) -> FrameModel:
    saved = ("ebp",) if arch == "x86" else ("r4", "r5", "r6", "r7")
    return FrameModel(
        arch=arch,
        locals_size=12 if arch == "x86" else 16,
        buffer_size=buffer_size,
        saved_registers=saved,
        null_slot_offsets=(),
        check_slot_offsets=(),
        overwrite_horizon=horizon,
    )


#: §V, "minimal modification" — same DNS transport, new addresses/offsets.
DNSMASQ = ServiceSpec("dnsmasq", "CVE-2017-14493", "x86",
                      _frame("x86", 296), "dns", 11, "minimal")
SYSTEMD_RESOLVED = ServiceSpec("systemd-resolved", "CVE-2018-9445", "arm",
                               _frame("arm", 512), "dns", 12, "minimal")
ASTERISK = ServiceSpec("asterisk", "CVE-2018-19278", "x86",
                       _frame("x86", 512), "dns", 13, "minimal")

#: §V, "moderate modification" — new packet-creation algorithm too.
ROUTER_HTTPD = ServiceSpec("router-httpd", "CVE-2019-8985", "arm",
                           _frame("arm", 256), "http", 14, "moderate")
EMBEDDED_HTTPD = ServiceSpec("embedded-httpd", "CVE-2018-6692", "x86",
                             _frame("x86", 320), "http", 15, "moderate")
TCP_SERVICE = ServiceSpec("tcp-control", "CVE-2018-20410", "x86",
                          _frame("x86", 192), "tcp", 16, "moderate")

ALL_SPECS = (DNSMASQ, SYSTEMD_RESOLVED, ASTERISK, ROUTER_HTTPD, EMBEDDED_HTTPD, TCP_SERVICE)


class RawCopyCore(DnsProxyCore):
    """Overflow core for services that copy a raw byte blob (HTTP body,
    TCP payload) into their stack buffer — no DNS label interleaving."""

    def handle_raw(self, data: bytes) -> DaemonEvent:
        place = self.placement()
        self._set_up_frame(place)
        patched = not self.version.is_vulnerable
        try:
            if patched and len(data) + 1 > self.frame.buffer_size:
                return DaemonEvent(kind=EventKind.DROPPED,
                                   detail="input exceeds buffer (patched bounds check)")
            self.loaded.process.memory.write(place.name_address, data)
            self._parse_rr_checks(place)
            self._post_parse_writes(place)
            self._null_slot_checks(place)
            self._canary_check(place)
        except CanaryClobbered as smash:
            self.loaded.process.record_exit(code=134, signal="SIGABRT")
            return DaemonEvent(kind=EventKind.CRASHED, signal="SIGABRT", detail=str(smash))
        except MemoryFault as fault:
            self.loaded.process.record_exit(code=139, signal=fault.signal)
            return DaemonEvent(kind=EventKind.CRASHED, signal=fault.signal, detail=str(fault))
        return self._function_return(place, [])


class AdaptedService:
    """A bootable instance of one adaptation target."""

    def __init__(self, spec: ServiceSpec, *, vulnerable: bool = True,
                 profile: ProtectionProfile = NONE,
                 rng: Optional[random.Random] = None):
        self.spec = spec
        self.profile = profile
        self.vulnerable = vulnerable
        self.rng = rng or random.Random(0xBEEF ^ spec.build_seed)
        stock = build_connman(spec.arch, version="1.34", seed=spec.build_seed)
        self.binary = replace(
            stock, name=spec.name, metadata={**stock.metadata, "product": spec.name})
        self.libc_image = build_libc(spec.arch)
        self.events: List[DaemonEvent] = []
        self.crashed = False
        self.loaded = None
        self.core: Optional[DnsProxyCore] = None
        self.boot()

    def boot(self) -> None:
        layout = AslrPolicy(enabled=self.profile.aslr).instantiate(self.spec.arch, self.rng)
        self.loaded = load_process(
            self.binary, self.libc_image, layout,
            wx_enabled=self.profile.wx, uid=0, name=self.spec.name,
        )
        self.loaded.process.register_native(
            self.loaded.address_of("dnsproxy_resume"),
            NativeFunction("service_resume", _resume_stop),
        )
        canary = StackCanary(self.rng) if self.profile.canary else None
        ret_guard = ReturnAddressGuard(self.rng) if self.profile.ret_guard else None
        if self.profile.cfi:
            self.loaded.process.cfi = ShadowStackCfi.for_loaded(self.loaded)
        version = VULNERABLE_VERSION if self.vulnerable else PATCHED_VERSION
        core_class = DnsProxyCore if self.spec.protocol == "dns" else RawCopyCore
        self.core = core_class(self.loaded, version, self.spec.frame, canary,
                               ret_guard=ret_guard)
        self.crashed = False

    restart = boot

    @property
    def alive(self) -> bool:
        return not self.crashed

    @property
    def compromised(self) -> bool:
        return any(event.kind == EventKind.COMPROMISED for event in self.events)

    def _record(self, event: DaemonEvent) -> DaemonEvent:
        self.events.append(event)
        if event.kind in (EventKind.CRASHED, EventKind.HUNG, EventKind.COMPROMISED):
            self.crashed = True
        return event

    # -- protocol entry points --------------------------------------------------

    def handle_dns_reply(self, reply: bytes, expected_id: Optional[int] = None) -> DaemonEvent:
        if self.spec.protocol != "dns":
            raise ValueError(f"{self.spec.name} is not a DNS service")
        if not self.alive:
            return DaemonEvent(kind=EventKind.DROPPED, detail="service is down")
        assert isinstance(self.core, DnsProxyCore)
        return self._record(self.core.handle_reply(reply, expected_id=expected_id))

    def handle_http_request(self, raw: bytes) -> DaemonEvent:
        if self.spec.protocol != "http":
            raise ValueError(f"{self.spec.name} is not an HTTP service")
        if not self.alive:
            return DaemonEvent(kind=EventKind.DROPPED, detail="service is down")
        body = _http_body(raw)
        if body is None:
            return self._record(
                DaemonEvent(kind=EventKind.DROPPED, detail="malformed HTTP request")
            )
        assert isinstance(self.core, RawCopyCore)
        return self._record(self.core.handle_raw(body))

    def handle_tcp_packet(self, raw: bytes) -> DaemonEvent:
        if self.spec.protocol != "tcp":
            raise ValueError(f"{self.spec.name} is not a TCP service")
        if not self.alive:
            return DaemonEvent(kind=EventKind.DROPPED, detail="service is down")
        if len(raw) < 6 or raw[:4] != b"CTRL":
            return self._record(
                DaemonEvent(kind=EventKind.DROPPED, detail="bad control-packet magic")
            )
        length = int.from_bytes(raw[4:6], "big")
        body = raw[6 : 6 + length]
        assert isinstance(self.core, RawCopyCore)
        return self._record(self.core.handle_raw(body))


def _http_body(raw: bytes) -> Optional[bytes]:
    """Minimal HTTP/1.1 POST parser: request line, headers, body."""
    head, separator, body = raw.partition(b"\r\n\r\n")
    if not separator:
        return None
    lines = head.split(b"\r\n")
    request_line = lines[0].split(b" ")
    if len(request_line) != 3 or request_line[0] != b"POST":
        return None
    if not request_line[2].startswith(b"HTTP/1."):
        return None
    content_length = None
    for header in lines[1:]:
        name, _, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                return None
    if content_length is None or content_length != len(body):
        return None
    return body


def http_respond(service: AdaptedService, raw: bytes):
    """Full HTTP round trip: request bytes in, (response bytes, event) out.

    A crashed/compromised service produces no response (the TCP peer sees
    a reset); malformed requests get 400; accepted upgrades get 200.
    """
    event = service.handle_http_request(raw)
    if event.kind == EventKind.RESPONDED:
        body = b"upgrade accepted\n"
        response = (
            b"HTTP/1.1 200 OK\r\nContent-Length: " + str(len(body)).encode()
            + b"\r\n\r\n" + body
        )
    elif event.kind == EventKind.DROPPED and "down" in event.detail:
        response = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n"
    elif event.kind == EventKind.DROPPED:
        response = b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"
    else:  # CRASHED / COMPROMISED / HUNG: connection dies mid-request.
        response = None
    return response, event


def make_http_request(body: bytes, path: bytes = b"/cgi-bin/firmware-upgrade") -> bytes:
    """Craft the POST carrying a payload ('modifying the packet creation
    algorithm', §V)."""
    return (
        b"POST " + path + b" HTTP/1.1\r\n"
        b"Host: 192.168.1.1\r\n"
        b"Content-Type: application/octet-stream\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
        b"\r\n" + body
    )


def make_tcp_packet(body: bytes) -> bytes:
    return b"CTRL" + len(body).to_bytes(2, "big") + body
