"""The Connman daemon: boot, DNS-proxy service loop, crash/compromise state.

One :class:`ConnmanDaemon` owns one emulated process per boot.  Booting
draws a fresh memory layout (so ASLR re-randomizes on every restart, like
``fork``+``exec`` on the real device) and reinstalls the per-boot canary.
The daemon runs as root — "Connman natively runs with root permissions, so
no permission change is required" (§III).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import Collector

from ..binfmt import LoadedProcess, build_connman, build_libc, load_process
from ..cpu import NativeFunction
from ..cpu.events import _EmulationStop
from ..defenses import NONE, ProtectionProfile, ReturnAddressGuard, ShadowStackCfi, StackCanary
from ..dns import Message, ResilientResolver, ResourceRecord, make_response
from ..mem import AslrPolicy
from .dnsproxy import DnsProxyCore
from .frames import frame_model
from .gueststore import GuestBackedDnsCache
from .outcomes import DaemonEvent, EventKind
from .version import ConnmanVersion

#: Transport callable: query bytes -> reply bytes (or None on drop/timeout).
Transport = Callable[[bytes], Optional[bytes]]


def _resume_stop(_ctx):
    raise _EmulationStop("daemon-continue", "returned to dnsproxy event loop")


class ConnmanDaemon:
    """A bootable, exploitable, restartable Connman instance."""

    def __init__(
        self,
        arch: str = "x86",
        version: Union[str, ConnmanVersion] = "1.34",
        profile: ProtectionProfile = NONE,
        rng: Optional[random.Random] = None,
        name: str = "connmand",
        observer: Optional["Collector"] = None,
    ):
        self.arch = arch
        self.observer = observer
        self.version = (
            version if isinstance(version, ConnmanVersion) else ConnmanVersion.parse(version)
        )
        self.profile = profile
        self.rng = rng or random.Random(0xC0111)
        self.name = name
        self.binary = build_connman(arch, str(self.version), seed=profile.diversity_seed)
        self.libc_image = build_libc(arch)
        self.frame = frame_model(arch)
        self.events: List[DaemonEvent] = []
        self.boots = 0
        self.crashed = False
        self._pending_id: Optional[int] = None
        self.loaded: Optional[LoadedProcess] = None
        self.proxy: Optional[DnsProxyCore] = None
        self.boot()

    # -- lifecycle -------------------------------------------------------------

    def boot(self) -> None:
        """(Re)start the daemon: fresh process, fresh ASLR draw, fresh canary."""
        layout = AslrPolicy(
            enabled=self.profile.aslr,
            libc_slide_pages=self.profile.aslr_entropy_pages,
        ).instantiate(self.arch, self.rng)
        self.loaded = load_process(
            self.binary,
            self.libc_image,
            layout,
            wx_enabled=self.profile.wx,
            uid=0,  # root, as shipped
            name=self.name,
        )
        self.loaded.process.register_native(
            self.loaded.address_of("dnsproxy_resume"),
            NativeFunction("dnsproxy_resume", _resume_stop),
        )
        if self.observer is not None:
            self.observer.attach_process(self.loaded)
        canary = StackCanary(self.rng) if self.profile.canary else None
        ret_guard = ReturnAddressGuard(self.rng) if self.profile.ret_guard else None
        if self.profile.cfi:
            self.loaded.process.cfi = ShadowStackCfi.for_loaded(self.loaded)
        self.proxy = DnsProxyCore(self.loaded, self.version, self.frame, canary,
                                  ret_guard=ret_guard)
        # The cache lives inside the process (the dns_cache_storage .bss
        # reservation), so it starts empty on every (re)boot — as it should.
        storage = self.loaded.symbol("dns_cache_storage")
        self.cache = GuestBackedDnsCache(
            self.loaded.process, storage.address, storage.size,
            observer=self.observer,
        )
        self.boots += 1
        self.crashed = False
        self._pending_id = None
        if self.observer is not None:
            kind = "daemon.boot" if self.boots == 1 else "daemon.restart"
            self.observer.emit("daemon", kind, name=self.name, boot=self.boots)
            self.observer.inc("daemon.boots")

    restart = boot

    @property
    def alive(self) -> bool:
        return not self.crashed and self.loaded is not None and self.loaded.process.alive

    @property
    def compromised(self) -> bool:
        return any(event.kind == EventKind.COMPROMISED for event in self.events)

    # -- the DNS-proxy data path ----------------------------------------------------

    def handle_upstream_reply(
        self, reply: Optional[bytes], expected_id: Optional[int] = None
    ) -> DaemonEvent:
        """Feed one upstream reply through the vulnerable parser.

        When observed, parsing runs under a ``daemon.parse`` span whose
        ``payload`` attribute snapshots the exact reply bytes.  A crash
        inside the parse therefore yields a :class:`CrashReport` whose
        causal link resolves to the offending datagram.
        """
        if self.observer is None:
            return self._handle_upstream_reply(reply, expected_id)
        tracer = self.observer.tracer
        span = tracer.start("daemon.parse", daemon=self.name,
                            bytes=0 if reply is None else len(reply))
        if reply is not None:
            from ..obs.spans import snapshot_payload

            span.attrs["payload"] = snapshot_payload(reply)
        try:
            event = self._handle_upstream_reply(reply, expected_id)
            span.attrs["outcome"] = event.kind.value
            return event
        finally:
            tracer.end(span)

    def _handle_upstream_reply(
        self, reply: Optional[bytes], expected_id: Optional[int] = None
    ) -> DaemonEvent:
        if not self.alive:
            return DaemonEvent(kind=EventKind.DROPPED, detail="daemon is down")
        if reply is None:
            return DaemonEvent(kind=EventKind.DROPPED, detail="upstream timeout")
        assert self.proxy is not None
        event = self.proxy.handle_reply(reply, expected_id=expected_id)
        self.events.append(event)
        if event.kind == EventKind.RESPONDED:
            for cached_name, address in event.cached:
                if cached_name:
                    self.cache.put(cached_name, address)
        elif event.kind in (EventKind.CRASHED, EventKind.HUNG, EventKind.COMPROMISED):
            # Crash, hang, or image replacement: the service stops serving.
            self.crashed = True
        if self.observer is not None:
            if event.kind == EventKind.COMPROMISED:
                self.observer.emit("daemon", "daemon.compromise", name=self.name,
                                   detail=event.detail[:64])
                self.observer.inc("daemon.compromises")
            elif self.crashed:
                report = self._capture_postmortem(event, reply)
                crash_detail = {"name": self.name, "outcome": event.kind.value,
                                "detail": event.detail[:64]}
                if report is not None:
                    crash_detail["postmortem"] = report.to_dict()
                self.observer.emit("daemon", "daemon.crash", **crash_detail)
                self.observer.inc("daemon.crashes")
        return event

    def _capture_postmortem(self, event: DaemonEvent, reply: bytes):
        """Attach crash forensics to a fatal event; never raises."""
        from ..obs.postmortem import capture_crash_report
        from ..obs.spans import snapshot_payload

        report = getattr(event.execution, "postmortem", None)
        if report is None and self.loaded is not None:
            report = capture_crash_report(
                self.loaded.process,
                signal=event.signal or "SIGSEGV",
                reason=event.detail,
                tracer=self.observer.tracer,
                datagram=reply,
            )
        if report is not None and report.datagram_hex is None:
            report.datagram_hex = snapshot_payload(reply)
        if report is not None:
            self.observer.record_postmortem(report)
        return report

    def handle_client_query(self, packet: bytes, upstream: Transport) -> Optional[bytes]:
        """Full proxy path: local client query -> cache or upstream -> answer.

        ``upstream`` is any :data:`Transport`; pass a
        :class:`~repro.dns.ResilientResolver` to get retry/failover and —
        when every upstream is dark — serve-stale answers from the cache.

        When observed, the whole exchange nests under a
        ``daemon.handle_query`` span — continuing the ``net.deliver``
        trace context when the query arrived over a simulated wire.
        """
        if self.observer is None:
            return self._handle_client_query(packet, upstream)
        tracer = self.observer.tracer
        span = tracer.start("daemon.handle_query", daemon=self.name,
                            bytes=len(packet))
        try:
            answer = self._handle_client_query(packet, upstream, span)
            span.attrs["answered"] = answer is not None
            return answer
        finally:
            tracer.end(span)

    def _handle_client_query(self, packet: bytes, upstream: Transport,
                             span=None) -> Optional[bytes]:
        if not self.alive:
            return None
        try:
            query = Message.decode(packet)
        except Exception:
            return None
        if query.is_response or not query.questions:
            return None
        question = query.questions[0]
        if span is not None:
            span.attrs["query"] = question.name
        cached = self.cache.get(question.name)
        if cached is not None:
            if span is not None:
                span.attrs["outcome"] = "cache-hit"
            answer = ResourceRecord.a(question.name, cached)
            return make_response(query, (answer,)).encode()
        self._pending_id = query.id
        reply = upstream(packet)
        event = self.handle_upstream_reply(reply, expected_id=self._pending_id)
        if event.kind != EventKind.RESPONDED:
            if reply is None:
                return self._stale_answer(query, question.name, upstream)
            return None
        fresh = self.cache.get(question.name)
        if fresh is not None:
            return make_response(query, (ResourceRecord.a(question.name, fresh),)).encode()
        # Parsed fine but cached under another owner (e.g. a CNAME chain):
        # dnsproxy relays the upstream response to the client verbatim.
        return reply

    def _stale_answer(self, query: Message, name: str,
                      upstream: Transport) -> Optional[bytes]:
        """Every upstream was dark: degrade gracefully to an expired entry."""
        if not (isinstance(upstream, ResilientResolver) and upstream.serve_stale):
            return None
        stale = self.cache.get_stale(name)
        if stale is None:
            return None
        upstream.note_stale_serve()
        return make_response(query, (ResourceRecord.a(name, stale),)).encode()

    # -- observability -----------------------------------------------------------------

    @property
    def last_event(self) -> Optional[DaemonEvent]:
        return self.events[-1] if self.events else None

    def status(self) -> str:
        state = "compromised" if self.compromised else ("down" if not self.alive else "running")
        return (
            f"{self.name} (connman {self.version}, {self.arch}, "
            f"protections: {self.profile.label()}) — {state}, boots={self.boots}"
        )
