"""The vulnerable DNS-proxy reply parser, executed against emulated memory.

This is a faithful port of the control and data flow of ``dnsproxy.c`` that
matters for CVE-2017-12865:

* header validation first — "the DNS responses must appear legitimate,
  otherwise Connman dumps the packet and never enters the vulnerable
  portion of code" (§III);
* ``get_name`` expands the (possibly compressed) answer name into the
  1024-byte ``name`` stack buffer with the unchecked copy of Listing 1::

      name[(*name_len)++] = label_len;
      memcpy(name + *name_len, p + 1, label_len + 1);
      *name_len += label_len;

  The bytes those stores leave are written to the emulated process
  stack, so an oversized expansion genuinely clobbers the saved
  registers, the return address and the caller frame;
* the 1.35 patch adds the size check and bails out before the buffer can
  overflow;
* ``parse_rr`` then dereferences two caller-frame words (the ARM
  "placeholder" constraint), the ARM NULL-slot checks run, the (optional)
  canary is verified, and finally the epilogue pops the — possibly
  attacker-controlled — return address into the program counter and hands
  control to the CPU emulator.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..binfmt import LoadedProcess
from ..cpu import ExecutionResult, make_emulator
from ..cpu.events import CanaryClobbered, ControlFlowViolation, EmulationBudgetExceeded
from ..defenses import StackCanary
from ..mem import MemoryFault
from ..obs.taint import NO_LABELS
from .frames import NAME_BUFFER_SIZE, FrameModel
from .outcomes import DaemonEvent, EventKind
from .version import ConnmanVersion

#: DNS pointer-chase budget (the vulnerable code's only loop bound).
MAX_POINTER_JUMPS = 128
MAX_QUESTIONS = 4
MAX_ANSWERS = 8

TYPE_A = 1
TYPE_AAAA = 28

#: Pattern the daemon's own post-parse writes leave in the caller stack
#: beyond the overwrite horizon ("data from a subsequent legitimate
#: function reference", §III-C2).  Word-aligned but unmapped, so a ROP
#: chain that runs into it dies with SIGSEGV like the paper reports.
CLOBBER_WORD = b"\x54\x55\xaa\xaa"


class _Drop(Exception):
    """Internal: the reply is dumped as malformed; the daemon stays healthy."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class _AbortPath(Exception):
    """Internal: the daemon detected corrupted state and aborted."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def _commit(memory, address: int, parts: List[bytes], shadow: Optional[list]) -> None:
    """Write an expanded name's pending bytes (and their labels) at ``address``."""
    if parts:
        memory.write(address, b"".join(parts), taint=shadow)


@dataclass
class FramePlacement:
    """Concrete addresses of one parse_response activation."""

    name_address: int
    ret_slot: int

    def describe(self) -> str:
        return f"name={self.name_address:#010x} ret_slot={self.ret_slot:#010x}"


class DnsProxyCore:
    """One daemon's reply-parsing engine bound to its loaded process."""

    def __init__(
        self,
        loaded: LoadedProcess,
        version: ConnmanVersion,
        frame: FrameModel,
        canary: Optional[StackCanary] = None,
        ret_guard=None,
    ):
        self.loaded = loaded
        self.version = version
        self.frame = frame
        self.canary = canary
        #: §VII lightweight defense: saved return addresses are stored
        #: XOR-encrypted; see repro.defenses.retguard.
        self.ret_guard = ret_guard
        self.resume_address = loaded.address_of("dnsproxy_resume")
        self.globals_address = loaded.address_of("connman_globals")

    # -- frame geometry ---------------------------------------------------------

    def placement(self) -> FramePlacement:
        ret_slot = self.loaded.layout.stack_top - self.frame.ret_slot_from_stack_top
        return FramePlacement(
            name_address=ret_slot - self.frame.ret_offset, ret_slot=ret_slot
        )

    # -- entry point ---------------------------------------------------------------

    def handle_reply(self, reply: bytes, expected_id: Optional[int] = None) -> DaemonEvent:
        """Parse one upstream reply; return the observable daemon outcome."""
        try:
            self._validate_header(reply, expected_id)
        except _Drop as drop:
            return DaemonEvent(kind=EventKind.DROPPED, detail=drop.reason)

        # A reply that survived validation becomes a taint source: every
        # byte _get_name copies out of it is labeled with its wire offset.
        taint = self.loaded.process.taint
        if taint is not None:
            taint.begin_source(reply)
        try:
            place = self.placement()
            self._set_up_frame(place)
            try:
                cached = self._parse_sections(reply, place)
                self._post_parse_writes(place)
                self._null_slot_checks(place)
                self._canary_check(place)
            except _Drop as drop:
                return DaemonEvent(kind=EventKind.DROPPED, detail=drop.reason)
            except _AbortPath as bail:
                self.loaded.process.record_exit(code=134, signal="SIGABRT")
                return DaemonEvent(kind=EventKind.CRASHED, signal="SIGABRT", detail=bail.reason)
            except CanaryClobbered as smash:
                self.loaded.process.record_exit(code=134, signal="SIGABRT")
                return DaemonEvent(kind=EventKind.CRASHED, signal="SIGABRT", detail=str(smash))
            except MemoryFault as fault:
                # e.g. parse_rr dereferenced an unmapped placeholder, or the
                # expansion ran off the top of the stack segment.
                self.loaded.process.record_exit(code=139, signal=fault.signal)
                return DaemonEvent(kind=EventKind.CRASHED, signal=fault.signal, detail=str(fault))

            return self._function_return(place, cached)
        finally:
            if taint is not None:
                taint.end_source()

    # -- header validation ----------------------------------------------------------

    def _validate_header(self, reply: bytes, expected_id: Optional[int]) -> None:
        if len(reply) < 12:
            raise _Drop(f"short packet ({len(reply)} bytes)")
        message_id, flags, qdcount, ancount, _ns, _ar = struct.unpack_from(">HHHHHH", reply, 0)
        if expected_id is not None and message_id != expected_id:
            raise _Drop(f"transaction id {message_id} does not match query {expected_id}")
        if not flags & 0x8000:
            raise _Drop("QR bit clear: not a response")
        if flags & 0x000F:
            raise _Drop(f"non-zero rcode {flags & 0xF}")
        if ancount < 1:
            raise _Drop("no answer records")
        if qdcount > MAX_QUESTIONS or ancount > MAX_ANSWERS:
            raise _Drop("unreasonable section counts")

    # -- frame lifecycle ----------------------------------------------------------

    def _set_up_frame(self, place: FramePlacement) -> None:
        """Write the benign activation record for parse_response."""
        memory = self.loaded.process.memory
        frame = self.frame
        # The legitimate return address (encrypted when ret-guard is on).
        stored = self.resume_address
        if self.ret_guard is not None:
            stored = self.ret_guard.protect(stored)
        # One write from ``name`` up to the return slot: zeroed locals
        # (including the ARM NULL slots), saved callee registers holding
        # plausible frame-chain values, then the return address.
        saved = [place.ret_slot + 0x40 + 4 * index
                 for index in range(len(frame.saved_registers))]
        memory.write(place.name_address,
                     bytes(frame.buffer_size + frame.locals_size)
                     + struct.pack(f"<{len(saved) + 1}I", *saved, stored))
        if self.canary is not None:
            self.canary.arm_frame(
                self.loaded.process, place.name_address + frame.canary_offset
            )
        # Caller-frame spills that parse_rr later dereferences: one pointer
        # into .data, one into the stack — both mapped in a benign run.
        checks = frame.check_slot_offsets
        if checks:
            values = (self.globals_address, place.name_address)[:len(checks)]
            memory.write(place.ret_slot + checks[0],
                         struct.pack(f"<{len(values)}I", *values))
        # Shadow-stack bookkeeping for the simulated call of parse_response.
        cfi = self.loaded.process.cfi
        if cfi is not None:
            cfi.note_call(self.resume_address)

    # -- DNS walking ----------------------------------------------------------------

    def _parse_sections(self, reply: bytes, place: FramePlacement) -> List[Tuple[str, str]]:
        _id, _flags, qdcount, ancount, _ns, _ar = struct.unpack_from(">HHHHHH", reply, 0)
        offset = 12
        for _ in range(qdcount):
            offset = self._skip_name(reply, offset)
            offset += 4
            if offset > len(reply):
                raise _Drop("truncated question section")
        cached: List[Tuple[str, str]] = []
        for _ in range(ancount):
            offset = self._get_name(reply, offset, place.name_address)
            if offset + 10 > len(reply):
                raise _Drop("truncated resource record")
            rtype, _rclass, _ttl, rdlength = struct.unpack_from(">HHIH", reply, offset)
            offset += 10
            if offset + rdlength > len(reply):
                raise _Drop("truncated rdata")
            rdata = reply[offset : offset + rdlength]
            offset += rdlength
            if rtype == TYPE_A and rdlength == 4:
                self._parse_rr_checks(place)
                cached.append((self._read_back_name(place), ".".join(str(b) for b in rdata)))
            elif rtype == TYPE_AAAA and rdlength == 16:
                self._parse_rr_checks(place)
                cached.append((self._read_back_name(place), rdata.hex()))
        return cached

    def _skip_name(self, packet: bytes, offset: int) -> int:
        """Walk past a name without expanding it (question section)."""
        jumps = 0
        cursor = offset
        end: Optional[int] = None
        while True:
            if cursor >= len(packet):
                raise _Drop("name runs past end of packet")
            length = packet[cursor]
            if length == 0:
                return end if end is not None else cursor + 1
            if length & 0xC0 == 0xC0:
                if end is None:
                    end = cursor + 2
                jumps += 1
                if jumps > MAX_POINTER_JUMPS:
                    raise _Drop("compression pointer loop")
                if cursor + 1 >= len(packet):
                    raise _Drop("truncated pointer")
                cursor = ((length & 0x3F) << 8) | packet[cursor + 1]
                continue
            cursor += 1 + length

    def _get_name(self, packet: bytes, offset: int, name_address: int) -> int:
        """Expand a name into the stack buffer — the vulnerable routine.

        Returns the offset just past the name in the original byte stream.
        Listing 1 stores a label as its length byte, then its bytes plus one
        over-copied byte that the next store overwrites.  So the bytes its
        stores leave are the packet's label slices, the terminator, and,
        when the name is dropped, the last label's over-copied byte.  They
        are joined on the host and written to the emulated stack in one
        ``memory.write``: at the terminator, and before every drop.  A label
        whose stores would leave the segment holding ``name`` (the
        expansion ran off the top of the stack) is stored as Listing 1 does,
        after a commit, so its length byte lands and its bytes fault at the
        same address.
        """
        memory = self.loaded.process.memory
        taint = self.loaded.process.taint

        def wire(cursor_offset: int, count: int, at: int, note: str):
            """Per-byte labels for copying wire bytes at ``cursor_offset`` to
            ``name + at``: ``None`` without a taint engine, empty sets
            outside a source (either clears the shadow)."""
            if taint is None:
                return None
            labels = taint.wire_labels(cursor_offset, count,
                                       address=name_address + at, note=note)
            return labels if labels is not None else (NO_LABELS,) * count

        try:
            segment = memory.segment_at(name_address)
            room = segment.end - name_address if segment.writable else 0
        except MemoryFault:
            room = 0
        patched = not self.version.is_vulnerable
        size = len(packet)
        name_len = 0
        # The stores not yet written: label slices from ``name + start`` on,
        # their labels (taint only), and the packet offset of the last
        # label's over-copied byte (-1 once a later store covers it).
        start = 0
        parts: List[bytes] = []
        shadow: Optional[list] = None if taint is None else []
        over, over_labels = -1, ()
        jumps = 0
        cursor = offset
        end: Optional[int] = None
        try:
            while True:
                if cursor >= size:
                    raise _Drop("name runs past end of packet")
                length = packet[cursor]
                if length == 0:
                    # Past the segment's end nothing is pending (the last
                    # label was stored directly), so this is Listing 1's
                    # terminator store.
                    parts.append(b"\x00")
                    if shadow is not None:
                        shadow += wire(cursor, 1, name_len, "name terminator")
                    _commit(memory, name_address + start, parts, shadow)
                    return end if end is not None else cursor + 1
                if length & 0xC0 == 0xC0:
                    if end is None:
                        end = cursor + 2
                    jumps += 1
                    if jumps > MAX_POINTER_JUMPS:
                        raise _Drop("compression pointer loop")
                    if cursor + 1 >= size:
                        raise _Drop("truncated pointer")
                    cursor = ((length & 0x3F) << 8) | packet[cursor + 1]
                    continue
                if length & 0xC0:
                    raise _Drop(f"reserved label type {length:#04x}")
                # NOTE: no check of `length` against the 63-byte RFC limit
                # here — the vulnerable parser consumes the raw byte (up to 0xBF).
                label_length = length
                if patched and name_len + label_length + 2 > self.frame.buffer_size:
                    # The 1.35 fix: refuse to expand past the buffer.
                    raise _Drop("uncompressed name too long (patched bounds check)")
                # Listing 1's two stores at name + name_len: the length byte,
                # then the label bytes plus the over-copy.
                if name_len + label_length + 2 > room:
                    # A pending over-copied byte is left out: it sits at
                    # name + name_len, where this label's length byte lands.
                    _commit(memory, name_address + start, parts, shadow)
                    start, parts, over = name_len + 1 + label_length, [], -1
                    shadow = None if shadow is None else []
                    copied = min(label_length + 1, size - cursor - 1)
                    memory.write(name_address + name_len, packet[cursor:cursor + 1],
                                 taint=wire(cursor, 1, name_len, "label length"))
                    if copied < label_length:
                        raise _Drop("label runs past end of packet")
                    memory.write(name_address + name_len + 1,
                                 packet[cursor + 1:cursor + 1 + copied],
                                 taint=wire(cursor + 1, copied, name_len + 1, "label bytes"))
                else:
                    if shadow is not None:
                        shadow += wire(cursor, 1, name_len, "label length")
                    if size - cursor - 1 < label_length:
                        parts.append(packet[cursor:cursor + 1])
                        over = -1
                        raise _Drop("label runs past end of packet")
                    parts.append(packet[cursor:cursor + 1 + label_length])
                    over = cursor + 1 + label_length
                    if shadow is not None:
                        labels = wire(cursor + 1, min(label_length + 1, size - cursor - 1),
                                      name_len + 1, "label bytes")
                        shadow += labels[:label_length]
                        over_labels = labels[label_length:]
                name_len += 1 + label_length
                cursor += 1 + label_length
        except _Drop:
            if over >= 0:
                parts.append(packet[over:over + 1])
                if shadow is not None:
                    shadow += over_labels
            _commit(memory, name_address + start, parts, shadow)
            raise

    def _read_back_name(self, place: FramePlacement) -> str:
        """Benign read of the expanded name for the cache (bounded).

        One guest read covers every byte the label walk can reach: a label
        starting on the buffer's last byte runs at most 63 bytes past it.
        """
        process = self.loaded.process
        taint = process.taint
        shadowed = taint is not None and taint.shadow is not None
        buffer_size = self.frame.buffer_size
        expanded = process.memory.read(place.name_address, buffer_size + 63)
        labels: List[str] = []
        char_labels: List = []
        offset = 0
        while offset < buffer_size:
            length = expanded[offset]
            if length == 0 or length > 63:
                break
            labels.append(expanded[offset + 1 : offset + 1 + length].decode("latin-1"))
            if shadowed:
                cursor = place.name_address + offset
                if len(labels) > 1:
                    # The '.' separator stands in for this label's length
                    # byte, so it inherits that byte's provenance.
                    char_labels.append(taint.shadow.union(cursor, 1))
                char_labels.extend(taint.shadow.read(cursor + 1, length))
            offset += 1 + length
        name = ".".join(labels)
        if shadowed:
            # The daemon will copy this *string* (not memory) into the
            # guest cache; remember its per-character provenance so the
            # copy can be seeded (see GuestBackedDnsCache.put).
            taint.register_derived(name, char_labels)
        return name

    # -- post-parse frame interactions -------------------------------------------------

    def _parse_rr_checks(self, place: FramePlacement) -> None:
        """parse_rr dereferences its caller's spilled pointers.

        After an overflow these slots hold attacker bytes: NULL skips the
        access, a mapped address survives, anything else SIGSEGVs — the
        paper's placeholder requirement.
        """
        memory = self.loaded.process.memory
        for offset in self.frame.check_slot_offsets:
            pointer = memory.read_u32(place.ret_slot + offset)
            if pointer == 0:
                continue
            memory.read(pointer, 1)

    def _post_parse_writes(self, place: FramePlacement) -> None:
        """Legitimate daemon writes beyond the overwrite horizon (§III-C2)."""
        memory = self.loaded.process.memory
        start = place.ret_slot + self.frame.overwrite_horizon
        memory.write(start, CLOBBER_WORD * (self.frame.clobber_length // 4))

    def _null_slot_checks(self, place: FramePlacement) -> None:
        """ARM locals Connman expects to be NULL before its pop {pc} (§III-A2)."""
        memory = self.loaded.process.memory
        for offset in self.frame.null_slot_offsets:
            value = memory.read_u32(place.name_address + offset)
            if value != 0:
                raise _AbortPath(
                    f"non-NULL sentinel local at name+{offset}: {value:#010x}"
                )

    def _canary_check(self, place: FramePlacement) -> None:
        if self.canary is not None:
            self.canary.check_frame(
                self.loaded.process,
                place.name_address + self.frame.canary_offset,
                "parse_response",
            )

    # -- the epilogue: hand control to the CPU ------------------------------------------

    def _function_return(
        self, place: FramePlacement, cached: List[Tuple[str, str]]
    ) -> DaemonEvent:
        process = self.loaded.process
        memory = process.memory
        frame = self.frame
        taint = process.taint
        saved_base = place.ret_slot - frame.saved_area_size
        saved = struct.unpack(f"<{len(frame.saved_registers)}I",
                              memory.read(saved_base, frame.saved_area_size))
        for index, register in enumerate(frame.saved_registers):
            process.registers[register] = saved[index]
            if taint is not None and taint.shadow is not None:
                # The epilogue's register restores move (possibly
                # overflowed) stack bytes into callee-saved registers.
                taint.set_reg(register,
                              taint.shadow.union(saved_base + 4 * index, 4))
        target = memory.read_u32(place.ret_slot)
        if self.ret_guard is not None:
            # The epilogue decrypts; attacker-written plaintext addresses
            # decrypt to unpredictable garbage.
            target = self.ret_guard.restore(target)
        process.sp = place.ret_slot + 4

        cfi = process.cfi
        if cfi is not None:
            try:
                cfi.check_return(place.ret_slot, target)
            except ControlFlowViolation as violation:
                process.record_exit(code=134, signal="SIGABRT")
                return DaemonEvent(
                    kind=EventKind.CRASHED, signal="SIGABRT", detail=str(violation)
                )

        process.pc = target
        if taint is not None and taint.shadow is not None:
            # This is Listing 1's payoff written out: the program counter
            # takes whatever the ret slot holds — wire bytes, when the
            # expansion overflowed that far.
            ret_labels = taint.shadow.union(place.ret_slot, 4)
            x86 = process.arch == "x86"
            taint.set_reg("esp" if x86 else "r13", frozenset())
            taint.set_reg("eip" if x86 else "r15", ret_labels)
            taint.note_pc_write(ret_labels, pc=target,
                                via="parse_response epilogue",
                                address=place.ret_slot)
        result = self._run_cpu()
        return self._classify(result, cached)

    def _run_cpu(self) -> ExecutionResult:
        return make_emulator(self.loaded.process).run()

    def _classify(self, result: ExecutionResult, cached: List[Tuple[str, str]]) -> DaemonEvent:
        process = self.loaded.process
        if result.reason == "daemon-continue":
            return DaemonEvent(
                kind=EventKind.RESPONDED, detail=result.detail, cached=cached,
                execution=result,
            )
        if result.reason == "execve":
            return DaemonEvent(
                kind=EventKind.COMPROMISED,
                detail=result.detail,
                spawn=process.spawns[-1] if process.spawns else None,
                execution=result,
            )
        if result.reason in ("exit", "abort"):
            signal = "SIGABRT" if result.reason == "abort" else None
            return DaemonEvent(
                kind=EventKind.CRASHED, signal=signal, detail=result.detail,
                execution=result,
            )
        if isinstance(result.fault, EmulationBudgetExceeded):
            return DaemonEvent(
                kind=EventKind.HUNG, signal=result.signal, detail=result.detail,
                execution=result,
            )
        return DaemonEvent(
            kind=EventKind.CRASHED, signal=result.signal, detail=result.detail,
            execution=result,
        )
