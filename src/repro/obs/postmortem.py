"""Structured crash forensics for the simulated victim.

On real embedded targets the paper's crash triage is the hard part —
Abbasi et al. (PAPERS.md) call out the missing postmortem substrate on
deeply embedded systems: no core dumps, no ptrace, often not even a
serial console.  Our victim is simulated, so we can capture what the
device cannot: the faulting program counter, the full register file, a
stack window around SP, a best-effort return-address walk, the segment
map with permissions, and — through the span tracer — the causal chain
back to the exact datagram whose bytes killed the process.

A :class:`CrashReport` is captured at the crash site (the emulator's
fault path or the daemon's parse path), recorded on the collector, and
attached to the ``daemon.crash`` event's detail, so a flat event trace
alone is enough to answer "which packet caused this crash".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..cpu.trace import disassemble_at
from .spans import snapshot_payload
from .taint import format_offsets

#: Stack bytes captured below/above SP (clipped to the mapped segment).
STACK_WINDOW_BEFORE = 32
STACK_WINDOW_AFTER = 96
#: Words scanned upward from SP for the return-address walk.
RETURN_WALK_WORDS = 64


@dataclass
class CrashReport:
    """Everything a triager needs from one guest crash."""

    process_name: str
    arch: str
    pid: int
    signal: Optional[str]
    reason: str
    pc: int
    sp: int
    pc_disasm: str
    registers: Dict[str, int] = field(default_factory=dict)
    #: Base address + hex bytes of the captured stack window.
    stack_base: int = 0
    stack_hex: str = ""
    #: Stack words that point into executable segments: candidate saved
    #: return addresses (or the attacker's chain), innermost first.
    return_walk: List[Dict[str, Any]] = field(default_factory=list)
    #: ``/proc/<pid>/maps`` equivalent at the time of death.
    segments: List[Dict[str, Any]] = field(default_factory=list)
    #: Causal link: the innermost span that carried wire bytes (usually
    #: ``daemon.parse`` or ``net.deliver``) and the path down to it.
    span_id: Optional[int] = None
    span_path: List[str] = field(default_factory=list)
    #: Hex snapshot of the offending datagram (capped like span payloads).
    datagram_hex: Optional[str] = None
    #: Taint provenance summary (``repro-taint/v1``; see
    #: :func:`repro.obs.taint.validate_taint_summary`) when the process
    #: died under an attached taint engine; ``None`` otherwise.
    taint: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "process": self.process_name,
            "arch": self.arch,
            "pid": self.pid,
            "signal": self.signal,
            "reason": self.reason,
            "pc": self.pc,
            "sp": self.sp,
            "pc_disasm": self.pc_disasm,
            "registers": dict(self.registers),
            "stack_base": self.stack_base,
            "stack_hex": self.stack_hex,
            "return_walk": [dict(entry) for entry in self.return_walk],
            "segments": [dict(entry) for entry in self.segments],
            "span_id": self.span_id,
            "span_path": list(self.span_path),
            "datagram_hex": self.datagram_hex,
            "taint": self.taint,
        }

    def render(self) -> str:
        """gdb-style text postmortem."""
        lines = [
            f"crash postmortem: {self.process_name} (pid {self.pid}, {self.arch})",
            f"  signal : {self.signal or '?'} — {self.reason}",
            f"  pc     : {self.pc:#010x}  {self.pc_disasm}",
            f"  sp     : {self.sp:#010x}",
            "  registers:",
        ]
        names = sorted(self.registers)
        for row_start in range(0, len(names), 4):
            row = names[row_start : row_start + 4]
            lines.append(
                "    " + "  ".join(f"{name:>5}={self.registers[name]:08x}" for name in row)
            )
        if self.stack_hex:
            lines.append(f"  stack [{self.stack_base:#010x}, +{len(self.stack_hex) // 2}):")
            data = bytes.fromhex(self.stack_hex)
            for offset in range(0, len(data), 16):
                chunk = data[offset : offset + 16]
                lines.append(
                    f"    {self.stack_base + offset:#010x}  {chunk.hex(' ')}"
                )
        if self.return_walk:
            lines.append("  return-address walk (stack words into X segments):")
            for entry in self.return_walk:
                lines.append(
                    f"    [sp+{entry['offset']:#05x}] {entry['value']:#010x} "
                    f"-> {entry['segment']}"
                )
        lines.append("  segment map:")
        for seg in self.segments:
            lines.append(
                f"    {seg['base']:08x}-{seg['end']:08x} {seg['perm']} {seg['name']}"
            )
        if self.taint is not None:
            grouped = self.taint.get("pc_offsets", {})
            if grouped:
                described = "; ".join(
                    f"source {source} offsets {format_offsets(offsets)}"
                    for source, offsets in sorted(
                        grouped.items(), key=lambda kv: int(kv[0])))
                lines.append(f"  PC tainted by payload offsets [{described}]")
            else:
                lines.append("  PC not tainted by payload bytes")
            event = self.taint.get("last_pc_event")
            if event is not None:
                slot = (f" from [{event['address']:#010x}]"
                        if event.get("address") is not None else "")
                lines.append(
                    f"    last tainted PC write: {event['pc']:#010x} "
                    f"via {event['via']}{slot}")
            for run in self.taint.get("stack", []):
                described = "; ".join(
                    f"source {source} offsets {format_offsets(offsets)}"
                    for source, offsets in sorted(
                        run["offsets"].items(), key=lambda kv: int(kv[0])))
                lines.append(
                    f"    tainted stack bytes [{run['address']:#010x}, "
                    f"+{run['length']}): {described}")
        if self.span_path:
            lines.append(f"  causal span : #{self.span_id} via {' > '.join(self.span_path)}")
        if self.datagram_hex is not None:
            lines.append(
                f"  offending datagram ({len(self.datagram_hex) // 2} bytes): "
                f"{self.datagram_hex[:96]}{'…' if len(self.datagram_hex) > 96 else ''}"
            )
        return "\n".join(lines)


def _stack_window(process) -> tuple:
    """Bytes around SP, clipped to the segment SP lives in."""
    try:
        segment = process.memory.segment_at(process.sp)
    except Exception:
        return process.sp, b""
    start = max(segment.base, process.sp - STACK_WINDOW_BEFORE)
    end = min(segment.end, process.sp + STACK_WINDOW_AFTER)
    return start, process.memory.read(start, end - start, check=False)


def _return_walk(process) -> List[Dict[str, Any]]:
    """Scan stack words upward from SP for executable-segment pointers."""
    from ..mem.perms import Perm

    walk: List[Dict[str, Any]] = []
    memory = process.memory
    executable = [seg for seg in memory.segments() if Perm.X in seg.perm]
    for index in range(RETURN_WALK_WORDS):
        slot = (process.sp + 4 * index) & 0xFFFFFFFF
        if not memory.is_mapped(slot, 4):
            break
        value = int.from_bytes(memory.read(slot, 4, check=False), "little")
        for seg in executable:
            if seg.contains(value):
                walk.append(
                    {"offset": 4 * index, "slot": slot, "value": value,
                     "segment": seg.name}
                )
                break
    return walk


def capture_crash_report(
    process,
    *,
    signal: Optional[str],
    reason: str,
    tracer=None,
    datagram: Optional[bytes] = None,
) -> CrashReport:
    """Snapshot a dead (or dying) process into a :class:`CrashReport`.

    ``tracer`` links the report to the innermost open span carrying wire
    bytes; ``datagram`` overrides/sets the offending-bytes snapshot when
    the caller knows them directly (the daemon's parse path does).
    """
    stack_base, stack_bytes = _stack_window(process)
    report = CrashReport(
        process_name=process.name,
        arch=process.arch,
        pid=process.pid,
        signal=signal,
        reason=reason,
        pc=process.pc,
        sp=process.sp,
        pc_disasm=(disassemble_at(process, process.pc)
                   or "(unmapped or undecodable)"),
        registers=process.registers.snapshot(),
        stack_base=stack_base,
        stack_hex=stack_bytes.hex(),
        return_walk=_return_walk(process),
        segments=[
            {"name": seg.name, "base": seg.base, "end": seg.end,
             "perm": seg.perm.describe()}
            for seg in process.memory.segments()
        ],
    )
    engine = process.taint
    if engine is not None:
        report.taint = engine.crash_summary(
            process, stack_start=stack_base, stack_length=len(stack_bytes))
    if tracer is not None:
        carrier = tracer.nearest_payload_span()
        if carrier is not None:
            report.span_id = carrier.span_id
            report.span_path = tracer.path(carrier.span_id)
            report.datagram_hex = carrier.attrs.get("payload")
        else:
            report.span_id = tracer.current_id
            report.span_path = tracer.path()
    if datagram is not None:
        report.datagram_hex = snapshot_payload(datagram)
    return report
