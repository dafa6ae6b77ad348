"""Byte-level taint provenance: wire offset -> guest memory -> register -> PC.

The paper's core claim is a *data-flow* claim: specific attacker-controlled
bytes of a DNS reply travel through ``dnsproxy``'s name expansion into a
stack buffer and finally into the saved return address.  Spans prove the
stages happened and the profiler prices them, but neither attributes the
*bytes*.  This module closes that gap with a deterministic, opt-in taint
engine that has **zero outcome effect**:

* A **label** is a ``(source_id, wire_offset)`` pair — source ``N`` is the
  ``N``-th reply datagram the daemon parsed under this engine, and the
  offset indexes into that datagram's payload.
* Labels are seeded where the daemon copies wire bytes into guest memory
  (``dnsproxy._get_name`` expansion writes, ``GuestNameStore`` cache
  inserts) via ``AddressSpace.write(..., taint=...)``.
* A sparse :class:`ShadowMemory` hangs off the address space; per-register
  label sets live here.  Propagation through guest execution is done by
  per-arch ``propagate_taint`` hooks in :mod:`repro.cpu.x86.emu` and
  :mod:`repro.cpu.arm.emu`, driven from the emulator run loop (which falls
  back to per-step dispatch under taint, exactly like ``TraceRecorder``).
* Any write of tainted labels into the program counter is recorded as a
  **PC event** — the provenance chain's terminal link — and surfaces in
  ``CrashReport``, ``repro observe --emit taint``, the dashboard, and the
  ``taint.*`` metrics (which merge bit-identically across chaos workers).

Untainted writes *clear* shadow bytes they cover, so stale labels never
survive buffer reuse; an engine observes, it never perturbs — parity tests
pin taint-on/off outcomes byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from typing import (Any, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

#: One taint label: ``(source_id, wire_offset)``.
Label = Tuple[int, int]
LabelSet = FrozenSet[Label]

#: The clean label set (shared; label sets are immutable).
NO_LABELS: LabelSet = frozenset()

_MASK32 = 0xFFFFFFFF

#: Schema tag for :meth:`TaintEngine.crash_summary` payloads.
TAINT_SCHEMA = "repro-taint/v1"


def payload_digest(payload: bytes) -> str:
    """Stable short digest linking a datagram payload to a taint source."""
    return hashlib.sha256(payload).hexdigest()[:16]


def group_offsets(labels: Iterable[Label]) -> Dict[int, List[int]]:
    """Group labels by source: ``{source_id: sorted wire offsets}``."""
    grouped: Dict[int, List[int]] = {}
    for source, offset in labels:
        grouped.setdefault(source, []).append(offset)
    return {source: sorted(offsets)
            for source, offsets in sorted(grouped.items())}


def format_offsets(offsets: Sequence[int]) -> str:
    """Render sorted offsets as compact runs: ``124..127, 200``."""
    runs: List[Tuple[int, int]] = []
    start: Optional[int] = None
    prev = 0
    for off in offsets:
        if start is None:
            start = prev = off
        elif off == prev + 1:
            prev = off
        else:
            runs.append((start, prev))
            start = prev = off
    if start is not None:
        runs.append((start, prev))
    return ", ".join(f"{lo}..{hi}" if hi > lo else f"{lo}"
                     for lo, hi in runs)


def format_labels(labels: Iterable[Label]) -> str:
    """``source 0 offsets 124..127; source 1 offsets 3`` (or ``clean``)."""
    grouped = group_offsets(labels)
    if not grouped:
        return "clean"
    return "; ".join(f"source {source} offsets {format_offsets(offsets)}"
                     for source, offsets in grouped.items())


def _grouped_json(labels: Iterable[Label]) -> Dict[str, List[int]]:
    """JSON-safe grouping (string source keys, offset lists)."""
    return {str(source): offsets
            for source, offsets in group_offsets(labels).items()}


def _labels_json(labels: Iterable[Label]) -> List[List[int]]:
    return [[source, offset] for source, offset in sorted(labels)]


class ShadowMemory:
    """Sparse per-byte label map shadowing one :class:`AddressSpace`.

    Only tainted bytes occupy storage; a byte absent from the map is
    clean.  The map is updated *before* the real segment write lands
    (mirroring the decode-cache invalidation ordering in
    ``AddressSpace.write``): a permission fault mid-span may leave a
    spurious label behind, which is harmless over-taint, while the
    reverse ordering could silently drop real taint.
    """

    __slots__ = ("_labels",)

    def __init__(self) -> None:
        self._labels: Dict[int, LabelSet] = {}

    def set_range(self, address: int, labels: Sequence[LabelSet]) -> None:
        """Install per-byte label sets starting at ``address``; an empty
        set in the sequence clears that byte."""
        store = self._labels
        for index, labelset in enumerate(labels):
            addr = (address + index) & _MASK32
            if labelset:
                store[addr] = labelset
            else:
                store.pop(addr, None)

    def clear_range(self, address: int, length: int) -> None:
        store = self._labels
        for index in range(length):
            store.pop((address + index) & _MASK32, None)

    def read(self, address: int, length: int) -> Tuple[LabelSet, ...]:
        store = self._labels
        return tuple(store.get((address + index) & _MASK32, NO_LABELS)
                     for index in range(length))

    def union(self, address: int, length: int) -> LabelSet:
        store = self._labels
        merged: set = set()
        for index in range(length):
            merged |= store.get((address + index) & _MASK32, NO_LABELS)
        return frozenset(merged)

    @property
    def live_bytes(self) -> int:
        """Number of currently-tainted guest bytes."""
        return len(self._labels)

    def tainted_runs(self, address: int, length: int) -> List[Tuple[int, int, LabelSet]]:
        """Contiguous tainted spans inside ``[address, address+length)`` as
        ``(absolute start, run length, union of labels)`` triples."""
        runs: List[Tuple[int, int, LabelSet]] = []
        store = self._labels
        start: Optional[int] = None
        merged: set = set()
        for index in range(length):
            addr = (address + index) & _MASK32
            labels = store.get(addr)
            if labels:
                if start is None:
                    start, merged = addr, set()
                merged |= labels
            elif start is not None:
                runs.append((start, ((address + index) & _MASK32) - start,
                             frozenset(merged)))
                start = None
        if start is not None:
            runs.append((start, ((address + length) & _MASK32) - start,
                         frozenset(merged)))
        return runs


class TaintEngine:
    """Deterministic taint tracker; attach via ``Collector.attach_taint``.

    One engine accumulates sources, seed records, and PC events across
    every process booted under its collector (each boot gets a fresh
    :class:`ShadowMemory` — the address space is per-boot — while the
    provenance record is cumulative, like the profiler's sample log).
    """

    def __init__(self) -> None:
        #: Back-reference set by ``Collector.attach_taint`` (may stay
        #: ``None`` for direct use; metrics/events are skipped then).
        self.collector = None
        #: Shadow map of the currently-attached process's memory.
        self.shadow: Optional[ShadowMemory] = None
        #: Most recently attached process (crash summaries default to it).
        self.process = None
        #: Per-register label sets (absent == clean), per attached process.
        self.reg_shadows: Dict[str, LabelSet] = {}
        #: Reply datagrams seen, in parse order; index == source id.
        self.sources: List[dict] = []
        #: Wire-byte -> guest-address copy records, in write order.
        self.seeds: List[dict] = []
        #: Tainted program-counter writes, in execution order.
        self.pc_events: List[dict] = []
        #: Derived-string labels (name read back from tainted memory).
        self.derived: Dict[str, Tuple[LabelSet, ...]] = {}
        self._source: Optional[int] = None
        self._propagate = None

    # -- wiring ---------------------------------------------------------------

    def attach_process(self, process) -> None:
        """Shadow ``process``: hang a fresh map off its address space,
        reset register shadows, and bind the arch propagation hook."""
        process.taint = self
        self.process = process
        self.shadow = ShadowMemory()
        process.memory.taint = self.shadow
        self.reg_shadows = {}
        if process.arch == "x86":
            from ..cpu.x86.emu import propagate_taint
        else:
            from ..cpu.arm.emu import propagate_taint
        self._propagate = propagate_taint

    def _inc(self, name: str, amount: int = 1) -> None:
        if self.collector is not None:
            self.collector.inc(name, amount)

    def _observe(self, name: str, value: float) -> None:
        if self.collector is not None:
            self.collector.observe(name, value)

    # -- sources and seeding --------------------------------------------------

    def begin_source(self, payload: bytes, *, note: str = "dns reply") -> int:
        """Open a taint source for one wire payload; subsequent
        :meth:`wire_labels` calls attribute to it until :meth:`end_source`."""
        source = len(self.sources)
        span_id = None
        if self.collector is not None:
            span_id = self.collector.tracer.current_id
        self.sources.append({
            "id": source,
            "bytes": len(payload),
            "digest": payload_digest(payload),
            "span_id": span_id,
            "note": note,
        })
        self._source = source
        self._inc("taint.sources")
        return source

    def end_source(self) -> None:
        """Close the open source and record the live-taint high-water mark."""
        self._source = None
        if self.shadow is not None:
            self._observe("taint.live_bytes", float(self.shadow.live_bytes))

    def wire_labels(self, wire_offset: int, length: int, *, address: int,
                    note: str = "") -> Optional[Tuple[LabelSet, ...]]:
        """Per-byte labels for copying ``length`` wire bytes starting at
        ``wire_offset`` to guest ``address``.  Returns ``None`` outside an
        open source (the write then *clears* shadow, which is correct for
        daemon-generated bytes)."""
        if self._source is None or length <= 0:
            return None
        source = self._source
        self.seeds.append({
            "source": source,
            "wire_offset": wire_offset,
            "length": length,
            "address": address & _MASK32,
            "note": note,
        })
        self._inc("taint.seeded_bytes", length)
        return tuple(frozenset(((source, wire_offset + index),))
                     for index in range(length))

    def register_derived(self, name: str, labels: Sequence[LabelSet]) -> None:
        """Remember per-character labels for a string the daemon rebuilt
        from (possibly tainted) guest memory, keyed case-insensitively."""
        key = name.lower()
        if any(labels):
            self.derived[key] = tuple(labels)
        else:
            self.derived.pop(key, None)

    def derived_labels(self, name: str) -> Optional[Tuple[LabelSet, ...]]:
        return self.derived.get(name.lower())

    # -- propagation ----------------------------------------------------------

    def step(self, process, insn, prev_regs: Dict[str, int]) -> None:
        """Propagate across one executed instruction.  ``prev_regs`` is a
        pre-step register snapshot: addresses (sp, bases) must be computed
        from the values the instruction *read*, not the ones it wrote."""
        if self._propagate is not None:
            self._propagate(self, process, insn, prev_regs)

    def reg_labels(self, name: str) -> LabelSet:
        return self.reg_shadows.get(name, NO_LABELS)

    def set_reg(self, name: str, labels: LabelSet) -> None:
        if labels:
            self.reg_shadows[name] = labels
        else:
            self.reg_shadows.pop(name, None)

    def note_pc_write(self, labels: LabelSet, *, pc: int, via: str,
                      address: Optional[int] = None) -> None:
        """Record a tainted program-counter write (no-op when clean)."""
        if not labels:
            return
        event = {
            "pc": pc & _MASK32,
            "via": via,
            "address": None if address is None else address & _MASK32,
            "labels": _labels_json(labels),
            "registers": {name: _labels_json(labelset)
                          for name, labelset in sorted(self.reg_shadows.items())
                          if labelset},
        }
        self.pc_events.append(event)
        self._inc("taint.pc_writes")
        if self.collector is not None:
            self.collector.emit("taint", "taint.pc", pc=event["pc"], via=via,
                                offsets=format_labels(labels))

    def on_native_return(self, process) -> None:
        """Model the return-to-caller a native (libc-model) call performs:
        x86 pops the return address off the stack, ARM moves lr into pc.
        Called *after* the native layer updated sp/pc."""
        if self.shadow is None:
            return
        if process.arch == "x86":
            self.set_reg("eax", NO_LABELS)
            slot = (process.sp - 4) & _MASK32
            labels = self.shadow.union(slot, 4)
            self.set_reg("eip", labels)
            self.note_pc_write(labels, pc=process.pc,
                               via="native return (pop eip)", address=slot)
        else:
            self.set_reg("r0", NO_LABELS)
            labels = self.reg_labels("r14")
            self.set_reg("r15", labels)
            self.note_pc_write(labels, pc=process.pc,
                               via="native return (mov pc, lr)")

    # -- queries and export ---------------------------------------------------

    def labels_at(self, address: int, length: int = 1) -> LabelSet:
        if self.shadow is None:
            return NO_LABELS
        return self.shadow.union(address, length)

    @property
    def seeded_bytes(self) -> int:
        return sum(seed["length"] for seed in self.seeds)

    def pc_sources(self) -> List[int]:
        """Source ids implicated in any tainted PC write, ascending."""
        implicated = {source for event in self.pc_events
                      for source, _offset in event["labels"]}
        return sorted(implicated)

    def datagram_reached_pc(self, payload: bytes) -> bool:
        """Did bytes of this exact payload land in the program counter?
        Matched by payload digest (span ids differ between the network's
        delivery span and the daemon's parse span)."""
        if not self.pc_events:
            return False
        digests = {self.sources[source]["digest"]
                   for source in self.pc_sources()
                   if 0 <= source < len(self.sources)}
        return payload_digest(payload) in digests

    def crash_summary(self, process=None, *, stack_start: Optional[int] = None,
                      stack_length: int = 0) -> dict:
        """The ``CrashReport``-embeddable summary (``repro-taint/v1``)."""
        process = process if process is not None else self.process
        pc_name = "eip" if process is not None and process.arch == "x86" else "r15"
        pc_labels = self.reg_labels(pc_name)
        stack: List[dict] = []
        if (self.shadow is not None and stack_start is not None
                and stack_length > 0):
            for start, length, labels in self.shadow.tainted_runs(
                    stack_start, stack_length):
                stack.append({"address": start, "length": length,
                              "offsets": _grouped_json(labels)})
        return {
            "version": TAINT_SCHEMA,
            "pc": (process.pc & _MASK32) if process is not None else 0,
            "pc_offsets": _grouped_json(pc_labels),
            "pc_writes": len(self.pc_events),
            "last_pc_event": self.pc_events[-1] if self.pc_events else None,
            "live_bytes": self.shadow.live_bytes if self.shadow else 0,
            "sources": [dict(source) for source in self.sources],
            "registers": {name: _grouped_json(labels)
                          for name, labels in sorted(self.reg_shadows.items())
                          if labels},
            "stack": stack,
        }

    def to_dict(self) -> dict:
        """Full provenance export (collector/dashboard JSON)."""
        return {
            "sources": [dict(source) for source in self.sources],
            "seeds": [dict(seed) for seed in self.seeds],
            "pc_events": [dict(event) for event in self.pc_events],
            "seeded_bytes": self.seeded_bytes,
            "live_bytes": self.shadow.live_bytes if self.shadow else 0,
        }


def coalesce_seeds(seeds: Sequence[dict]) -> List[dict]:
    """Merge adjacent seed records that extend each other contiguously in
    both wire offset and guest address (the expansion loop emits one
    record per length byte / label chunk; a linear copy coalesces to one
    run per name)."""
    merged: List[dict] = []
    for seed in seeds:
        if merged:
            last = merged[-1]
            if (last["source"] == seed["source"]
                    and last["wire_offset"] + last["length"] == seed["wire_offset"]
                    and last["address"] + last["length"] == seed["address"]):
                last["length"] += seed["length"]
                continue
        merged.append(dict(seed))
    return merged


def render_provenance(engine: TaintEngine) -> str:
    """Text chain: wire offset -> guest address -> register -> PC."""
    lines = [f"taint provenance: {len(engine.sources)} source(s), "
             f"{engine.seeded_bytes} byte(s) seeded, "
             f"{len(engine.pc_events)} tainted PC write(s)"]
    if not engine.sources:
        lines.append("  (no wire payloads were parsed under taint)")
        return "\n".join(lines)
    seeds_by_source: Dict[int, List[dict]] = {}
    for seed in coalesce_seeds(engine.seeds):
        seeds_by_source.setdefault(seed["source"], []).append(seed)
    for source in engine.sources:
        span = (f"span {source['span_id']}" if source["span_id"] is not None
                else "no span")
        lines.append(f"source {source['id']}: {source['bytes']}-byte "
                     f"{source['note']}, digest {source['digest']}, {span}")
        for seed in seeds_by_source.get(source["id"], []):
            end = seed["wire_offset"] + seed["length"] - 1
            note = f"  ({seed['note']})" if seed["note"] else ""
            lines.append(
                f"  wire[{seed['wire_offset']}..{end}] -> "
                f"mem[0x{seed['address']:08x}..0x{seed['address'] + seed['length'] - 1:08x}]"
                f"{note}")
    for event in engine.pc_events:
        where = (f" from [0x{event['address']:08x}]"
                 if event["address"] is not None else "")
        lines.append(f"PC <- 0x{event['pc']:08x} via {event['via']}{where}: "
                     f"{format_labels(tuple(map(tuple, event['labels'])))}")
        for name, labels in event["registers"].items():
            lines.append(f"    {name} = "
                         f"{format_labels(tuple(map(tuple, labels)))}")
    if not engine.pc_events:
        lines.append("no tainted PC writes observed")
    return "\n".join(lines)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"taint summary: {message}")


def _check_grouped(grouped: Any, where: str) -> int:
    _expect(isinstance(grouped, dict), f"{where} must be a dict")
    count = 0
    for source, offsets in grouped.items():
        _expect(isinstance(source, str) and source.lstrip("-").isdigit(),
                f"{where} keys must be stringified source ids")
        _expect(isinstance(offsets, list) and offsets == sorted(offsets),
                f"{where}[{source}] must be a sorted offset list")
        for offset in offsets:
            _expect(isinstance(offset, int) and not isinstance(offset, bool),
                    f"{where}[{source}] offsets must be ints")
            count += 1
    return count


def _check_label_pairs(labels: Any, where: str) -> int:
    _expect(isinstance(labels, list), f"{where} must be a list")
    for pair in labels:
        _expect(isinstance(pair, list) and len(pair) == 2
                and all(isinstance(part, int) and not isinstance(part, bool)
                        for part in pair),
                f"{where} entries must be [source, offset] int pairs")
    return len(labels)


def validate_taint_summary(payload: Any) -> int:
    """Strictly validate a ``repro-taint/v1`` summary (the postmortem's
    ``"taint"`` key).  Raises :class:`ValueError` naming the first
    violation; returns the number of label references checked."""
    _expect(isinstance(payload, dict), "payload must be a dict")
    _expect(payload.get("version") == TAINT_SCHEMA,
            f"version must be {TAINT_SCHEMA!r}")
    expected = {"version", "pc", "pc_offsets", "pc_writes", "last_pc_event",
                "live_bytes", "sources", "registers", "stack"}
    _expect(set(payload) == expected,
            f"keys must be exactly {sorted(expected)}")
    for key in ("pc", "pc_writes", "live_bytes"):
        value = payload[key]
        _expect(isinstance(value, int) and not isinstance(value, bool)
                and value >= 0, f"{key} must be a non-negative int")
    checked = _check_grouped(payload["pc_offsets"], "pc_offsets")
    event = payload["last_pc_event"]
    if payload["pc_writes"] == 0:
        _expect(event is None, "last_pc_event must be null with no PC writes")
    else:
        _expect(isinstance(event, dict), "last_pc_event must be a dict")
        _expect(set(event) == {"pc", "via", "address", "labels", "registers"},
                "last_pc_event keys")
        _expect(isinstance(event["pc"], int), "last_pc_event.pc must be int")
        _expect(isinstance(event["via"], str) and event["via"],
                "last_pc_event.via must be a non-empty string")
        _expect(event["address"] is None or isinstance(event["address"], int),
                "last_pc_event.address must be int or null")
        checked += _check_label_pairs(event["labels"], "last_pc_event.labels")
        _expect(event["labels"], "last_pc_event.labels must be non-empty")
        _expect(isinstance(event["registers"], dict),
                "last_pc_event.registers must be a dict")
        for name, labels in event["registers"].items():
            _expect(isinstance(name, str),
                    "last_pc_event.registers keys must be register names")
            checked += _check_label_pairs(
                labels, f"last_pc_event.registers[{name}]")
    _expect(isinstance(payload["sources"], list), "sources must be a list")
    for index, source in enumerate(payload["sources"]):
        _expect(isinstance(source, dict), f"sources[{index}] must be a dict")
        _expect(set(source) == {"id", "bytes", "digest", "span_id", "note"},
                f"sources[{index}] keys")
        _expect(source["id"] == index,
                f"sources[{index}].id must equal its position")
        _expect(isinstance(source["bytes"], int) and source["bytes"] > 0,
                f"sources[{index}].bytes must be a positive int")
        _expect(isinstance(source["digest"], str)
                and len(source["digest"]) == 16
                and all(ch in "0123456789abcdef" for ch in source["digest"]),
                f"sources[{index}].digest must be 16 hex chars")
        _expect(source["span_id"] is None or isinstance(source["span_id"], int),
                f"sources[{index}].span_id must be int or null")
        _expect(isinstance(source["note"], str),
                f"sources[{index}].note must be a string")
    _expect(isinstance(payload["registers"], dict), "registers must be a dict")
    for name, grouped in payload["registers"].items():
        _expect(isinstance(name, str), "registers keys must be register names")
        checked += _check_grouped(grouped, f"registers[{name}]")
    _expect(isinstance(payload["stack"], list), "stack must be a list")
    for index, run in enumerate(payload["stack"]):
        _expect(isinstance(run, dict), f"stack[{index}] must be a dict")
        _expect(set(run) == {"address", "length", "offsets"},
                f"stack[{index}] keys")
        _expect(isinstance(run["address"], int) and run["address"] >= 0,
                f"stack[{index}].address must be a non-negative int")
        _expect(isinstance(run["length"], int) and run["length"] > 0,
                f"stack[{index}].length must be a positive int")
        checked += _check_grouped(run["offsets"], f"stack[{index}].offsets")
    json.dumps(payload)  # must be serializable as-is
    return checked
