"""Per-layer time attribution, from outside the program.

:class:`LayerTracer` wraps each layer's public entry points for the length
of a traced round.  Every wrapper pushes a frame on one in-memory span
stack; when a call returns, its duration minus the time of the wrapped
calls nested inside it is the layer's *self* time.  Self times of nested
layers never overlap, so they add up, and whatever an operation spent
outside every wrapped call is ``other``.

Module-level entry points are patched by identity in every loaded
``repro`` module, because callers bind them with ``from ... import``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: layer -> entry points, as ``module:function`` or ``module:Class.method``.
#: ``ConnmanDaemon.restart`` is a class alias of ``boot``: it is a separate
#: attribute and needs its own wrapper.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("binfmt.build", ("repro.binfmt:build_connman", "repro.binfmt:build_libc")),
    ("binfmt.load", ("repro.binfmt:load_process",)),
    ("connman.boot", ("repro.connman.daemon:ConnmanDaemon.boot",
                      "repro.connman.daemon:ConnmanDaemon.restart")),
    ("connman.dnsproxy", ("repro.connman.dnsproxy:DnsProxyCore.handle_reply",)),
    ("connman.cache", ("repro.connman.gueststore:GuestBackedDnsCache.get",
                       "repro.connman.gueststore:GuestBackedDnsCache.put",
                       "repro.connman.gueststore:GuestBackedDnsCache.get_stale")),
    ("cpu.run", ("repro.cpu.emulator:Emulator.run",)),
    ("dns.codec", ("repro.dns.message:Message.encode",
                   "repro.dns.message:Message.decode")),
    ("dns.server", ("repro.dns.server:SimpleDnsServer.handle_query",
                    "repro.dns.malicious:MaliciousDnsServer.handle_query")),
    ("net.deliver", ("repro.net.network:Network.deliver",)),
    ("exploit.recon", ("repro.exploit.recon:Debugger.knowledge",)),
    ("exploit.gadgets", ("repro.exploit.gadgets:GadgetFinder.all_gadgets",)),
    # Every ExploitBuilder subclass that defines its own build().
    ("exploit.build", ("repro.exploit.builders.base:ExploitBuilder.build",)),
    ("exploit.plan", ("repro.exploit.payload:plan_labels",)),
)

LAYER_NAMES = tuple(layer for layer, _ in LAYERS)

#: The tight loop the ``cpu`` layer keeps as its microbenchmark.
LOOP_ARCHES = ("x86", "arm")


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class LayerTracer:
    """Installs timing wrappers; accumulates self time, calls and CPU counters."""

    def __init__(self):
        #: layer -> [self seconds, calls]
        self.totals: Dict[str, List[float]] = {layer: [0.0, 0] for layer in LAYER_NAMES}
        #: Summed over every ``Emulator.run``: steps retired, decode-cache
        #: hits and misses, steps executed through superblocks, blocks built.
        self.cpu = {"steps": 0, "decode_hits": 0, "decode_misses": 0,
                    "block_steps": 0, "block_builds": 0}
        self._stack: List[List[float]] = []
        self._undo: List[Callable[[], None]] = []

    # -- wrappers -------------------------------------------------------------

    def _timed(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        cell = self.totals[layer]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]  # time spent in wrapped calls nested in this one
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                cell[0] += elapsed - frame[0]
                cell[1] += 1
                if stack:
                    stack[-1][0] += elapsed
        return timed

    def _counted_run(self, run: Callable) -> Callable:
        cpu = self.cpu

        @functools.wraps(run)
        def counted(emulator, *args, **kwargs):
            decode = emulator.process.decode_cache
            blocks = emulator.process.block_cache
            before = (decode.hits, decode.misses, blocks.steps, blocks.builds)
            result = run(emulator, *args, **kwargs)
            cpu["steps"] += result.steps
            cpu["decode_hits"] += decode.hits - before[0]
            cpu["decode_misses"] += decode.misses - before[1]
            cpu["block_steps"] += blocks.steps - before[2]
            cpu["block_builds"] += blocks.builds - before[3]
            return result
        return counted

    # -- patching ---------------------------------------------------------------

    def _patch_method(self, layer: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._timed(layer, raw.__func__))
        elif layer == "cpu.run":
            wrapped = self._timed(layer, self._counted_run(raw))
        else:
            wrapped = self._timed(layer, raw)
        setattr(cls, attr, wrapped)
        self._undo.append(functools.partial(setattr, cls, attr, raw))

    def _patch_function(self, layer: str, original: Callable) -> None:
        wrapped = self._timed(layer, original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append(functools.partial(setattr, module, attr, original))

    def install(self) -> "LayerTracer":
        for layer, targets in LAYERS:
            for target in targets:
                module_name, _, path = target.partition(":")
                owner = importlib.import_module(module_name)
                if "." not in path:
                    self._patch_function(layer, getattr(owner, path))
                    continue
                class_name, attr = path.split(".")
                cls = getattr(owner, class_name)
                if layer == "exploit.build":
                    for sub in _subclasses(cls):
                        if attr in sub.__dict__:
                            self._patch_method(layer, sub, attr)
                else:
                    self._patch_method(layer, cls, attr)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- metrics ------------------------------------------------------------------

    def metrics(self, ops: int, op_seconds: float, scale: float = 1.0) -> Dict[str, float]:
        """Per-layer metrics for ``ops`` operations that took ``op_seconds``
        of wall time; ``scale`` converts wall time to reference speed.

        A layer that was never called has a measured share of 0.  A ratio
        whose denominator is 0 does not apply and is left out, so it is
        never mistaken for a measured 0.
        """
        out: Dict[str, float] = {}
        covered = 0.0
        for layer in LAYER_NAMES:
            self_s, calls = self.totals[layer]
            covered += self_s
            out[f"{layer}.share"] = self_s / op_seconds
            out[f"{layer}.self_ms_per_op"] = self_s * scale * 1e3 / ops
            out[f"{layer}.calls_per_op"] = calls / ops
        out["other.share"] = 1.0 - covered / op_seconds
        cpu = self.cpu
        lookups = cpu["decode_hits"] + cpu["decode_misses"]
        out["cpu.steps_per_op"] = cpu["steps"] / ops
        if lookups:
            out["cpu.decode_hit_ratio"] = cpu["decode_hits"] / lookups
        if cpu["steps"]:
            out["cpu.block_step_share"] = cpu["block_steps"] / cpu["steps"]
        out["cpu.block_builds_per_op"] = cpu["block_builds"] / ops
        out["connman.boots_per_op"] = self.totals["connman.boot"][1] / ops
        return out
