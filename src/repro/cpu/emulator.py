"""Shared emulation loop for both architectures.

The loop has a single rule the whole reproduction depends on: *native
functions are address-triggered*.  When the program counter lands on a
registered libc/PLT entry, the host handler runs; anywhere else, bytes are
fetched (X-permission-checked — the W^X enforcement point) and executed.
All outcomes, including exploit failures, are returned as
:class:`ExecutionResult` rather than raised, so experiment code can tabulate
them like the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..mem import MemoryFault
from .events import CpuError, EmulationBudgetExceeded, _EmulationStop
from .isa import DataFlow, Instruction
from .process import Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.postmortem import CrashReport

DEFAULT_STEP_BUDGET = 200_000

#: The cache counters every observed run reports to
#: :meth:`RunObserver.end_run`, as deltas over the run, in this order.
CACHE_COUNTERS = (
    "decode_cache_hits",
    "decode_cache_misses",
)


@dataclass
class ExecutionResult:
    """How one emulation run ended."""

    reason: str
    steps: int
    detail: str = ""
    fault: Optional[BaseException] = None
    #: Structured crash forensics, captured at fault time when the process
    #: is observed (``process.observer`` set).  ``None`` on clean exits and
    #: on unobserved runs.
    postmortem: Optional["CrashReport"] = None

    @property
    def spawned(self) -> bool:
        """True when control flow reached an ``exec*`` image replacement."""
        return self.reason == "execve"

    @property
    def crashed(self) -> bool:
        return self.reason == "fault"

    @property
    def signal(self) -> Optional[str]:
        return getattr(self.fault, "signal", None) if self.fault is not None else None

    def describe(self) -> str:
        text = f"{self.reason} after {self.steps} steps"
        if self.detail:
            text += f": {self.detail}"
        if self.signal:
            text += f" [{self.signal}]"
        return text


class RunObserver:
    """What the run loop tells each observer in ``Process.observers``.

    Every method is a no-op, so an implementation overrides only the
    hooks it uses.  Observers are read-only over guest state: an observed
    run has the same outcome, step count and fault as an unobserved one.
    """

    def before_step(self, process: Process) -> None:
        """The native or instruction at ``process.pc`` is about to run."""

    def on_insn(self, process: Process, insn) -> None:
        """One instruction completed."""

    def on_native(self, process: Process, native, pc: int) -> None:
        """The native at ``pc`` completed and returned to its caller."""

    def end_run(self, process: Process, counters: Dict[str, int]) -> None:
        """The run ended, however; ``counters`` are its cache deltas."""


class Emulator:
    """Architecture-neutral run loop; subclasses implement :meth:`step`."""

    #: The ISA's data-flow table; its ``pc_via`` kinds drive the CFI hooks.
    flow: DataFlow

    def __init__(self, process: Process):
        self.process = process

    def step(self):  # pragma: no cover - abstract
        """Execute one instruction; returns the executed Instruction."""
        raise NotImplementedError

    def _branch(self, insn: Instruction, target: int) -> None:
        """Commit ``insn``'s taken branch to ``target``, after its other
        side effects.  Under a CFI policy a call first notes its return
        address, and an indirect branch has its target checked."""
        process = self.process
        cfi = process.cfi
        if cfi is not None:
            kind = self.flow.pc_via[insn.mnemonic].cfi
            if kind == "call":
                cfi.note_call(insn.end)
            if self.flow.indirect(insn):
                if kind == "return":
                    cfi.check_return(insn.address, target)
                else:
                    cfi.check_indirect(insn.address, target, kind)
        process.pc = target

    def run(self, max_steps: int = DEFAULT_STEP_BUDGET) -> ExecutionResult:
        """Execute until stop/fault/budget; observed runs get a ``cpu.run`` span.

        When the process carries an observer, the whole run nests under a
        ``cpu.run`` span (continuing whatever trace context the caller —
        network delivery, daemon parse — left open), and a faulting run
        captures a :class:`~repro.obs.postmortem.CrashReport` while the
        registers and memory map are still exactly as the fault left them.
        """
        observer = self.process.observer
        if observer is None:
            return self._run_loop(max_steps)
        tracer = observer.tracer
        span = tracer.start("cpu.run", arch=self.process.arch,
                            pc=f"{self.process.pc:#x}")
        try:
            result = self._run_loop(max_steps)
            span.attrs["outcome"] = result.reason
            span.attrs["steps"] = result.steps
            if result.crashed:
                span.attrs["signal"] = result.signal
                from ..obs.postmortem import capture_crash_report

                result.postmortem = capture_crash_report(
                    self.process,
                    signal=result.signal or "SIGSEGV",
                    reason=result.detail,
                    tracer=tracer,
                )
            return result
        finally:
            tracer.end(span)

    def _run_loop(self, max_steps: int = DEFAULT_STEP_BUDGET) -> ExecutionResult:
        process = self.process
        observers = process.observers
        if observers:
            counters_before = _cache_counters(process)
        steps = 0
        try:
            while steps < max_steps:
                native = process.native_at(process.pc)
                if native is not None:
                    pc = process.pc
                    for observer in observers:
                        observer.before_step(process)
                    native.invoke(process)
                    steps += 1
                    for observer in observers:
                        observer.on_native(process, native, pc)
                elif observers:
                    for observer in observers:
                        observer.before_step(process)
                    insn = self.step()
                    steps += 1
                    for observer in observers:
                        observer.on_insn(process, insn)
                else:
                    self.step()
                    steps += 1
            raise EmulationBudgetExceeded(max_steps)
        except _EmulationStop as stop:
            return ExecutionResult(stop.reason, steps, stop.detail)
        except (MemoryFault, CpuError) as fault:
            process.record_exit(code=139, signal=fault.signal)
            # Drop the traceback: its frames would pin this dead process
            # (and its address space) for as long as the result is kept.
            return ExecutionResult("fault", steps, str(fault),
                                   fault=fault.with_traceback(None))
        finally:
            if observers:
                counters = _cache_counters(process)
                for name, before in counters_before.items():
                    counters[name] -= before
                for observer in observers:
                    observer.end_run(process, counters)


def _cache_counters(process: Process) -> Dict[str, int]:
    cache = process.decode_cache
    return dict(zip(CACHE_COUNTERS, (cache.hits, cache.misses)))


def make_emulator(process: Process) -> Emulator:
    """Instantiate the right backend for the process architecture."""
    if process.arch == "x86":
        from .x86.emu import X86Emulator

        return X86Emulator(process)
    from .arm.emu import ArmEmulator

    return ArmEmulator(process)
