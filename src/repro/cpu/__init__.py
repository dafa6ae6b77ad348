"""CPU substrate: x86 and ARMv7 assemblers, decoders and emulators."""

from .cache import DecodeCache
from .emulator import (DEFAULT_STEP_BUDGET, Emulator, ExecutionResult,
                       RunObserver, make_emulator)
from .events import (
    CanaryClobbered,
    ControlFlowViolation,
    CpuError,
    EmulationBudgetExceeded,
    IllegalInstruction,
    _EmulationStop,
)
from .isa import ARM, SUPPORTED_ARCHES, X86, Instruction, check_arch
from .native import NativeCallContext, NativeFunction, NativeHandler
from .process import ExitRecord, Process, SpawnRecord
from .trace import TraceEntry, TraceRecorder
from .registers import (
    RegisterFile,
    make_arm_registers,
    make_registers,
    make_x86_registers,
    pc_register,
    sp_register,
)

__all__ = [
    "ARM",
    "CanaryClobbered",
    "check_arch",
    "ControlFlowViolation",
    "CpuError",
    "DecodeCache",
    "DEFAULT_STEP_BUDGET",
    "EmulationBudgetExceeded",
    "Emulator",
    "ExecutionResult",
    "ExitRecord",
    "IllegalInstruction",
    "Instruction",
    "make_arm_registers",
    "make_emulator",
    "make_registers",
    "make_x86_registers",
    "NativeCallContext",
    "NativeFunction",
    "NativeHandler",
    "pc_register",
    "Process",
    "RegisterFile",
    "RunObserver",
    "sp_register",
    "SpawnRecord",
    "SUPPORTED_ARCHES",
    "TraceEntry",
    "TraceRecorder",
    "X86",
]
