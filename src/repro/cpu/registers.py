"""32-bit register files for the two target architectures."""

from __future__ import annotations

from typing import Dict, Tuple

X86_REGISTERS: Tuple[str, ...] = ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi")
X86_EXTRA: Tuple[str, ...] = ("eip", "eflags")

#: Index order matches the hardware encoding used in ModR/M and ``PUSH r32``.
X86_REG_INDEX: Dict[str, int] = {name: index for index, name in enumerate(X86_REGISTERS)}

#: 8-bit register row used by ``MOV r8, imm8`` (B0+r): al cl dl bl ah ch dh bh.
X86_REG8: Tuple[str, ...] = ("al", "cl", "dl", "bl", "ah", "ch", "dh", "bh")

ARM_REGISTERS: Tuple[str, ...] = tuple(f"r{i}" for i in range(16))
ARM_ALIASES: Dict[str, str] = {"sp": "r13", "lr": "r14", "pc": "r15", "fp": "r11", "ip": "r12"}

MASK32 = 0xFFFFFFFF


class RegisterFile:
    """Named 32-bit registers with alias support and masking."""

    def __init__(self, names: Tuple[str, ...], aliases: Dict[str, str]):
        self._names = names
        self._aliases = dict(aliases)
        self._values: Dict[str, int] = {name: 0 for name in names}

    def _canonical(self, name: str) -> str:
        name = self._aliases.get(name, name)
        if name not in self._values:
            raise KeyError(f"unknown register {name!r}")
        return name

    @property
    def values(self) -> Dict[str, int]:
        """The raw canonical-name → value mapping (live, not a copy).

        Mutators must store 32-bit-masked values under canonical names.
        """
        return self._values

    def get(self, name: str) -> int:
        return self._values[self._canonical(name)]

    def set(self, name: str, value: int) -> None:
        self._values[self._canonical(name)] = value & MASK32

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __setitem__(self, name: str, value: int) -> None:
        self.set(name, value)

    def snapshot(self) -> Dict[str, int]:
        """Copy of all register values (used by the recon debugger)."""
        return dict(self._values)

    def load(self, values: Dict[str, int]) -> None:
        for name, value in values.items():
            self.set(name, value)

    def describe(self) -> str:
        return "  ".join(f"{name}={value:08x}" for name, value in self._values.items())


def make_x86_registers() -> RegisterFile:
    return RegisterFile(X86_REGISTERS + X86_EXTRA, aliases={"sp": "esp", "pc": "eip"})


def make_arm_registers() -> RegisterFile:
    return RegisterFile(ARM_REGISTERS + ("cpsr",), aliases=dict(ARM_ALIASES))


def make_registers(arch: str) -> RegisterFile:
    if arch == "x86":
        return make_x86_registers()
    if arch == "arm":
        return make_arm_registers()
    raise ValueError(f"unsupported architecture {arch!r}")


def pc_register(arch: str) -> str:
    return "eip" if arch == "x86" else "r15"


def sp_register(arch: str) -> str:
    return "esp" if arch == "x86" else "r13"
