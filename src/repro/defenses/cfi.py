"""Control-flow integrity (§IV, CFI CaRE-style) as an emulator policy.

CFI reads each ISA's data-flow table: every ``pc_via`` branch carries a
kind (call, return or jump), and ``Emulator._branch`` calls the hooks
below on every taken one.  Two complementary checks, both
hardware-assisted in the mitigation the paper proposes to adapt:

* a **shadow stack**: every call records its return address on a protected
  side stack; every return must match the top entry — this stops all three
  exploit classes at their very first hijacked return;
* **indirect-branch target checking**: indirect calls and jumps (``blx rN``,
  ``jmp reg``, ``mov pc, rN``, ``ldr pc, [...]``) may only land on known
  function entries.
"""

from __future__ import annotations

from typing import List, Set

from ..cpu.events import ControlFlowViolation


class ShadowStackCfi:
    """Shadow stack + valid-entry policy installed as ``process.cfi``."""

    def __init__(self, valid_entries: Set[int]):
        self.valid_entries = set(valid_entries)
        self._shadow: List[int] = []
        self.violations = 0

    @classmethod
    def for_loaded(cls, loaded) -> "ShadowStackCfi":
        """Build the valid-target set from a loaded process's symbol tables."""
        entries: Set[int] = set()
        for image in (loaded.binary, loaded.libc):
            for _name, symbol in image.symbols.items():
                if symbol.kind == "func":
                    entries.add(symbol.address)
        entries.update(loaded.binary.plt.values())
        entries.update(loaded.process.native.keys())
        return cls(entries)

    # -- hooks called by the emulators and the daemon runtime ----------------

    def note_call(self, return_address: int) -> None:
        self._shadow.append(return_address & 0xFFFFFFFF)

    def check_return(self, at: int, target: int) -> None:
        target &= 0xFFFFFFFF
        if not self._shadow or self._shadow[-1] != target:
            self.violations += 1
            raise ControlFlowViolation(at, target, "return",
                                       f"return to {target:#010x} not on shadow stack")
        self._shadow.pop()

    def check_indirect(self, at: int, target: int, kind: str) -> None:
        """``kind`` is the branch's CFI kind, ``call`` or ``jump``."""
        if (target & 0xFFFFFFFF) not in self.valid_entries:
            self.violations += 1
            raise ControlFlowViolation(at, target, f"indirect-{kind}")

    @property
    def depth(self) -> int:
        return len(self._shadow)
