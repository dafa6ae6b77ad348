"""Maps a binary + libc into a fresh process, applying the protection model.

This is where the two OS defenses the paper bypasses are applied:

* **W^X** — when enabled, stack and heap are mapped RW; when disabled
  (pre-NX, or ``execstack``-style builds), they are RWX and injected
  shellcode can run from the stack;
* **ASLR** — when enabled, the libc and stack bases come pre-randomized in
  the :class:`~repro.mem.MemoryLayout`; the non-PIE main image stays put.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

from ..cpu import NativeFunction, Process
from ..mem import AddressSpace, MemoryLayout, Perm, Segment
from .binary import Binary, relocate
from .libc import LibcImage
from .section import Symbol

#: Bytes left above the initial stack pointer for env/argv furniture.
STACK_ENVIRONMENT_RESERVE = 0x200


@dataclass
class LoadedProcess:
    """A process plus the images it was built from."""

    process: Process
    binary: Binary
    libc_image: LibcImage
    layout: MemoryLayout
    wx_enabled: bool

    @cached_property
    def libc(self) -> Binary:
        """libc relocated to this boot's base, built on first read.

        Booting and serving queries never read it: the segments and natives
        come straight from the shared image.  Recon, CFI and :meth:`symbol`
        do.
        """
        return relocate(self.libc_image.binary, self.layout.libc_base, new_name="libc")

    def libc_address(self, name: str) -> int:
        """A libc symbol's address at this boot's base, without relocating libc."""
        return (self.layout.libc_base
                + self.libc_image.binary.symbols.address_of(name)) & 0xFFFFFFFF

    def symbol(self, name: str) -> Symbol:
        """Look up a symbol in the main binary, then in the mapped libc."""
        found = self.binary.symbols.get(name)
        if found is None:
            found = self.libc.symbols.get(name)
        if found is None:
            raise KeyError(f"symbol {name!r} not found in {self.binary.name} or libc")
        return found

    def address_of(self, name: str) -> int:
        return self.symbol(name).address

    def plt_address(self, name: str) -> int:
        try:
            return self.binary.plt[name]
        except KeyError:
            raise KeyError(f"{self.binary.name} has no PLT entry for {name!r}") from None


def _image_segments(image: Binary, prefix: str, delta: int = 0) -> List[Segment]:
    """One segment per section, slid by ``delta``, over the frozen section bytes."""
    return [
        Segment(f"{prefix}{section.name}", (section.address + delta) & 0xFFFFFFFF,
                max(section.size, 1), section.perm, section.data)
        for section in image.sections.values()
    ]


def _plt_natives(binary: Binary, libc_image: LibcImage) -> Dict[int, NativeFunction]:
    """The binary's PLT entries bound straight to libc's handlers (eager
    binding model of PLT -> GOT -> libc), built once per (binary, libc)."""
    cached = binary.plt_natives
    if cached is None or cached[0] is not libc_image:
        natives = libc_image.natives
        cached = binary.plt_natives = (libc_image, {
            plt_address: NativeFunction(f"{external}@plt", natives[external])
            for external, plt_address in binary.plt.items() if external in natives
        })
    return cached[1]


def load_process(
    binary: Binary,
    libc_image: LibcImage,
    layout: MemoryLayout,
    *,
    wx_enabled: bool,
    uid: int = 0,
    name: Optional[str] = None,
) -> LoadedProcess:
    """Instantiate one run of ``binary`` under the given protection set."""
    if binary.arch != layout.arch:
        raise ValueError(f"binary arch {binary.arch!r} != layout arch {layout.arch!r}")
    libc_base = layout.libc_base
    dynamic_perm = Perm.RW if wx_enabled else Perm.RWX
    space = AddressSpace()
    space.map(
        *_image_segments(binary, f"{binary.name}:"),
        *_image_segments(libc_image.binary, "libc:", libc_base),
        Segment("stack", layout.stack_base, layout.stack_size, dynamic_perm),
        # Inaccessible guard page below the stack: runaway descending writes
        # (deep recursion, wild push loops) fault instead of silently landing
        # in whatever happens to be mapped beneath.
        Segment("stack-guard", layout.stack_base - 0x1000, 0x1000, Perm.NONE),
        Segment("heap", layout.heap_base, layout.heap_size, dynamic_perm),
    )

    process = Process(binary.arch, space, uid=uid, name=name or binary.name)
    process.sp = layout.stack_top - STACK_ENVIRONMENT_RESERVE
    process.pc = binary.symbols.address_of("_start")
    # libc exports at this boot's libc addresses, then the binary's PLT.
    process.native.update({(address + libc_base) & 0xFFFFFFFF: native
                           for address, native in libc_image.export_natives})
    process.native.update(_plt_natives(binary, libc_image))

    return LoadedProcess(
        process=process, binary=binary, libc_image=libc_image, layout=layout,
        wx_enabled=wx_enabled,
    )
