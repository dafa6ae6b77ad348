"""Built images and gadget scans are shared: nothing may write through them.

``build_connman``/``build_libc`` hand every caller the same frozen image per
input key, and ``GadgetFinder.all_gadgets`` the same scan per set of
executable bytes.  Every boot maps the non-writable sections over those
frozen bytes and binds the same natives.  These tests pin that guests,
exploits, debuggers and derived images never change what a later caller
gets.
"""

import random

import pytest

from repro.binfmt import BinaryBuilder, build_connman, build_libc, loader, relocate
from repro.binfmt.connman_bin import _build_connman
from repro.binfmt.libc import _build_libc
from repro.core import PAPER_MATRIX, run_scenario
from repro.cpu import make_emulator
from repro.cpu.arm import asm as arm
from repro.cpu.x86 import asm as x86
from repro.defenses import WX_ASLR
from repro.dns import SimpleDnsServer, StubResolver
from repro.exploit import GadgetFinder, recon
from repro.exploit.recon import LIBC_RECON_SYMBOLS
from repro.othercves import ALL_SPECS, AdaptedService, knowledge_for_service
from tests.conftest import fresh_daemon, image_facts, loaded_pair

ARCHES = ("x86", "arm")


class TestFrozenSections:
    def test_linked_sections_are_bytes(self):
        builder = BinaryBuilder("t", "x86", link_base=0x400000)
        builder.append(".text", x86.nop() + x86.ret())
        builder.append(".data", b"\x01\x02\x03\x04")
        for binary in (builder.link(), build_connman("x86"), build_libc("arm").binary):
            for section in binary.sections.values():
                assert type(section.data) is bytes, (binary.name, section.name)

    def test_in_place_write_raises(self, x86_binary):
        text = x86_binary.section(".text")
        with pytest.raises(TypeError):
            text.data[0:2] = b"\xcc\xcc"
        data = x86_binary.section(".data")
        with pytest.raises(TypeError):
            data.data[0] = 0xFF


class TestGuestWritesStayInTheGuest:
    def test_paper_matrix_leaves_cached_images_pristine(self):
        # Exploits write guest .bss, .data and the stack in every cell.
        results = [run_scenario(scenario, rng=random.Random(7))
                   for scenario in PAPER_MATRIX]
        assert all(result.succeeded for result in results)
        used = {arch: (build_connman(arch), build_libc(arch).binary)
                for arch in ("x86", "arm")}
        _build_connman.cache_clear()
        _build_libc.cache_clear()
        for arch, (connman, libc) in used.items():
            assert build_connman(arch) is not connman
            assert image_facts(build_connman(arch)) == image_facts(connman), arch
            assert image_facts(build_libc(arch).binary) == image_facts(libc), arch


class TestDerivedImages:
    def test_adapted_services_leave_the_stock_image_alone(self):
        services = [AdaptedService(spec) for spec in ALL_SPECS]
        for spec, service in zip(ALL_SPECS, services):
            assert service.binary.name == spec.name
            assert service.binary.metadata["product"] == spec.name
            assert service.loaded.process.memory.segment(f"{spec.name}:.text")
            stock = build_connman(spec.arch, seed=spec.build_seed)
            assert stock.name == "connman"
            assert stock.metadata["product"] == "connman"


class TestSharedScan:
    def test_equal_bytes_share_one_scan(self, x86_binary):
        # A relocate by zero copies every section into fresh objects with
        # the same bytes at the same addresses: content, not identity, keys it.
        copy = relocate(x86_binary, 0, new_name="copy")
        assert copy.section(".text").data is not x86_binary.section(".text").data
        assert GadgetFinder(copy).all_gadgets() is GadgetFinder(x86_binary).all_gadgets()

    def test_different_text_gets_its_own_gadgets(self, x86_binary):
        builder = BinaryBuilder("tiny", "x86", link_base=0x08048000)
        builder.append(".text", x86.pop_reg("eax") + x86.ret())
        tiny = GadgetFinder(builder.link()).all_gadgets()
        assert tiny is not GadgetFinder(x86_binary).all_gadgets()
        assert [gadget.text for gadget in tiny] == ["pop eax; ret", "ret"]

    def test_same_bytes_other_arch_scanned_separately(self):
        # `pop {r4, pc}` holds no x86 gadget; the ARM scan of the same bytes
        # at the same address must not be handed the x86 result.
        images = {}
        for arch in ("x86", "arm"):
            builder = BinaryBuilder(f"same-{arch}", arch, link_base=0x00010000)
            builder.append(".text", arm.pop(["r4", "pc"]))
            images[arch] = builder.link()
        assert GadgetFinder(images["x86"]).all_gadgets() == ()
        arm_gadgets = GadgetFinder(images["arm"]).all_gadgets()
        assert [(gadget.arch, gadget.address) for gadget in arm_gadgets] == [("arm", 0x00010000)]


def _reference_natives(binary, libc_image, libc_base):
    """``address -> (name, handler)`` bound one export and one PLT entry at a
    time against an eagerly relocated libc."""
    libc = relocate(libc_image.binary, libc_base, new_name="libc")
    bound = {}
    for export, handler in libc_image.natives.items():
        bound[libc.symbols.address_of(export)] = (export, handler)
    for external, plt_address in binary.plt.items():
        handler = libc_image.natives.get(external)
        if handler is not None:
            bound[plt_address] = (f"{external}@plt", handler)
    return bound


@pytest.mark.parametrize("arch", ARCHES)
class TestBootsShareTheImages:
    def test_boots_share_read_only_bytes_and_natives(self, arch):
        first, second = (loaded_pair(arch, wx=True, aslr=True, seed=seed) for seed in (1, 2))
        assert first.layout.libc_base != second.layout.libc_base
        borrowed = 0
        writable = []
        for image, prefix in ((first.binary, f"{first.binary.name}:"),
                              (build_libc(arch).binary, "libc:")):
            for section in image.sections.values():
                a = first.process.memory.segment(prefix + section.name)
                b = second.process.memory.segment(prefix + section.name)
                if a.writable:
                    writable.append(prefix + section.name)
                elif section.data:
                    assert a.data is section.data and b.data is section.data
                    borrowed += 1
        assert borrowed >= 4  # .text, .plt and .rodata of connman; libc's .text
        assert f"{first.binary.name}:.bss" in writable
        # Writable segments share nothing a write can reach: a write into one
        # boot's .bss, .data, stack or heap reaches neither the other boot
        # nor the image bytes or zero block both borrowed.
        segments = [first.process.memory.segment(name) for name in writable + ["stack", "heap"]]
        shared = {seg.name: (seg.data, bytes(seg.data)) for seg in segments
                  if type(seg.data) is bytes}
        assert shared["heap"][1] == bytes(first.layout.heap_size)
        for name in writable + ["stack", "heap"]:
            a = first.process.memory.segment(name)
            b = second.process.memory.segment(name)
            before = b.read(0, b.size)
            first.process.memory.write(a.end - 4, b"\xa5\x5a\xa5\x5a")
            assert a.read(a.size - 4, a.size) == b"\xa5\x5a\xa5\x5a"
            assert b.read(0, b.size) == before, name
        for name, (block, frozen) in shared.items():
            assert block == frozen, name
        natives = list(first.process.native.values())
        assert len(natives) == len(second.process.native)
        assert all(a is b for a, b in zip(natives, second.process.native.values()))

    def test_unchecked_text_write_copies_on_write(self, arch, empty_decode_memo):
        first, second = (loaded_pair(arch, wx=True, aslr=True, seed=seed) for seed in (3, 4))
        name = f"{first.binary.name}:.text"
        section = first.binary.section(".text")
        frozen = bytes(section.data)
        pc = first.process.pc
        emulator = make_emulator(first.process)
        emulator.step()
        assert len(empty_decode_memo[arch]) == 1
        patch = b"\x41" * 4 if arch == "x86" else arm.mov_imm("r0", 7)  # inc ecx x4

        first.process.memory.write(pc, patch, check=False)

        assert first.process.memory.fetch(pc, 4) == patch
        # The patched bytes are a new key: decoded afresh, never served the
        # decode of the image bytes.
        first.process.pc = pc
        emulator.step()
        cache = first.process.decode_cache
        assert (cache.misses, cache.hits, len(empty_decode_memo[arch])) == (2, 0, 2)
        assert first.process.memory.segment(name).data is not section.data
        assert second.process.memory.fetch(pc, 4) == frozen[pc - section.address:][:4]
        assert second.process.memory.segment(name).data is section.data
        assert section.data == frozen
        assert bytes(build_connman(arch).section(".text").data) == frozen

    def test_lazy_libc_and_natives_match_the_eager_binding(self, arch):
        rng = random.Random(26)
        for _ in range(8):
            loaded = loaded_pair(arch, wx=True, aslr=True, seed=rng.randrange(1 << 30))
            base = loaded.layout.libc_base
            eager = relocate(loaded.libc_image.binary, base, new_name="libc")
            assert "libc" not in vars(loaded)  # nothing relocated at boot
            assert image_facts(loaded.libc) == image_facts(eager)
            assert loaded.libc is loaded.libc
            reference = _reference_natives(loaded.binary, loaded.libc_image, base)
            assert [(address, (native.name, native.handler))
                    for address, native in loaded.process.native.items()
                    ] == list(reference.items())

    def test_boot_and_benign_query_never_relocate(self, arch, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("libc relocated on the boot -> deliver path")

        monkeypatch.setattr(loader, "relocate", refuse)
        daemon = fresh_daemon(arch, profile=WX_ASLR)
        upstream = SimpleDnsServer(zone={"www.example.com": "93.184.216.34"})
        result = StubResolver().resolve(
            lambda packet: daemon.handle_client_query(packet, upstream.handle_query),
            "www.example.com",
        )
        assert result.address == "93.184.216.34"
        assert daemon.alive and "libc" not in vars(daemon.loaded)

    def test_libc_address_matches_the_relocated_libc(self, arch):
        rng = random.Random(27)
        for _ in range(8):
            loaded = loaded_pair(arch, wx=True, aslr=True, seed=rng.randrange(1 << 30))
            names = [name for name, _symbol in loaded.libc_image.binary.symbols.items()]
            slid = {name: loaded.libc_address(name) for name in names}
            assert "libc" not in vars(loaded)  # read without relocating
            assert slid == {name: loaded.libc.symbols.address_of(name) for name in names}

    def test_sighted_recon_never_relocates(self, arch, monkeypatch):
        daemon = fresh_daemon(arch, profile=WX_ASLR)
        services = [AdaptedService(spec, profile=WX_ASLR)
                    for spec in ALL_SPECS if spec.arch == arch]
        assert services

        def slid(loaded):
            libc = relocate(loaded.libc_image.binary, loaded.layout.libc_base)
            return {name: libc.symbols.address_of(name) for name in LIBC_RECON_SYMBOLS}

        expected = [slid(daemon.loaded)] + [slid(service.loaded) for service in services]

        def refuse(*_args, **_kwargs):
            raise AssertionError("libc relocated by recon")

        monkeypatch.setattr(loader, "relocate", refuse)
        found = [recon(daemon, aslr_blind=False).libc] + [
            knowledge_for_service(service, aslr_blind=False).libc for service in services]
        assert found == expected
        assert all("libc" not in vars(loaded) for loaded in
                   [daemon.loaded] + [service.loaded for service in services])
