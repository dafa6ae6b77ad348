"""Built images and gadget scans are shared: nothing may write through them.

``build_connman``/``build_libc`` hand every caller the same frozen image per
input key, and ``GadgetFinder.all_gadgets`` the same scan per set of
executable bytes.  These tests pin that guests, exploits and derived images
never change what a later caller gets.
"""

import random

import pytest

from repro.binfmt import BinaryBuilder, build_connman, build_libc, relocate
from repro.binfmt.connman_bin import _build_connman
from repro.binfmt.libc import _build_libc
from repro.core import PAPER_MATRIX, run_scenario
from repro.cpu.arm import asm as arm
from repro.cpu.x86 import asm as x86
from repro.exploit import GadgetFinder
from repro.othercves import ALL_SPECS, AdaptedService
from tests.conftest import image_facts


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
