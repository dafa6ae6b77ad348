"""Binary images: builder, symbols, connman factory, libc, loader."""

import random

import pytest

from repro.binfmt import (
    PLT_FUNCTIONS,
    BinaryBuilder,
    build_connman,
    build_libc,
    load_process,
    relocate,
)
from repro.binfmt.connman_bin import _build_connman
from repro.binfmt.libc import _build_libc
from repro.binfmt.section import Symbol, SymbolTable
from repro.mem import ARM_LAYOUT, X86_LAYOUT, Perm, layout_for
from tests.conftest import image_facts


class TestSymbolTable:
    def test_define_and_lookup(self):
        table = SymbolTable()
        table.define(Symbol("main", 0x1000, ".text", size=32))
        assert table.address_of("main") == 0x1000
        assert "main" in table

    def test_duplicate_rejected(self):
        table = SymbolTable()
        table.define(Symbol("a", 0, ".text"))
        with pytest.raises(ValueError):
            table.define(Symbol("a", 4, ".text"))

    def test_missing_symbol_raises(self):
        with pytest.raises(KeyError):
            SymbolTable()["nope"]

    def test_resolve_finds_enclosing_function(self):
        table = SymbolTable()
        table.define(Symbol("f", 0x1000, ".text", size=16))
        table.define(Symbol("g", 0x1010, ".text", size=16))
        assert table.resolve(0x1008).name == "f"
        assert table.resolve(0x1010).name == "g"


class TestBuilder:
    def test_sections_preassigned_in_order(self):
        builder = BinaryBuilder("t", "x86", link_base=0x400000)
        text = builder.section(".text")
        plt = builder.section(".plt")
        assert text.address == 0x400000
        assert plt.address > text.address

    def test_append_returns_placement_address(self):
        builder = BinaryBuilder("t", "x86", link_base=0x400000)
        first = builder.append(".text", b"\x90" * 4)
        second = builder.append(".text", b"\xc3")
        assert second == first + 4

    def test_align_pads(self):
        builder = BinaryBuilder("t", "x86", link_base=0x400000)
        builder.append(".text", b"\x90")
        assert builder.align(".text", 16) % 16 == 0

    def test_budget_enforced(self):
        builder = BinaryBuilder("t", "x86", link_base=0x400000)
        with pytest.raises(ValueError, match="budget"):
            builder.append(".plt", b"\x00" * 0x2000)

    def test_bss_reservation(self):
        builder = BinaryBuilder("t", "x86", link_base=0x400000)
        symbol = builder.reserve_bss("buf", 0x100)
        assert symbol.section == ".bss"
        binary = builder.link()
        assert binary.section(".bss").size == 0x100

    def test_patch_u32(self):
        builder = BinaryBuilder("t", "x86", link_base=0x400000)
        address = builder.append(".text", b"\x00" * 8)
        builder.patch_u32(address + 4, 0x11223344)
        binary = builder.link()
        assert binary.read(address + 4, 4) == b"\x44\x33\x22\x11"

    def test_patch_outside_emitted_data_rejected(self):
        builder = BinaryBuilder("t", "x86", link_base=0x400000)
        with pytest.raises(ValueError):
            builder.patch_u32(0x400100, 0)

    def test_double_link_rejected(self):
        builder = BinaryBuilder("t", "x86", link_base=0x400000)
        builder.append(".text", b"\xc3")
        builder.link()
        with pytest.raises(RuntimeError):
            builder.link()


class TestConnmanFactory:
    def test_plt_has_paper_facts(self, x86_binary):
        # memcpy and execlp reachable; system and strcpy absent (§III-B/C).
        assert "memcpy" in x86_binary.plt
        assert "execlp" in x86_binary.plt
        assert "system" not in x86_binary.plt
        assert "strcpy" not in x86_binary.plt
        assert "__strcpy_chk" in x86_binary.plt

    def test_all_plt_functions_present(self, arm_binary):
        assert set(arm_binary.plt) == set(PLT_FUNCTIONS)

    def test_rodata_covers_binsh_characters(self, x86_binary, arm_binary):
        for binary in (x86_binary, arm_binary):
            for char in b"/bin/sh":
                assert binary.find_bytes(bytes([char])), chr(char)

    def test_full_binsh_string_absent(self, x86_binary):
        # The ROP chain must build it character by character.
        assert not x86_binary.find_bytes(b"/bin/sh")

    def test_dnsproxy_symbols_exist(self, arm_binary):
        for name in ("parse_response", "get_name", "parse_rr",
                     "dnsproxy_event_loop", "dnsproxy_resume"):
            assert name in arm_binary.symbols

    def test_metadata_carries_version_and_seed(self):
        # Built in both orders, so a build key that ignored the version
        # would hand back the first image's metadata for the second.
        for inputs in ((("1.31", 5), ("1.34", 5)), (("1.34", 5), ("1.31", 5))):
            _build_connman.cache_clear()
            for version, seed in inputs:
                binary = build_connman("x86", version=version, seed=seed)
                assert binary.metadata["version"] == version
                assert binary.metadata["seed"] == str(seed)
                symbol = binary.symbols["str_version"]
                assert binary.read(symbol.address, symbol.size) == (
                    f"connman {version}".encode() + b"\x00")

    def test_deterministic_per_seed(self):
        for arch in ("x86", "arm"):
            for seed in (0, 3):
                cached = build_connman(arch, seed=seed)
                _build_connman.cache_clear()
                rebuilt = build_connman(arch, seed=seed)
                assert rebuilt is not cached
                assert image_facts(rebuilt) == image_facts(cached), (arch, seed)

    def test_call_spellings_share_one_build(self):
        _build_connman.cache_clear()
        first = build_connman("x86")
        assert build_connman("x86", "1.34", 0) is first
        assert build_connman("x86", seed=0) is first
        info = _build_connman.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_seeds_change_text_layout(self):
        a = build_connman("x86", seed=0)
        b = build_connman("x86", seed=1)
        assert bytes(a.section(".text").data) != bytes(b.section(".text").data)

    def test_seeds_preserve_section_bases(self):
        a = build_connman("arm", seed=0)
        b = build_connman("arm", seed=9)
        assert a.section(".bss").address == b.section(".bss").address

    def test_executable_ranges_only_x_sections(self, x86_binary):
        names = {
            x86_binary.section_at(base).name for base, _ in x86_binary.executable_ranges()
        }
        assert names == {".text", ".plt"}

    def test_read_outside_sections_raises(self, x86_binary):
        with pytest.raises(KeyError):
            x86_binary.read(0x0, 4)


class TestLibc:
    def test_deterministic_rebuild(self):
        for arch in ("x86", "arm"):
            cached = build_libc(arch)
            _build_libc.cache_clear()
            rebuilt = build_libc(arch)
            assert rebuilt is not cached
            assert image_facts(rebuilt.binary) == image_facts(cached.binary), arch
            assert dict(rebuilt.natives) == dict(cached.natives)

    def test_natives_are_read_only(self, x86_libc):
        with pytest.raises(TypeError):
            x86_libc.natives["system"] = None

    def test_exports_have_symbols(self, x86_libc):
        for name in ("system", "exit", "memcpy", "execlp", "abort"):
            assert name in x86_libc.binary.symbols
            assert name in x86_libc.natives

    def test_binsh_string_present(self, arm_libc):
        symbol = arm_libc.binary.symbols["str_bin_sh"]
        assert arm_libc.binary.read(symbol.address, 8) == b"/bin/sh\x00"

    def test_link_base_zero(self, x86_libc):
        assert x86_libc.binary.section(".text").address < 0x10000


class TestRelocate:
    def test_shifts_sections_symbols_plt(self, x86_libc):
        moved = relocate(x86_libc.binary, 0x10000000)
        original = x86_libc.binary.symbols.address_of("system")
        assert moved.symbols.address_of("system") == original + 0x10000000
        assert moved.section(".text").address == (
            x86_libc.binary.section(".text").address + 0x10000000
        )

    def test_original_untouched(self, x86_libc):
        before = x86_libc.binary.symbols.address_of("exit")
        relocate(x86_libc.binary, 0x1000)
        assert x86_libc.binary.symbols.address_of("exit") == before


class TestLoader:
    def test_maps_all_regions(self, x86_binary, x86_libc):
        loaded = load_process(x86_binary, x86_libc, X86_LAYOUT, wx_enabled=True)
        maps = loaded.process.memory.maps()
        for name in ("connman:.text", "connman:.bss", "libc:.text", "stack", "heap"):
            assert name in maps

    def test_wx_controls_stack_perms(self, arm_binary, arm_libc):
        protected = load_process(arm_binary, arm_libc, ARM_LAYOUT, wx_enabled=True)
        assert Perm.X not in protected.process.memory.segment("stack").perm
        legacy = load_process(arm_binary, arm_libc, ARM_LAYOUT, wx_enabled=False)
        assert Perm.X in legacy.process.memory.segment("stack").perm

    def test_natives_bound_at_libc_and_plt(self, x86_binary, x86_libc):
        loaded = load_process(x86_binary, x86_libc, X86_LAYOUT, wx_enabled=True)
        assert loaded.process.native_at(loaded.address_of("system")) is not None
        assert loaded.process.native_at(loaded.plt_address("memcpy")) is not None

    def test_aslr_moves_libc_binding(self, x86_binary, x86_libc):
        layout = layout_for("x86", aslr=True, rng=random.Random(3))
        loaded = load_process(x86_binary, x86_libc, layout, wx_enabled=True)
        assert loaded.address_of("system") == (
            layout.libc_base + x86_libc.binary.symbols.address_of("system")
        )

    def test_arch_mismatch_rejected(self, arm_binary, arm_libc):
        with pytest.raises(ValueError):
            load_process(arm_binary, arm_libc, X86_LAYOUT, wx_enabled=True)

    def test_symbol_lookup_order_binary_then_libc(self, x86_binary, x86_libc):
        loaded = load_process(x86_binary, x86_libc, X86_LAYOUT, wx_enabled=True)
        assert loaded.symbol("parse_response").section == ".text"
        assert loaded.symbol("system").section == ".text"
        with pytest.raises(KeyError):
            loaded.symbol("no_such_symbol")

    def test_initial_registers(self, x86_binary, x86_libc):
        loaded = load_process(x86_binary, x86_libc, X86_LAYOUT, wx_enabled=True)
        assert loaded.process.pc == x86_binary.symbols.address_of("_start")
        assert X86_LAYOUT.stack_base < loaded.process.sp < X86_LAYOUT.stack_top

    def test_bss_zero_initialized(self, x86_binary, x86_libc):
        loaded = load_process(x86_binary, x86_libc, X86_LAYOUT, wx_enabled=True)
        bss = x86_binary.symbols.address_of("__bss_start")
        assert loaded.process.memory.read(bss, 64) == b"\x00" * 64
