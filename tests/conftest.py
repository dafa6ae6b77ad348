"""Shared fixtures.

Expensive artifacts (built binaries, booted daemons used read-only,
attacker knowledge) are session-scoped; anything a test mutates is built
fresh inside the test.
"""

from __future__ import annotations

import random

import pytest

from repro.binfmt import build_connman, build_libc, load_process
from repro.connman import ConnmanDaemon
from repro.core import AttackScenario, attacker_knowledge
from repro.defenses import NONE, WX, WX_ASLR
from repro.mem import AddressSpace, Perm, layout_for


@pytest.fixture(scope="session")
def x86_binary():
    return build_connman("x86")


@pytest.fixture(scope="session")
def arm_binary():
    return build_connman("arm")


@pytest.fixture(scope="session")
def x86_libc():
    return build_libc("x86")


@pytest.fixture(scope="session")
def arm_libc():
    return build_libc("arm")


@pytest.fixture(scope="session")
def knowledge_x86_plain():
    return attacker_knowledge(AttackScenario("x86", "none", NONE))


@pytest.fixture(scope="session")
def knowledge_arm_plain():
    return attacker_knowledge(AttackScenario("arm", "none", NONE))


@pytest.fixture(scope="session")
def knowledge_x86_wx():
    return attacker_knowledge(AttackScenario("x86", "W^X", WX))


@pytest.fixture(scope="session")
def knowledge_arm_wx():
    return attacker_knowledge(AttackScenario("arm", "W^X", WX))


@pytest.fixture(scope="session")
def knowledge_x86_blind():
    return attacker_knowledge(AttackScenario("x86", "W^X+ASLR", WX_ASLR))


@pytest.fixture(scope="session")
def knowledge_arm_blind():
    return attacker_knowledge(AttackScenario("arm", "W^X+ASLR", WX_ASLR))


def fresh_daemon(arch="x86", version="1.34", profile=NONE, seed=0xC0FFEE):
    return ConnmanDaemon(arch=arch, version=version, profile=profile,
                         rng=random.Random(seed))


@pytest.fixture
def scratch_space():
    """A tiny RWX code + RW stack address space for raw emulator tests."""
    space = AddressSpace()
    space.map_new("code", 0x1000, 0x1000, Perm.RWX)
    space.map_new("data", 0x4000, 0x1000, Perm.RW)
    space.map_new("stack", 0x20000, 0x10000, Perm.RW | Perm.X)
    return space


def loaded_pair(arch, *, wx=False, aslr=False, seed=7):
    """Load a connman process directly (bypassing the daemon wrapper)."""
    binary = build_connman(arch)
    libc = build_libc(arch)
    layout = layout_for(arch, aslr=aslr, rng=random.Random(seed))
    return load_process(binary, libc, layout, wx_enabled=wx)


def image_facts(binary):
    """Everything a build decides: section bytes and addresses, symbols,
    PLT and metadata."""
    return (
        binary.name,
        binary.arch,
        {name: (section.perm, section.address, section.reserve, bytes(section.data))
         for name, section in binary.sections.items()},
        dict(binary.symbols.items()),
        dict(binary.plt),
        dict(binary.metadata),
    )
