"""Exploit reliability study (E14).

The paper reports its exploits succeed "under multiple circumstances, with
or without the aid of gdb" — a qualitative reliability claim.  This module
quantifies it: each technique is thrown at N freshly-booted victims (fresh
ASLR draw each boot, one exploit built once from bench recon) and the
success rate is tabulated.  The expected shape:

* techniques that use only non-randomized facts (ROP, jmp-esp) are
  deterministic: N/N against their protection level;
* techniques that embed randomized absolutes (ret2libc, vanilla code
  injection) are N/N without ASLR and ~0/N with it — the residual being
  the 1-in-2^entropy lottery the brute-force experiment (E10) exploits.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import List, Optional, Union

from ..connman import ConnmanDaemon
from ..defenses import NONE, WX, WX_ASLR, ProtectionProfile
from ..exploit import (
    ArmCodeInjection,
    ArmExeclpGadget,
    ArmRopMemcpyExeclp,
    X86CodeInjection,
    X86JmpEspInjection,
    X86Ret2Libc,
    X86RopMemcpyExeclp,
    deliver,
)
from .parallel import DEFAULT_POLICY, run_supervised
from .resume import TrialFailure
from .scenarios import AttackScenario, attacker_knowledge

ASLR_ONLY = ProtectionProfile(wx=False, aslr=True)

#: Checkpoint identity for the reliability study (resume validates it).
RELIABILITY_EXPERIMENT_ID = "E14.reliability"


@dataclass(frozen=True)
class ReliabilityCell:
    """One (technique, victim-profile) reliability measurement."""

    technique: str
    arch: str
    victim_profile: str
    successes: int
    trials: int
    expectation: str  # "always" | "never" | "lottery"

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def matches_expectation(self) -> bool:
        if self.expectation == "always":
            return self.successes == self.trials
        if self.expectation == "never":
            return self.successes == 0
        # "lottery": sub-10% is the 1-in-2^entropy residual.
        return self.rate < 0.1

    def row(self):
        return (
            self.technique, self.arch, self.victim_profile,
            f"{self.successes}/{self.trials}", self.expectation,
        )


#: (label, arch, builder factory, recon profile, blind?, victim profile,
#:  expectation)
STUDY_PLAN = (
    ("code-injection", "x86", X86CodeInjection, NONE, False, NONE, "always"),
    ("code-injection", "arm", ArmCodeInjection, NONE, False, NONE, "always"),
    ("code-injection", "x86", X86CodeInjection, NONE, False, ASLR_ONLY, "lottery"),
    ("jmp-esp", "x86", X86JmpEspInjection, ASLR_ONLY, True, ASLR_ONLY, "always"),
    ("ret2libc", "x86", X86Ret2Libc, WX, False, WX, "always"),
    ("ret2libc", "x86", X86Ret2Libc, WX_ASLR, True, WX_ASLR, "lottery"),
    ("gadget-execlp", "arm", ArmExeclpGadget, WX, False, WX, "always"),
    ("rop", "x86", X86RopMemcpyExeclp, WX_ASLR, True, WX_ASLR, "always"),
    ("rop", "arm", ArmRopMemcpyExeclp, WX_ASLR, True, WX_ASLR, "always"),
)


@dataclass(frozen=True)
class ReliabilityTask:
    """One STUDY_PLAN row's trial series: the picklable unit the pool runs."""

    plan_index: int
    trials: int
    seed: int  # the study seed every cell derives from

    @property
    def derived_seed(self) -> int:
        """The seed this cell's rng is built from: a stable digest of the
        cell key, never other cells' progress, so ``workers=N`` reproduces
        the sequential study.  crc32, not hash(): per-process str hashing
        (PYTHONHASHSEED) once handed lottery wins to random 6-trial runs.
        """
        label, arch, *_middle, victim_profile, _expect = STUDY_PLAN[
            self.plan_index]
        cell_key = f"{label}/{arch}/{victim_profile.label()}"
        return self.seed ^ (zlib.crc32(cell_key.encode()) & 0xFFFF)


def _reliability_cell(task: ReliabilityTask) -> ReliabilityCell:
    """Worker: one STUDY_PLAN row's full trial series (pool-picklable)."""
    label, arch, builder_cls, recon_profile, blind, victim_profile, expectation = (
        STUDY_PLAN[task.plan_index]
    )
    knowledge = attacker_knowledge(
        AttackScenario(arch, "reliability", recon_profile)
    ) if not blind else attacker_knowledge(
        AttackScenario(arch, "reliability", victim_profile)
    )
    exploit = builder_cls().build(knowledge)
    rng = random.Random(task.derived_seed)
    successes = 0
    victim = ConnmanDaemon(arch=arch, profile=victim_profile, rng=rng)
    for _trial in range(task.trials):
        if not victim.alive:
            victim.restart()
        if deliver(exploit, victim, rng=rng).got_root_shell:
            successes += 1
            victim.restart()
    return ReliabilityCell(
        technique=label,
        arch=arch,
        victim_profile=victim_profile.label(),
        successes=successes,
        trials=task.trials,
        expectation=expectation,
    )


def run_reliability_study(trials: int = 10, seed: int = 0xE14, *,
                          workers: Optional[int] = 1, policy=None,
                          checkpoint: Optional[str] = None,
                          resume: bool = False,
                          sweep_observer=None
                          ) -> List[Union[ReliabilityCell, TrialFailure]]:
    """Build each exploit once, deliver it to ``trials`` fresh boots.

    One result per STUDY_PLAN row, in plan order.  Under the default
    strict policy a failing cell raises
    :class:`~repro.core.resume.TaskError`; under a quarantine ``policy``
    its slot holds the :class:`~repro.core.resume.TrialFailure` instead,
    so the other cells still report.  Like the entropy sweep, the study
    journals per cell when given a ``checkpoint`` path: a killed run
    resumes (``resume=True``) by re-executing only the cells the journal
    is missing, and the cells are seed-independent, so the resumed table
    matches the uninterrupted one exactly.

    Before any cell runs, a ``ValueError`` naming ``trials`` rejects a
    count that is not an integer >= 1: zero boots would pass every cell.
    """
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError(f"trials: want an integer >= 1, got {trials!r}")
    tasks = [ReliabilityTask(index, trials, seed)
             for index in range(len(STUDY_PLAN))]
    return run_supervised(_reliability_cell, tasks, workers=workers,
                          policy=policy or DEFAULT_POLICY,
                          observer=sweep_observer, checkpoint=checkpoint,
                          resume=resume, experiment=RELIABILITY_EXPERIMENT_ID,
                          seed=seed).results
