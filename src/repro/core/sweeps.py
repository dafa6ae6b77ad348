"""Parameter sweeps — the figure-series experiments.

E15 sweeps ASLR entropy against the brute-force attack: the defining
weakness of 32-bit randomization is that attempts scale *linearly* with
the randomization span, and IoT-class devices cannot afford wide spans.
The series regenerates the classic "expected attempts ≈ entropy" curve and
shows the medians tracking the span as it grows 16 → 1024 pages.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..exploit import BruteForceTrial, run_bruteforce_trial
from .parallel import RunPolicy, run_tasks
from .registry import derive_seed

DEFAULT_ENTROPY_SERIES = (16, 64, 256, 1024)

#: Checkpoint identity for the entropy sweep (resume validates against it).
ENTROPY_EXPERIMENT_ID = "E15.entropy"


@dataclass(frozen=True)
class EntropyPoint:
    entropy_pages: int
    attempts: List[int]

    @property
    def median_attempts(self) -> float:
        return statistics.median(self.attempts)

    @property
    def expected_attempts(self) -> float:
        """The randomization span — the order-of-magnitude yardstick (the
        geometric distribution's median is ~0.69x this)."""
        return float(self.entropy_pages)

    @property
    def plausible(self) -> bool:
        """Per-point sanity: every run succeeded, and the median did not
        exceed the span by more than the heavy geometric tail allows.

        (A lower bound is deliberately not checked per point — small
        samples of a geometric distribution routinely draw lucky tiny
        values; the cross-point scaling check carries the real claim.)
        """
        if not self.attempts:
            return False
        return self.median_attempts <= self.expected_attempts * 16

    def row(self):
        return (
            self.entropy_pages,
            f"{self.median_attempts:.0f}",
            f"{min(self.attempts)}..{max(self.attempts)}",
        )


def sweep_bruteforce_entropy(
    entropy_series: Sequence[int] = DEFAULT_ENTROPY_SERIES,
    runs_per_point: int = 5,
    seed: int = 0xE15,
    *,
    workers: Optional[int] = 1,
    policy: Optional[RunPolicy] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    sweep_observer=None,
) -> List[EntropyPoint]:
    """Median brute-force attempts as the randomization span grows.

    Every (entropy, run) trial carries its own derived seed, so the fan-out
    is order-independent: ``workers=N`` produces the exact attempt lists of
    the sequential sweep — and a ``checkpoint``-journaled run killed
    mid-sweep resumes (``resume=True``) to the same lists, re-executing
    only the missing trials.  This series needs every trial (the medians
    are positional), so the sweep stays strict: a trial that exhausts the
    policy's retry budget raises :class:`~repro.core.resume.TaskError`
    with its index and derived victim seed attached.

    Seeds come from :func:`~repro.core.registry.derive_seed` (crc32 over
    ``experiment/entropy/run/role``).  The old XOR-plus-one stacking made
    run N's attacker share run N+1's victim stream (``(base^run)+1 ==
    base^(run+1)`` whenever ``run`` is even), quietly correlating
    adjacent trials of the very independence this series measures.

    Before any trial runs, a ``ValueError`` naming ``runs_per_point``
    rejects a count that is not an integer >= 1: a point needs a median.
    """
    if not (isinstance(runs_per_point, int) and runs_per_point >= 1):
        raise ValueError(f"runs_per_point: want an integer >= 1, got {runs_per_point!r}")
    trials = [
        BruteForceTrial(
            victim_seed=seed ^ derive_seed(
                ENTROPY_EXPERIMENT_ID, entropy, run, "victim"),
            attacker_seed=seed ^ derive_seed(
                ENTROPY_EXPERIMENT_ID, entropy, run, "attacker"),
            max_attempts=entropy * 16,
            entropy_pages=entropy,
        )
        for entropy in entropy_series
        for run in range(runs_per_point)
    ]
    results = run_tasks(run_bruteforce_trial, trials, workers=workers,
                        policy=policy, observer=sweep_observer,
                        checkpoint=checkpoint, resume=resume,
                        experiment=ENTROPY_EXPERIMENT_ID, seed=seed)
    points: List[EntropyPoint] = []
    for index, entropy in enumerate(entropy_series):
        slice_ = results[index * runs_per_point : (index + 1) * runs_per_point]
        for run, result in enumerate(slice_):
            assert result.succeeded, (entropy, run)
        points.append(
            EntropyPoint(entropy_pages=entropy,
                         attempts=[result.attempts for result in slice_])
        )
    return points
