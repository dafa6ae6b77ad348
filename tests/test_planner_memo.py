"""Byte-identical payloads from the shape-memoized label planner.

The planner's boundaries depend only on a payload's shape, so
:func:`plan_labels` memoizes them by shape.  These tests pin the exploit
blobs the paper's experiments send to digests recorded before the memo
existed, and check that the memo never carries one call's data bytes or
failures into another.
"""

import hashlib

import pytest

from repro.connman import ConnmanDaemon
from repro.core.reliability import STUDY_PLAN
from repro.core.scenarios import PAPER_MATRIX, AttackScenario, attacker_knowledge
from repro.defenses import WX_ASLR
from repro.exploit import (
    AslrBruteForcer,
    PlanError,
    X86_SLED_SAFE_LENGTHS,
    X86Ret2Libc,
    builder_for,
    fill,
    fixed,
    plan_labels,
    simulate_expansion,
)
from repro.exploit.payload import _plan_shape

#: sha256 of every PAPER_MATRIX cell's exploit blob.
MATRIX_DIGESTS = {
    "x86/none": "031712841e3cb8084939dadc815ee68e42dab451738abbf24d46e54b44a1fbdb",
    "x86/W^X": "20bc5cbc5dcf065ba2c70c112d368b6574df73f204e2f433fc5b727bd3181b8f",
    "x86/W^X+ASLR": "5f5c42375a04c0cfc4d843b6759ab077b1b66367356b1f282d94768e505521c5",
    "arm/none": "3efa76a2a87bee66bee758b94dc23eccb9d175fa352f27692068811685b11f62",
    "arm/W^X": "9c6a961b8b262b82e4bc30814d33c57e8c6b1553621253f131eb4e8fe2cba0fe",
    "arm/W^X+ASLR": "a6066f3da83c2e887c6eef501a832bf67b11807786f82a779353d716ff5ce942",
}

#: sha256 of each E14 "always" row's exploit blob.
RELIABILITY_DIGESTS = {
    "code-injection/x86/none":
        "031712841e3cb8084939dadc815ee68e42dab451738abbf24d46e54b44a1fbdb",
    "code-injection/arm/none":
        "3efa76a2a87bee66bee758b94dc23eccb9d175fa352f27692068811685b11f62",
    "jmp-esp/x86/ASLR":
        "bdab7ff70346171148250016887ff64bb7c398c67006a40b6f077c41bf33ba81",
    "ret2libc/x86/W^X":
        "20bc5cbc5dcf065ba2c70c112d368b6574df73f204e2f433fc5b727bd3181b8f",
    "gadget-execlp/arm/W^X":
        "9c6a961b8b262b82e4bc30814d33c57e8c6b1553621253f131eb4e8fe2cba0fe",
    "rop/x86/W^X+ASLR":
        "5f5c42375a04c0cfc4d843b6759ab077b1b66367356b1f282d94768e505521c5",
    "rop/arm/W^X+ASLR":
        "a6066f3da83c2e887c6eef501a832bf67b11807786f82a779353d716ff5ce942",
}

#: sha256 over the sha256 digests of X86Ret2Libc's blob for every E10
#: slide guess 0..255, in order.
BRUTEFORCE_SLIDES_DIGEST = "1bb97bfc9a30194d5e1ebd2b946f1623c7bbcb89fc6802dca73e45af05ac853c"


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class TestGoldenBlobs:
    @pytest.mark.parametrize("cell", PAPER_MATRIX, ids=lambda cell: cell.key)
    def test_paper_matrix(self, cell):
        exploit = builder_for(cell.arch, cell.profile).build(attacker_knowledge(cell))
        assert _sha(exploit.blob) == MATRIX_DIGESTS[cell.key]

    def test_reliability_always_rows(self):
        digests = {}
        for label, arch, builder_cls, recon, blind, victim, expected in STUDY_PLAN:
            if expected != "always":
                continue
            scenario = AttackScenario(arch, "reliability", victim if blind else recon)
            exploit = builder_cls().build(attacker_knowledge(scenario))
            digests[f"{label}/{arch}/{victim.label()}"] = _sha(exploit.blob)
        assert digests == RELIABILITY_DIGESTS

    def test_bruteforce_every_slide(self):
        forcer = AslrBruteForcer(ConnmanDaemon(arch="x86", profile=WX_ASLR))
        assert forcer.entropy_pages == 256
        builder = X86Ret2Libc()
        combined = hashlib.sha256()
        for slide in range(forcer.entropy_pages):
            blob = builder.build(forcer.knowledge_for_slide(slide)).blob
            combined.update(hashlib.sha256(blob).digest())
        assert combined.hexdigest() == BRUTEFORCE_SLIDES_DIGEST


class TestShapeMemo:
    def test_same_shape_keeps_each_calls_data(self):
        _plan_shape.cache_clear()
        first = plan_labels([fill(8, b"a"), fixed(b"AAAA"), fill(90, b"x")])
        second = plan_labels([fill(8, b"b"), fixed(b"BBBB"), fill(90, b"y")])
        assert _plan_shape.cache_info().hits == 1
        assert second.boundaries == first.boundaries
        assert b"AAAA" in first.image and b"BBBB" not in first.image
        assert b"BBBB" in second.image and b"AAAA" not in second.image
        assert first.image.endswith(b"x" * 8) and second.image.endswith(b"y" * 8)
        for plan in (first, second):
            assert simulate_expansion(plan.blob) == plan.image
        _plan_shape.cache_clear()
        assert plan_labels([fill(8, b"b"), fixed(b"BBBB"), fill(90, b"y")]) == second

    def test_same_lengths_other_allowed_sets_plan_apart(self):
        _plan_shape.cache_clear()
        wide = plan_labels([fill(200)])
        sled = plan_labels([fill(200, allowed=X86_SLED_SAFE_LENGTHS)])
        assert _plan_shape.cache_info().misses == 2
        assert sled.boundaries != wide.boundaries
        assert all(sled.image[pos] in X86_SLED_SAFE_LENGTHS for pos in sled.boundaries)

    def test_returned_lists_are_not_shared(self):
        fields = [fill(200)]
        first = plan_labels(fields)
        first.boundaries.append(-1)
        first.labels.clear()
        second = plan_labels(fields)
        assert -1 not in second.boundaries and second.labels
        assert simulate_expansion(second.blob) == second.image

    def test_infeasible_shape_raises_every_call(self):
        _plan_shape.cache_clear()
        fields = [fill(1), fixed(b"B" * 200)]
        messages = []
        for _call in range(2):
            with pytest.raises(PlanError, match="offset") as raised:
                plan_labels(fields)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert _plan_shape.cache_info().currsize == 0
