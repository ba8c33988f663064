"""How far each lemma's hypothesis can be weakened on the builtin catalog.

One hypothesis of ``verify.CLAIMS`` is patched at a time, as
``test_violations_count_as_fired`` patches a check, and its claim is swept
over every builtin group at a cap of 1000, as ``camina verify --catalog
builtin --max-order 1000`` sweeps them.  The VIOLATION count and the first
violating (group label, |H|), in catalog order, are pinned: a weakening
that fails shows the hypothesis is needed on these groups, and one that
never fails marks where the catalog cannot tell.  With the paper's own
hypotheses every count is 0.
"""

import pytest

import camina.verify as verify
from camina.catalog import builtin_catalog
from camina.verify import VIOLATION, sweep_single


def fpm(pair):
    """(F+-) in place of (F), which implies it."""
    return pair.Fpm.holds


def fpm_non_normal(pair):
    """(F+-) in place of (F), with H still non-normal."""
    return pair.Fpm.holds and not pair.normal


# claim, its weakened hypothesis, VIOLATION count, first (group, |H|)
WEAKENED = [
    ("lemma_a", fpm, 2, ("C4", 2)),
    ("lemma_b", fpm, 2, ("C4", 2)),
    ("lemma_d", fpm, 2, ("C4", 2)),
    ("lemma_e", fpm_non_normal, 0, None),
    ("lemma_f", fpm_non_normal, 0, None),
    ("lemma_g", fpm, 16, ("C4", 2)),  # "H non-normal" dropped
    ("lemma_i", fpm, 3, ("A4", 2)),  # "G a p-group" dropped
]


def violations(claim: str) -> list[tuple[str, int]]:
    """(group label, |H|) of each VIOLATION of ``claim``, in catalog order."""
    return [
        (entry.label, r.subgroup_order)
        for entry in builtin_catalog()
        for r in sweep_single(entry.label, entry.group(cap=1000), [claim])
        if r.status == VIOLATION
    ]


@pytest.mark.parametrize("claim", sorted({claim for claim, *_ in WEAKENED}))
def test_paper_hypothesis_has_no_violation(claim):
    assert violations(claim) == []


@pytest.mark.parametrize("claim, hypothesis, count, first", WEAKENED, ids=[c for c, *_ in WEAKENED])
def test_weakened_hypothesis(monkeypatch, claim, hypothesis, count, first):
    _, check, trivial = verify.CLAIMS[claim]
    monkeypatch.setitem(verify.CLAIMS, claim, (hypothesis, check, trivial))
    found = violations(claim)
    assert len(found) == count
    assert (found[0] if found else None) == first
