"""Cross-check of camina's structural invariants against sympy.combinatorics,
an independent implementation, on the builtin catalog."""

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from camina.catalog import builtin_catalog
from camina.structure import center, conjugacy_classes, derived_subgroup, is_nilpotent, is_solvable


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.label)
def test_invariants_agree_with_sympy(entry):
    G = entry.group()
    P = combinatorics.PermutationGroup([combinatorics.Permutation(list(g.images)) for g in entry.generators])
    assert G.order == P.order()
    assert sorted(conjugacy_classes(G).sizes) == sorted(len(c) for c in P.conjugacy_classes())
    assert len(center(G)) == P.center().order()
    assert len(derived_subgroup(G)) == P.derived_subgroup().order()
    assert is_solvable(G) == P.is_solvable
    assert is_nilpotent(G) == P.is_nilpotent
