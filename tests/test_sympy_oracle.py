"""Cross-check of camina's structural invariants against sympy.combinatorics,
an independent implementation, on the builtin catalog."""

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")
sympy = pytest.importorskip("sympy")

from camina.catalog import builtin_catalog
from camina.grouptable import ElementSet, closure_indices, small_generating_set
from camina.structure import (
    center,
    conjugacy_classes,
    derived_series,
    derived_subgroup,
    is_nilpotent,
    is_solvable,
    normal_closure,
    is_prime,
    o_lower_p,
    prime_factors,
    subgroups,
)


def sympy_group(entry):
    return combinatorics.PermutationGroup([combinatorics.Permutation(list(g.images)) for g in entry.generators])


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.label)
def test_invariants_agree_with_sympy(entry):
    G = entry.group()
    P = sympy_group(entry)
    assert G.order == P.order()
    assert sorted(conjugacy_classes(G).sizes) == sorted(len(c) for c in P.conjugacy_classes())
    assert len(center(G)) == P.center().order()
    assert len(derived_subgroup(G)) == P.derived_subgroup().order()
    assert is_solvable(G) == P.is_solvable
    assert is_nilpotent(G) == P.is_nilpotent


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.label)
def test_subgroup_nilpotency_agrees_with_sympy(entry):
    G = entry.group()
    for H in subgroups(G):
        gens = (0, *small_generating_set(G, H.members))  # the identity keeps the trivial group's list nonempty
        P = combinatorics.PermutationGroup([combinatorics.Permutation(list(G.elements[x])) for x in gens])
        assert is_nilpotent(G, H) == P.is_nilpotent, H.members


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.label)
def test_series_sylow_and_class_closures_agree_with_sympy(entry):
    G = entry.group()
    P = sympy_group(entry)
    assert [len(term) for term in derived_series(G)] == [term.order() for term in P.derived_series()]
    elements = P.elements
    for p in prime_factors(G.order):
        sylow = P.sylow_subgroup(p).elements
        core = [x for x in sylow if all(x ^ g in sylow for g in elements)]  # O_p(G), the core of a Sylow p-subgroup
        assert len(o_lower_p(G, p)) == len(core), p
    for rep in conjugacy_classes(G).reps:
        cyclic = combinatorics.PermutationGroup([combinatorics.Permutation(list(G.elements[rep]))])
        closure = normal_closure(G, ElementSet(G, closure_indices(G, [rep])))
        assert len(closure) == P.normal_closure(cyclic).order(), rep


def test_primes_agree_with_sympy():
    for n in range(5_000):
        assert is_prime(n) == sympy.isprime(n), n
        assert prime_factors(n) == sympy.primefactors(n), n
    # Miller-Rabin on large primes and on strong pseudoprimes to the first bases
    large = [
        561,  # a Carmichael number
        3215031751,  # the least strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # a strong pseudoprime to every prime base up to 23
        318665857834031151167461,  # the least strong pseudoprime to every prime base up to 37
        1000000000000000009,
        2**61 - 1,
        2**89 - 1,
        (2**61 - 1) * (2**89 - 1),
    ]
    for n in large:
        assert is_prime(n) == sympy.isprime(n), n
