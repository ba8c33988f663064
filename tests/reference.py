"""Test-only reference implementations that the tests compare the library
against: straightforward versions of code the library computes faster, and
the second routes that the library no longer takes.

- Permutation arithmetic, which ``GroupTable`` lookups replaced:
  ``from_cycles``, ``compose``, ``inverse``, ``conjugate``,
  ``element_order`` and ``power`` on ``Permutation``s, and ``table_power``,
  x^k read off a table's ``powers`` walk.
- Every class matrix at once, ``class_matrices``, element by element from
  the definition, where the library reads each one off its class-product
  table as its split reaches it.
- A table's value index from ``ClassFunction`` rows, ``index_rows``, the
  form the ``CharacterTable`` constructor takes.
- The literal character-theory route to (CI) (Theorem 1: every nontrivial
  theta in Irr(H) induces homogeneously), which the library decides from
  Irr(G) mod p: ``trivial_character``, ``regular_character``,
  ``inner_product_int``, ``restrict``, ``is_homogeneous_induction`` and
  ``kernel_of``.  ``induce``, ``decompose`` and ``inner_product`` stay in
  ``camina.chartab``, as do ``subgroup_table`` and ``quotient_table`` in
  ``camina.grouptable``, ``derangements`` in ``camina.conditions`` and the
  character-table cache (``save_chartab``, ``load_chartab``,
  ``--cache-dir``) in ``camina.reports``, because the benchmark's tracer
  wraps them by name.
- The report file read back: ``ReportRecord`` and ``load_reports``.
- The trivial subgroup, ``trivial_subgroup``.
- Slow versions of fast library code, named ``reference_*``: closures,
  generating sets, subgroup, normality and subnormality tests, Irr(G|N),
  corollary 2's hypothesis on one element against every y in G, which the
  library decides per class from the class-product table, the sweep
  without transfer between conjugates, and the character table split in
  the whole class space and checked in exact ``Cyc`` arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

from camina.chartab import (
    CharacterTable,
    ClassFunction,
    _charpoly,
    _kernel,
    _root_of_unity,
    _roots_mod,
    _rref,
    decompose,
    dixon_prime,
    induce,
    inner_product,
)
from camina.conditions import ConditionVerdict
from camina.cyclotomic import Cyc
from camina.grouptable import ElementSet, GroupTable, subgroup_table
from camina.perm import Permutation, cycles
from camina.structure import ConjClassPartition, conjugacy_classes, exponent, p_part, subgroups
from camina.verify import CLAIMS, Pair, VerificationReport, verify_pair_claim

# --- permutation arithmetic ------------------------------------------------


def from_cycles(degree: int, cycle_list: Iterable[Sequence[int]]) -> Permutation:
    """The permutation with these disjoint cycles on 0-based points."""
    images = list(range(degree))
    touched = [False] * degree
    for cycle in cycle_list:
        for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
            if not 0 <= a < degree:
                raise ValueError(f"point {a} out of range for degree {degree}")
            if touched[a]:
                raise ValueError(f"point {a} repeated across cycles")
            touched[a] = True
            images[a] = b
    return Permutation(images)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Apply ``a`` first, then ``b``: the result maps i to b.images[a.images[i]]."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} != {b.degree}")
    bi = b.images
    return Permutation(tuple(bi[v] for v in a.images))


def inverse(a: Permutation) -> Permutation:
    out = [0] * a.degree
    for i, v in enumerate(a.images):
        out[v] = i
    return Permutation(out)


def element_order(a: Permutation) -> int:
    """Least k >= 1 with a^k = identity: the lcm of the cycle lengths (1
    for the identity, which has no nontrivial cycle)."""
    return math.lcm(*(len(c) for c in cycles(a.images)))


def power(a: Permutation, k: int) -> Permutation:
    """a^k for any integer k, by repeated squaring of k mod the order of a."""
    k %= element_order(a)
    result = Permutation(range(a.degree))
    base = a
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def conjugate(x: Permutation, g: Permutation) -> Permutation:
    """The conjugate g^-1 x g (apply g^-1, then x, then g)."""
    if x.degree != g.degree:
        raise ValueError(f"degree mismatch: {x.degree} != {g.degree}")
    gi, xi = g.images, x.images
    ginv = [0] * g.degree
    for i, v in enumerate(gi):
        ginv[v] = i
    return Permutation(tuple(gi[xi[ginv[i]]] for i in range(x.degree)))


def table_power(G: GroupTable, i: int, k: int) -> int:
    """Index of x^k, x = elements[i], any integer k: read off ``powers``,
    whose entry j - 1 is x^j and whose last entry is x^o = 1."""
    walk = G.powers(i)
    return walk[k % len(walk) - 1]


def trivial_subgroup(G: GroupTable) -> ElementSet:
    return ElementSet(G, (0,))


# --- class functions -------------------------------------------------------


def class_matrices(G: GroupTable) -> list[list[list[int]]]:
    """Every class matrix of G in class order, built at once: M_i[j][k] counts
    the x in class i with x^-1 rep_k in class j."""
    classes = conjugacy_classes(G)
    r = classes.count
    mats = []
    for i in range(r):
        M = [[0] * r for _ in range(r)]
        for k, z in enumerate(classes.reps):
            for x in classes.members(i):
                M[classes.class_of[G.mul(G.inv(x), z)]][k] += 1
        mats.append(M)
    return mats


def index_rows(rows: Iterable[ClassFunction]) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """(distinct, cells) of ``CharacterTable``: the rows' distinct
    coefficient tuples, and each row as the ids of its values.  Only the
    coefficients are kept, so the constructor alone decides whether they
    are values of G's ring."""
    ids: dict[tuple[int, ...], int] = {}
    cells = [[ids.setdefault(v.coeffs, len(ids)) for v in chi.values] for chi in rows]
    return list(ids), cells


def trivial_character(G: GroupTable) -> ClassFunction:
    r = conjugacy_classes(G).count
    return ClassFunction(G, tuple(Cyc(1, (1,)) for _ in range(r)))


def regular_character(G: GroupTable) -> ClassFunction:
    r = conjugacy_classes(G).count
    return ClassFunction(G, tuple(Cyc(1, (G.order if k == 0 else 0,)) for k in range(r)))


def inner_product_int(f: ClassFunction, g: ClassFunction) -> int:
    got = inner_product(f, g)
    if not got.is_rational_integer():
        raise ValueError("inner product is not a rational integer")
    return got.as_int()


def restrict(G: GroupTable, chi: ClassFunction, H: ElementSet) -> ClassFunction:
    """chi read off on the classes of the subgroup H."""
    if chi.group is not G:
        raise ValueError("chi is not a class function on G")
    table, to_parent, _ = subgroup_table(G, H)
    h_classes = conjugacy_classes(table)
    g_classes = conjugacy_classes(G)
    values = tuple(chi.values[g_classes.class_of[to_parent[rep]]] for rep in h_classes.reps)
    return ClassFunction(table, values)


def is_homogeneous_induction(
    G: GroupTable, H: ElementSet, theta: ClassFunction
) -> tuple[bool, int | None, int]:
    """Whether theta^G = a * xi for a single irreducible xi; returns
    (verdict, index of xi or None, multiplicity a)."""
    if inner_product(theta, theta) != 1:
        raise ValueError("theta is not irreducible")
    induced = induce(G, H, theta)
    mults = decompose(induced)
    nonzero = [(i, m) for i, m in mults if m]
    if len(nonzero) == 1:
        return True, nonzero[0][0], nonzero[0][1]
    return False, None, 0


def kernel_of(chi: ClassFunction) -> ElementSet:
    """{x : chi(x) = chi(1)}, a normal subgroup: the union of the classes
    whose value equals chi(1), compared once per class."""
    classes = conjugacy_classes(chi.group)
    top = chi.values[0]
    return ElementSet(chi.group, (m for k, v in enumerate(chi.values) if v == top for m in classes.members(k)))


# --- report files ----------------------------------------------------------


@dataclass
class ReportRecord(VerificationReport):
    """A VerificationReport plus artifact version and run timestamp."""

    version: str
    timestamp: str


def load_reports(path: str | Path) -> list[ReportRecord]:
    """The records of a ``verify --out`` file, one JSON object per line."""
    names = [f.name for f in fields(ReportRecord)]
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            obj = json.loads(line)
            records.append(ReportRecord(**{name: obj[name] for name in names}))
    return records


# --- slow versions of fast library code ------------------------------------


def reference_closure_indices(G: GroupTable, seed: Iterable[int]) -> tuple[int, ...]:
    """The subgroup generated by ``seed``, sorted, breadth first: every new
    member is multiplied by every generator."""
    gens = sorted(set(seed) - {0})
    members = {0, *gens}
    frontier = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                p = G.mul(a, b)
                if p not in members:
                    members.add(p)
                    nxt.append(p)
        frontier = nxt
    return tuple(sorted(members))


def reference_small_generating_set(G: GroupTable, members: Sequence[int]) -> tuple[int, ...]:
    """Greedy generators: a member is kept iff it lies outside the closure of
    the members kept before it, closed again from scratch after each one;
    stops once the closure has ``len(members)`` elements."""
    gens: list[int] = []
    reached = {0}
    for m in members:
        if m in reached:
            continue
        gens.append(m)
        reached = set(reference_closure_indices(G, gens))
        if len(reached) == len(members):
            break
    return tuple(gens)


def reference_is_subgroup(G: GroupTable, members: Sequence[int]) -> bool:
    """Whether ``members`` holds the identity, every inverse and all
    |members|^2 products."""
    inside = set(members)
    return 0 in inside and all(G.inv(a) in inside for a in members) and all(
        G.mul(a, b) in inside for a in members for b in members
    )


def reference_is_normal(G: GroupTable, members: Sequence[int]) -> bool:
    """Whether ``members`` is closed under conjugation: every member
    conjugated by every generator of G with ``G.conj`` stays inside."""
    inside = set(members)
    return all(G.conj(m, g) in inside for m in members for g in G.generator_ids)


def reference_is_subnormal(G: GroupTable, H: ElementSet) -> bool:
    """Whether a chain H = K_0 < K_1 < ... < K_n = G with each K_i normal in
    K_(i+1) exists, searched upward through the subgroup lattice: K is
    reached once it contains a reached subgroup A with a^k in A for every
    a in A and k in K."""
    lattice = [frozenset(K.members) for K in subgroups(G)]
    reached = {frozenset(H.members)}
    frontier = list(reached)
    while frontier:
        A = frontier.pop()
        for K in lattice:
            if K not in reached and A < K and all(G.conj(a, k) in A for a in A for k in K):
                reached.add(K)
                frontier.append(K)
    return G.order in map(len, reached)


def reference_in_irr_given_N(chi: ClassFunction, N: ElementSet) -> bool:
    """True iff chi lies in Irr(G|N), i.e. the normal subgroup N is not
    inside ker(chi), compared element by element."""
    if not N.is_subgroup or not N.is_normal():
        raise ValueError("N must be a normal subgroup")
    ker = kernel_of(chi)
    return not all(n in ker for n in N.members)


def reference_bs_hypothesis(G: GroupTable, x: int, p: int) -> ConditionVerdict:
    """x*y is p-regular for every nontrivial p-regular y in G, y in element
    order; x must be a p-element.  A failing verdict names the first y."""
    ox = G.element_order(x)
    if p_part(ox, p) != ox:
        raise ValueError(f"element {x} of order {ox} is not a {p}-element")
    for y in range(1, G.order):
        if G.element_order(y) % p == 0:
            continue
        if G.element_order(G.mul(x, y)) % p == 0:
            return ConditionVerdict(False, "BS_HYPOTHESIS", x, y, f"x*y is {p}-singular for p-regular y")
    return ConditionVerdict(True, "BS_HYPOTHESIS")


def reference_pair_reports(label: str, G: GroupTable, claims: Sequence[str]) -> list[VerificationReport]:
    """The pair claims of every proper subgroup, in ``subgroups`` order, each
    subgroup with a fresh ``Pair`` and every claim evaluated on it."""
    reports = []
    for idx, H in enumerate(subgroups(G)):
        if len(H) == G.order:
            continue
        pair = Pair(G, H, label, idx)
        reports += [verify_pair_claim(G, H, c, pair) for c in claims if c in CLAIMS and (len(H) > 1 or CLAIMS[c][2])]
    return reports


def reference_check_orthonormal(rows: list[ClassFunction], classes: ConjClassPartition) -> None:
    """The character-table self-check in exact Cyc arithmetic: raise
    RuntimeError unless |G| [chi_i, chi_j] = sum_k chi_i(k) w_k equals
    |G| delta_ij, w_k = conj(chi_j(k)) |K_k|, and every chi(1) is a positive
    integer."""
    n = classes.group.order
    for j, chi in enumerate(rows):
        weighted = [v.conjugate() * size for v, size in zip(chi.values, classes.sizes)]
        for i in range(j + 1):
            total = Cyc.zero(chi.values[0].e)
            for a, w in zip(rows[i].values, weighted):
                total = total + a * w
            if not total == (n if i == j else 0):
                raise RuntimeError("character rows are not orthonormal")
    if not all(chi.values[0].is_rational_integer() and chi.values[0].as_int() > 0 for chi in rows):
        raise RuntimeError("character degrees are not positive integers")


def reference_gram_mod(X: list[list[int]], W: list[list[int]], p: int) -> list[list[int]]:
    """X W^T mod p, one plain dot product per entry."""
    return [[sum(x * w for x, w in zip(xs, ws)) % p for ws in W] for xs in X]


def reference_check_galois(rows: list[ClassFunction], classes: ConjClassPartition) -> None:
    """The power-map check in exact Cyc arithmetic: raise RuntimeError
    unless chi(r^c) equals chi(r) with zeta_e -> zeta_e^c for every row,
    class representative r and c prime to exp(G)."""
    G = classes.group
    n_exp = exponent(G)
    for c in (c for c in range(1, n_exp + 1) if math.gcd(c, n_exp) == 1):
        for k, r in enumerate(classes.reps):
            at = classes.class_of[table_power(G, r, c)]
            for chi in rows:
                v = chi.values[k]
                image = Cyc.from_root_multiset(v.e, {j * c % v.e: a for j, a in enumerate(v.coeffs)})
                if not chi.values[at] == image:
                    raise RuntimeError("character values do not follow the power maps")


def reference_simultaneous_eigenvectors(mats: list[list[list[int]]], q: int) -> list[list[int]]:
    """Common eigenvectors of the class matrices over F_q, normalized so the
    identity-class coordinate is 1: each space is split by the kernel of
    M - lambda, taken in F_q^r, for every root lambda of M's own
    characteristic polynomial."""
    r = len(mats)
    spaces = [[[1 if i == j else 0 for j in range(r)] for i in range(r)]]
    for M in mats[1:]:
        lams = _roots_mod(_charpoly(M, q), q)
        new_spaces = []
        for B in spaces:
            if len(B) == 1:
                new_spaces.append(B)
                continue
            images = [[sum(m * x for m, x in zip(row, b)) % q for row in M] for b in B]
            for lam in lams:
                # columns (M - lambda) b_j, as an r x len(B) matrix
                rows = [[(mb[i] - lam * b[i]) % q for b, mb in zip(B, images)] for i in range(r)]
                coeffs = _kernel(rows, len(B), q)
                if coeffs:
                    vectors = [[sum(c * b[i] for c, b in zip(cs, B)) % q for i in range(r)] for cs in coeffs]
                    new_spaces.append(_rref(vectors, q))
        assert sum(map(len, new_spaces)) == r
        spaces = new_spaces
    assert all(len(B) == 1 for B in spaces)
    return sorted([x * pow(B[0][0], -1, q) % q for x in B[0]] for B in spaces)


def reference_character_table(G: GroupTable, prime: int | None = None) -> CharacterTable:
    """Irr(G) split mod ``prime`` (default ``dixon_prime``), a prime
    q = 1 (mod exp G) above 2 sqrt|G|, by
    ``reference_simultaneous_eigenvectors``, with every column lifted by its
    own DFT over the powers of its class representative, checked by
    ``reference_check_orthonormal``; rows in the order of
    ``character_table``."""
    classes = conjugacy_classes(G)
    r, e, n = classes.count, exponent(G), G.order
    q = dixon_prime(e, n) if prime is None else prime
    omegas = reference_simultaneous_eigenvectors(class_matrices(G), q)
    inv_sizes = [pow(s, -1, q) for s in classes.sizes]
    z = _root_of_unity(e, q)
    rows = []
    for w in omegas:
        s = sum(w[k] * w[classes.inverse_class[k]] * inv_sizes[k] for k in range(r)) % q
        t = n * pow(s, -1, q) % q
        d = next(d for d in range(1, math.isqrt(n) + 1) if d * d % q == t)
        chi_mod = [d * w[k] * inv_sizes[k] % q for k in range(r)]
        values = []
        for rep in classes.reps:
            m = G.element_order(rep)
            step = e // m
            pcls = [classes.class_of[table_power(G, rep, t)] for t in range(m)]
            counts = {}
            for l in range(m):
                c = sum(chi_mod[pcls[t]] * pow(z, -step * l * t % e, q) for t in range(m)) * pow(m, -1, q) % q
                if c:
                    counts[step * l] = c
            assert sum(counts.values()) == d
            values.append(Cyc.from_root_multiset(e, counts))
        rows.append(ClassFunction(G, tuple(values)))
    reference_check_orthonormal(rows, classes)
    rows.sort(key=lambda cf: (cf.values[0].as_int(), tuple(v.coeffs for v in cf.values)))
    return CharacterTable(G, *index_rows(rows))
