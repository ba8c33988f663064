"""Structural invariants of a GroupTable.

Conjugacy classes, centralizers, center, derived and upper central
series, solvability and nilpotency, Sylow subgroups, O_p and O^p,
normal closure, core, subgroup enumeration, p-part decomposition,
Frobenius-kernel detection and class products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .grouptable import (
    CapExceeded,
    ElementSet,
    GroupTable,
    _dimino,
    closure_indices,
    small_generating_set,
)
from .perm import Permutation, element_order

DEFAULT_SUBGROUP_CAP = 50_000


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


@dataclass(frozen=True)
class ConjClassPartition:
    """Partition of a group into conjugacy classes.

    Classes are numbered by (element order of representative, class size,
    least representative index); the identity is always class 0.
    """

    group: GroupTable
    class_of: tuple[int, ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]
    member_lists: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.reps)

    def members(self, cid: int) -> tuple[int, ...]:
        return self.member_lists[cid]


def conjugacy_classes(G: GroupTable) -> ConjClassPartition:
    """Orbits of G acting on itself by conjugation; cached on the table."""
    hit = G._cache.get("classes")
    if hit is not None:
        return hit
    assigned = [-1] * G.order
    raw: list[list[int]] = []
    for seed in range(G.order):
        if assigned[seed] != -1:
            continue
        cid = len(raw)
        orbit = [seed]
        assigned[seed] = cid
        frontier = [seed]
        while frontier:
            nxt = []
            for x in frontier:
                for g in G.generator_ids:
                    y = G.conj(x, g)
                    if assigned[y] == -1:
                        assigned[y] = cid
                        orbit.append(y)
                        nxt.append(y)
            frontier = nxt
        raw.append(sorted(orbit))
    order_key = sorted(
        range(len(raw)),
        key=lambda c: (G.element_order(raw[c][0]), len(raw[c]), raw[c][0]),
    )
    relabel = [0] * len(raw)
    for new, old in enumerate(order_key):
        relabel[old] = new
    class_of = tuple(relabel[c] for c in assigned)
    member_lists = tuple(tuple(raw[old]) for old in order_key)
    reps = tuple(m[0] for m in member_lists)
    sizes = tuple(len(m) for m in member_lists)
    inverse_class = tuple(class_of[G.inv(r)] for r in reps)
    part = ConjClassPartition(G, class_of, reps, sizes, inverse_class, member_lists)
    G._cache["classes"] = part
    return part


def centralizer(G: GroupTable, x: int) -> ElementSet:
    xs = G.elements[x].images
    out = []
    for g in range(G.order):
        gs = G.elements[g].images
        if all(gs[xs[i]] == xs[gs[i]] for i in range(G.degree)):
            out.append(g)
    return ElementSet(G, out)


def center(G: GroupTable) -> ElementSet:
    """Z(G): the union of the conjugacy classes of size 1."""
    classes = conjugacy_classes(G)
    return ElementSet(G, (r for r, size in zip(classes.reps, classes.sizes) if size == 1))


def normal_closure(G: GroupTable, H: ElementSet) -> ElementSet:
    """Least normal subgroup of G containing H (H may be any subset)."""
    return _conjugation_closure(G, H.members, G.generator_ids)


def _conjugation_closure(G: GroupTable, gens: Iterable[int], conjugators: Sequence[int]) -> ElementSet:
    """Least subgroup containing ``gens`` and closed under conjugation by
    ``conjugators``: close, add the missing conjugates of the kept seeds,
    repeat.  <S>^g = <S^g>, so a closure that holds the conjugates of the
    seeds it kept holds those of all its members."""
    kept = list(gens)
    while True:
        members, kept = _dimino(G, kept)
        memberset = set(members)
        missing = [y for x in kept for g in conjugators if (y := G.conj(x, g)) not in memberset]
        if not missing:
            return ElementSet(G, members)
        kept += missing


def core(G: GroupTable, H: ElementSet) -> ElementSet:
    """Largest normal subgroup of G inside H: the classes wholly inside H."""
    if not H.is_subgroup:
        raise ValueError("core requires a subgroup")
    classes = conjugacy_classes(G)
    inside = {cid for cid in range(classes.count) if all(m in H for m in classes.members(cid))}
    return ElementSet(G, (i for i in H.members if classes.class_of[i] in inside))


def normalizer(G: GroupTable, H: ElementSet) -> ElementSet:
    gens = small_generating_set(G, H.members)
    out = [g for g in range(G.order) if all(G.conj(h, g) in H for h in gens)]
    return ElementSet(G, out)


def derived_subgroup(G: GroupTable, S: ElementSet | None = None) -> ElementSet:
    """[S, S] as a subgroup of G (S defaults to the whole group).

    Generated by commutators of a generating set of S, then closed under
    conjugation by S (the derived subgroup is normal in S).
    """
    members = S.members if S is not None else tuple(range(G.order))
    gens = small_generating_set(G, members)
    seed = {G.commutator(a, b) for a in gens for b in gens}
    return _conjugation_closure(G, sorted(seed), gens)


def commutator_subgroup(G: GroupTable) -> ElementSet:
    return derived_subgroup(G)


@dataclass(frozen=True)
class SeriesChain:
    """A stabilized chain of subgroups: derived or upper central."""

    kind: str
    terms: tuple[ElementSet, ...]


def derived_series(G: GroupTable, S: ElementSet | None = None) -> SeriesChain:
    """S >= [S, S] >= ... until it stabilizes, each term a subgroup of G
    computed with G's products (S defaults to the whole group)."""
    terms = [S if S is not None else ElementSet.whole(G)]
    while True:
        nxt = derived_subgroup(G, terms[-1])
        if len(nxt) == len(terms[-1]):
            break
        terms.append(nxt)
    return SeriesChain("derived", tuple(terms))


def is_solvable(G: GroupTable, S: ElementSet | None = None) -> bool:
    """Whether the subgroup S of G (default: G) is solvable."""
    return len(derived_series(G, S).terms[-1]) == 1


def upper_central_series(G: GroupTable, S: ElementSet | None = None) -> SeriesChain:
    """1 = Z_0 <= Z_1 <= ... with Z_{i+1}/Z_i the center of S/Z_i, for the
    subgroup S of G (default: G), computed with G's products.  An element
    of S is central modulo Z_i iff it commutes modulo Z_i with a generating
    set of S: G's generators, or ``small_generating_set`` of a proper S."""
    members = S.members if S is not None else range(G.order)
    gens = G.generator_ids if S is None else small_generating_set(G, S.members)
    terms = [ElementSet.trivial(G)]
    while True:
        prev = terms[-1]
        nxt = ElementSet(G, (x for x in members if all(G.commutator(x, g) in prev for g in gens)))
        if len(nxt) == len(prev):
            break
        terms.append(nxt)
    return SeriesChain("upper_central", tuple(terms))


def is_nilpotent(G: GroupTable, S: ElementSet | None = None) -> bool:
    """Whether the subgroup S of G (default: G) is nilpotent."""
    order = len(S) if S is not None else G.order
    return len(upper_central_series(G, S).terms[-1]) == order


def subgroups(G: GroupTable, count_cap: int = DEFAULT_SUBGROUP_CAP) -> list[ElementSet]:
    """All subgroups of G, ordered by (order, member tuple).

    Found breadth-first from the trivial group by zuppo joins (Neubüser's
    cyclic extension), one conjugacy class at a time: one representative
    of each class is joined with one generator of every zuppo, i.e.
    cyclic subgroup of prime-power order, outside it.  When a join is new,
    its conjugates under G's generators are added with it, without a
    closure, and are not extended themselves: <A^g, z> = <A, z^(g^-1)>^g,
    and a conjugate of a zuppo is a zuppo, so a conjugate's joins are the
    conjugates of its representative's joins.  Every element is a product
    of commuting prime-power-order powers of itself, so every subgroup is
    generated by its zuppos, and a chain of single zuppo joins leads from
    1 to it.  Each join at least doubles the order, so a subgroup is kept
    with at most log2 of its order generators.  A join is one
    ``closure_indices`` pass: the representative is rebuilt from its kept
    generators and z then adds whole cosets of it.  Cached on the table.
    """
    hit = G._cache.get("subgroups")
    if hit is not None:
        return hit
    zuppos = _zuppo_generators(G)
    conjugators = [[G.conj(x, g) for x in range(G.order)] for g in G.generator_ids]
    gens_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    worklist: list[tuple[int, ...]] = []

    def record(members: tuple[int, ...], gens: tuple[int, ...]) -> None:
        if len(gens_of) >= count_cap:
            raise CapExceeded("subgroup cap exceeded", len(gens_of))
        gens_of[members] = gens

    def record_class(members: tuple[int, ...], gens: tuple[int, ...]) -> None:
        """Record a new subgroup and queue it; record its conjugates."""
        record(members, gens)
        worklist.append(members)
        orbit = [members]
        for a in orbit:  # grows while it is walked
            for c in conjugators:
                b = tuple(sorted(c[m] for m in a))
                if b not in gens_of:
                    record(b, tuple(c[x] for x in gens_of[a]))
                    orbit.append(b)

    record_class((0,), ())
    for a in worklist:  # grows while it is walked: breadth-first
        inside = set(a)
        for z in zuppos:
            if z not in inside:
                gens = gens_of[a] + (z,)
                joined = closure_indices(G, gens)
                if joined not in gens_of:
                    record_class(joined, gens)
    ordered = sorted(gens_of, key=lambda m: (len(m), m))
    result = [ElementSet(G, m) for m in ordered]
    for s in result:
        s._is_subgroup = True
    G._cache["subgroups"] = result
    return result


def _zuppo_generators(G: GroupTable) -> list[int]:
    """The least generator of each nontrivial cyclic subgroup of prime-power
    order, ascending."""
    out = []
    covered = set()
    for x in range(1, G.order):
        n = G.element_order(x)
        if x in covered or not is_p_group(n):
            continue
        out.append(x)
        y = x
        for k in range(1, n):
            if math.gcd(k, n) == 1:
                covered.add(y)
            y = G.mul(y, x)
    return out


def sylow_subgroup(G: GroupTable, p: int) -> ElementSet:
    """A Sylow p-subgroup, grown greedily by joining p-elements.

    Every maximal p-subgroup is a Sylow subgroup, so the greedy join with
    a p-group filter always reaches the full p-part; verified at the end.
    """
    target = p_part(G.order, p)
    if target == 1:
        return ElementSet.trivial(G)
    p_elements = [x for x in range(G.order) if p_part(G.element_order(x), p) == G.element_order(x)]
    current: tuple[int, ...] = (0,)
    gens: list[int] = []
    grew = True
    while len(current) < target and grew:
        grew = False
        memberset = set(current)
        for y in p_elements:
            if y in memberset:
                continue
            candidate = closure_indices(G, gens + [y])
            if p_part(len(candidate), p) == len(candidate):
                gens.append(y)
                current = candidate
                grew = True
                break
    if len(current) != target:
        raise RuntimeError(f"sylow construction stalled at order {len(current)} of {target}")
    return ElementSet(G, current)


def o_lower_p(G: GroupTable, p: int) -> ElementSet:
    """O_p(G): the largest normal p-subgroup (core of a Sylow p-subgroup)."""
    return core(G, sylow_subgroup(G, p))


def o_upper_p(G: GroupTable, p: int, S: ElementSet | None = None) -> ElementSet:
    """O^p(S) for the subgroup S of G (default: G): the subgroup generated
    by the p-regular elements of S, closed with G's products.

    It is normal in S (the p-regular elements are closed under conjugation)
    and is the least normal subgroup of S with p-group quotient.
    """
    members = S.members if S is not None else range(G.order)
    regulars = [x for x in members if G.element_order(x) % p != 0]
    return ElementSet(G, closure_indices(G, regulars))


def p_decomposition(a: Permutation, p: int) -> tuple[Permutation, Permutation]:
    """Write a = a_p * a_p' with commuting power-of-a factors.

    a_p has p-power order and a_p' has order coprime to p; both are
    powers of a, found by solving exponent congruences.
    """
    n = element_order(a)
    pa = p_part(n, p)
    m = n // pa
    if pa == 1:
        return Permutation.identity(a.degree), a
    if m == 1:
        return a, Permutation.identity(a.degree)
    # u = 1 mod pa, 0 mod m gives a_p = a^u; v = u complement gives a_p'.
    u = m * pow(m, -1, pa)
    v = pa * pow(pa, -1, m)
    return a ** u, a ** v


def is_frobenius_with_kernel(G: GroupTable, N: ElementSet) -> bool:
    """True iff N is a proper nontrivial normal subgroup with C_G(n) <= N
    for every nonidentity n in N; checked on one representative r of each
    class inside N, since C_G(r^g) = C_G(r)^g and N^g = N."""
    if not N.is_subgroup or not N.is_normal():
        return False
    if len(N) == 1 or len(N) == G.order:
        return False
    reps = conjugacy_classes(G).reps[1:]
    return all(g in N for r in reps if r in N for g in centralizer(G, r).members)


def class_product(G: GroupTable, cid: int, did: int) -> ElementSet:
    """The set of products {c * d : c in class cid, d in class did}: it is
    (x K_d)^G for x = reps[cid], the union of the classes met by x * d."""
    classes = conjugacy_classes(G)
    x = classes.reps[cid]
    met = {classes.class_of[G.mul(x, d)] for d in classes.members(did)}
    return ElementSet(G, (m for c in met for m in classes.members(c)))


def is_p_group(order: int) -> bool:
    return len(prime_factors(order)) <= 1


def is_simple(G: GroupTable) -> bool:
    """True iff G is nonabelian simple: every nontrivial class normally
    generates the whole group, and G is not abelian."""
    if G.order == 1:
        return False
    classes = conjugacy_classes(G)
    if classes.count == G.order:
        return False
    for cid in range(1, classes.count):
        rep = classes.reps[cid]
        if len(normal_closure(G, ElementSet(G, (rep,)))) < G.order:
            return False
    return True


def exponent(G: GroupTable) -> int:
    """lcm of all element orders; cached."""
    hit = G._cache.get("exponent")
    if hit is None:
        hit = math.lcm(*(G.element_order(i) for i in range(G.order)))
        G._cache["exponent"] = hit
    return hit
