"""Structural invariants of a GroupTable.

Centralizers, center, derived series, solvability, nilpotency, simplicity,
O_p and O^p, normal closure, subnormality, subgroup enumeration and
Frobenius-kernel detection, all computed from the ``GroupTable`` alone.
The conjugacy classes are ``grouptable.conjugacy_classes``, re-exported
here; a normal subset is a union of classes.

The number theory these read group orders with, ``is_prime``,
``prime_factors``, ``p_part`` and ``_root_of_unity``, lives in
``grouptable`` next to its one prime test and is re-exported here.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .grouptable import (
    CapExceeded,
    ConjClassPartition,
    ElementSet,
    GroupTable,
    _dimino,
    _root_of_unity,
    closure_indices,
    conjugacy_classes,
    is_prime,
    p_part,
    prime_factors,
    small_generating_set,
)

SUBGROUP_CAP = 50_000


def centralizer(G: GroupTable, x: int) -> ElementSet:
    """C_G(x): the g with g x = x g, read off the Cayley table."""
    row_x = G.rows[x]
    return ElementSet(G, (g for g, row in enumerate(G.rows) if row[x] == row_x[g]))


def center(G: GroupTable) -> ElementSet:
    """Z(G): the union of the conjugacy classes of size 1."""
    classes = conjugacy_classes(G)
    return ElementSet(G, (r for r, size in zip(classes.reps, classes.sizes) if size == 1))


def normal_closure(G: GroupTable, H: ElementSet) -> ElementSet:
    """Least normal subgroup of G containing H (H may be any subset)."""
    return _conjugation_closure(G, H.members, G.generator_ids)


def is_subnormal(G: GroupTable, H: ElementSet) -> bool:
    """Whether the subgroup H is subnormal in G, by Wielandt's series S_0 = G,
    S_(i+1) = H^(S_i), each term normal in the one before.  S_i lies in K_i
    for every chain H = K_n <| ... <| K_0 = G, so H is subnormal iff the
    series reaches H; it never does once a term repeats above H."""
    S = ElementSet.whole(G)
    while len(S) > len(H):
        nxt = _conjugation_closure(G, H.members, small_generating_set(G, S.members))
        if len(nxt) == len(S):
            return False
        S = nxt
    return True


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


def normalizer(G: GroupTable, H: ElementSet) -> ElementSet:
    gens = small_generating_set(G, H.members)
    out = [g for g in range(G.order) if all(G.conj(h, g) in H for h in gens)]
    return ElementSet(G, out)


def derived_subgroup(G: GroupTable, S: ElementSet | None = None) -> ElementSet:
    """[S, S] as a subgroup of G (S defaults to the whole group).

    Generated by commutators of a generating set of S, G's generators or
    ``small_generating_set`` of a proper S, then closed under conjugation
    by S (the derived subgroup is normal in S).  G' itself is cached on G.
    """
    if S is None and "derived_subgroup" in G._cache:
        return G._cache["derived_subgroup"]
    gens = G.generator_ids if S is None else small_generating_set(G, S.members)
    seed = {G.commutator(a, b) for a in gens for b in gens}
    result = _conjugation_closure(G, sorted(seed), gens)
    if S is None:
        G._cache["derived_subgroup"] = result
    return result


def derived_series(G: GroupTable, S: ElementSet | None = None) -> tuple[ElementSet, ...]:
    """S >= [S, S] >= ... until it stabilizes, each term a subgroup of G
    computed with G's products (S defaults to the whole group)."""
    terms = [S if S is not None else ElementSet.whole(G)]
    while True:
        nxt = derived_subgroup(G, terms[-1])
        if len(nxt) == len(terms[-1]):
            break
        terms.append(nxt)
    return tuple(terms)


def is_solvable(G: GroupTable, S: ElementSet | None = None) -> bool:
    """Whether the subgroup S of G (default: G) is solvable."""
    return len(derived_series(G, S)[-1]) == 1


def is_nilpotent(G: GroupTable, S: ElementSet | None = None) -> bool:
    """Whether the subgroup S of G (default: G) is nilpotent: whether, for
    each prime p dividing |S|, S has exactly |S|_p elements of p-power
    order.  Each p-element lies in a Sylow p-subgroup, so two of them would
    hold more; and a finite group is nilpotent iff each Sylow subgroup is
    its only one, that is, normal."""
    orders = [G.orders[x] for x in (S.members if S is not None else G.members)]
    n = len(orders)
    return all(sum(p_part(o, p) == o for o in orders) == p_part(n, p) for p in prime_factors(n))


def subgroups(G: GroupTable) -> list[ElementSet]:
    """All subgroups of G, ordered by (order, member tuple).

    Found breadth-first from the trivial group by zuppo joins (Neubüser's
    cyclic extension), one conjugacy class at a time.  A zuppo is a cyclic
    subgroup of prime-power order, given by its least generator, an element
    of prime-power order that is its own ``G.least_generators`` entry; a
    conjugate of it has prime-power order too, so that tuple maps it to the
    conjugate zuppo.  Every subgroup is generated by its zuppos.  A new
    join's conjugates are added by conjugating its members, with no
    closure; the walk keeps a transversal, whose Schreier generators give N_G(A) for the class
    representative A in one ``_dimino`` pass.  A is joined with one zuppo
    z of each N_G(A)-orbit outside it with z^p in A, p the prime dividing
    o(z): <A, z^n> = <A, z>^n for n in N_G(A) and <A^g, z> =
    <A, z^(g^-1)>^g, so every other join is a conjugate of these, recorded
    with its class.  The z^p test loses no subgroup: a subgroup U != 1 has
    a maximal subgroup A, and a zuppo z of U outside A of least order has
    z^p in A (<z^p> is a smaller zuppo of U, or 1), so U = <A, z>.  The
    test is the same for each generator of <z> and N_G(A)-invariant, so
    it is made before the orbit walk; z^p is read once per zuppo, by
    p - 1 row reads, and looked up in A's members.  A join is one
    ``closure_indices`` pass that starts from A's members and generators;
    it at least doubles the order, so a subgroup keeps at most log2 of its
    order generators, and it stops as soon as Lagrange says it is G (see
    ``_dimino``).  A of prime index joins only to G, so once G is recorded
    A's walk is skipped.  Cached on the table, with the normal subgroups (the
    classes of size 1), per class (A, class size, N_G(A)'s generators) and,
    per subgroup in the returned order, the index of its class in that list.
    CapExceeded when G has more than ``SUBGROUP_CAP`` subgroups.
    """
    hit = G._cache.get("subgroups")
    if hit is not None:
        return hit
    least = G.least_generators
    conjugators = conjugacy_classes(G).conjugators
    rows, inv = G.rows, G.inverse_ids
    zuppos = []  # (z, z^p), p the prime dividing o(z)
    for z in range(1, G.order):
        if least[z] == z and is_p_group(G.orders[z]):
            y = z
            for _ in range(prime_factors(G.orders[z])[0] - 1):
                y = rows[y][z]
            zuppos.append((z, y))
    gens_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    class_of: dict[tuple[int, ...], int] = {}
    worklist: list[tuple[tuple[int, ...], int, list[int]]] = []

    def record(members: tuple[int, ...], gens: tuple[int, ...]) -> None:
        if len(gens_of) >= SUBGROUP_CAP:
            raise CapExceeded("subgroup cap exceeded", len(gens_of))
        gens_of[members] = gens
        class_of[members] = len(worklist)  # record_class appends the class last

    def record_class(members: tuple[int, ...], gens: tuple[int, ...]) -> None:
        """Record a new subgroup and its class; queue it with N_G of it."""
        record(members, gens)
        orbit, moved, schreier = [members], {members: 0}, []  # members^moved[b] = b
        for a in orbit:  # grows while it is walked
            for g, c in zip(G.generator_ids, conjugators):
                b, t = tuple(sorted(map(c.__getitem__, a))), rows[moved[a]][g]
                if b in moved:
                    schreier.append(rows[t][inv[moved[b]]])
                else:
                    record(b, tuple(map(c.__getitem__, gens_of[a])))
                    moved[b] = t
                    orbit.append(b)
        worklist.append((members, len(orbit), _dimino(G, schreier)[1]))

    record_class((0,), ())
    for a, _, normalizer_gens in worklist:  # grows while it is walked: breadth-first
        index = G.order // len(a)
        if is_prime(index) and G.members in gens_of:
            continue  # A has prime index, so every join with it is G
        inside = set(a)
        seen = set(inside)
        for z, z_p in zuppos:
            if z_p not in inside or z in seen:
                continue
            orbit = [z]
            seen.add(z)
            for y in orbit:  # grows while it is walked: the N_G(A)-orbit of z
                images = {least[rows[rows[inv[n]][y]][n]] for n in normalizer_gens} - seen
                seen |= images
                orbit += images
            joined = closure_indices(G, (z,), start=(a, gens_of[a]))
            if joined not in gens_of:
                record_class(joined, gens_of[a] + (z,))
    ordered = sorted(gens_of, key=lambda m: (len(m), m))
    result = [ElementSet._sorted(G, m, is_subgroup=True) for m in ordered]
    normal = {a for a, size, _ in worklist if size == 1}
    G._cache["subgroups"] = result
    G._cache["normal_subgroups"] = [s for s in result if s.members in normal]
    G._cache["subgroup_classes"] = worklist
    G._cache["subgroup_class_ids"] = [class_of[m] for m in ordered]
    return result


def normal_subgroups(G: GroupTable) -> list[ElementSet]:
    """G's normal subgroups, the lattice classes of size 1, in ``subgroups`` order."""
    subgroups(G)
    return G._cache["normal_subgroups"]


def subgroup_class_ids(G: GroupTable) -> list[int]:
    """For each subgroup in ``subgroups`` order, the index of its conjugacy class."""
    subgroups(G)
    return G._cache["subgroup_class_ids"]


def o_lower_p(G: GroupTable, p: int) -> ElementSet:
    """O_p(G): the largest normal p-subgroup, joined one class at a time.

    A subgroup generated by whole classes is normal, and x lies in O_p(G)
    iff its normal closure is a p-group; then <O, x^G> <= O_p(G) for every
    normal O <= O_p(G).  So the join of the kept classes with one more class
    of p-elements, one ``_dimino`` pass from the group kept so far, is a
    p-group iff that class lies in O_p(G), and the joins end at O_p(G)."""
    classes = conjugacy_classes(G)
    group: tuple = ((0,), ())  # (members, kept seeds), as ``_dimino`` takes and returns it
    for r, members in zip(classes.reps, classes.member_lists):
        n = G.orders[r]
        if p_part(n, p) == n:
            joined = _dimino(G, members, group)
            if p_part(len(joined[0]), p) == len(joined[0]):
                group = joined
    return ElementSet(G, group[0])


def o_upper_p(G: GroupTable, p: int, S: ElementSet | None = None) -> ElementSet:
    """O^p(S) for the subgroup S of G (default: G): the subgroup generated
    by the p-regular elements of S, closed with G's products.

    It is normal in S (the p-regular elements are closed under conjugation)
    and is the least normal subgroup of S with p-group quotient.
    """
    members = S.members if S is not None else range(G.order)
    regulars = [x for x in members if G.orders[x] % p != 0]
    return ElementSet(G, closure_indices(G, regulars))


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


def is_p_group(order: int) -> bool:
    return len(prime_factors(order)) <= 1


def is_simple(G: GroupTable) -> bool:
    """True iff G is nonabelian simple: G is not abelian and each nontrivial
    class generates G.  A subgroup generated by a class is normal, and a
    nontrivial normal subgroup contains a nontrivial class."""
    classes = conjugacy_classes(G)
    return classes.count < G.order and all(len(closure_indices(G, m)) == G.order for m in classes.member_lists[1:])


def exponent(G: GroupTable) -> int:
    """lcm of all element orders."""
    return math.lcm(*G.orders)
