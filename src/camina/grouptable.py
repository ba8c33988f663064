"""Exhaustively enumerated finite permutation groups.

A GroupTable holds every element of the group generated by a set of
permutations, as its image tuple, in canonical (lexicographic) order, and
its Cayley table, so that products are index lookups; ``Permutation`` is
only the validated type of the generators.  ``generate`` builds every
table, subgroup and quotient tables included.  ``DEFAULT_ORDER_CAP`` is the one
order cap: ``generate`` stops above it, which bounds a table at 4M
entries, about 8 n^2 bytes.  ElementSet is a subset of a table (a
subgroup, a coset, a conjugacy class, ...) given by sorted element
indices.
ConjClassPartition is G's partition into conjugacy classes, with the maps
x -> x^g of G's generators g that found it; a set is normal iff it is a
union of classes, read off its class counts; its ``products`` is G's one
class-product table, read wherever classes are multiplied.

The number theory that group orders are read with lives here too, so
that the catalog imports it without the structure layer: ``is_prime``,
a Miller-Rabin test, quick on label parameters of any size,
``prime_factors``, by trial division in ``_least_prime``, ``p_part`` and
``_root_of_unity`` (a primitive e-th root of unity mod a prime q = 1 mod
e, which the Dixon split and the catalog's Frob(p:q) read).
``structure`` re-exports all four.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from operator import itemgetter
from typing import Iterable, Sequence

from .perm import Permutation

DEFAULT_ORDER_CAP = 2_000


class CapExceeded(RuntimeError):
    """A configured size cap was exceeded; ``partial`` is the count reached."""

    def __init__(self, message: str, partial: int):
        super().__init__(f"{message} (reached {partial})")
        self.partial = partial


class GroupTable:
    """A fully enumerated permutation group, built by ``generate`` alone.

    ``elements`` are the image tuples, sorted: ``elements[0]`` is the
    identity (the identity image table is the lexicographic minimum among
    bijections), and ``index_of`` maps an image tuple back to its index.
    ``rows`` is the Cayley table: ``rows[i][j]`` is the index of
    elements[i] followed by elements[j].  ``members`` is
    G's member tuple, 0..order-1, one tuple shared by every closure that
    comes out as G.

    ``orders``, ``inverse_ids`` and ``least_generators`` give each element's
    order, inverse and the least y with <y> = <x>, all from one walk per
    cyclic subgroup: x is taken in ascending order unless it already
    generates a walked subgroup, and ``powers`` walks <x>.  A generator
    x^j, j prime to o = o(x), has order o and inverse x^(o-j).
    """

    def __init__(
        self, degree: int, elements: Sequence[tuple[int, ...]], index_of: dict, generator_ids: Sequence[int], rows: list[list[int]]
    ):
        self.degree = degree
        self.elements = tuple(elements)
        self.order = len(self.elements)  # one int, which every report of G shares
        self.index_of = index_of
        self.generator_ids = tuple(generator_ids)
        self.rows = rows
        n = len(rows)
        self.members = tuple(range(n))
        orders, inverse_ids, least = [1] * n, [0] * n, [0] * n
        for x in range(1, n):
            if least[x]:
                continue  # a generator of a cyclic subgroup already walked
            walk = self.powers(x)
            o = len(walk)
            for j in range(1, o):
                if math.gcd(j, o) == 1:
                    y = walk[j - 1]
                    orders[y], inverse_ids[y], least[y] = o, walk[o - j - 1], x
        self.orders = tuple(orders)
        self.inverse_ids = tuple(inverse_ids)
        self.least_generators = tuple(least)
        self._cache: dict = {}

    def mul(self, i: int, j: int) -> int:
        """Index of the product: elements[i] first, then elements[j], the
        permutation that maps point p to b[a[p]] for the image tuples a, b =
        elements[i], elements[j].  Every product in the package reads left
        to right this way."""
        return self.rows[i][j]

    def conj(self, x: int, g: int) -> int:
        """Index of g^-1 x g."""
        return self.rows[self.rows[self.inverse_ids[g]][x]][g]

    def commutator(self, a: int, b: int) -> int:
        """Index of a^-1 b^-1 a b."""
        return self.mul(self.mul(self.mul(self.inverse_ids[a], self.inverse_ids[b]), a), b)

    def powers(self, i: int) -> list[int]:
        """The walk [x, x^2, ..., x^o] along x's row of the Cayley table,
        x = elements[i], to its first return to the identity, 0."""
        row, walk = self.rows[i], [i]
        while walk[-1]:
            walk.append(row[walk[-1]])
        return walk

    def __repr__(self) -> str:
        return f"GroupTable(degree={self.degree}, order={self.order})"


def generate(degree: int, gens: Sequence[Permutation], cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Breadth-first closure of ``gens`` under left multiplication, and
    its Cayley table in the same pass; the one way a GroupTable is built.

    The walk from the identity computes g z for every element z found and
    every generator g, so it keeps these maps z -> g z, renumbered to the
    sorted elements: breadth-first from the identity row, as the elements
    were found, the row of g x is the row of x mapped through z -> g z, with
    no further permutation products.  ``itemgetter`` reads a row in one C
    call; a row is first reached from another only when n > 1, so it gets
    several indices and gives a tuple.  Raises CapExceeded as soon as more
    than ``cap`` elements are discovered.  The trivial group is produced
    for an empty generator list.

    The generators are validated ``Permutation``s of ``degree`` >= 1, so
    every image tuple found, a product of them, is a bijection too: the
    elements are these tuples, sorted, with no second check.
    """
    if degree < 1:
        raise ValueError("permutation must have positive degree")
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    gen_images = [g.images for g in gens]
    found = [tuple(range(degree))]
    found_at = {found[0]: 0}
    lefts: list[list[int]] = [[] for _ in gens]  # by discovery number
    for z in found:  # grows while it is walked
        for g, left in zip(gen_images, lefts):
            y = tuple(map(z.__getitem__, g))  # g first, then z
            at = found_at.get(y)
            if at is None:
                at = found_at[y] = len(found)
                found.append(y)
                if len(found) > cap:
                    raise CapExceeded("order cap exceeded", len(found))
            left.append(at)
    n = len(found)
    ordered = sorted(found)
    index_of = dict(zip(ordered, range(n)))
    rank = list(map(index_of.__getitem__, found))  # discovery number -> index
    by_index = list(map(found_at.__getitem__, ordered))  # index -> discovery number
    lefts = [list(map(rank.__getitem__, map(left.__getitem__, by_index))) for left in lefts]
    rows: list = [list(range(n))] + [None] * (n - 1)
    reached = [0]
    for x in reached:  # grows while it is walked
        for left in lefts:
            if rows[left[x]] is None:
                rows[left[x]] = list(itemgetter(*rows[x])(left))
                reached.append(left[x])
    return GroupTable(degree, ordered, index_of, [index_of[g] for g in gen_images], rows)


class ElementSet:
    """A subset of a GroupTable, stored as strictly increasing element indices."""

    def __init__(self, parent: GroupTable, members: Iterable[int]):
        m = tuple(sorted(set(members)))
        if m and (m[0] < 0 or m[-1] >= parent.order):
            bad = m[0] if m[0] < 0 else m[bisect.bisect_left(m, parent.order)]  # least negative, else least >= |G|
            raise ValueError(f"element index {bad} out of range")
        self._set(parent, m, None)

    @classmethod
    def _sorted(cls, parent: GroupTable, members: tuple[int, ...], is_subgroup: bool | None = None) -> ElementSet:
        """A set whose ``members`` are already strictly increasing indices
        of ``parent``, such as a closure's sorted members, taken as they are."""
        s = object.__new__(cls)
        s._set(parent, members, is_subgroup)
        return s

    def _set(self, parent: GroupTable, members: tuple[int, ...], is_subgroup: bool | None) -> None:
        self.parent = parent
        self.members = members
        self._memberset = frozenset(members)
        self._is_subgroup = is_subgroup

    @classmethod
    def whole(cls, parent: GroupTable) -> ElementSet:
        return cls(parent, range(parent.order))

    def __contains__(self, idx: int) -> bool:
        return idx in self._memberset

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"ElementSet(order={len(self.members)} of {self.parent.order})"

    @property
    def is_subgroup(self) -> bool:
        """Whether the set is a subgroup: a finite set is one iff it equals
        the subgroup it generates, ``closure_indices`` of its members."""
        if self._is_subgroup is None:
            self._is_subgroup = closure_indices(self.parent, self.members) == self.members
        return self._is_subgroup

    def is_normal(self) -> bool:
        """Whether the set is closed under conjugation: a union of classes of G."""
        classes = conjugacy_classes(self.parent)
        return classes.is_union(classes.counts(self.members))


class ConjClassPartition:
    """Partition of a group into conjugacy classes.

    Classes are numbered by (element order of representative, class size,
    least representative index); the identity is always class 0.
    ``conjugators[k]`` maps x to x^g, g = ``group.generator_ids[k]``.
    ``products(i, k)`` reads the class-product table: the class matrices,
    the G/M labels and the claims on class products (claim9, covering,
    lemma_h) all read it.
    A slots class: claims read ``class_of`` in their inner loops.
    """

    __slots__ = ("group", "class_of", "reps", "sizes", "inverse_class", "member_lists", "conjugators", "_products")

    def __init__(
        self,
        group: GroupTable,
        class_of: tuple[int, ...],
        reps: tuple[int, ...],
        sizes: tuple[int, ...],
        inverse_class: tuple[int, ...],
        member_lists: tuple[tuple[int, ...], ...],
        conjugators: tuple[tuple[int, ...], ...],
    ):
        self.group = group
        self.class_of = class_of
        self.reps = reps
        self.sizes = sizes
        self.inverse_class = inverse_class
        self.member_lists = member_lists
        self.conjugators = conjugators
        self._products: list = [None] * len(reps)

    @property
    def count(self) -> int:
        return len(self.reps)

    def products(self, i: int, k: int) -> list[int]:
        """The classes of reps[k] * y for every y in class i, with
        multiplicity and in member order: K_k K_i is the union of the
        classes met, since K S = (x S)^G for x in K and S normal.  Class
        i's products are built on first read and kept in one flat list, for
        each y the classes of y * reps[k], a conjugate of reps[k] * y, read
        off y's row of the Cayley table; the whole table is at most |G| r
        ids, no more than the Cayley table."""
        flat = self._products[i]
        if flat is None:
            flat = self._products[i] = []
            for y in self.member_lists[i]:
                flat += map(self.class_of.__getitem__, map(self.group.rows[y].__getitem__, self.reps))
        return flat[k::len(self.reps)]

    def counts(self, members: Iterable[int]) -> Counter:
        """How many of ``members`` lie in each class, by class id."""
        return Counter(map(self.class_of.__getitem__, members))

    def is_union(self, counts: Counter) -> bool:
        """Whether a set with these class ``counts`` is a union of classes."""
        return all(self.sizes[c] == n for c, n in counts.items())


def conjugacy_classes(G: GroupTable) -> ConjClassPartition:
    """Orbits of G acting on itself by conjugation, walked with the maps
    x -> x^g of G's generators; cached on the table."""
    hit = G._cache.get("classes")
    if hit is not None:
        return hit
    conjugators = tuple(tuple(G.conj(x, g) for x in range(G.order)) for g in G.generator_ids)
    seen = [False] * G.order
    orbits = []
    for seed in range(G.order):
        if not seen[seed]:
            seen[seed] = True
            orbit = [seed]
            for x in orbit:  # grows while it is walked
                for c in conjugators:
                    if not seen[c[x]]:
                        seen[c[x]] = True
                        orbit.append(c[x])
            orbits.append(tuple(sorted(orbit)))
    member_lists = tuple(sorted(orbits, key=lambda m: (G.orders[m[0]], len(m), m[0])))
    class_of = [0] * G.order
    for cid, members in enumerate(member_lists):
        for x in members:
            class_of[x] = cid
    reps = tuple(m[0] for m in member_lists)
    inverse_class = tuple(class_of[G.inverse_ids[r]] for r in reps)
    sizes = tuple(map(len, member_lists))
    part = ConjClassPartition(G, tuple(class_of), reps, sizes, inverse_class, member_lists, conjugators)
    G._cache["classes"] = part
    return part


def _least_prime(n: int) -> int:
    """The least prime dividing n >= 2, by trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41, which no composite below
    3.3 * 10^24 passes; a larger one that does, given as a label parameter,
    is refused by the order cap instead of as a non-prime."""
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = p_part(n - 1, 2).bit_length() - 1  # n - 1 = 2^s d with d odd
    for a in _WITNESSES:  # a prime n has a^d = 1 or a^(2^r d) = -1 for some r < s
        powers = [pow(a, (n - 1) >> r, n) for r in range(s, 0, -1)]
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending: each least prime divided out."""
    out = []
    while n > 1:
        p = _least_prime(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def _root_of_unity(e: int, q: int) -> int:
    """A primitive e-th root of unity mod the prime q = 1 (mod e): a
    primitive root of F_q raised to the power (q - 1) / e."""
    factors = prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // p, q) != 1 for p in factors):
            return pow(g, (q - 1) // e, q)
    raise RuntimeError(f"no primitive root mod {q}")


def _dimino(G: GroupTable, seeds: Iterable[int], start: tuple = ((0,), ())) -> tuple[Sequence[int], list[int]]:
    """Dimino's closure of ``seeds``, taken in order, from the subgroup
    ``start`` (its members and its kept seeds): ``(members, kept)``, each
    kept seed outside the group generated by those before it.

    A kept seed s extends the group K built so far coset by coset: for each
    coset representative r, from the identity on, and each kept seed g, a
    product g r outside the group adds the whole left coset (g r) K, a table
    row mapped over K, and becomes a representative.  The union of the
    cosets is then closed under left multiplication by every kept seed, so
    it is <K, s>.  The identity row is never read.

    <K, s> contains K, so by Lagrange its order is |K| times a divisor of
    |G:K|: if it is not G, it is at most |G|/p, p the least prime dividing
    |G:K|.  As soon as the union outgrows that bound the pass is G, and it
    returns ``G.members`` at once; every later seed lies in G, so the kept
    seeds are those a full pass keeps.
    """
    rows, order = G.rows, G.order
    members, kept = list(start[0]), list(start[1])
    memberset = set(members)
    for s in seeds:
        if s in memberset:
            continue
        kept.append(s)
        K = members[:]
        bound = order // _least_prime(order // len(K))
        reps = [0]
        for r in reps:  # grows while it is walked
            for g in kept:
                x = rows[g][r]
                if x not in memberset:
                    coset = list(map(rows[x].__getitem__, K))
                    members += coset
                    if len(members) > bound:
                        return G.members, kept
                    reps.append(x)
                    memberset.update(coset)
    return members, kept


def closure_indices(G: GroupTable, seed: Iterable[int], start: tuple = ((0,), ())) -> tuple[int, ...]:
    """Indices of the subgroup of G generated by ``seed`` and the subgroup
    ``start``, sorted: the members of ``_dimino``'s closure."""
    members = _dimino(G, seed, start)[0]
    return members if members is G.members else tuple(sorted(members))


def small_generating_set(G: GroupTable, members: Sequence[int]) -> tuple[int, ...]:
    """A short generating list for the subgroup with the given members: the
    seeds ``_dimino`` keeps, so a member is kept iff it lies outside the
    group generated by the members kept before it."""
    return tuple(_dimino(G, members)[1])


def subgroup_table(G: GroupTable, H: ElementSet) -> tuple[GroupTable, tuple[int, ...], dict[int, int]]:
    """Realize a subgroup as a standalone GroupTable.

    Returns ``(table, to_parent, from_parent)`` where ``to_parent[i]`` is
    the G-index of the subgroup's element i and ``from_parent`` inverts it.
    The table is generated from the seeds ``small_generating_set`` keeps,
    each made a ``Permutation`` again.
    Its canonical element order agrees with G's, so ``to_parent`` is just
    the member tuple, and a generator's id is its ``from_parent`` image.
    Results are cached on G, so a subgroup has one table, which ``induce``
    relies on.
    """
    key = ("subtable", H.members)
    hit = G._cache.get(key)
    if hit is not None:
        return hit
    if not H.is_subgroup:
        raise ValueError("not a subgroup")
    from_parent = {g: i for i, g in enumerate(H.members)}
    gens = small_generating_set(G, H.members)
    table = generate(G.degree, [Permutation(G.elements[g]) for g in gens], cap=len(H))
    result = (table, H.members, from_parent)
    G._cache[key] = result
    return result


def quotient_table(G: GroupTable, M: ElementSet) -> tuple[GroupTable, tuple[int, ...]]:
    """Realize G/M (M normal) as a permutation group on the cosets of M.

    Returns ``(table, proj)`` with ``proj[i]`` the quotient index of the
    coset containing element i.  Cosets are numbered by their least member,
    so coset 0 is M itself and proj is a group homomorphism onto the table.
    """
    if not M.is_subgroup or not M.is_normal():
        raise ValueError("quotient requires a normal subgroup")
    coset_of = [-1] * G.order
    reps: list[int] = []
    for i in range(G.order):
        if coset_of[i] == -1:
            cid = len(reps)
            reps.append(i)
            for m in M.members:
                coset_of[G.mul(m, i)] = cid
    n_cosets = len(reps)

    def coset_images(g: int) -> tuple[int, ...]:
        return tuple(coset_of[G.mul(reps[c], g)] for c in range(n_cosets))

    table = generate(n_cosets, [Permutation(coset_images(g)) for g in G.generator_ids], cap=n_cosets)
    return table, tuple(table.index_of[coset_images(i)] for i in range(G.order))
