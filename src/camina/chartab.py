"""Exact complex character theory for enumerated groups.

Character tables are built in two steps (Schneider's refinement of
Dixon).  The linear characters, Hom(G, mu_e) with e = exp(G), are read
off G/G' exactly, extended along G's generators from G'; an abelian G
needs nothing more.  The other rows come from simultaneous eigenspace
splitting of the class matrices over a finite field F_q with q = 1 mod e,
started in the orthogonal complement of the linear rows, which every class
matrix maps into itself; one row left needs no class matrix.  Each space
is split by the roots of the class matrix restricted to it; a class
matrix that acts on a space as a scalar leaves it whole, and each class
matrix is built only when the split reaches it with a space left to
split.  Each row is lifted to exact cyclotomic integers by multiplicity
counting over the powers of one class representative per Galois class of
columns; the other columns of a Galois class re-index those counts.  Every
value lies in one ring, Z[zeta_e] with e = exp(G), and a table is its
value index: its distinct values as coefficient tuples and each row as
the ids of its values (``Cyc`` and ``ClassFunction`` are only for the
class-function operations).  Every table, built or read from a cache,
reaches one check in that form, the ``CharacterTable`` constructor, which
checks the coefficients and ids and then decides the table exactly in
Z[zeta_e]: one row per class, the rows closed under the Galois group and
following the power maps, both compared on coefficient tuples, and then
the orthogonality relations, which one embedding into F_p, p = 1 mod e a
prime above an explicit bound on the values, decides.  Its r^2 residues
come from one packed integer product per row (Kronecker substitution):
with the j-th row of W_1 in bits [s j, s j + s) of the packed columns, s =
bit_length(r p^2), slot j of row i is a sum of r products of residues
below p, so it is below r (p - 1)^2 < 2^s, no slot carries into the next,
and each slot is the exact dot product.  The table keeps both the value
ids (``CharacterTable.values``), on which equality tests such as kernels
run, and the residues: integer sums below p, such as |H| [chi_i_H,
chi_j_H], are read from them (``CharacterTable.mod_p``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .cyclotomic import Cyc, _ring, cyclotomic_polynomial
from .grouptable import CapExceeded, ElementSet, GroupTable, subgroup_table
from .structure import ConjClassPartition, _root_of_unity, conjugacy_classes, derived_subgroup, exponent, is_prime

CLASS_CAP = 60


@dataclass(frozen=True)
class ClassFunction:
    """A function constant on conjugacy classes, one Cyc value per class id."""

    group: GroupTable
    values: tuple[Cyc, ...]


class CharacterTable:
    """Irr(G) as its value index, checked exactly when constructed, whether
    built or read from a cache.  ``distinct`` lists values of Z[zeta_e], e =
    exp(G), each as its deg(Phi_e) int coefficients, and ``cells`` each row
    as the ids of its values: cells[i][k] indexes chi_i(k) in ``distinct``.
    RuntimeError unless every value is such a coefficient tuple, every id
    is an int index into ``distinct``, there is one row per class, the rows
    are distinct and sorted by degree, then by the coefficient tuples of
    their values, the rows are closed under the Galois group and follow
    the power maps, [chi_i, chi_j] = delta_ij, and every chi(1) is a
    positive integer; with one such row per class, sum chi(1)^2 = |G|
    follows.  ``values`` is the check's value index (``_Values``): equal
    values merged, so equal values have equal ids.  ``mod_p`` is the
    check's (p, X): X[i][k] = chi_i(k) mod p under zeta_e -> z.  A sum of
    products of values that is an integer in [0, p) is its own residue; p >
    |G| (D^2 + 1) >= |G| chi(1)^2 for all chi.

    The check runs on the distinct values of ``_reduction``.  For c = -1
    and each c of ``_unit_generators(e)``, which generate the units mod e,
    it maps the distinct values by sigma_c: zeta_e -> zeta_e^c once and
    compares coefficient tuples: each row's image must be a row (closure),
    and must be the row read at the classes of rep^c (the power maps
    chi(rep^c) = sigma_c(chi(rep)), which orthonormality does not see: it
    survives swapping columns of equal size).  Both hold for products of
    such c, so for every unit.

    Then alpha_ij = sum_k chi_i(k) |K_k| conj(chi_j(k)) - |G| delta_ij = 0
    in Z[zeta_e] is decided mod p under the one embedding iota_1: zeta_e ->
    z of Z[zeta_e] into F_p.  This is exact.  If sigma_a sends row i to
    row pi(i), then iota_a(alpha_ij) = iota_1(sigma_a(alpha_ij)) =
    iota_1(alpha_pi(i)pi(j)) = 0, and iota_-a(alpha_ij) = iota_a(alpha_ji)
    = 0 as conj(alpha_ij) = alpha_ji, so every embedding iota_a sends
    alpha_ij to 0.  Since p splits completely in Z[zeta_e], alpha_ij then
    lies in p Z[zeta_e], and a nonzero element of p Z[zeta_e] has a complex
    conjugate of absolute value >= p, while every conjugate of alpha_ij has
    absolute value <= |G| (D^2 + 1) < p.  Irr(G) is closed under the Galois
    group and follows the power maps, so no true table is rejected.
    iota_1(alpha_ij) is entry (i, j) of X_1 W_1^T - |G| I with W_1[j][k] =
    iota_1(conj(chi_j(k))) |K_k| = X_1[j][k*] |K_k|, k* the inverse class,
    as conj = sigma_-1 and the power map at c = -1 is chi(k*) =
    sigma_-1(chi(k)).  X_1 W_1^T mod p comes from ``_gram_mod``, one packed
    integer product per row, exactly."""

    def __init__(self, group: GroupTable, distinct: Sequence[Sequence[int]], cells: Sequence[Sequence[int]]):
        self.group = group
        self.values, p = _reduction(group, distinct, cells)
        self.mod_p = (p, _residues(self.values, conjugacy_classes(group), p))

    @cached_property
    def irreducibles(self) -> tuple[ClassFunction, ...]:
        """The rows as class functions, one ``Cyc`` per distinct value, for
        ``decompose``."""
        cells, distinct, _, e = self.values
        values = [Cyc(e, coeffs) for coeffs in distinct]
        return tuple(ClassFunction(self.group, tuple(map(values.__getitem__, row))) for row in cells)

    @cached_property
    def degree_sequence(self) -> tuple[int, ...]:
        distinct = self.values.distinct
        return tuple(sorted(distinct[row[0]][0] for row in self.values.cells))

    @cached_property
    def kernels(self) -> tuple[frozenset[int], ...]:
        """Each row's kernel {x : chi(x) = chi(1)} as a set of class ids,
        compared on value ids."""
        return tuple(frozenset(k for k, v in enumerate(row) if v == row[0]) for row in self.values.cells)


def prime_above(e: int, bound: int) -> int:
    """Smallest prime q = 1 (mod e) with q > bound."""
    q = bound + 1
    q += (1 - q) % e
    while not is_prime(q):
        q += e
    return q


def dixon_prime(e: int, order: int) -> int:
    """Smallest prime q = 1 (mod e) with q > 2 * ceil(sqrt(order))."""
    root = math.isqrt(order)
    if root * root < order:
        root += 1
    return prime_above(e, 2 * root)


def _class_matrix(G: GroupTable, classes: ConjClassPartition, i: int) -> list[list[int]]:
    """The class matrix M_i with M_i[j][k] = a_ijk, the number of x in class
    i with x^-1 rep_k in class j, so that rep_k = x (x^-1 rep_k).  These
    y = x^-1 fill class i*, and y rep_k is conjugate to rep_k y, so column k
    counts ``products(i*, k)``.  The split builds these as it reaches them."""
    r = classes.count
    M = [[0] * r for _ in range(r)]
    for k in range(r):
        for j in classes.products(classes.inverse_class[i], k):
            M[j][k] += 1
    return M


# --- linear algebra over F_q ---------------------------------------------


def _rref(rows: list[list[int]], q: int) -> list[list[int]]:
    """Reduced row echelon form mod q; zero rows dropped."""
    rows = [r[:] for r in rows]
    pr = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(pr, len(rows)) if rows[i][c] % q), None)
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = pow(rows[pr][c], -1, q)
        rows[pr] = [(v * inv) % q for v in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[pr])]
        pr += 1
        if pr == len(rows):
            break
    return rows[:pr]


def _kernel(rows: list[list[int]], ncols: int, q: int) -> list[list[int]]:
    """Basis of the null space {v : rows * v = 0}, one vector per free column."""
    rr = _rref(rows, q)
    pivot_cols = [next(i for i, v in enumerate(r) if v) for r in rr]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in zip(rr, pivot_cols):
            v[pc] = (-r[fc]) % q
        basis.append(v)
    return basis


def _charpoly(A: list[list[int]], q: int) -> list[int]:
    """Characteristic polynomial mod q (ascending coefficients), via
    Hessenberg reduction and the standard minor recurrence."""
    n = len(A)
    H = [[v % q for v in row] for row in A]
    for j in range(n - 2):
        pivot = next((i for i in range(j + 1, n) if H[i][j]), None)
        if pivot is None:
            continue
        if pivot != j + 1:
            H[j + 1], H[pivot] = H[pivot], H[j + 1]
            for row in H:
                row[j + 1], row[pivot] = row[pivot], row[j + 1]
        inv = pow(H[j + 1][j], -1, q)
        for i in range(j + 2, n):
            if H[i][j]:
                f = (H[i][j] * inv) % q
                H[i] = [(a - f * b) % q for a, b in zip(H[i], H[j + 1])]
                for row in H:
                    row[j + 1] = (row[j + 1] + f * row[i]) % q
    # p_m = (x - H[m][m]) p_{m-1} - sum_i H[i][m] (prod subdiagonals) p_{i-1}
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        pm = [0] + prev
        for i, c in enumerate(prev):
            pm[i] = (pm[i] - H[m][m] * c) % q
        pm = [v % q for v in pm]
        prod = 1
        for i in range(m - 1, -1, -1):
            prod = (prod * H[i + 1][i]) % q
            f = (H[i][m] * prod) % q
            if f:
                pi = polys[i]
                for t, c in enumerate(pi):
                    pm[t] = (pm[t] - f * c) % q
        polys.append(pm)
    return polys[n]


def _roots_mod(poly: list[int], q: int) -> list[int]:
    roots = []
    for lam in range(q):
        acc = 0
        for c in reversed(poly):
            acc = (acc * lam + c) % q
        if acc == 0:
            roots.append(lam)
    return roots


def _simultaneous_eigenvectors(mats: Iterable[list[list[int]]], start: list[list[int]], q: int) -> list[list[int]]:
    """Common eigenvectors over F_q of the commuting class matrices in the
    space spanned by ``start``, a basis in reduced echelon form that every
    matrix maps into itself, normalized so the identity-class coordinate
    is 1.

    ``mats`` gives the class matrices of the non-identity classes in class
    order, and may be lazy: the next one is drawn only while some space is
    larger than one-dimensional, so once every space is a line no further
    matrix is built.  Each space B, kept in reduced echelon form, is split
    by the roots of the characteristic polynomial of the matrix A of M on
    span(B).  Since q does not divide |G|, the class sums act semisimply on
    the centre of F_q G, so A is diagonalizable, and one root means that A
    is a scalar lambda I: then A - lambda I is zero, its kernel is all of
    span(B), and B is kept as it is, with no characteristic polynomial,
    root search or kernel computed."""
    spaces = [start]
    matrices = iter(mats)
    while any(len(B) > 1 for B in spaces):
        M = next(matrices, None)
        if M is None:
            break
        new_spaces: list[list[list[int]]] = []
        for B in spaces:
            if len(B) == 1:
                new_spaces.append(B)
                continue
            # B is in reduced echelon form and M maps span(B) into itself, so M
            # on span(B) has the matrix A[i][j] = entry pivot_i of M b_j, the
            # product of M's row pivot_i with b_j; no other row is read.
            pivot_rows = [M[b.index(1)] for b in B]
            A = [[sum(map(mul, row, b)) % q for b in B] for row in pivot_rows]
            if A == [[A[0][0] if i == j else 0 for j in range(len(B))] for i in range(len(B))]:
                new_spaces.append(B)  # A is scalar: B is one eigenspace
                continue
            cols = list(zip(*B))
            split_total = 0
            for lam in _roots_mod(_charpoly(A, q), q):
                shifted = [[(a - lam) % q if i == j else a for j, a in enumerate(row)] for i, row in enumerate(A)]
                coeffs = _kernel(shifted, len(B), q)
                vectors = _rref([[sum(map(mul, c, col)) % q for col in cols] for c in coeffs], q)
                split_total += len(vectors)
                new_spaces.append(vectors)
            if split_total != len(B):
                raise RuntimeError("eigenspace splitting lost dimensions")
        spaces = new_spaces
    if not all(len(B) == 1 for B in spaces):
        raise RuntimeError("class matrices did not split to one-dimensional spaces")
    out = []
    for B in spaces:
        v = B[0]
        if v[0] == 0:
            raise RuntimeError("central character has zero identity coordinate")
        inv = pow(v[0], -1, q)
        out.append([(x * inv) % q for x in v])
    return sorted(out)


def _eigenvalue_counts(
    chi_mod: list[int], pcls: list[int], d: int, dft: list[tuple[int, list[int]]], q: int
) -> dict[int, int]:
    """Multiplicity of each eigenvalue zeta_e^s of rho(x) for a character of
    degree d known mod q, x of order m with x^t in the class pcls[t]: the
    inverse DFT of chi(x^t) over 0 <= t < m, one (s, row) of ``dft`` per
    eigenvalue, row[t] = z^(-s t) / m mod q."""
    values = [chi_mod[c] for c in pcls]
    counts = {}
    total = 0
    for s, row in dft:
        c = sum(map(mul, values, row)) % q
        total += c
        if c:
            counts[s] = c
    if total != d:
        raise RuntimeError("eigenvalue multiplicities do not sum to the degree")
    return counts


def _unit_generators(e: int) -> list[int]:
    """Units that generate the group of units mod e together with -1: each
    one taken in order that -1 and the units before it do not generate."""
    gens, reached = [], {1 % e, -1 % e}
    for a in range(e):
        if math.gcd(a, e) == 1 and a not in reached:
            gens.append(a)
            powers, x = [1 % e], a
            while x != 1 % e:
                powers.append(x)
                x = x * a % e
            reached = {h * x % e for h in reached for x in powers}
    return gens


def check_caps(G: GroupTable) -> ConjClassPartition:
    """G's classes, or CapExceeded when G has more than ``CLASS_CAP`` of
    them.  G's order is bounded where it is generated."""
    classes = conjugacy_classes(G)
    if classes.count > CLASS_CAP:
        raise CapExceeded("character table class cap exceeded", classes.count)
    return classes


def character_table(G: GroupTable) -> CharacterTable:
    """The exact table of irreducible characters, rows ordered by
    (degree, lexicographic value order).  Cached on the table.  The class
    cap is that of ``check_caps``."""
    classes = check_caps(G)
    hit = G._cache.get("chartab")
    if hit is not None:
        return hit
    e = exponent(G)
    linear = _linear_exponents(G, classes, e)
    roots = sorted({t for ts in linear for t in ts})
    distinct = [Cyc.root_power(e, t).coeffs for t in roots]  # the linear rows' values, zeta_e^t
    root_id = dict(zip(roots, range(len(roots))))
    cells: list[Sequence[int]] = [list(map(root_id.__getitem__, ts)) for ts in linear]
    if len(linear) < classes.count:
        for row in _nonlinear_rows(G, classes, linear, e):
            cells.append(range(len(distinct), len(distinct) + len(row)))
            distinct += row
    cells.sort(key=lambda row: [distinct[i] for i in row])
    table = CharacterTable(G, distinct, cells)
    G._cache["chartab"] = table
    return table


def _linear_exponents(G: GroupTable, classes: ConjClassPartition, e: int) -> list[list[int]]:
    """Hom(G, mu_e), each lambda as its exponents at the class
    representatives: lambda(rep_k) = zeta_e^t_k.

    Built by extending along G's generators from G' = ``derived_subgroup``,
    where every lambda is trivial.  Each element of the part A reached so
    far has coordinates, its exponents over the generators kept, and each
    lambda of A its exponents t(g) at them.  If g^k is the first power of a
    generator g in A, <A, g> is the union of the cosets g^j A, j < k (A
    contains G', so it is normal), and each lambda of A extends in k ways,
    lambda(g^j a) = lambda(a) + j t(g) with k t(g) = lambda(g^k) (mod e):
    t(g) = lambda(g^k)/k + l e/k, l < k.  lambda(g^k)'s exponent is
    divisible by k, as lambda(g^k)^(o(g)/k) = 1 and o(g) divides e."""
    rows = G.rows
    coords: dict[int, tuple[int, ...]] = dict.fromkeys(derived_subgroup(G).members, ())
    chars: list[tuple[int, ...]] = [()]
    for g in G.generator_ids:
        if g in coords:
            continue
        power, k = g, 1
        while power not in coords:
            power, k = rows[power][g], k + 1
        at, step, extended = coords[power], e // k, []
        for lam in chars:
            s = sum(map(mul, at, lam)) % e
            extended += [lam + (s // k + l * step,) for l in range(k)]
        chars = extended
        members, coords, cur = list(coords.items()), {}, 0
        for j in range(k):
            row = rows[cur]
            for x, c in members:
                coords[row[x]] = c + (j,)
            cur = row[g]
    return [[sum(map(mul, coords[rep], lam)) % e for rep in classes.reps] for lam in chars]


def _nonlinear_rows(G: GroupTable, classes: ConjClassPartition, linear: list[list[int]], e: int) -> list[list[tuple[int, ...]]]:
    """The irreducibles of degree > 1, given the linear ones' exponents,
    each row as the coefficient tuples of its values.

    Their central characters omega_chi(k) = |K_k| chi(rep_k) / chi(1) span
    the space of v with sum_k v(k) lambda(rep_k*) = 0 for every linear
    lambda, k* the class of inverses, and every class matrix maps it into
    itself (Schneider), so the split starts there, mod q = ``dixon_prime``,
    building each class matrix as it reaches it; a one-dimensional space
    needs no class matrix.  The rows are then lifted from the degrees and
    the residues chi(k) = chi(1) omega(k) / |K_k| mod q."""
    r, n = classes.count, G.order
    q = dixon_prime(e, n)
    z = _root_of_unity(e, q)
    zpow = [pow(z, t, q) for t in range(e)]
    start = _rref(_kernel([[zpow[ts[k]] for k in classes.inverse_class] for ts in linear], r, q), q)
    omegas = _simultaneous_eigenvectors((_class_matrix(G, classes, i) for i in range(1, r)), start, q)

    inv_sizes = [pow(s, -1, q) for s in classes.sizes]
    degrees = []
    for w in omegas:
        s = sum(w[k] * w[classes.inverse_class[k]] * inv_sizes[k] for k in range(r)) % q
        t = (n * pow(s, -1, q)) % q
        d = next((d for d in range(1, math.isqrt(n) + 1) if (d * d) % q == t), None)
        if d is None:
            raise RuntimeError("no integer degree matches the orthogonality relation")
        degrees.append(d)

    # One lift per Galois class of columns.  For a prime to the order m of
    # rep, rho(rep^a) has the eigenvalues of rho(rep) raised to the a-th
    # power, with the same multiplicities, so the column of rep^a re-indexes
    # the counts of rep's column.  source[k] = (lifted class, a).
    power_classes = {}
    source: list[tuple[int, int] | None] = [None] * r
    for k in range(r):
        if source[k] is not None:
            continue
        source[k] = (k, 1)
        walk = G.powers(classes.reps[k])
        m = len(walk)
        pcls = [classes.class_of[walk[t - 1]] for t in range(m)]  # walk[t - 1] = rep^t, walk[-1] = 1
        for a in range(2, m):
            if source[pcls[a]] is None and math.gcd(a, m) == 1:
                source[pcls[a]] = (k, a)
        power_classes[k] = pcls

    dft = {}
    for m in {len(pcls) for pcls in power_classes.values()}:
        step, inv_m = e // m, pow(m, -1, q)
        dft[m] = [(step * l, [zpow[-step * l * t % e] * inv_m % q for t in range(m)]) for l in range(m)]

    rows = []
    for w, d in zip(omegas, degrees):
        chi_mod = [(d * w[k] * inv_sizes[k]) % q for k in range(r)]
        counts = {k: _eigenvalue_counts(chi_mod, pcls, d, dft[len(pcls)], q) for k, pcls in power_classes.items()}
        rows.append(
            [Cyc.from_root_multiset(e, {t * a % e: c for t, c in counts[lifted].items()}).coeffs for lifted, a in source]
        )
    return rows


class _Values(NamedTuple):
    """A table's values by id: cells[i][k] is the id of row i's value at
    class k, distinct[id] that value's coefficients in Z[zeta_e], and ids
    the id of each distinct coefficient tuple."""

    cells: list[tuple[int, ...]]
    distinct: list[tuple[int, ...]]
    ids: dict[tuple[int, ...], int]
    e: int


def _reduction(G: GroupTable, distinct: Sequence[Sequence[int]], cells: Sequence[Sequence[int]]) -> tuple[_Values, int]:
    """(values, p): the table's value index in Z[zeta_e], e = exp(G), and
    the smallest prime p = 1 (mod e) with p > |G| (D^2 + 1), D the largest
    coefficient L1 norm of a value.  Equal values are merged and the ids
    renumbered in order of first use, row by row, so a value no cell reads
    is dropped.  Each cell is read twice, once to check it and once to
    renumber it, as an int; everything else runs on the distinct values.

    A value that is not deg(Phi_e) int coefficients raises RuntimeError, as
    does an id that is not an int index into ``distinct``.  A value of a
    character of G is a sum of chi(1) <= sqrt(|G|) e-th roots of unity, so a
    value with a larger L1 norm than that many of the largest reduced
    zeta_e^s raises RuntimeError too; this keeps p small for any input."""
    e, n = exponent(G), G.order
    given = list(map(tuple, distinct))
    size = len(cyclotomic_polynomial(e)) - 1
    if not all(len(v) == size and all(type(c) is int for c in v) for v in given):
        raise RuntimeError("character values are not in Z[zeta_e], e the exponent of the group")
    if not all(type(i) is int and 0 <= i < len(given) for row in cells for i in row):
        raise RuntimeError("character cells are not ids of the table's values")
    first: dict[tuple[int, ...], int] = {}
    merged = [first.setdefault(v, i) for i, v in enumerate(given)]  # each id's least id of an equal value
    renumber: dict[int, int] = {}
    cells = [tuple([renumber.setdefault(merged[i], len(renumber)) for i in row]) for row in cells]
    ids = {given[i]: j for i, j in renumber.items()}
    D = max((sum(map(abs, c)) for c in ids), default=0)
    if D > math.isqrt(n) * _root_norm(e):
        raise RuntimeError("character values exceed the bound for a group of this order")
    return _Values(cells, list(ids), ids, e), prime_above(e, n * (D * D + 1))


@lru_cache(maxsize=None)
def _root_norm(e: int) -> int:
    """The largest coefficient L1 norm of a reduced zeta_e^t."""
    return max(sum(map(abs, row)) for row in _ring(e).rows)


def _residues(values: _Values, classes: ConjClassPartition, p: int) -> list[list[int]]:
    """X_1 of ``CharacterTable``, the values under iota_1: zeta_e -> z, or
    its RuntimeError: the rows, one per class and distinct, must pass the
    Galois checks on coefficient tuples, then X_1 W_1^T = |G| I mod p, with
    W_1[j][k] = X_1[j][k*] sizes[k], exact once the power map at c = -1 has
    passed, the degrees must be positive integers, and the rows must be in
    the order ``character_table`` sorts them in: by degree, then by the
    coefficient tuples of their values."""
    cells, distinct, ids, e = values
    G, r = classes.group, classes.count
    present = set(cells)
    if len(present) != r or len(cells) != r or any(len(row) != r for row in cells):
        raise RuntimeError("character rows are not orthonormal")
    walks = [G.powers(rep) for rep in classes.reps]  # walk[t - 1] = rep^t
    for c in _unit_generators(e) + [-1 % e]:
        image = [ids.get(Cyc(e, v).galois(c).coeffs) for v in distinct]
        moved = [tuple(map(image.__getitem__, row)) for row in cells]
        if not present.issuperset(moved):
            raise RuntimeError("character rows are not orthonormal")
        at = [classes.class_of[walk[c % len(walk) - 1]] for walk in walks]
        if moved != [tuple(map(row.__getitem__, at)) for row in cells]:
            raise RuntimeError("character values do not follow the power maps")
    z = _root_of_unity(e, p)
    zpow = [pow(z, t, p) for t in range(e)]
    images = [sum(map(mul, c, zpow)) % p for c in distinct]
    X = [list(map(images.__getitem__, row)) for row in cells]
    W = [[x[k] * size % p for k, size in zip(classes.inverse_class, classes.sizes)] for x in X]
    for i, got in enumerate(_gram_mod(X, W, p)):
        if got != [0] * i + [G.order] + [0] * (r - 1 - i):
            raise RuntimeError("character rows are not orthonormal")
    if not all(distinct[row[0]][0] > 0 and not any(distinct[row[0]][1:]) for row in cells):
        raise RuntimeError("character degrees are not positive integers")
    # the degree, an integer, leads each row's coefficient tuples
    keys = [[distinct[i] for i in row] for row in cells]
    if keys != sorted(keys):
        raise RuntimeError("character rows are not in canonical order")
    return X


def _gram_mod(X: list[list[int]], W: list[list[int]], p: int) -> list[list[int]]:
    """X W^T mod p for matrices whose rows all have c entries in [0, p), by
    Kronecker substitution: one packed integer product per row of X in
    place of len(W) dot products.

    Column k of W is packed as P_k = sum_j W[j][k] 2^(s j), with s =
    bit_length(c p^2).  The s-bit slot j of sum_k X[i][k] P_k is then
    sum_k X[i][k] W[j][k] <= c (p - 1)^2 < 2^s, so no slot carries into the
    next; each slot is that dot product exactly, and its residue mod p is
    entry (i, j)."""
    packed = [0] * (len(W[0]) if W else 0)
    s = (len(packed) * p * p).bit_length()
    mask = (1 << s) - 1
    for w in reversed(W):
        packed = [P << s | x for P, x in zip(packed, w)]
    gram = []
    for x in X:
        t = sum(map(mul, x, packed))
        row = []
        for _ in W:
            row.append((t & mask) % p)
            t >>= s
        gram.append(row)
    return gram


# --- class function operations -------------------------------------------


def inner_product(f: ClassFunction, g: ClassFunction) -> Cyc:
    """(1/|G|) sum over G of f * conj(g), computed classwise and exactly.

    ValueError when the division by |G| is not exact, which it always is
    for characters."""
    if f.group is not g.group:
        raise ValueError("class functions live on different groups")
    classes = conjugacy_classes(f.group)
    total = Cyc.zero(1)
    for size, a, b in zip(classes.sizes, f.values, g.values):
        total = total + (a * b.conjugate()) * size
    try:
        return total.divide_exact(f.group.order)
    except ArithmeticError:
        raise ValueError("inner product is not a cyclotomic integer") from None


def induce(G: GroupTable, H: ElementSet, theta: ClassFunction) -> ClassFunction:
    """The induced class function theta^G: at x in class K, |G| / |K| times
    the sum of theta over K meet H, divided by |H|, which is asserted exact."""
    table, _to_parent, from_parent = subgroup_table(G, H)
    if theta.group is not table:
        raise ValueError("theta is not a class function on this subgroup")
    h_classes = conjugacy_classes(table)
    g_classes = conjugacy_classes(G)
    e = exponent(G)
    theta_up = [v.rebase(e) if v.e != e else v for v in theta.values]
    values = []
    for k, size in enumerate(g_classes.sizes):
        acc = Cyc.zero(e)
        for c, n in h_classes.counts(from_parent[y] for y in g_classes.member_lists[k] if y in from_parent).items():
            acc = acc + theta_up[c] * (n * (G.order // size))
        values.append(acc.divide_exact(len(H)))
    return ClassFunction(G, tuple(values))


def decompose(f: ClassFunction, table: CharacterTable | None = None) -> list[tuple[int, int]]:
    """Multiplicities [f, chi_i] for every irreducible, with the exact
    reconstruction sum m_i chi_i = f verified."""
    table = table or character_table(f.group)
    mults = []
    for i, chi in enumerate(table.irreducibles):
        m = inner_product(f, chi)
        if not m.is_rational_integer() or m.as_int() < 0:
            raise ValueError("not a character")
        mults.append((i, m.as_int()))
    r = len(f.values)
    for k in range(r):
        acc = Cyc.zero(1)
        for (i, m) in mults:
            if m:
                acc = acc + table.irreducibles[i].values[k] * m
        if not acc == f.values[k]:
            raise ValueError("not a character")
    return mults
