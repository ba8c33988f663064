"""Test-only reference implementations that the tests compare the library
against: straightforward versions of code the library computes faster."""

from __future__ import annotations

import math

from camina.chartab import (
    CharacterTable,
    ClassFunction,
    _charpoly,
    _kernel,
    _mat_vec,
    _root_of_unity,
    _roots_mod,
    _rref,
    class_matrices,
    dixon_prime,
)
from camina.cyclotomic import Cyc
from camina.grouptable import GroupTable
from camina.structure import ConjClassPartition, conjugacy_classes, exponent


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
            images = [_mat_vec(M, b, q) for b in B]
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


def reference_character_table(G: GroupTable) -> CharacterTable:
    """Irr(G) split by ``reference_simultaneous_eigenvectors``, with every
    column lifted by its own DFT over the powers of its class
    representative, checked by ``reference_check_orthonormal``; rows in the
    order of ``character_table``."""
    classes = conjugacy_classes(G)
    r, e, n = classes.count, exponent(G), G.order
    q = dixon_prime(e, n)
    omegas = reference_simultaneous_eigenvectors(class_matrices(G, classes), q)
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
            pcls = [classes.class_of[G.power(rep, t)] for t in range(m)]
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
    return CharacterTable(G, tuple(rows), tuple(cf.degree() for cf in rows))
