"""Executable predicates for the coset-conjugacy conditions.

Every predicate is an exhaustive scan with early exit; a failing verdict
carries the first witness in canonical element order, and replaying the
witness against the defining clause reproduces the violation.

The coset conditions ((F), (F+-), (O), equal orders, Camina) share one
scan, ``_coset_scan``, over x outside H and h in H.  Each of them holds for
every member of xH once it holds for x, so the scan skips the members of
cosets already passed: it skips only elements that would pass, and the
witness stays the first one in element order.

(F), (F+-) and Camina are one class-label scan, ``_class_scan``, which also
decides them on (G/M, H/M) from the classes of G.

Every predicate here is a condition on a pair (G, H), with H a proper
subgroup, nontrivial except for (O) and ``derangements``; the one check
``_require_nontrivial_proper`` raises ValueError on any other H, while
``is_camina_pair`` returns a failing verdict.  Corollary 2's
hypothesis, a fact of G alone, is decided per class by ``verify_cor2``
from the class-product table.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterable

from .chartab import character_table
from .grouptable import ElementSet, GroupTable
from .structure import conjugacy_classes

CAMINA = "CAMINA"
F = "F"
FPM = "FPM"
CI = "CI"
O = "O"
EQUAL_ORDER_COSET = "EQUAL_ORDER_COSET"


@dataclass(frozen=True)
class ConditionVerdict:
    """Whether ``condition`` holds and, when it fails, its witness: the
    elements x and h (either may be None) and what goes wrong on them."""

    holds: bool
    condition: str
    x: int | None = None
    h: int | None = None
    detail: str = ""

    @property
    def witness(self) -> dict | None:
        """The witness as reports store it, or None when the condition holds."""
        return None if self.holds else {"x": self.x, "h": self.h, "detail": self.detail}


def _require_nontrivial_proper(G: GroupTable, H: ElementSet, what: str, trivial_ok: bool = False) -> None:
    """The input rule of every predicate: H a proper subgroup of G, and
    nontrivial unless ``trivial_ok``."""
    if not H.is_subgroup:
        raise ValueError(f"{what} requires a subgroup")
    if len(H) >= G.order or (len(H) <= 1 and not trivial_ok):
        raise ValueError(f"{what} requires a {'' if trivial_ok else 'nontrivial '}proper subgroup")


def is_camina_pair(G: GroupTable, N: ElementSet) -> ConditionVerdict:
    """(G, N) with N nontrivial proper normal and gN inside g^G for all g not in N."""
    if not N.is_subgroup:
        return ConditionVerdict(False, CAMINA, detail="N is not a subgroup")
    if len(N) <= 1 or len(N) >= G.order:
        return ConditionVerdict(False, CAMINA, detail="N is not nontrivial proper")
    if not N.is_normal():
        for n in N.members:
            for g, conj in zip(G.generator_ids, conjugacy_classes(G).conjugators):
                if conj[n] not in N:
                    return ConditionVerdict(False, CAMINA, g, n, "N is not normal: conjugate of h by x leaves N")
    return _class_scan(G, N, CAMINA)


def satisfies_F(G: GroupTable, H: ElementSet) -> ConditionVerdict:
    """xH inside x^G for every x outside H."""
    _require_nontrivial_proper(G, H, "condition (F)")
    return _class_scan(G, H, F)


def satisfies_Fpm(G: GroupTable, H: ElementSet) -> ConditionVerdict:
    """x*h conjugate to x or to x^-1 for every x outside H, h in H."""
    _require_nontrivial_proper(G, H, "condition (F+-)")
    return _class_scan(G, H, FPM)


def satisfies_CI(G: GroupTable, H: ElementSet) -> ConditionVerdict:
    """Every nontrivial irreducible character of H induces homogeneously to G.

    Decided from Irr(G) alone.  By Frobenius reciprocity [theta^G, chi] =
    [theta, chi_H], so theta^G is homogeneous iff theta lies under exactly one
    chi in Irr(G); every theta lies under at least one.  (CI) therefore fails
    iff two distinct chi_i, chi_j share a nontrivial constituent on H, i.e.
    [chi_i_H, chi_j_H] > [chi_i_H, 1_H][chi_j_H, 1_H].  With c_k elements of H
    in class k, the count-weighted row w_i[k] = chi_i(k) c_k sums to
    |H| [chi_i_H, 1_H], and since conj(chi(k)) = chi(k^-1), sum_k w_i[k]
    chi_j(k^-1) is |H| [chi_i_H, chi_j_H].  Both are integers in [0, p) for
    the prime p of ``CharacterTable.mod_p``, so they are summed exactly as
    residues of the table mod p."""
    _require_nontrivial_proper(G, H, "condition (CI)")
    p, X = character_table(G).mod_p
    classes = conjugacy_classes(G)
    in_h = classes.counts(H.members)
    weighted = [[row[k] * n for k, n in in_h.items()] for row in X]
    at_inverse = [[row[classes.inverse_class[k]] for k in in_h] for row in X]
    trivial = [sum(w) % p for w in weighted]
    for i, w in enumerate(weighted):
        for j in range(i + 1, len(X)):
            if sum(map(mul, w, at_inverse[j])) % p * len(H) != trivial[i] * trivial[j]:
                detail = f"chi_index={i} and chi_index={j} share a nontrivial constituent on H"
                return ConditionVerdict(False, CI, detail=detail)
    return ConditionVerdict(True, CI)


def satisfies_O(G: GroupTable, H: ElementSet) -> ConditionVerdict:
    """Cosets xH of odd-order x outside H consist of odd-order elements.

    H must be proper; the trivial subgroup is allowed and the condition is
    vacuously true when no odd-order element lies outside H."""
    _require_nontrivial_proper(G, H, "condition (O)", trivial_ok=True)
    odd = G._cache.get("odd_order_elements")
    if odd is None:
        odd = G._cache["odd_order_elements"] = [x for x in range(G.order) if G.element_order(x) % 2]
    return _coset_scan(
        G, H, O, lambda x, y: G.element_order(y) % 2 == 1, "x has odd order but x*h has even order", odd
    )


def equal_order_coset(G: GroupTable, H: ElementSet) -> ConditionVerdict:
    """All elements of each coset xH (x outside H) share the order of x."""
    _require_nontrivial_proper(G, H, "equal order coset condition")
    return _equal_order_scan(G, H)


def _equal_order_scan(G: GroupTable, H: ElementSet, xs: Iterable[int] | None = None) -> ConditionVerdict:
    """Every x in ``xs`` (default G) outside H against every h in H: o(x*h) = o(x)."""
    order = G.element_order
    return _coset_scan(
        G, H, EQUAL_ORDER_COSET, lambda x, y: order(y) == order(x), "o(x*h) differs from o(x)", xs
    )


def _class_scan(G: GroupTable, H: ElementSet, tag: str, M: ElementSet | None = None) -> ConditionVerdict:
    """(F) (tag F or CAMINA) or (F+-) (tag FPM) on (G, H): each x*h must
    have the class label of x, or under (F+-) that of x or of x^-1.

    A label is a class of G.  With M normal in G and M <= H, the labels are
    those of G/M, read inside G: xM's class pulls back to K M = (r M)^G, r the
    representative of x's class k, which gets the label q[k], the least class
    in ``products(m, k)``, m a class of M.  A witness holds G's indices."""
    classes = conjugacy_classes(G)
    label = classes.class_of
    if M is not None:
        m_ids = classes.counts(M.members)
        q = [min(min(classes.products(m, k)) for m in m_ids) for k in range(classes.count)]
        label = list(map(q.__getitem__, label))
    if tag != FPM:
        return _coset_scan(G, H, tag, lambda x, y: label[y] == label[x], "x*h is not conjugate to x")
    inv, detail = G.inverse_ids, "x*h is conjugate to neither x nor x^-1"
    return _coset_scan(G, H, tag, lambda x, y: label[y] == label[x] or label[y] == label[inv[x]], detail)


def _coset_scan(
    G: GroupTable,
    H: ElementSet,
    tag: str,
    keeps: Callable[[int, int], bool],
    detail: str,
    xs: Iterable[int] | None = None,
) -> ConditionVerdict:
    """The first x in ``xs`` (default G, in element order) outside H and h in
    H with ``keeps(x, x*h)`` false, as a failing verdict with ``detail``.

    ``keeps`` must hold on all of xH once it holds for x and every h; the
    members of such a passed coset are then skipped as x."""
    passed = set(H.members)
    for x in range(G.order) if xs is None else xs:
        if x in passed:
            continue
        for h in H.members:
            y = G.mul(x, h)
            if not keeps(x, y):
                return ConditionVerdict(False, tag, x, h, detail)
            passed.add(y)
    return ConditionVerdict(True, tag)


def derangements(G: GroupTable, H: ElementSet) -> ElementSet:
    """G minus the union of all conjugates of H; nonempty for proper H.

    That union is the union of the classes of G that meet H."""
    _require_nontrivial_proper(G, H, "derangements", trivial_ok=True)
    classes = conjugacy_classes(G)
    meets = classes.counts(H.members)
    members = [x for x in range(G.order) if classes.class_of[x] not in meets]
    if not members:
        raise RuntimeError("a proper subgroup always has derangements")
    return ElementSet(G, members)
