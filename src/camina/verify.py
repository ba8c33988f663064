"""Theorem and lemma harness.

Each claim evaluates one implication on one (G, H) pair and reports
PASS (hypothesis and conclusion hold), VACUOUS (hypothesis fails),
VIOLATION (hypothesis holds, conclusion fails: a counterexample), or
SKIPPED (a size cap prevented evaluation).  Every VIOLATION carries a
replayable witness in the details record.

Pair claims are the functions of the ``CLAIMS`` table.  They read the
hypotheses of a pair from one ``Pair`` object, which computes each of them
at most once, so claims that share a hypothesis share its evaluation.  A
sweep evaluates them once per conjugacy class of subgroups and carries the
reports that ``transferable`` admits over to the other members of the class.
Claims on G alone, cor2 and covering, are the entries of ``GROUP_CLAIMS``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .chartab import character_table, check_caps
from .conditions import (
    F,
    FPM,
    ConditionVerdict,
    _class_scan,
    _coset_scan,
    _equal_order_scan,
    is_camina_pair,
    satisfies_CI,
    satisfies_F,
    satisfies_Fpm,
    satisfies_O,
)
from .grouptable import (
    CapExceeded,
    ElementSet,
    GroupTable,
    small_generating_set,
)
from .structure import (
    center,
    conjugacy_classes,
    derived_subgroup,
    is_frobenius_with_kernel,
    is_nilpotent,
    is_p_group,
    is_simple,
    is_solvable,
    is_subnormal,
    normal_closure,
    normal_subgroups,
    normalizer,
    o_lower_p,
    o_upper_p,
    p_part,
    prime_factors,
    subgroup_class_ids,
    subgroups,
)

PASS = "PASS"
VACUOUS = "VACUOUS"
VIOLATION = "VIOLATION"
SKIPPED = "SKIPPED"


@dataclass
class VerificationReport:
    """One claim's verdict on one (G, H) pair, or on G alone with subgroup
    index -1 and subgroup order 0.  A plain dataclass, neither frozen nor
    hashable: a sweep builds one per claim and subgroup, and the reports
    copied to the conjugates of a subgroup share one ``details`` dict."""

    group_label: str
    group_order: int
    subgroup_index: int
    subgroup_order: int
    claim: str
    status: str
    details: dict


def report_key(r: VerificationReport) -> tuple:
    """The canonical report order: group label, subgroup index, claim, details."""
    return (r.group_label, r.subgroup_index, r.claim, str(sorted(r.details.items())))


@dataclass(eq=False)
class Pair:
    """One (G, H) pair: its identification and its facts.  Each fact is
    computed on first use and then kept."""

    G: GroupTable
    H: ElementSet
    label: str = ""
    subgroup_index: int = -1
    _o_upper: dict[int, ElementSet] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # the fields every report of the pair starts with
        self._head = (self.label, self.G.order, self.subgroup_index, len(self.H))

    def report(self, claim: str, status: str, details: dict) -> VerificationReport:
        return VerificationReport(*self._head, claim, status, details)

    @cached_property
    def F(self) -> ConditionVerdict:
        return satisfies_F(self.G, self.H)

    @cached_property
    def Fpm(self) -> ConditionVerdict:
        return satisfies_Fpm(self.G, self.H)

    @cached_property
    def O(self) -> ConditionVerdict:
        return _O_verdict(self.G, self.H)

    @cached_property
    def CI(self) -> ConditionVerdict:
        """(CI).  Above G's class cap every read raises the CapExceeded of
        ``check_caps`` and (CI) is never evaluated."""
        check_caps(self.G)
        return satisfies_CI(self.G, self.H)

    @cached_property
    def h_solvable(self) -> bool:
        """Whether H is solvable, which odd_order and cor1 both read."""
        return is_solvable(self.G, self.H)

    @cached_property
    def N(self) -> ElementSet:
        """The normal closure of H."""
        return normal_closure(self.G, self.H)

    @cached_property
    def class_counts(self) -> Counter:
        """How many elements of H lie in each class of G, by class id."""
        return conjugacy_classes(self.G).counts(self.H.members)

    @cached_property
    def normal(self) -> bool:
        """Whether H is normal: a union of classes of G."""
        return conjugacy_classes(self.G).is_union(self.class_counts)

    def o_upper(self, p: int) -> ElementSet:
        """O^p(H), computed once per prime."""
        hit = self._o_upper.get(p)
        if hit is None:
            hit = self._o_upper[p] = o_upper_p(self.G, p, self.H)
        return hit

    @cached_property
    def irr_given_n(self) -> list[int]:
        """The rows of Irr(G|N), N = H^G: those whose kernel misses a class of N."""
        inside = conjugacy_classes(self.G).counts(self.N.members).keys()
        return [i for i, ker in enumerate(character_table(self.G).kernels) if not inside <= ker]


def _O_verdict(G: GroupTable, H: ElementSet) -> ConditionVerdict:
    """(O) on H, one scan per (G, member tuple), kept on G: O^2(H) of one
    pair, read by lemma_k, is often the subgroup of another pair or O^2 of
    a third."""
    verdicts = G._cache.setdefault("O_verdicts", {})
    verdict = verdicts.get(H.members)
    if verdict is None:
        verdict = verdicts[H.members] = satisfies_O(G, H)
    return verdict


def _group_report(label: str, G: GroupTable, claim: str, status: str, details: dict) -> VerificationReport:
    return VerificationReport(label, G.order, -1, 0, claim, status, details)


# --- main theorems ----------------------------------------------------------


def _theorem1(pair: Pair) -> tuple[str, dict]:
    """CI holds iff F holds; a biconditional, so never VACUOUS.  (F) needs
    no character table, so a SKIPPED report over a cap keeps ``f_holds``
    and ``h_normal``, and the summary still counts its non-normal (F) pairs."""
    f = pair.F
    try:
        ci = pair.CI
    except CapExceeded as exc:
        return SKIPPED, {"f_holds": f.holds, "h_normal": pair.normal, "reason": str(exc)}
    details = {"f_holds": f.holds, "ci_holds": ci.holds, "fired": f.holds or ci.holds, "h_normal": pair.normal}
    if f.holds != ci.holds:
        details["f_witness"] = f.witness
        details["ci_witness"] = ci.witness
        return VIOLATION, details
    return PASS, details


def _theorem2(pair: Pair) -> tuple[str, dict]:
    """F+- on (G,H) implies F+- on (G,N) and N nilpotent, N the normal closure.

    The nilpotency conclusion requires H non-normal: (Frob(5:4), D5) satisfies
    the coset condition with a normal H whose closure D5 is not nilpotent, so
    for normal H only the closure condition is asserted and the nilpotency
    verdict is recorded in the details.
    """
    if not pair.Fpm.holds:
        return VACUOUS, {"fpm_witness": pair.Fpm.witness}
    G, N = pair.G, pair.N
    details = {"n_order": len(N), "fired": True, "h_normal": pair.normal}
    if len(N) == G.order:
        details["failure"] = "normal closure is the whole group"
        return VIOLATION, details
    fpm_n = pair.Fpm if pair.normal else satisfies_Fpm(G, N)
    nilp = is_nilpotent(G, N)
    details["fpm_on_closure"] = fpm_n.holds
    details["closure_nilpotent"] = nilp
    if fpm_n.holds and (nilp or pair.normal):
        return PASS, details
    details["fpm_witness"] = fpm_n.witness
    return VIOLATION, details


def _odd_order(pair: Pair) -> tuple[str, dict]:
    """(O) implies O^2(H) normal with 2-group quotient, or H solvable."""
    if not pair.O.holds:
        return VACUOUS, {"o_witness": pair.O.witness}
    G = pair.G
    o2 = pair.o_upper(2)
    o2_normal = o2.is_normal()
    index = G.order // len(o2)
    quotient_2group = p_part(index, 2) == index
    solvable = pair.h_solvable
    details = {
        "fired": True,
        "o2_order": len(o2),
        "o2_normal": o2_normal,
        "quotient_is_2_group": quotient_2group,
        "h_solvable": solvable,
    }
    ok = (o2_normal and quotient_2group) or solvable
    return (PASS if ok else VIOLATION), details


def _cor1(pair: Pair) -> tuple[str, dict]:
    """Equal orders on every coset xH implies H solvable, or the
    2-element/subnormal structure with (N_G(H), H) an equal order pair."""
    G, H = pair.G, pair.H
    hyp = _equal_order_scan(G, H)
    if not hyp.holds:
        return VACUOUS, {"equal_order_witness": hyp.witness}
    if pair.h_solvable:
        return PASS, {"fired": True, "h_solvable": True}
    o2g = o_upper_p(G, 2)
    a_ok = all(m in H for m in o2g.members) and is_subnormal(G, H)
    orders = (G.element_order(x) for x in range(G.order) if x not in H)
    b_ok = all(p_part(o, 2) == o for o in orders)
    ngh = normalizer(G, H)
    if len(ngh) > len(H):
        c = _equal_order_scan(G, H, ngh.members)
        c_ok, c_wit = c.holds, c.witness
    else:
        c_ok, c_wit = False, {"detail": "H is self-normalizing"}
    details = {
        "fired": True,
        "h_solvable": False,
        "o2_in_h_and_subnormal": a_ok,
        "outside_all_2_elements": b_ok,
        "normalizer_pair_equal_order": c_ok,
    }
    if not c_ok:
        details["c_witness"] = c_wit
    return (PASS if a_ok and b_ok and c_ok else VIOLATION), details


def verify_cor2(G: GroupTable, p: int, label: str = "") -> VerificationReport:
    """Every p-element whose products with nontrivial p-regular elements stay
    p-regular lies in O_p(G).  Both sides are closed under conjugation, so
    each class k of p-elements is decided by its representative, its least
    member: the hypothesis holds iff every class in ``products(j, k)`` is
    p-regular, for every nontrivial p-regular class j."""
    if G.order % p:
        return _group_report(label, G, "cor2", VACUOUS, {"p": p, "reason": "p does not divide |G|"})
    opg = o_lower_p(G, p)
    classes = conjugacy_classes(G)
    orders = [G.element_order(r) for r in classes.reps]
    regular = [o % p != 0 for o in orders]
    regular_ids = [j for j in range(1, classes.count) if regular[j]]  # class 0 is the identity
    fired = 0
    for x, k in sorted(zip(classes.reps, range(classes.count))):
        if p_part(orders[k], p) == orders[k] and all(regular[c] for j in regular_ids for c in classes.products(j, k)):
            fired += classes.sizes[k]
            if x not in opg:
                details = {"p": p, "x": x, "detail": "hypothesis fires but x is outside O_p(G)"}
                return _group_report(label, G, "cor2", VIOLATION, details)
    return _group_report(label, G, "cor2", PASS, {"p": p, "fired": fired, "o_p_order": len(opg)})


# --- lemma suite ------------------------------------------------------------


def _quotients_keep(G: GroupTable, H: ElementSet, plus_minus: bool) -> tuple[str, dict]:
    """Every normal M not containing H lies properly below H, and (G/M, H/M)
    keeps (F), or (F+-) when ``plus_minus``, read off G's classes by
    ``_class_scan`` with no quotient table."""
    checked = 0
    for M in normal_subgroups(G):
        if all(h in M for h in H.members):
            continue
        checked += 1
        if not (all(m in H for m in M.members) and len(M) < len(H)):
            return VIOLATION, {"m_order": len(M), "failure": "M is not properly below H"}
        sub = _class_scan(G, H, FPM if plus_minus else F, M)
        if not sub.holds:
            return VIOLATION, {
                "m_order": len(M),
                "failure": f"quotient pair loses condition ({'F+-' if plus_minus else 'F'})",
                "quotient_witness": sub.witness,
            }
    return PASS, {"normal_subgroups_checked": checked}


def _lemma_a(pair: Pair) -> tuple[str, dict]:
    return _quotients_keep(pair.G, pair.H, False)


def _lemma_b(pair: Pair) -> tuple[str, dict]:
    G, H = pair.G, pair.H
    z = center(G)
    gprime = derived_subgroup(G)
    z_in_h = all(m in H for m in z.members)
    h_in_gprime = all(h in gprime for h in H.members)
    details = {"center_in_h": z_in_h, "h_in_derived": h_in_gprime}
    return (PASS if z_in_h and h_in_gprime else VIOLATION), details


def _lemma_c(pair: Pair) -> tuple[str, dict]:
    G, N = pair.G, pair.N
    sizes = conjugacy_classes(G).sizes
    union_size = sum(sizes[c] for c in pair.class_counts)  # of the conjugates of H
    details = {"n_order": len(N), "union_size": union_size}
    ok = union_size == len(N) and 1 < len(N) < G.order  # that union lies in N
    return (PASS if ok else VIOLATION), details


def _lemma_d(pair: Pair) -> tuple[str, dict]:
    verdict = is_camina_pair(pair.G, pair.N)
    details = {"n_order": len(pair.N), "camina": verdict.holds}
    if not verdict.holds:
        details["witness"] = verdict.witness
    return (PASS if verdict.holds else VIOLATION), details


def _lemma_e(pair: Pair) -> tuple[str, dict]:
    G, N = pair.G, pair.N
    nilp = is_nilpotent(G, N)
    frob = is_frobenius_with_kernel(G, N)
    pgrp = is_p_group(len(N))
    details = {"n_order": len(N), "n_nilpotent": nilp, "frobenius_kernel": frob, "n_p_group": pgrp}
    return (PASS if nilp and (frob or pgrp) else VIOLATION), details


def _lemma_f(pair: Pair) -> tuple[str, dict]:
    G, H, N = pair.G, pair.H, pair.N
    n_gens = small_generating_set(G, N.members)
    h_normal_in_n = all(G.conj(h, n) in H for h in H.members for n in n_gens)
    derived_in_h = all(d in H for d in derived_subgroup(G, N).members)
    details = {"h_normal_in_n": h_normal_in_n, "n_over_h_abelian": derived_in_h}
    return (PASS if h_normal_in_n and derived_in_h else VIOLATION), details


def _lemma_g(pair: Pair) -> tuple[str, dict]:
    G, H = pair.G, pair.H
    status, details = _quotients_keep(G, H, True)
    if status == VIOLATION:
        return status, details
    z = center(G)
    gprime = derived_subgroup(G)
    strict_lower = all(m in H for m in z.members) and len(z) < len(H)
    strict_upper = all(h in gprime for h in H.members) and len(H) < len(gprime)
    details = {"center_strictly_below": strict_lower, "strictly_inside_derived": strict_upper}
    return (PASS if strict_lower and strict_upper else VIOLATION), details


def _lemma_h(pair: Pair) -> tuple[str, dict]:
    """K*N lies in K union K^-1 for every class K of derangements, the classes
    that miss H, read off the products of N's classes with k = reps[K], K's
    least member: a failing (k^g, n) gives (k, n^(g^-1)), n the least in N."""
    classes = conjugacy_classes(pair.G)
    delta_class_ids = [c for c in range(classes.count) if c not in pair.class_counts]
    n_ids = classes.counts(pair.N.members)
    for cid in delta_class_ids:
        k, allowed = classes.reps[cid], (cid, classes.inverse_class[cid])
        bad = [y for m in n_ids for y, c in zip(classes.members(m), classes.products(m, cid)) if c not in allowed]
        if bad:
            return VIOLATION, {"class_rep": k, "k": k, "n": min(bad), "failure": "K*N escapes K union K^-1"}
    return PASS, {"derangement_classes_checked": len(delta_class_ids)}


def _lemma_i(pair: Pair) -> tuple[str, dict]:
    return (PASS if pair.normal else VIOLATION), {"h_normal": pair.normal}


def _lemma_j(pair: Pair) -> tuple[str, dict]:
    """For each prime p: every element outside H is p-singular iff O^p(H) is
    normal in G with G/O^p(H) a p-group.  The left side says that H holds
    every p-regular element: each class whose representative has order
    prime to p lies wholly in H."""
    G, counts = pair.G, pair.class_counts
    classes = conjugacy_classes(G)
    rep_orders = [G.element_order(r) for r in classes.reps]
    fired = []
    for p in prime_factors(G.order):
        lhs = all(counts[c] == size for c, size in enumerate(classes.sizes) if rep_orders[c] % p)
        op = pair.o_upper(p)
        rhs = op.is_normal() and p_part(G.order // len(op), p) == G.order // len(op)
        if lhs:
            fired.append(p)
        if lhs != rhs:
            return VIOLATION, {"p": p, "all_outside_p_singular": lhs, "o_p_normal_with_p_quotient": rhs}
    return PASS, {"fired": bool(fired), "primes_with_all_outside_singular": fired}


def _lemma_k(pair: Pair) -> tuple[str, dict]:
    o2 = pair.o_upper(2)  # inside H, so H's own verdict is read when the orders agree
    sub = _O_verdict(pair.G, o2)
    details = {"o2_order": len(o2), "o_on_o2": sub.holds}
    if not sub.holds:
        details["witness"] = sub.witness
    return (PASS if sub.holds else VIOLATION), details


def _lemma_l(pair: Pair) -> tuple[str, dict]:
    irr = pair.irr_given_n
    p, X = character_table(pair.G).mod_p
    # sum_{h in H} chi(h) = |H| [chi_H, 1_H], an integer in [0, p)
    if any(sum(X[i][k] * n for k, n in pair.class_counts.items()) % p for i in irr):
        return VACUOUS, {"fired": False, "reason": "some chi in Irr(G|H) restricts with trivial constituent"}
    return (PASS if pair.normal else VIOLATION), {"irr_given_h": len(irr), "h_normal": pair.normal}


def _lemma_m(pair: Pair) -> tuple[str, dict]:
    # one scan of N: x is labelled by the value ids, at its class, of every chi in Irr(G|N)
    cells, irr = character_table(pair.G).values.cells, pair.irr_given_n
    by_class = [tuple(cells[i][k] for i in irr) for k in range(len(cells))]
    label = [by_class[k] for k in conjugacy_classes(pair.G).class_of]
    detail = "character is not constant on the coset xH"
    verdict = _coset_scan(pair.G, pair.H, "lemma_m", lambda x, y: label[y] == label[x], detail, pair.N.members)
    if not verdict.holds:
        return VIOLATION, {"x": verdict.x, "h": verdict.h, "failure": verdict.detail}
    return PASS, {"characters_checked": len(irr)}


def _claim9(pair: Pair) -> tuple[str, dict]:
    """Derangement classes x^G, those that miss H, against the classes y^G that
    meet H: x^G y^G is the union of the classes in ``products(y^G, x^G)``, each
    judged by its representative, its least member, which is the witness."""
    G = pair.G
    classes = conjugacy_classes(G)
    odd = [G.element_order(r) % 2 == 1 for r in classes.reps]
    delta_class_ids = [c for c in range(classes.count) if c not in pair.class_counts]
    h_class_ids = sorted(pair.class_counts)
    for did in delta_class_ids:
        x, x_odd = classes.reps[did], odd[did]
        for cid in h_class_ids:
            wrong = [c for c in set(classes.products(cid, did)) if odd[c] != x_odd]
            if wrong:
                z_parity, x_parity = ("even", "odd") if x_odd else ("odd", "even")
                return VIOLATION, {
                    "derangement_class_rep": x,
                    "h_class_rep": classes.reps[cid],
                    "z": min(classes.reps[c] for c in wrong),
                    "failure": f"{z_parity} order element in x^G y^G with x {x_parity}",
                }
    return PASS, {"class_pairs_checked": len(delta_class_ids) * len(h_class_ids)}


def verify_covering(G: GroupTable, label: str = "") -> VerificationReport:
    """For nonabelian simple G, every nontrivial class C has C^m = G for
    some m.  C^m is kept as its set S of class ids: C^(m+1) is the union of
    the classes in ``products(C, s)``, s in S.  Each set fixes the next, so
    once one repeats the powers cycle and never reach G."""
    if not is_simple(G):
        return _group_report(label, G, "covering", VACUOUS, {"reason": "group is not nonabelian simple"})
    classes = conjugacy_classes(G)
    max_m = 0
    for cid in range(1, classes.count):
        current = frozenset({cid})
        seen = set()  # C^1 .. C^(m-1), all distinct
        while len(current) < classes.count:
            if current in seen:
                failure = f"C^m repeats at m = {len(seen) + 1} without reaching G"
                details = {"class_rep": classes.reps[cid], "failure": failure}
                return _group_report(label, G, "covering", VIOLATION, details)
            seen.add(current)
            current = frozenset().union(*(classes.products(cid, s) for s in current))
        max_m = max(max_m, len(seen) + 1)
    return _group_report(label, G, "covering", PASS, {"fired": True, "max_power_needed": max_m})


# claim -> (hypothesis, check, whether the trivial subgroup is admissible).
# Every claim needs H proper; (F), (F+-) and (CI) also need H nontrivial.
# On a pair where the hypothesis fails the claim is VACUOUS with fired: False
# and its check does not run.  The theorems have no hypothesis here: they test
# their own and report its witness when it fails.
CLAIMS = {
    "theorem1": (None, _theorem1, False),
    "theorem2": (None, _theorem2, False),
    "odd_order": (None, _odd_order, True),
    "cor1": (None, _cor1, True),
    "lemma_a": (lambda p: p.F.holds, _lemma_a, False),
    "lemma_b": (lambda p: p.F.holds, _lemma_b, False),
    "lemma_c": (lambda p: p.Fpm.holds and not p.normal, _lemma_c, False),
    "lemma_d": (lambda p: p.F.holds, _lemma_d, False),
    "lemma_e": (lambda p: p.F.holds and not p.normal, _lemma_e, False),
    "lemma_f": (lambda p: p.F.holds and not p.normal, _lemma_f, False),
    "lemma_g": (lambda p: p.Fpm.holds and not p.normal, _lemma_g, False),
    "lemma_h": (lambda p: p.Fpm.holds and not p.normal, _lemma_h, False),
    "lemma_i": (lambda p: is_p_group(p.G.order) and p.Fpm.holds, _lemma_i, False),
    "lemma_j": (None, _lemma_j, False),
    "lemma_k": (lambda p: p.O.holds, _lemma_k, False),
    "lemma_l": (lambda p: p.CI.holds, _lemma_l, False),
    "lemma_m": (lambda p: p.CI.holds and not p.normal, _lemma_m, False),
    "claim9": (lambda p: p.O.holds, _claim9, False),
}
PAIR_CLAIMS = tuple(CLAIMS)
LEMMA_CLAIMS = tuple(c for c in CLAIMS if c.startswith("lemma_"))
# claim on G alone -> its reports on (G, label)
GROUP_CLAIMS = {
    "cor2": lambda G, label: [verify_cor2(G, p, label) for p in prime_factors(G.order)],
    "covering": lambda G, label: [verify_covering(G, label)],
}
ALL_CLAIMS = PAIR_CLAIMS + tuple(GROUP_CLAIMS)


def verify_pair_claim(G: GroupTable, H: ElementSet, claim: str, pair: Pair | None = None) -> VerificationReport:
    """Evaluate one pair claim on (G, H).  Facts already computed on ``pair``,
    which must be the pair (G, H), are reused; a cap overrun is SKIPPED."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown pair claim {claim!r}")
    hypothesis, check, _ = CLAIMS[claim]
    if pair is None:
        pair = Pair(G, H)
    try:
        if hypothesis is not None and not hypothesis(pair):
            return pair.report(claim, VACUOUS, {"fired": False})
        status, details = check(pair)
    except CapExceeded as exc:
        return pair.report(claim, SKIPPED, {"reason": str(exc)})
    if status == PASS:
        details.setdefault("fired", True)
    return pair.report(claim, status, details)


def transferable(report: VerificationReport) -> bool:
    """Whether ``report`` holds as it stands, up to its subgroup index, for
    every conjugate H^g of its subgroup H.

    Conjugation by g is an automorphism of G that fixes each class of G: it
    maps H to H^g, each coset xH to x^g H^g and each element to one of the
    same order and class, and it fixes every normal subgroup, the normal
    closure N = H^G among them.  So each hypothesis and conclusion of a pair
    claim has the same truth value on (G, H) and (G, H^g), and each count,
    order, boolean and fixed string in the details is an invariant of the
    class: orders of H, N, O^p(H) and normal subgroups, numbers of classes,
    characters and class pairs checked, the class counts of H.  Only a
    witness is not: it is the first failing element in element order, which
    conjugation does not keep.  PASS details hold no witness, VACUOUS
    details hold one only under a ``*_witness`` key (the failed hypothesis of
    theorem2, odd_order and cor1), and SKIPPED details hold only the class
    cap's message, a fact of G, and for theorem1 ``f_holds`` and
    ``h_normal``.  VIOLATION reports and those with a ``*_witness`` key are
    evaluated on each conjugate's own pair.
    """
    return report.status != VIOLATION and not any(k.endswith("_witness") for k in report.details)


def sweep_single(label: str, G: GroupTable, claims: list[str]) -> list[VerificationReport]:
    """The reports of G in ``report_key`` order, made in that order.  First
    come the reports of G alone, subgroup index -1, sorted by ``report_key``:
    those of each ``GROUP_CLAIMS`` entry asked for, and one SKIPPED report
    per pair claim when the subgroup cap stops ``subgroups``.  Then every
    proper subgroup in ``subgroups`` order gets its pair claims in
    claim-name order.  The pair claims are evaluated on the first member of
    each conjugacy class of subgroups; a later member gets a copy of each
    ``transferable`` report under its own subgroup index and a fresh
    evaluation of the others.  The reports equal those of one evaluation
    per subgroup."""
    reports = [r for c in sorted(claims) if c in GROUP_CLAIMS for r in GROUP_CLAIMS[c](G, label)]
    pair_claims = sorted(c for c in claims if c in CLAIMS)
    subs: list[tuple[ElementSet, int]] = []
    if pair_claims:
        try:
            subs = list(zip(subgroups(G), subgroup_class_ids(G)))
        except CapExceeded as exc:
            reports += [_group_report(label, G, claim, SKIPPED, {"reason": str(exc)}) for claim in pair_claims]
    reports.sort(key=report_key)
    first_of_class: dict[int, list[tuple[VerificationReport, bool]]] = {}
    for idx, (H, cid) in enumerate(subs):
        if len(H) == G.order:
            continue
        pair = Pair(G, H, label, idx)
        first = first_of_class.get(cid)
        if first is None:
            evaluated = [verify_pair_claim(G, H, c, pair) for c in pair_claims if len(H) > 1 or CLAIMS[c][2]]
            first_of_class[cid] = [(r, transferable(r)) for r in evaluated]
            reports += evaluated
            continue
        for r, same in first:
            if same:
                reports.append(pair.report(r.claim, r.status, r.details))
            else:
                reports.append(verify_pair_claim(G, H, r.claim, pair))
    return reports


def summarize(reports: list[VerificationReport]) -> dict:
    """Per-claim status counts, hypothesis-fired counts, and the empirical
    count of non-normal subgroups satisfying condition (F).  A report fired
    when its details say so or it is a VIOLATION, whose hypothesis held."""
    claims: dict[str, dict[str, int]] = {}
    summary: dict = {"claims": claims, "total": len(reports)}
    nonnormal_f = 0
    for r in reports:
        c = claims.get(r.claim)
        if c is None:
            c = claims[r.claim] = {"PASS": 0, "VACUOUS": 0, "VIOLATION": 0, "SKIPPED": 0, "fired": 0}
        c[r.status] += 1
        details = r.details
        if r.status == VIOLATION or details.get("fired"):
            c["fired"] += 1
        if r.claim == "theorem1" and details.get("f_holds") and not details.get("h_normal", True):
            nonnormal_f += 1
    summary["violations"] = sum(c["VIOLATION"] for c in claims.values())
    summary["nonnormal_f_pairs"] = nonnormal_f
    return summary
