import functools
import hashlib
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import camina.chartab as chartab
from camina.catalog import builtin, builtin_catalog
from camina.chartab import character_table, decompose
from camina.cli import run_cli
from camina.conditions import (
    _coset_scan,
    derangements,
    equal_order_coset,
    is_camina_pair,
    satisfies_CI,
    satisfies_F,
    satisfies_Fpm,
    satisfies_O,
)
from camina.cyclotomic import Cyc
from camina.grouptable import ElementSet, subgroup_table
from camina.structure import conjugacy_classes, subgroups
from reference import is_homogeneous_induction, reference_bs_hypothesis, restrict, trivial_subgroup


def by_order(G, n, which=0):
    return [H for H in subgroups(G) if len(H) == n][which]


class TestCaminaPair:
    def test_s3_a3(self, s3):
        assert is_camina_pair(s3, by_order(s3, 3)).holds

    def test_q8_center(self, q8):
        assert is_camina_pair(q8, by_order(q8, 2)).holds

    def test_abelian_fails(self):
        G = builtin("C2xC2").group()
        v = is_camina_pair(G, by_order(G, 2))
        assert not v.holds and v.witness is not None

    def test_non_normal_fails(self, s3):
        v = is_camina_pair(s3, by_order(s3, 2))
        assert not v.holds

    def test_improper_fails(self, s3):
        assert not is_camina_pair(s3, ElementSet.whole(s3)).holds
        assert not is_camina_pair(s3, trivial_subgroup(s3)).holds


class TestSubgroupInputCheck:
    """Each predicate on (G, H) takes a proper subgroup H, nontrivial except
    for (O) and derangements (TestConditionO and TestDerangements take the
    trivial one); any other H is refused with one of three messages, and
    is_camina_pair answers with a failing verdict instead."""

    NONTRIVIAL = [
        (satisfies_F, "condition (F)"),
        (satisfies_Fpm, "condition (F+-)"),
        (satisfies_CI, "condition (CI)"),
        (equal_order_coset, "equal order coset condition"),
    ]
    TRIVIAL_OK = [(satisfies_O, "condition (O)"), (derangements, "derangements")]

    @staticmethod
    def not_a_subgroup(G):
        # the identity and one element of order 3, whose square is missing
        x = next(x for x in range(G.order) if G.orders[x] == 3)
        H = ElementSet(G, (0, x))
        assert not H.is_subgroup
        return H

    @pytest.mark.parametrize("predicate, what", NONTRIVIAL + TRIVIAL_OK)
    def test_not_a_subgroup(self, a4, predicate, what):
        with pytest.raises(ValueError, match=f"^{re.escape(what)} requires a subgroup$"):
            predicate(a4, self.not_a_subgroup(a4))

    @pytest.mark.parametrize("improper", [trivial_subgroup, ElementSet.whole])
    @pytest.mark.parametrize("predicate, what", NONTRIVIAL)
    def test_trivial_or_whole_group_refused(self, a4, predicate, what, improper):
        with pytest.raises(ValueError, match=f"^{re.escape(what)} requires a nontrivial proper subgroup$"):
            predicate(a4, improper(a4))

    @pytest.mark.parametrize("predicate, what", TRIVIAL_OK)
    def test_whole_group_refused_when_trivial_allowed(self, a4, predicate, what):
        with pytest.raises(ValueError, match=f"^{re.escape(what)} requires a proper subgroup$"):
            predicate(a4, ElementSet.whole(a4))

    def test_camina_pair_fails_instead(self, a4):
        assert is_camina_pair(a4, self.not_a_subgroup(a4)).detail == "N is not a subgroup"
        for N in (trivial_subgroup(a4), ElementSet.whole(a4)):
            assert is_camina_pair(a4, N).detail == "N is not nontrivial proper"

    def test_cli_check_on_the_trivial_subgroup(self, capsys):
        assert run_cli(["check", "--group", "A4", "--subgroup-index", "0", "--condition", "f"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: condition (F) requires a nontrivial proper subgroup\n")


class TestConditionF:
    def test_s3_a3(self, s3):
        assert satisfies_F(s3, by_order(s3, 3)).holds

    def test_s3_transposition_witness(self, s3):
        v = satisfies_F(s3, by_order(s3, 2))
        assert not v.holds
        # the witness violates the defining clause when replayed
        cl = conjugacy_classes(s3)
        assert v.x not in by_order(s3, 2)
        assert cl.class_of[s3.mul(v.x, v.h)] != cl.class_of[v.x]

    def test_abelian_always_fails(self):
        for label in ["C4", "C6", "C2xC2", "C2xC4", "C3xC3"]:
            G = builtin(label).group()
            for H in subgroups(G):
                if 1 < len(H) < G.order:
                    assert not satisfies_F(G, H).holds, label

    def test_rejects_trivial_and_improper(self, s3):
        with pytest.raises(ValueError):
            satisfies_F(s3, trivial_subgroup(s3))
        with pytest.raises(ValueError):
            satisfies_F(s3, ElementSet.whole(s3))

    def test_a4_non_normal_pair(self, a4):
        # a non-normal order-2 subgroup of A4 satisfies (F): the empirical
        # answer to whether such pairs exist below the cap
        H = by_order(a4, 2)
        assert not H.is_normal()
        assert satisfies_F(a4, H).holds


class TestConditionFpm:
    def test_f_implies_fpm(self, s3, q8, a4):
        for G in (s3, q8, a4):
            for H in subgroups(G):
                if not 1 < len(H) < G.order:
                    continue
                if satisfies_F(G, H).holds:
                    assert satisfies_Fpm(G, H).holds

    def test_q8_center(self, q8):
        assert satisfies_Fpm(q8, by_order(q8, 2)).holds

    def test_s3_transposition_fails(self, s3):
        v = satisfies_Fpm(s3, by_order(s3, 2))
        assert not v.holds
        cl = conjugacy_classes(s3)
        c = cl.class_of[s3.mul(v.x, v.h)]
        assert c != cl.class_of[v.x]
        assert c != cl.inverse_class[cl.class_of[v.x]]

    def test_frob54_dihedral_subgroup(self):
        # the order-10 subgroup of Frob(5:4) is normal, satisfies F+-, and is
        # not nilpotent: the pair behind the theorem2 normal-H carve-out
        G = builtin("Frob(5:4)").group()
        H = by_order(G, 10)
        assert H.is_normal()
        assert satisfies_Fpm(G, H).holds


def ci_by_conjugated_rows(G, H):
    """(holds, witness detail) of (CI) by the Gram loop over the rows of Irr(G)
    restricted to the classes meeting H, their complex conjugates and their
    weighted sums: |H| [chi_i_H, chi_j_H] against |H|^2 [chi_i_H, 1_H][chi_j_H, 1_H]."""
    in_h = Counter(conjugacy_classes(G).class_of[h] for h in H.members)
    c = list(in_h.values())
    rows = [[chi.values[k] for k in in_h] for chi in character_table(G).irreducibles]
    conj_rows = [[v.conjugate() for v in row] for row in rows]
    trivial = [sum((v * n for v, n in zip(row, c)), Cyc.zero(1)).as_int() for row in rows]
    for i, row in enumerate(rows):
        for j in range(i + 1, len(rows)):
            gram = sum((v * w * n for v, w, n in zip(row, conj_rows[j], c)), Cyc.zero(1))
            if gram.as_int() * len(H) != trivial[i] * trivial[j]:
                return False, f"chi_index={i} and chi_index={j} share a nontrivial constituent on H"
    return True, None


class TestConditionCI:
    def test_s3_a3(self, s3):
        assert satisfies_CI(s3, by_order(s3, 3)).holds

    def test_s4_transposition_fails(self, s4):
        H = by_order(s4, 2)
        v = satisfies_CI(s4, H)
        assert not v.holds
        # replay: chi_i and chi_j restricted to H share a nontrivial constituent
        i, j = (int(k) for k in re.findall(r"chi_index=(\d+)", v.detail))
        irr = character_table(s4).irreducibles
        h_table = character_table(subgroup_table(s4, H)[0])
        a, b = (dict(decompose(restrict(s4, irr[k], H), h_table)) for k in (i, j))
        shared = [
            t
            for t, theta in enumerate(h_table.irreducibles)
            if a[t] and b[t] and not all(x == 1 for x in theta.values)
        ]
        assert shared

    def test_q8_center(self, q8):
        assert satisfies_CI(q8, by_order(q8, 2)).holds

    def test_matches_f_on_catalog(self):
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 24:
                continue
            for H in subgroups(G):
                if 1 < len(H) < G.order:
                    assert satisfies_CI(G, H).holds == satisfies_F(G, H).holds

    def test_matches_induction_definition(self):
        """Frobenius reciprocity against the definition: every nontrivial
        theta in Irr(H) is induced to G and decomposed in Irr(G)."""
        pairs = 0
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 48:
                continue
            for H in subgroups(G):
                if not 1 < len(H) < G.order:
                    continue
                thetas = character_table(subgroup_table(G, H)[0]).irreducibles
                expected = all(
                    is_homogeneous_induction(G, H, theta)[0]
                    for theta in thetas
                    if not all(x == 1 for x in theta.values)
                )
                assert satisfies_CI(G, H).holds == expected, (entry.label, H.members)
                pairs += 1
        assert pairs == 448

    def test_matches_conjugated_rows_on_catalog(self):
        """Verdict and witness against the Gram loop over conjugated rows, on
        every proper nontrivial pair of the builtin catalog."""
        pairs = holding = 0
        for entry in builtin_catalog():
            G = entry.group()
            for H in subgroups(G):
                if not 1 < len(H) < G.order:
                    continue
                v = satisfies_CI(G, H)
                got = (v.holds, None if v.holds else v.detail)
                assert got == ci_by_conjugated_rows(G, H), (entry.label, H.members)
                pairs += 1
                holding += v.holds
        assert (pairs, holding) == (745, 17)

    def test_no_complex_conjugation(self, s4, monkeypatch):
        # conj(chi(k)) is read as chi(k^-1); only the table's self-check conjugates
        character_table(s4)
        calls = []
        original = Cyc.conjugate

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Cyc, "conjugate", counted)
        verdicts = [satisfies_CI(s4, H).holds for H in subgroups(s4) if 1 < len(H) < s4.order]
        assert len(verdicts) == 28
        assert calls == []

    def test_cap_propagates(self, monkeypatch, s4):
        from camina.grouptable import CapExceeded

        monkeypatch.setattr(chartab, "CLASS_CAP", 4)
        with pytest.raises(CapExceeded):
            satisfies_CI(s4, by_order(s4, 4))


class TestConditionO:
    def test_s3_a3_vacuous(self, s3):
        assert satisfies_O(s3, by_order(s3, 3)).holds

    def test_s3_transposition_witness(self, s3):
        v = satisfies_O(s3, by_order(s3, 2))
        assert not v.holds
        assert s3.orders[v.x] % 2 == 1
        assert s3.orders[s3.mul(v.x, v.h)] % 2 == 0

    def test_two_group_vacuous(self, q8):
        for H in subgroups(q8):
            if len(H) < q8.order:
                assert satisfies_O(q8, H).holds

    def test_trivial_subgroup_allowed(self, s3):
        assert satisfies_O(s3, trivial_subgroup(s3)).holds

    def test_whole_group_rejected(self, s3):
        with pytest.raises(ValueError):
            satisfies_O(s3, ElementSet.whole(s3))

    def test_even_coset_restatement(self):
        # when (O) holds, even-order elements outside H have all-even cosets
        for label in ["S3", "S4", "A4", "Q8", "D6", "Frob(7:3)"]:
            G = builtin(label).group()
            for H in subgroups(G):
                if len(H) == G.order or not satisfies_O(G, H).holds:
                    continue
                for x in range(G.order):
                    if x in H or G.orders[x] % 2 == 1:
                        continue
                    for h in H.members:
                        assert G.orders[G.mul(x, h)] % 2 == 0


class TestEqualOrder:
    def test_q8_center_pair(self, q8):
        assert equal_order_coset(q8, by_order(q8, 2)).holds

    def test_s3_a3_pair(self, s3):
        assert equal_order_coset(s3, by_order(s3, 3)).holds

    def test_fpm_implies_equal_order_coset(self):
        for label in ["S3", "S4", "Q8", "A4", "Frob(5:4)", "D6"]:
            G = builtin(label).group()
            for H in subgroups(G):
                if not 1 < len(H) < G.order:
                    continue
                if satisfies_Fpm(G, H).holds:
                    assert equal_order_coset(G, H).holds

    def test_coset_variant_allows_non_normal(self, s3):
        assert not equal_order_coset(s3, by_order(s3, 2)).holds

    def test_witness_replay(self, s3):
        v = equal_order_coset(s3, by_order(s3, 2))
        assert s3.orders[s3.mul(v.x, v.h)] != s3.orders[v.x]

    def test_camina_witness_replay(self):
        G = builtin("C2xC2").group()
        N = by_order(G, 2)
        v = is_camina_pair(G, N)
        cl = conjugacy_classes(G)
        assert cl.class_of[G.mul(v.x, v.h)] != cl.class_of[v.x]


class TestDerangements:
    def test_normal_subgroup(self, s3):
        A3 = by_order(s3, 3)
        d = derangements(s3, A3)
        assert set(d.members) == set(range(s3.order)) - set(A3.members)

    def test_s3_transposition(self, s3):
        d = derangements(s3, by_order(s3, 2))
        assert len(d) == 2
        assert all(s3.orders[x] == 3 for x in d.members)

    def test_trivial_subgroup(self, s3):
        d = derangements(s3, trivial_subgroup(s3))
        assert d.members == tuple(range(1, s3.order))

    def test_closed_under_conjugation_and_inversion(self, s4):
        for H in subgroups(s4):
            if len(H) == s4.order:
                continue
            d = derangements(s4, H)
            members = set(d.members)
            for x in members:
                assert s4.inverse_ids[x] in members
                for g in s4.generator_ids:
                    assert s4.conj(x, g) in members

    def test_matches_union_of_conjugates(self):
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 24:
                continue
            for H in subgroups(G):
                if len(H) == G.order:
                    continue
                covered = {G.conj(h, g) for g in range(G.order) for h in H.members}
                assert set(derangements(G, H).members) == set(range(G.order)) - covered


class TestBsHypothesis:
    def test_identity_holds(self, s3):
        assert reference_bs_hypothesis(s3, 0, 2).holds

    def test_s3_three_cycle(self, s3):
        x = s3.index_of[(1, 2, 0)]
        assert reference_bs_hypothesis(s3, x, 3).holds

    def test_s3_transposition_fails(self, s3):
        x = s3.index_of[(1, 0, 2)]
        v = reference_bs_hypothesis(s3, x, 2)
        assert not v.holds
        assert s3.orders[v.h] % 2 == 1
        assert s3.orders[s3.mul(x, v.h)] % 2 == 0

    def test_rejects_non_p_element(self, s3):
        x = s3.index_of[(1, 2, 0)]
        with pytest.raises(ValueError):
            reference_bs_hypothesis(s3, x, 2)


class TestImplicationChain:
    def test_f_fpm_equal_order(self):
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 24:
                continue
            for H in subgroups(G):
                if not 1 < len(H) < G.order:
                    continue
                f = satisfies_F(G, H).holds
                fpm = satisfies_Fpm(G, H).holds
                eo = equal_order_coset(G, H).holds
                assert not f or fpm
                assert not fpm or eo

    def test_camina_equals_f_for_normal(self):
        for label in ["S3", "S4", "Q8", "A4", "D6", "Frob(7:3)", "C2xS3"]:
            G = builtin(label).group()
            for H in subgroups(G):
                if not 1 < len(H) < G.order or not H.is_normal():
                    continue
                assert is_camina_pair(G, H).holds == satisfies_F(G, H).holds


# sha256 of (label, subgroup index, condition, holds, witness) from (F), (F+-)
# and Camina on every nontrivial proper subgroup of the builtin groups and S5:
# 51 groups, 2,697 verdicts
CLASS_SCAN_VERDICTS_SHA256 = "a12595f312c265662d5b66ad9c731c78757ff850d32f64c0522fb2af15dae213"


class TestClassScanVerdictDigest:
    def test_verdicts_and_witnesses_are_pinned(self):
        digest, verdicts = hashlib.sha256(), 0
        for label in [e.label for e in builtin_catalog() if e.order <= 120] + ["S5"]:
            G = builtin(label).group()
            for idx, H in enumerate(subgroups(G)):
                if not 1 < len(H) < G.order:
                    continue
                for predicate in (satisfies_F, satisfies_Fpm, is_camina_pair):
                    v = predicate(G, H)
                    digest.update(repr((label, idx, v.condition, v.holds, None if v.holds else (v.x, v.h, v.detail))).encode())
                    verdicts += 1
        assert verdicts == 2697
        assert digest.hexdigest() == CLASS_SCAN_VERDICTS_SHA256


# sha256 of (label, subgroup index, condition, holds, witness) from (O) on
# every proper subgroup and equal orders on every nontrivial proper subgroup
# of the builtin groups of order at most 120 and S5: 1,849 verdicts
COSET_SCAN_VERDICTS_SHA256 = "65105ae3670c251d65ba1c63b9b31a876b61ce229553e5cc3838e4cb5bcdb9af"


class TestCosetScanVerdictDigest:
    def test_verdicts_and_witnesses_are_pinned(self):
        digest, verdicts = hashlib.sha256(), 0
        for label in [e.label for e in builtin_catalog() if e.order <= 120] + ["S5"]:
            G = builtin(label).group()
            for idx, H in enumerate(subgroups(G)):
                if len(H) >= G.order:
                    continue
                for predicate in (satisfies_O, equal_order_coset) if len(H) > 1 else (satisfies_O,):
                    v = predicate(G, H)
                    digest.update(repr((label, idx, v.condition, v.holds, None if v.holds else (v.x, v.h, v.detail))).encode())
                    verdicts += 1
        assert verdicts == 1849
        assert digest.hexdigest() == COSET_SCAN_VERDICTS_SHA256


def _first_failure(G, H, keeps, xs):
    """The definition as a plain double loop: the first (x, h) in element
    order, x in ``xs`` outside H, with keeps(x, x*h) false."""
    for x in xs:
        if x in H:
            continue
        for h in H.members:
            if not keeps(x, G.mul(x, h)):
                return x, h
    return None


class TestCosetScan:
    def test_first_witness_matches_double_loop(self):
        """Skipping passed cosets keeps every verdict and its first witness."""
        checked = 0
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 48:
                continue
            cls = conjugacy_classes(G)
            c, order = cls.class_of, G.orders
            odd = [x for x in range(G.order) if order[x] % 2]
            for H in subgroups(G):
                if not 1 < len(H) < G.order:
                    continue
                cases = [
                    (satisfies_F(G, H), lambda x, y: c[y] == c[x], range(G.order)),
                    (
                        satisfies_Fpm(G, H),
                        lambda x, y: c[y] in (c[x], cls.inverse_class[c[x]]),
                        range(G.order),
                    ),
                    (satisfies_O(G, H), lambda x, y: order[y] % 2 == 1, odd),
                    (equal_order_coset(G, H), lambda x, y: order[y] == order[x], range(G.order)),
                ]
                if H.is_normal():
                    cases.append((is_camina_pair(G, H), lambda x, y: c[y] == c[x], range(G.order)))
                for verdict, keeps, xs in cases:
                    expect = _first_failure(G, H, keeps, xs)
                    got = None if verdict.holds else (verdict.x, verdict.h)
                    assert got == expect, (entry.label, H.members, verdict.condition)
                    checked += 1
        assert checked > 1000

    SMALL = [e.label for e in builtin_catalog() if e.order <= 48]

    @staticmethod
    @functools.cache
    def group_and_subgroups(label):
        G = builtin(label).group()
        return G, [H for H in subgroups(G) if len(H) < G.order]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_labelling_matches_double_loop(self, data):
        """The coset skip is sound for every labelling, not only for the
        predicates' own: label equality on x*h is the whole contract."""
        G, proper = self.group_and_subgroups(data.draw(st.sampled_from(self.SMALL)))
        H = data.draw(st.sampled_from(proper))
        values = st.integers(0, data.draw(st.integers(0, 3)))
        if data.draw(st.booleans()):  # a labelling of the classes, read per element
            classes = conjugacy_classes(G)
            by_class = data.draw(st.lists(values, min_size=classes.count, max_size=classes.count))
            label = [by_class[c] for c in classes.class_of]
        else:
            label = data.draw(st.lists(values, min_size=G.order, max_size=G.order))
        xs = data.draw(st.none() | st.lists(st.integers(0, G.order - 1), max_size=2 * G.order))
        verdict = _coset_scan(G, H, "t", label, "d", xs)
        expect = _first_failure(G, H, lambda x, y: label[y] == label[x], range(G.order) if xs is None else xs)
        assert (None if verdict.holds else (verdict.x, verdict.h)) == expect
