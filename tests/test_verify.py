import functools
import importlib.util
import inspect
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import camina.chartab as chartab
import camina.grouptable as grouptable
import camina.structure as structure
import camina.verify as verify
from camina.catalog import builtin, builtin_catalog, parse_group_file
from camina.chartab import CharacterTable, character_table
from camina.conditions import F, FPM, _class_scan, derangements, satisfies_F, satisfies_Fpm
from camina.cyclotomic import Cyc
from camina.grouptable import CapExceeded, ElementSet, closure_indices, generate, quotient_table, subgroup_table
from camina.perm import Permutation
from camina.structure import (
    conjugacy_classes,
    is_subnormal,
    o_lower_p,
    p_part,
    prime_factors,
    subgroup_class_ids,
    subgroups,
)
from camina.verify import (
    LEMMA_CLAIMS,
    PASS,
    SKIPPED,
    VACUOUS,
    VIOLATION,
    Pair,
    report_key,
    summarize,
    sweep_single,
    verify_cor2,
    verify_covering,
    verify_pair_claim,
)
from reference import (
    conjugate,
    inner_product_int,
    reference_bs_hypothesis,
    reference_in_irr_given_N,
    reference_is_subnormal,
    reference_pair_reports,
    restrict,
    trivial_character,
)


def by_order(G, n, which=0):
    return [H for H in subgroups(G) if len(H) == n][which]


class TestTheorem1:
    def test_s3_a3_both_hold(self, s3):
        r = verify_pair_claim(s3, by_order(s3, 3), "theorem1")
        assert r.status == PASS
        assert r.details["f_holds"] and r.details["ci_holds"]

    def test_s3_transposition_both_fail(self, s3):
        r = verify_pair_claim(s3, by_order(s3, 2), "theorem1")
        assert r.status == PASS
        assert not r.details["f_holds"] and not r.details["ci_holds"]

    def test_q8_center(self, q8):
        r = verify_pair_claim(q8, by_order(q8, 2), "theorem1")
        assert r.status == PASS
        assert r.details["fired"]

    def test_skipped_on_cap(self, monkeypatch, s4):
        monkeypatch.setattr(chartab, "CLASS_CAP", 4)
        H = by_order(s4, 4)
        r = verify_pair_claim(s4, H, "theorem1", Pair(s4, H))
        assert r.status == SKIPPED

    def test_skipped_on_cap_keeps_the_nonnormal_f_count(self, monkeypatch):
        # (F) needs no character table: A4's three subgroups of order 2 satisfy
        # it and are not normal, which is lemma_e's hypothesis
        monkeypatch.setattr(chartab, "CLASS_CAP", 3)
        reports = sweep_single("A4", builtin("A4").group(), ["theorem1", "lemma_e"])
        theorem1 = [r for r in reports if r.claim == "theorem1"]
        assert len(theorem1) == 8 and {r.status for r in theorem1} == {SKIPPED}
        summary = summarize(reports)
        assert summary["claims"]["lemma_e"]["fired"] == 3
        assert summary["nonnormal_f_pairs"] == 3


class TestTheorem2:
    def test_q8_center(self, q8):
        r = verify_pair_claim(q8, by_order(q8, 2), "theorem2")
        assert r.status == PASS
        assert r.details["closure_nilpotent"]

    def test_s3_transposition_vacuous(self, s3):
        assert verify_pair_claim(s3, by_order(s3, 2), "theorem2").status == VACUOUS

    def test_s3_a3(self, s3):
        r = verify_pair_claim(s3, by_order(s3, 3), "theorem2")
        assert r.status == PASS
        assert r.details["n_order"] == 3

    def test_frob54_normal_carveout(self):
        # normal H = D5 in Frob(5:4): F+- holds, the closure is H itself and is
        # not nilpotent; the harness records the verdict without a violation
        G = builtin("Frob(5:4)").group()
        r = verify_pair_claim(G, by_order(G, 10), "theorem2")
        assert r.status == PASS
        assert r.details["h_normal"]
        assert r.details["fpm_on_closure"]
        assert not r.details["closure_nilpotent"]

    def test_normal_subgroup_reuses_fpm(self, monkeypatch):
        # H normal means N = H, so (F+-) on (G, N) is the pair's own (F+-)
        G = builtin("Frob(5:4)").group()
        H = by_order(G, 10)
        calls = Counter()
        original = verify.satisfies_Fpm

        def counted(G, H):
            calls[H.members] += 1
            return original(G, H)

        monkeypatch.setattr(verify, "satisfies_Fpm", counted)
        assert verify_pair_claim(G, H, "theorem2").status == PASS
        assert calls == {H.members: 1}

    def test_a4_non_normal_pair(self, a4):
        H = by_order(a4, 2)
        r = verify_pair_claim(a4, H, "theorem2")
        assert r.status == PASS
        assert not r.details["h_normal"]
        assert r.details["n_order"] == 4
        assert r.details["closure_nilpotent"]


class TestOddOrder:
    def test_s3_a3(self, s3):
        r = verify_pair_claim(s3, by_order(s3, 3), "odd_order")
        assert r.status == PASS
        assert r.details["h_solvable"]

    def test_a5_a4_scan(self, a5):
        H = by_order(a5, 12)
        r = verify_pair_claim(a5, H, "odd_order")
        assert r.status in (PASS, VACUOUS)

    def test_two_group(self, q8):
        for H in subgroups(q8):
            if len(H) < q8.order:
                assert verify_pair_claim(q8, H, "odd_order").status == PASS


class TestCor1:
    def test_q8_center(self, q8):
        r = verify_pair_claim(q8, by_order(q8, 2), "cor1")
        assert r.status == PASS and r.details["h_solvable"]

    def test_s3_transposition_vacuous(self, s3):
        assert verify_pair_claim(s3, by_order(s3, 2), "cor1").status == VACUOUS

    def test_s3_a3(self, s3):
        assert verify_pair_claim(s3, by_order(s3, 3), "cor1").status == PASS

    def test_non_solvable_branch(self, monkeypatch, s3):
        # Every H the builtin catalog offers is solvable; declaring H
        # non-solvable runs the structure checks of the other alternative.
        monkeypatch.setattr(verify, "is_solvable", lambda G, S=None: False)
        r = verify_pair_claim(s3, by_order(s3, 3), "cor1")
        assert r.status == PASS
        assert r.details["h_solvable"] is False
        for flag in ("o2_in_h_and_subnormal", "outside_all_2_elements", "normalizer_pair_equal_order"):
            assert r.details[flag] is True, flag
        c9 = builtin("C9").group()
        r = verify_pair_claim(c9, by_order(c9, 3), "cor1")
        assert r.status == VIOLATION
        assert r.details["o2_in_h_and_subnormal"] is False
        assert r.details["outside_all_2_elements"] is False


class TestCor2:
    def test_s3_p3_fires_for_three_cycles(self, s3):
        r = verify_cor2(s3, 3)
        assert r.status == PASS
        assert r.details["fired"] == 3  # identity and both 3-cycles
        assert r.details["o_p_order"] == 3

    def test_p_group(self, q8):
        r = verify_cor2(q8, 2)
        assert r.status == PASS
        assert r.details["fired"] == q8.order
        assert r.details["o_p_order"] == 8

    def test_a4_p2(self, a4):
        r = verify_cor2(a4, 2)
        assert r.status == PASS
        assert r.details["fired"] >= 4  # V4 satisfies the scan
        assert r.details["o_p_order"] == 4

    def test_non_dividing_prime_vacuous(self, s3):
        assert verify_cor2(s3, 5).status == VACUOUS


class TestLemmaSuite:
    def test_s3_a3_lemma_b(self, s3):
        r = verify_pair_claim(s3, by_order(s3, 3), "lemma_b")
        assert r.status == PASS
        assert r.details["center_in_h"] and r.details["h_in_derived"]

    def test_q8_center_lemma_j(self, q8):
        r = verify_pair_claim(q8, by_order(q8, 2), "lemma_j")
        assert r.status == PASS
        assert 2 in r.details["primes_with_all_outside_singular"]

    def test_normal_f_failing_pairs_vacuous(self, s4):
        V4 = next(H for H in subgroups(s4) if len(H) == 4 and H.is_normal())
        for claim in ("lemma_c", "lemma_d", "lemma_e", "lemma_f"):
            r = verify_pair_claim(s4, V4, claim)
            assert r.status == VACUOUS, claim

    def test_a4_non_normal_f_pair_full_suite(self, a4):
        H = by_order(a4, 2)
        for r in [verify_pair_claim(a4, H, claim) for claim in LEMMA_CLAIMS]:
            assert r.status in (PASS, VACUOUS), (r.claim, r.details)
            if r.claim in ("lemma_c", "lemma_e", "lemma_f", "lemma_g", "lemma_h", "lemma_m"):
                assert r.status == PASS, (r.claim, r.details)

    def test_suite_covers_all_lemmas(self, s3):
        H = by_order(s3, 3)
        rs = [verify_pair_claim(s3, H, claim) for claim in LEMMA_CLAIMS]
        assert [r.claim for r in rs] == list(LEMMA_CLAIMS)


class TestLemmaL:
    def test_character_sums_match_restriction(self):
        # Reference: [chi_H, 1_H] on H's own table, by restriction
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 60:
                continue
            irr = character_table(G).irreducibles
            class_of = conjugacy_classes(G).class_of
            for H in subgroups(G)[1:-1]:
                trivial_h = trivial_character(subgroup_table(G, H)[0])
                mults = [inner_product_int(restrict(G, chi, H), trivial_h) for chi in irr]
                for chi, m in zip(irr, mults):
                    assert sum((chi.values[class_of[h]] for h in H.members), Cyc.zero(1)) == len(H) * m
                pair = Pair(G, H)
                fires = not any(m for chi, m in zip(irr, mults) if reference_in_irr_given_N(chi, pair.N))
                status, _ = verify._lemma_l(pair)
                assert (status != VACUOUS) == fires, (entry.label, H.members)


class TestTableModP:
    def test_prime_bounds_the_integers_read_mod_p(self):
        # |H| [chi_i_H, chi_j_H] <= |G| chi_i(1) chi_j(1) < p, so each residue is the integer
        for entry in builtin_catalog():
            table = character_table(entry.group())
            p, X = table.mod_p
            assert p > entry.group().order * max(table.degree_sequence) ** 2, entry.label
            assert [row[0] for row in X] == [chi.values[0].as_int() for chi in table.irreducibles], entry.label

    def test_no_cyc_arithmetic_in_the_verdicts(self, monkeypatch):
        # (CI) and lemma_l sum residues; lemma_m and the kernels only compare values
        groups = [(e.label, e.group()) for e in builtin_catalog() if e.group().order <= 60]
        for _, G in groups:
            character_table(G)
        calls = []

        def counted(name):
            original = getattr(Cyc, name)
            return lambda self, other: calls.append(name) or original(self, other)

        for name in ("__mul__", "__rmul__", "__add__"):
            monkeypatch.setattr(Cyc, name, counted(name))
        for label, G in groups:
            assert sweep_single(label, G, list(verify.ALL_CLAIMS))
        assert calls == []


class TestClaim9AndCovering:
    def test_claim9_s3(self, s3):
        r = verify_pair_claim(s3, by_order(s3, 3), "claim9")
        assert r.status == PASS

    def test_covering_a5(self, a5):
        r = verify_covering(a5)
        assert r.status == PASS
        assert r.details["max_power_needed"] <= 10

    def test_covering_non_simple_vacuous(self, s4):
        assert verify_covering(s4).status == VACUOUS


class TestSubnormality:
    def test_normal_is_subnormal(self, s4):
        V4 = next(H for H in subgroups(s4) if len(H) == 4 and H.is_normal())
        assert is_subnormal(s4, V4)

    def test_sylow2_of_s4_subnormal_fails(self, s4):
        # the dihedral Sylow 2-subgroup is self-normalizing but not normal
        H = by_order(s4, 8)
        assert not is_subnormal(s4, H)

    def test_subgroup_of_nilpotent(self, q8):
        for H in subgroups(q8):
            assert is_subnormal(q8, H)

    @pytest.mark.parametrize("label", [e.label for e in builtin_catalog()] + ["S5"])
    def test_matches_lattice_search(self, label):
        # in S4 the normalizer chain of <(1,2)(3,4)> < V4 stops at a self-normalizing D8
        G = builtin(label).group()
        for H in subgroups(G):
            assert is_subnormal(G, H) == reference_is_subnormal(G, H), H.members


class TestSweep:
    def test_small_sweeps_have_no_violations(self, verify_builtin):
        reports = verify_builtin(24, ["theorem1"])
        s = summarize(reports)
        assert s["violations"] == 0
        assert s["claims"]["theorem1"]["fired"] > 0
        reports = verify_builtin(48, ["cor2"])
        assert summarize(reports)["violations"] == 0

    def test_violations_count_as_fired(self, monkeypatch):
        # a lemma's VIOLATION details carry no fired key, but its hypothesis
        # held: the fired count keeps every pair whose hypothesis held
        G = builtin("S4").group()
        fired = summarize(sweep_single("S4", G, ["lemma_k"]))["claims"]["lemma_k"]["fired"]
        hypothesis, _, trivial = verify.CLAIMS["lemma_k"]
        failing = (hypothesis, lambda pair: (VIOLATION, {"failure": "forced"}), trivial)
        monkeypatch.setitem(verify.CLAIMS, "lemma_k", failing)
        counts = summarize(sweep_single("S4", G, ["lemma_k"]))["claims"]["lemma_k"]
        assert fired > 0 and counts["PASS"] == 0
        assert counts["VIOLATION"] == counts["fired"] == fired

    def test_report_order_canonical(self, verify_builtin):
        reports = verify_builtin(12, ["theorem1", "theorem2"])
        keys = [(r.group_label, r.subgroup_index, r.claim) for r in reports]
        assert keys == sorted(keys)

    @staticmethod
    def assert_made_in_report_key_order(reports):
        # the same objects in the same order as a full sort by report_key
        assert list(map(id, reports)) == list(map(id, sorted(reports, key=report_key)))

    @pytest.mark.parametrize("label", [e.label for e in builtin_catalog()] + ["C64", "S5"])
    def test_sweep_single_makes_report_key_order(self, label):
        # the claims in a shuffled order: cor2's per-prime reports, covering
        # and the pair claims all come out in report_key order
        claims = list(verify.ALL_CLAIMS)
        random.Random(label).shuffle(claims)
        self.assert_made_in_report_key_order(sweep_single(label, builtin(label).group(), claims))

    def test_sweep_single_orders_group_reports_over_the_subgroup_cap(self, monkeypatch):
        # the SKIPPED pair claims share subgroup index -1 with cor2 and covering
        monkeypatch.setattr(structure, "SUBGROUP_CAP", 29)
        claims = list(verify.ALL_CLAIMS)[::-1]
        reports = sweep_single("S4", builtin("S4").group(), claims)
        assert {r.subgroup_index for r in reports} == {-1} and len(reports) == len(verify.PAIR_CLAIMS) + 3
        self.assert_made_in_report_key_order(reports)

    def test_replayable(self, s3):
        reports = sweep_single("S3", s3, ["theorem1", "odd_order"])
        G = builtin("S3").group()
        subs = subgroups(G)
        for r in reports:
            H = subs[r.subgroup_index]
            again = verify_pair_claim(G, H, r.claim)
            assert again.status == r.status
            assert again.details == r.details


class TestOneEvaluationPerPair:
    @pytest.mark.parametrize(
        "predicate, claims",
        [
            ("satisfies_CI", ["theorem1", "lemma_l", "lemma_m"]),
            ("satisfies_F", ["theorem1", "lemma_a", "lemma_b", "lemma_d", "lemma_e", "lemma_f"]),
        ],
    )
    def test_predicate_runs_once_per_pair(self, monkeypatch, a4, predicate, claims):
        calls = Counter()
        original = getattr(verify, predicate)

        def counted(G, H, *args, **kwargs):
            if G is a4:  # lemma_a also tests (F) on quotient pairs
                calls[H.members] += 1
            return original(G, H, *args, **kwargs)

        monkeypatch.setattr(verify, predicate, counted)
        assert len(sweep_single("A4", a4, claims)) == 8 * len(claims)
        # once on the first member of each class of nontrivial proper
        # subgroups: A4's 8 such subgroups lie in 3 of its 5 classes, and
        # every report of these claims is copied to the other members
        first = {}
        for H, cid in zip(subgroups(a4), subgroup_class_ids(a4)):
            if 1 < len(H) < a4.order:
                first.setdefault(cid, H.members)
        assert len(first) == 3 and calls == Counter(first.values()), calls

    def test_solvability_once_per_pair(self, monkeypatch):
        # odd_order and cor1 both read whether H is solvable
        calls = Counter()
        original = verify.is_solvable

        def counted(G, H=None):
            calls[id(G), H.members] += 1
            return original(G, H)

        monkeypatch.setattr(verify, "is_solvable", counted)
        groups = [(entry.label, entry.group()) for entry in builtin_catalog()]  # alive, so ids stay distinct
        for label, G in groups:
            sweep_single(label, G, ["odd_order", "cor1"])
        assert len(calls) == 226 and set(calls.values()) == {1}, calls

    @pytest.mark.parametrize("label", ["S4", "C2xA4", "S3xS3"])
    def test_lemma_k_reads_the_pairs_o_when_o2_is_h(self, monkeypatch, label):
        # (O) on O^2(H) is the pair's own (O) when O^2(H) = H, as for every H
        # of odd order, and otherwise the verdict kept on G for O^2(H),
        # scanned by whichever pair or lemma_k read it first: no subgroup of
        # G is scanned for (O) twice
        calls = Counter()
        original = verify.satisfies_O

        def counted(G, H):
            calls[H.members] += 1
            return original(G, H)

        monkeypatch.setattr(verify, "satisfies_O", counted)
        G = builtin(label).group()
        scanned, fired = set(), Counter()
        for H in subgroups(G):
            if 1 < len(H) < G.order:
                pair = Pair(G, H)
                verify_pair_claim(G, H, "lemma_k", pair)
                scanned.add(H.members)
                if pair.O.holds:
                    o2 = pair.o_upper(2).members
                    scanned.add(o2)
                    fired[o2 == H.members] += 1
        assert calls == Counter(scanned), (label, calls)
        assert fired[True] and fired[False], fired

    def test_builtin_sweep_scans_o_once_per_subgroup(self, monkeypatch):
        # The builtin sweep's pairs and lemma_k read (O) on 729 distinct
        # (G, member tuple) pairs, each scanned once: 853 scans when lemma_k
        # scanned O^2(H) afresh.  The report file is pinned by
        # BUILTIN_SWEEP_SHA256 in test_reports_cli.py.
        calls = Counter()
        original = verify.satisfies_O

        def counted(G, H):
            calls[id(G), H.members] += 1
            return original(G, H)

        monkeypatch.setattr(verify, "satisfies_O", counted)
        groups = [(entry.label, entry.group()) for entry in builtin_catalog()]  # alive, so ids stay distinct
        for label, G in groups:
            sweep_single(label, G, list(verify.ALL_CLAIMS))
        assert len(calls) == 729 and set(calls.values()) == {1}, (len(calls), sum(calls.values()))

    def test_ci_over_cap_is_never_evaluated(self, monkeypatch, s4):
        # the class cap is checked before (CI): every report that reads (CI)
        # is SKIPPED, and each read of Pair.CI raises the cap again
        monkeypatch.setattr(verify, "satisfies_CI", lambda G, H: pytest.fail("(CI) evaluated over the cap"))
        monkeypatch.setattr(chartab, "CLASS_CAP", 3)
        reason = "character table class cap exceeded (reached 5)"
        reports = sweep_single("S4", s4, ["theorem1", "lemma_l", "lemma_m"])
        assert len(reports) == 28 * 3
        assert {(r.status, r.details["reason"]) for r in reports} == {(SKIPPED, reason)}
        pair = Pair(s4, by_order(s4, 4))
        for _ in range(2):
            with pytest.raises(CapExceeded) as exc:
                pair.CI
            assert str(exc.value) == reason

    def test_sweep_builds_one_character_table(self, monkeypatch):
        # (CI) reads Irr(G) only: no subgroup gets a table of its own
        builds = []
        original = chartab._simultaneous_eigenvectors

        def counted(*args):
            builds.append(args)
            return original(*args)

        monkeypatch.setattr(chartab, "_simultaneous_eigenvectors", counted)
        reports = sweep_single("S4", builtin("S4").group(), list(verify.ALL_CLAIMS))
        assert not any(r.status == SKIPPED for r in reports)
        assert len(builds) == 1

    def test_sweep_conj_and_mul_budget(self, monkeypatch, table_reads):
        # Normality and the lattice's conjugates read the generator maps of
        # the class partition, one G.conj per (element, generator) of each
        # group; the remaining calls come from normal closures and lemma_f.
        # Every product, through G.mul, G.conj or a closure's direct row
        # reads, is a read of the Cayley table.
        conj_calls, reads = [0], 0
        original = grouptable.GroupTable.conj

        def counted(self, a, b):
            conj_calls[0] += 1
            return original(self, a, b)

        monkeypatch.setattr(grouptable.GroupTable, "conj", counted)
        for entry in builtin_catalog():
            G = entry.group()
            group_reads = table_reads(G)
            assert sweep_single(entry.label, G, list(verify.ALL_CLAIMS))
            reads += sum(group_reads.values())
        assert conj_calls[0] <= 3_000 and reads <= 140_000, (conj_calls, reads)

    def test_no_subgroup_table_and_o_upper_once_per_prime(self, monkeypatch):
        # Facts about H are computed inside G: H gets no table of its own,
        # and O^p(H) is computed once per (pair, prime).
        tables, o_upper = [], Counter()
        original_table, original_o_upper = grouptable.subgroup_table, structure.o_upper_p

        def counted_table(*args):
            tables.append(args)
            return original_table(*args)

        def counted_o_upper(*args):
            o_upper[args] += 1
            return original_o_upper(*args)

        for module in [m for name, m in sys.modules.items() if name.startswith("camina.")]:
            for attr, wrapper in (("subgroup_table", counted_table), ("o_upper_p", counted_o_upper)):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, wrapper)
        sweep_single("S4", builtin("S4").group(), list(verify.ALL_CLAIMS))
        assert len(tables) == 0
        # lemma_j on the first member of each of the 9 classes of nontrivial
        # proper subgroups for p = 2, 3; odd_order on H = 1.  No report that
        # needs O^p(H) is evaluated again on a conjugate.
        assert sum(o_upper.values()) == 19 and set(o_upper.values()) == {1}, o_upper


# D20xC3xC2 has 78 classes, over the class cap: its theorem1, lemma_l and
# lemma_m reports are SKIPPED
PER_CLASS_LABELS = [e.label for e in builtin_catalog()] + ["S5", "S4xC2", "D20xC3xC2"]


class TestOneEvaluationPerClass:
    """Pair claims run on the first member of each conjugacy class of
    subgroups; the other members get copies of its transferable reports."""

    @pytest.mark.parametrize("label", PER_CLASS_LABELS)
    def test_reports_equal_per_subgroup_reference(self, label):
        claims = list(verify.PAIR_CLAIMS)
        reports = sweep_single(label, builtin(label).group(), claims)
        assert reports == reference_pair_reports(label, builtin(label).group(), sorted(claims))

    def test_evaluations_are_class_firsts_plus_reruns(self, monkeypatch):
        calls = [0]
        original = verify.verify_pair_claim

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "verify_pair_claim", counted)
        totals = Counter()
        for label in PER_CLASS_LABELS:
            G = builtin(label).group()
            calls[0] = 0
            reports = sweep_single(label, G, list(verify.PAIR_CLAIMS))
            first = {}
            for idx, cid in enumerate(subgroup_class_ids(G)):
                first.setdefault(cid, idx)
            firsts = set(first.values())
            on_first = sum(r.subgroup_index in firsts for r in reports)
            reruns = sum(r.subgroup_index not in firsts and not verify.transferable(r) for r in reports)
            assert calls[0] == on_first + reruns, label
            totals.update(reports=len(reports), on_first=on_first, reruns=reruns)
        # 10,573 evaluations for 24,388 reports; D20xC3xC2's SKIPPED reports
        # are copied to conjugates, so its 6,374 reports take 2,646
        assert totals == Counter(reports=24_388, on_first=7_918, reruns=2_655), totals

    def test_transferable(self):
        def report(status, details):
            return verify.VerificationReport("G", 6, 1, 2, "theorem2", status, details)

        assert verify.transferable(report(PASS, {"fired": True, "n_order": 3}))
        assert verify.transferable(report(VACUOUS, {"fired": False}))
        assert not verify.transferable(report(VACUOUS, {"fpm_witness": {"x": 1, "h": 3, "detail": "d"}}))
        assert not verify.transferable(report(VIOLATION, {"failure": "normal closure is the whole group"}))
        assert verify.transferable(report(SKIPPED, {"reason": "cap"}))
        assert verify.transferable(report(SKIPPED, {"f_holds": False, "h_normal": True, "reason": "cap"}))
        assert not verify.transferable(report(VACUOUS, {"o_witness": {"x": 1, "h": 3, "detail": "d"}}))


class TestTracedHooks:
    """The traced benchmark wraps these names; renaming one silently zeroes
    its per-layer metrics."""

    def test_wrapped_names_exist(self):
        import camina.reports as reports

        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("perfbench_spans", root / "perfbench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        extra = [
            (structure, "subgroups"),
            (chartab, "character_table"),
            (reports, "load_chartab"),
            (verify, "verify_pair_claim"),
        ]
        for module, attr in [(m, a) for m, a, _ in spans.SPANS] + extra:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        for cls, attr in spans.COUNTED:
            assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
        # one verify.claim.<claim>_s metric per claim, named from verify.ALL_CLAIMS
        per_layer = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
        prefix = "verify.claim."
        claims = {m["name"][len(prefix) : -len("_s")] for m in per_layer if m["name"].startswith(prefix)}
        assert claims == set(verify.ALL_CLAIMS)

    def test_pair_claim_signature(self):
        params = list(inspect.signature(verify.verify_pair_claim).parameters)
        assert params[:3] == ["G", "H", "claim"]


class TestSubgroupCap:
    def test_every_pair_claim_skipped(self, monkeypatch):
        monkeypatch.setattr(structure, "SUBGROUP_CAP", 29)
        reports = sweep_single("S4", builtin("S4").group(), list(verify.PAIR_CLAIMS))
        assert [r.claim for r in reports] == sorted(verify.PAIR_CLAIMS)
        assert {(r.status, r.subgroup_index, r.details["reason"]) for r in reports} == {
            (SKIPPED, -1, "subgroup cap exceeded (reached 29)")
        }


class TestClassCap:
    def test_only_the_claims_that_read_irr_g_are_skipped(self):
        # C64's 64 classes are over the class cap of 60: theorem1, lemma_l
        # and lemma_m read Irr(G), on each nontrivial proper subgroup
        reports = sweep_single("C64", builtin("C64").group(), list(verify.ALL_CLAIMS))
        skipped = {(r.subgroup_index, r.claim): r.details["reason"] for r in reports if r.status == SKIPPED}
        assert skipped == {
            (i, c): "character table class cap exceeded (reached 64)"
            for i in range(1, 6)
            for c in ("theorem1", "lemma_l", "lemma_m")
        }
        trivial_ok = [c for c in verify.PAIR_CLAIMS if verify.CLAIMS[c][2]]
        evaluated = (
            [(-1, c) for c in verify.GROUP_CLAIMS]
            + [(0, c) for c in trivial_ok]
            + [(i, c) for i in range(1, 6) for c in verify.PAIR_CLAIMS]
        )
        assert sorted((r.subgroup_index, r.claim) for r in reports) == sorted(evaluated)


# --- element-by-element references for the class-representative claims ------


def small_groups(max_order=60):
    return [(e.label, e.group()) for e in builtin_catalog() if e.group().order <= max_order]


def proper_nontrivial_pairs(max_order=60):
    return [(label, G, H) for label, G in small_groups(max_order) for H in subgroups(G) if 1 < len(H) < G.order]


def delta_classes(G, H):
    class_of = conjugacy_classes(G).class_of
    return sorted({class_of[x] for x in derangements(G, H).members})


def elementwise_lemma_h(pair):
    G, N = pair.G, pair.N
    classes = conjugacy_classes(G)
    deltas = delta_classes(G, pair.H)
    for cid in deltas:
        members = classes.members(cid)
        allowed = set(members) | set(classes.members(classes.inverse_class[cid]))
        for k in members:
            for n in N.members:
                if G.mul(k, n) not in allowed:
                    return VIOLATION, {"class_rep": classes.reps[cid], "k": k, "n": n, "failure": "K*N escapes K union K^-1"}
    return PASS, {"derangement_classes_checked": len(deltas)}


def elementwise_lemma_c(pair):
    G, H, N = pair.G, pair.H, pair.N
    class_of = conjugacy_classes(G).class_of
    meets = {class_of[h] for h in H.members}
    union = tuple(x for x in range(G.order) if class_of[x] in meets)
    ok = union == N.members and 1 < len(N) < G.order
    return (PASS if ok else VIOLATION), {"n_order": len(N), "union_size": len(union)}


def elementwise_claim9(pair):
    G, H = pair.G, pair.H
    classes = conjugacy_classes(G)
    deltas = delta_classes(G, H)
    h_class_ids = sorted({classes.class_of[h] for h in H.members})
    for did in deltas:
        x_odd = G.element_order(classes.reps[did]) % 2 == 1
        for cid in h_class_ids:
            product = sorted({G.mul(a, b) for a in classes.members(did) for b in classes.members(cid)})
            for z in product:
                if (G.element_order(z) % 2 == 1) != x_odd:
                    z_parity, x_parity = ("even", "odd") if x_odd else ("odd", "even")
                    return VIOLATION, {
                        "derangement_class_rep": classes.reps[did],
                        "h_class_rep": classes.reps[cid],
                        "z": z,
                        "failure": f"{z_parity} order element in x^G y^G with x {x_parity}",
                    }
    return PASS, {"class_pairs_checked": len(deltas) * len(h_class_ids)}


def elementwise_lemma_j(pair):
    G, H = pair.G, pair.H
    outside = [x for x in range(G.order) if x not in H]
    fired = []
    for p in prime_factors(G.order):
        lhs = all(G.element_order(x) % p == 0 for x in outside)
        op = pair.o_upper(p)
        rhs = op.is_normal() and p_part(G.order // len(op), p) == G.order // len(op)
        if lhs:
            fired.append(p)
        if lhs != rhs:
            return VIOLATION, {"p": p, "all_outside_p_singular": lhs, "o_p_normal_with_p_quotient": rhs}
    return PASS, {"fired": bool(fired), "primes_with_all_outside_singular": fired}


def elementwise_cor2(G, p):
    opg = o_lower_p(G, p)
    fired = 0
    for x in range(G.order):
        ox = G.element_order(x)
        if p_part(ox, p) == ox and reference_bs_hypothesis(G, x, p).holds:
            fired += 1
            if x not in opg:
                return VIOLATION, {"p": p, "x": x, "detail": "hypothesis fires but x is outside O_p(G)"}
    return PASS, {"p": p, "fired": fired, "o_p_order": len(opg)}


def elementwise_covering(G):
    classes = conjugacy_classes(G)
    max_m = 0
    for cid in range(1, classes.count):
        current = frozenset(classes.members(cid))
        seen = set()
        m = 1
        while len(current) < G.order:
            if current in seen:
                failure = f"C^m repeats at m = {m} without reaching G"
                return VIOLATION, {"class_rep": classes.reps[cid], "failure": failure}
            seen.add(current)
            current = frozenset(G.mul(s, d) for s in current for d in classes.members(cid))
            m += 1
        max_m = max(max_m, m)
    return PASS, {"fired": True, "max_power_needed": max_m}


class TestClassRepresentativesMatchElementwise:
    """Claims that read one representative per class agree with their
    element-by-element definitions on the builtin groups of order <= 60,
    and on some larger groups."""

    def test_lemma_c_lemma_h_and_claim9_checks(self):
        pairs = proper_nontrivial_pairs()
        assert len(pairs) == 505
        statuses = Counter()
        for label, G, H in pairs:
            pair = Pair(G, H)
            got = verify._lemma_h(pair)
            assert got == elementwise_lemma_h(pair), (label, H.members)
            assert verify._claim9(pair) == elementwise_claim9(pair), (label, H.members)
            assert verify._lemma_c(pair) == elementwise_lemma_c(pair), (label, H.members)
            statuses[got[0]] += 1
        assert statuses[VIOLATION] > 0 and statuses[PASS] > 0

    def test_claim9_and_lemma_h(self):
        # every builtin group, and S5 and S4xC2 beyond order 60
        labels = [e.label for e in builtin_catalog()] + ["S5", "S4xC2"]
        groups = [(label, builtin(label).group()) for label in labels]
        statuses = Counter()
        for label, G in groups:
            for H in subgroups(G):
                if 1 < len(H) < G.order:
                    pair = Pair(G, H)
                    got = verify._claim9(pair)
                    assert got == elementwise_claim9(pair), (label, H.members)
                    statuses["claim9", got[0]] += 1
                    got = verify._lemma_h(pair)
                    assert got == elementwise_lemma_h(pair), (label, H.members)
                    statuses["lemma_h", got[0]] += 1
        assert all(statuses[claim, status] > 0 for claim in ("claim9", "lemma_h") for status in (PASS, VIOLATION))

    def test_lemma_j(self):
        fired = 0
        for label, G, H in proper_nontrivial_pairs():
            pair = Pair(G, H)
            got = verify._lemma_j(pair)
            assert got == elementwise_lemma_j(pair), (label, H.members)
            fired += got[1]["fired"]
        assert fired > 0

    def test_cor2_and_covering(self, monkeypatch):
        # the builtin groups of order <= 60, and S5, A6, S4xC2 and D20xC3xC2
        # beyond it, D20xC3xC2 over the class cap
        extra = [(label, builtin(label).group()) for label in ("S5", "A6", "S4xC2", "D20xC3xC2")]
        for label, G in small_groups() + extra:
            for p in prime_factors(G.order):
                r = verify_cor2(G, p)
                assert (r.status, r.details) == elementwise_cor2(G, p), (label, p)
        # A5 is the one simple builtin group; A6 is simple too
        for label in ("A5", "A6"):
            G = builtin(label).group()
            r = verify_covering(G)
            assert r.status == PASS and (r.status, r.details) == elementwise_covering(G), label
        # S3 is not simple: the powers of its transpositions alternate between
        # the transpositions and A3, which reaches the VIOLATION branch
        s3 = builtin("S3").group()
        monkeypatch.setattr(verify, "is_simple", lambda G: True)
        r = verify_covering(s3)
        assert r.status == VIOLATION and (r.status, r.details) == elementwise_covering(s3)

    def test_quotient_verdicts_match_quotient_tables(self):
        # every (G, H, M) with M normal and M < H < G
        triples = Counter()
        for label, G in small_groups():
            subs = subgroups(G)
            normals = [M for M in subs if M.is_normal()]
            for H in subs:
                if not 1 < len(H) < G.order:
                    continue
                for M in normals:
                    if len(M) == len(H) or not all(m in H for m in M.members):
                        continue
                    Q, proj = quotient_table(G, M)
                    HQ = ElementSet(Q, (proj[h] for h in H.members))
                    for plus_minus, reference in ((False, satisfies_F), (True, satisfies_Fpm)):
                        got = _class_scan(G, H, FPM if plus_minus else F, M)
                        want = reference(Q, HQ)
                        assert got.holds == want.holds, (label, H.members, M.members, plus_minus)
                        triples[plus_minus, got.holds] += 1
                        if not got.holds:  # the witness is in G's indices and replays in G/M
                            x, h = got.x, got.h
                            q_class = conjugacy_classes(Q).class_of
                            image = q_class[proj[G.mul(x, h)]]
                            conjugates = {q_class[proj[x]]}
                            if plus_minus:
                                conjugates.add(q_class[proj[G.inv(x)]])
                            assert x not in H and h in H and image not in conjugates
        # both verdicts of both conditions occur
        assert all(triples[pm, holds] for pm in (False, True) for holds in (False, True)), triples


class TestIrrGivenNOncePerPair:
    def test_a4_non_normal_order_two(self, monkeypatch):
        # (CI) holds on these pairs, so lemma_l and lemma_m both read
        # Irr(G|N); it is read off the rows' kernel class sets, which are
        # built once per table, not once per pair or claim.
        G = builtin("A4").group()
        builds = []
        original = CharacterTable.kernels.func

        def counted(table):
            builds.append(table)
            return original(table)

        kernels = functools.cached_property(counted)
        kernels.__set_name__(CharacterTable, "kernels")
        monkeypatch.setattr(CharacterTable, "kernels", kernels)
        subs = [H for H in subgroups(G) if len(H) == 2]
        assert len(subs) == 3
        for H in subs:
            pair = Pair(G, H)
            for claim in ("lemma_l", "lemma_m"):  # each runs its check, not only its hypothesis
                assert set(verify_pair_claim(G, H, claim, pair).details) != {"fired"}
            assert pair.CI.holds and not pair.normal
            rows = character_table(pair.G).irreducibles
            assert len(rows) == 4 and pair.irr_given_n == [i for i, chi in enumerate(rows) if reference_in_irr_given_N(chi, pair.N)]
        assert len(builds) == 1


class TestLemmaMWitness:
    @pytest.mark.parametrize("label", ["S4", "D6", "D10", "Q16", "C2xA4", "A5"])
    def test_witness_is_the_first_failing_pair(self, monkeypatch, label):
        # with its (CI) hypothesis dropped, lemma_m fails on non-normal pairs;
        # its witness is the first (x, h) in element order, x first, with x
        # in N - H, h in H and some chi in Irr(G|N) taking other values at x
        # and x*h, and a pair with no such (x, h) passes
        hypothesis, check, trivial = verify.CLAIMS["lemma_m"]
        monkeypatch.setitem(verify.CLAIMS, "lemma_m", (lambda pair: not pair.normal, check, trivial))
        G = builtin(label).group()
        class_of = conjugacy_classes(G).class_of
        subs = subgroups(G)
        reports = [r for r in sweep_single(label, G, ["lemma_m"]) if r.status != VACUOUS]
        assert any(r.status == VIOLATION for r in reports)
        for r in reports:
            H = subs[r.subgroup_index]
            N = Pair(G, H).N
            irr = [chi.values for chi in character_table(G).irreducibles if reference_in_irr_given_N(chi, N)]
            pairs = ((x, h) for x in N.members if x not in H for h in H.members)
            first = next(((x, h) for x, h in pairs if any(chi[class_of[x]] != chi[class_of[G.mul(x, h)]] for chi in irr)), None)
            if first is None:
                assert r.status == PASS, (label, r.subgroup_index)
            else:
                assert r.status == VIOLATION and (r.details["x"], r.details["h"]) == first, (label, r.subgroup_index)


ISOMORPHIC_ENTRIES = [
    ("D6", "C2xS3"),
    ("C6", "C2xC3"),
    ("C12", "C4xC3"),
    ("D10", "C2xD5"),
    ("S3", "D3"),
]
RELABEL_ENTRIES = [e.label for e in builtin_catalog() if e.group().order <= 24]
_SUMMARIES: dict = {}
_FACTS: dict = {}


def claim_summary(G):
    return summarize(sweep_single("G", G, list(verify.ALL_CLAIMS)))


def group_facts(label, G):
    """Everything a change of generators must leave identical, element indices included."""
    classes = conjugacy_classes(G)
    return (
        G.elements,
        (classes.class_of, classes.reps, classes.sizes, classes.inverse_class, classes.member_lists),
        [chi.values for chi in character_table(G).irreducibles],
        [H.members for H in subgroups(G)],
        sweep_single(label, G, list(verify.ALL_CLAIMS)),
    )


def builtin_facts(label):
    if label not in _FACTS:
        _FACTS[label] = group_facts(label, builtin(label).group())
    return _FACTS[label]


def builtin_summary(label):
    if label not in _SUMMARIES:
        _SUMMARIES[label] = claim_summary(builtin(label).group())
    return _SUMMARIES[label]


class TestMetamorphicVerdicts:
    """Every claim's status and fired counts, and the non-normal (F) count,
    are invariants of the abstract group."""

    @pytest.mark.parametrize("a,b", ISOMORPHIC_ENTRIES)
    def test_isomorphic_entries(self, a, b):
        assert builtin(a).group().order == builtin(b).group().order
        assert builtin_summary(a) == builtin_summary(b)

    def test_regular_representation(self):
        # Frob(5:4) acting on itself by left multiplication, on 20 points
        F = builtin("Frob(5:4)").group()
        gens = [Permutation([F.mul(g, x) for x in range(F.order)]) for g in F.generator_ids]
        G = generate(F.order, gens)
        assert (G.order, G.degree) == (20, 20)
        assert claim_summary(G) == builtin_summary("Frob(5:4)")

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(RELABEL_ENTRIES), st.randoms(use_true_random=False))
    def test_point_relabelling(self, label, rng):
        entry = builtin(label)
        points = list(range(entry.degree))
        rng.shuffle(points)
        sigma = Permutation(points)
        G = generate(entry.degree, [conjugate(g, sigma) for g in entry.generators])
        assert claim_summary(G) == builtin_summary(label)

    @pytest.mark.parametrize("label", RELABEL_ENTRIES)
    @settings(max_examples=3, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_generator_change(self, label, rng):
        # generate sorts the elements, so any generating set gives the same indices
        F = builtin(label).group()
        order = list(range(F.order))
        rng.shuffle(order)
        ids, span = [], {0}
        for x in order:  # a random generating set: each new element enlarges the span
            if x not in span:
                ids.append(x)
                span = set(closure_indices(F, ids))
        redundant = F.mul(rng.choice(ids or [0]), rng.choice(ids or [0]))
        ids.insert(rng.randrange(len(ids) + 1), redundant)
        G = generate(F.degree, [Permutation(F.elements[i]) for i in ids])
        assert group_facts(label, G) == builtin_facts(label)


class TestForcedBranches:
    """Branches that no catalog group reaches, each forced by replacing a
    name that ``verify`` reads.  Each such test makes its group fresh, so
    nothing a replaced name returns is kept on a shared group."""

    @staticmethod
    def fired(report):
        summary = summarize([report])
        return summary["claims"][report.claim]["fired"] == 1 and summary["violations"] == 1

    @staticmethod
    def replays(G, S, witness, keeps):
        """The witness {x, h} of subgroup S: x outside S, h in S, and
        ``keeps(x, x*h)`` false."""
        x, h = witness["x"], witness["h"]
        return x not in S and h in S and not keeps(x, G.mul(x, h))

    @staticmethod
    def conjugate_to(G, or_inverse=False):
        """The clause of (F) on (x, x*h), or of (F+-) when ``or_inverse``."""
        label, inv = conjugacy_classes(G).class_of, G.inverse_ids
        return lambda x, y: label[y] == label[x] or (or_inverse and label[y] == label[inv[x]])

    def test_theorem1_violation(self, monkeypatch):
        # (F) fails on S3's transposition pair; (CI) is declared to hold
        G = builtin("S3").group()
        H = by_order(G, 2)
        monkeypatch.setattr(verify, "satisfies_CI", lambda G, H: verify.ConditionVerdict(True, "CI"))
        r = verify_pair_claim(G, H, "theorem1")
        assert r.status == VIOLATION
        assert set(r.details) == {"f_holds", "ci_holds", "fired", "h_normal", "f_witness", "ci_witness"}
        assert (r.details["f_holds"], r.details["ci_holds"], r.details["ci_witness"]) == (False, True, None)
        assert self.fired(r)
        assert self.replays(G, H, r.details["f_witness"], self.conjugate_to(G))

    def test_theorem2_closure_is_the_whole_group(self, monkeypatch):
        G = builtin("S3").group()
        monkeypatch.setattr(verify, "normal_closure", lambda G, H: ElementSet.whole(G))
        r = verify_pair_claim(G, by_order(G, 3), "theorem2")
        assert r.status == VIOLATION
        assert r.details == {"n_order": 6, "fired": True, "h_normal": True, "failure": "normal closure is the whole group"}
        assert self.fired(r)

    def test_theorem2_closure_loses_fpm(self, monkeypatch):
        # A4's non-normal pair of order 2 keeps (F+-); its closure is declared
        # to be a subgroup of order 3, on which (F+-) fails
        G = builtin("A4").group()
        H, C3 = by_order(G, 2), by_order(G, 3)
        monkeypatch.setattr(verify, "normal_closure", lambda G, H: C3)
        r = verify_pair_claim(G, H, "theorem2")
        assert r.status == VIOLATION
        assert set(r.details) == {"n_order", "fired", "h_normal", "fpm_on_closure", "closure_nilpotent", "fpm_witness"}
        assert (r.details["n_order"], r.details["fpm_on_closure"], r.details["closure_nilpotent"]) == (3, False, True)
        assert self.fired(r)
        assert self.replays(G, C3, r.details["fpm_witness"], self.conjugate_to(G, or_inverse=True))

    def test_theorem2_closure_not_nilpotent(self, monkeypatch):
        G = builtin("A4").group()
        monkeypatch.setattr(verify, "is_nilpotent", lambda G, S=None: False)
        r = verify_pair_claim(G, by_order(G, 2), "theorem2")
        assert r.status == VIOLATION
        assert r.details["fpm_on_closure"] and not r.details["closure_nilpotent"] and not r.details["h_normal"]
        assert r.details["fpm_witness"] is None
        assert self.fired(r)

    def test_cor1_self_normalizing(self, monkeypatch):
        # equal orders hold on S3's cosets of A3; H is declared non-solvable
        # and its own normalizer, so (N_G(H), H) has no coset to check
        G = builtin("S3").group()
        H = by_order(G, 3)
        monkeypatch.setattr(verify, "is_solvable", lambda G, S=None: False)
        monkeypatch.setattr(verify, "normalizer", lambda G, H: H)
        r = verify_pair_claim(G, H, "cor1")
        assert r.status == VIOLATION
        assert r.details["normalizer_pair_equal_order"] is False
        assert r.details["c_witness"] == {"detail": "H is self-normalizing"}
        assert self.fired(r)

    def test_cor2_violation(self, monkeypatch):
        # O_3(S3) is declared trivial: the 3-cycles fire and lie outside it
        G = builtin("S3").group()
        monkeypatch.setattr(verify, "o_lower_p", lambda G, p: ElementSet(G, (0,)))
        r = verify_cor2(G, 3)
        assert r.status == VIOLATION
        assert set(r.details) == {"p", "x", "detail"}
        x = r.details["x"]
        assert G.element_order(x) == 3 and reference_bs_hypothesis(G, x, 3).holds
        assert self.fired(r)

    @pytest.mark.parametrize("claim, label, h_order, m_order", [("lemma_a", "S3", 3, 2), ("lemma_g", "A4", 2, 3)])
    def test_normal_subgroup_not_below_h(self, monkeypatch, claim, label, h_order, m_order):
        # a subgroup M that does not contain H is declared G's one normal subgroup
        G = builtin(label).group()
        M = by_order(G, m_order)
        monkeypatch.setattr(verify, "normal_subgroups", lambda G: [M])
        r = verify_pair_claim(G, by_order(G, h_order), claim)
        assert r.status == VIOLATION
        assert r.details == {"m_order": m_order, "failure": "M is not properly below H"}
        assert self.fired(r)

    def test_lemma_j_violation(self, monkeypatch):
        # O^p(A3) is declared trivial: S3's 2-regular elements all lie in A3,
        # but G over the trivial subgroup is no 2-group
        G = builtin("S3").group()
        monkeypatch.setattr(verify, "o_upper_p", lambda G, p, H=None: ElementSet(G, (0,)))
        r = verify_pair_claim(G, by_order(G, 3), "lemma_j")
        assert r.status == VIOLATION
        assert r.details == {"p": 2, "all_outside_p_singular": True, "o_p_normal_with_p_quotient": False}
        assert self.fired(r)

    def test_lemma_k_witness(self, monkeypatch):
        # (O) holds on S3's pair with A3; O^2(A3) is declared a transposition
        # subgroup, on which (O) fails
        G = builtin("S3").group()
        C2 = by_order(G, 2)
        monkeypatch.setattr(verify, "o_upper_p", lambda G, p, H=None: C2)
        r = verify_pair_claim(G, by_order(G, 3), "lemma_k")
        assert r.status == VIOLATION
        assert set(r.details) == {"o2_order", "o_on_o2", "witness"}
        assert (r.details["o2_order"], r.details["o_on_o2"]) == (2, False)
        assert self.fired(r)
        odd = G.element_order
        assert odd(r.details["witness"]["x"]) % 2 == 1
        assert self.replays(G, C2, r.details["witness"], lambda x, y: odd(y) % 2 == 1)

    def test_unknown_pair_claim(self, s3):
        with pytest.raises(ValueError, match="^unknown pair claim 'cor2'$"):
            verify_pair_claim(s3, by_order(s3, 3), "cor2")
