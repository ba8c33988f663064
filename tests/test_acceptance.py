"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import re

from camina.catalog import builtin_catalog
from camina.chartab import character_table, decompose, induce
from camina.cli import run_cli
from camina.conditions import is_camina_pair, satisfies_F, satisfies_Fpm
from camina.grouptable import subgroup_table
from camina.structure import (
    conjugacy_classes,
    is_frobenius_with_kernel,
    subgroups,
)
from camina.verify import LEMMA_CLAIMS, summarize, verify_covering
from reference import inner_product_int, reference_bs_hypothesis, regular_character, restrict


def _criterion(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def _by_order(G, n, which=0):
    return [H for H in subgroups(G) if len(H) == n][which]


def test_criterion_1_character_table_exactness():
    """Row/column orthogonality, degree sum, and the regular-character
    degree oracle, exactly, for every builtin group of order <= 200."""
    ok = True
    for entry in builtin_catalog():
        G = entry.group()
        if G.order > 200:
            continue
        table = character_table(G)
        classes = conjugacy_classes(G)
        r = classes.count
        irr = table.irreducibles
        assert sum(chi.values[0].as_int() ** 2 for chi in irr) == G.order, entry.label
        assert all(G.order % chi.values[0].as_int() == 0 for chi in irr), entry.label
        for i in range(r):
            for j in range(i, r):
                expect = 1 if i == j else 0
                assert inner_product_int(irr[i], irr[j]) == expect, entry.label
        for k in range(r):
            for l in range(r):
                total = irr[0].values[k].__class__.zero(1)
                for chi in irr:
                    total = total + chi.values[k] * chi.values[l].conjugate()
                if k == l:
                    assert total == G.order // classes.sizes[k], entry.label
                else:
                    assert total.is_zero(), entry.label
        oracle = [m for _, m in decompose(regular_character(G), table)]
        assert sorted(oracle) == list(table.degree_sequence), entry.label
    _criterion("criterion 1: character-table exactness over the builtin catalog (<= 200)", ok)


def test_criterion_2_frobenius_reciprocity():
    """[theta^G, chi] = [theta, chi_H] exactly for all catalog (G, H, theta, chi)
    with |G| <= 60 and H in subgroups(G)."""
    checked = 0
    for entry in builtin_catalog():
        G = entry.group()
        if G.order > 60:
            continue
        t_g = character_table(G)
        for H in subgroups(G):
            table, _, _ = subgroup_table(G, H)
            t_h = character_table(table)
            for theta in t_h.irreducibles:
                ind = induce(G, H, theta)
                for chi in t_g.irreducibles:
                    lhs = inner_product_int(ind, chi)
                    rhs = inner_product_int(theta, restrict(G, chi, H))
                    assert lhs == rhs, (entry.label, len(H))
                    checked += 1
    _criterion(f"criterion 2: Frobenius reciprocity exact on {checked} quadruples (<= 60)", checked > 0)


def test_criterion_3_theorem1_sweep(verify_builtin):
    """verify --claims theorem1 --max-order 96: zero violations, and the
    summary shows a nonzero number of pairs where CI/F fire."""
    reports = verify_builtin(96, ["theorem1"])
    s = summarize(reports)
    fired = s["claims"]["theorem1"]["fired"]
    by_pair = {
        (r.group_label, r.subgroup_order): r
        for r in reports
        if r.details.get("fired")
    }
    must_fire = ("S3", 3) in by_pair and ("Q8", 2) in by_pair
    ok = s["violations"] == 0 and fired > 0 and must_fire
    _criterion(
        f"criterion 3: theorem1 sweep <= 96 ({len(reports)} pairs, {fired} fired, "
        f"{s['nonnormal_f_pairs']} non-normal F pairs, 0 violations)",
        ok,
    )


def test_criterion_4_structure_theorem_sweeps(verify_builtin):
    """theorem2, odd-order theorem and corollary 1 sweeps: 0 VIOLATION <= 128."""
    reports = verify_builtin(128, ["theorem2", "odd_order", "cor1"])
    s = summarize(reports)
    ok = s["violations"] == 0
    counts = {c: s["claims"][c]["fired"] for c in ("theorem2", "odd_order", "cor1")}
    _criterion(f"criterion 4: theorem2/odd_order/cor1 sweeps <= 128, fired={counts}, 0 violations", ok)


def test_criterion_5_cor2_sweep(s3, verify_builtin):
    """Corollary 2 sweep <= 128 for every prime; the S3, p=3 hypothesis
    fires for both 3-cycles."""
    reports = verify_builtin(128, ["cor2"])
    s = summarize(reports)
    three_cycles = [i for i in range(s3.order) if s3.orders[i] == 3]
    fires = all(reference_bs_hypothesis(s3, x, 3).holds for x in three_cycles)
    ok = s["violations"] == 0 and len(three_cycles) == 2 and fires
    _criterion(f"criterion 5: cor2 sweep <= 128 over {s['total']} (G,p) pairs, 0 violations", ok)


def test_criterion_6_known_pair_fixtures(s3, q8, frob21):
    camina_s3 = is_camina_pair(s3, _by_order(s3, 3)).holds
    camina_q8 = is_camina_pair(q8, _by_order(q8, 2)).holds
    abelian_f_fails = True
    for entry in builtin_catalog():
        G = entry.group()
        if conjugacy_classes(G).count != G.order:
            continue  # not abelian
        for H in subgroups(G):
            if 1 < len(H) < G.order and satisfies_F(G, H).holds:
                abelian_f_fails = False
    fpm_q8 = satisfies_Fpm(q8, _by_order(q8, 2)).holds
    frob_kernel = is_frobenius_with_kernel(frob21, _by_order(frob21, 7))
    ok = camina_s3 and camina_q8 and abelian_f_fails and fpm_q8 and frob_kernel
    _criterion("criterion 6: known-pair fixtures (S3/A3, Q8/Z, abelian, Frob(7:3)/C7)", ok)


def test_criterion_7_lemma_suite_sweep(verify_builtin):
    """Lemmas (a)-(m): 0 VIOLATION, order <= 96 (character lemmas l, m <= 60)."""
    charfree = [c for c in LEMMA_CLAIMS if c not in ("lemma_l", "lemma_m")] + ["claim9"]
    r1 = verify_builtin(96, charfree)
    r2 = verify_builtin(60, ["lemma_l", "lemma_m"])
    s1, s2 = summarize(r1), summarize(r2)
    ok = s1["violations"] == 0 and s2["violations"] == 0
    _criterion(
        f"criterion 7: lemma suite sweep ({len(r1)} reports <= 96, {len(r2)} reports <= 60), 0 violations",
        ok,
    )


def test_criterion_8_covering_spot_check(a5):
    """Every nontrivial class of Alt(5) powers up to the whole group within 10 steps."""
    report = verify_covering(a5)
    ok = report.status == "PASS" and report.details["max_power_needed"] <= 10
    _criterion(
        f"criterion 8: A5 covering, max class power needed = {report.details.get('max_power_needed')}",
        ok,
    )


def test_criterion_9_determinism(tmp_path):
    """verify with --jobs 1 and --jobs 8 produces byte-identical report files
    modulo the timestamp field."""
    out1 = tmp_path / "jobs1.jsonl"
    out2 = tmp_path / "jobs8.jsonl"
    args = ["verify", "--catalog", "builtin", "--max-order", "24", "--claims", "theorem1,theorem2,cor2"]
    rc1 = run_cli(["--jobs", "1"] + args + ["--out", str(out1)])
    rc2 = run_cli(["--jobs", "8"] + args + ["--out", str(out2)])
    strip = lambda p: re.sub(r'"timestamp":"[^"]*"', '"timestamp":null', p.read_text())
    ok = rc1 == 0 and rc2 == 0 and strip(out1) == strip(out2) and out1.read_text()
    _criterion("criterion 9: verify output byte-identical for --jobs 1 vs --jobs 8", bool(ok))
