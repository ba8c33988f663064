import functools
import hashlib
import inspect
import math
import random
import textwrap
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import camina.chartab as chartab
from camina.catalog import builtin, builtin_catalog
from camina.chartab import (
    CharacterTable,
    character_table,
    decompose,
    dixon_prime,
    induce,
    inner_product,
    is_prime,
    prime_above,
    ClassFunction,
)
from camina.cyclotomic import Cyc
from camina.grouptable import CapExceeded, ElementSet, generate, subgroup_table
from camina.perm import Permutation, cycles
from camina.reports import load_chartab, save_chartab
from camina.structure import conjugacy_classes, derived_subgroup, exponent, prime_factors, subgroups
from reference import (
    class_matrices,
    compose,
    conjugate,
    from_cycles,
    index_rows,
    inner_product_int,
    is_homogeneous_induction,
    kernel_of,
    power,
    reference_character_table,
    reference_check_galois,
    reference_check_orthonormal,
    reference_gram_mod,
    reference_in_irr_given_N,
    regular_character,
    restrict,
    table_power,
    trivial_character,
)


def by_order(G, n, which=0):
    return [H for H in subgroups(G) if len(H) == n][which]


RELABEL_LABELS = [e.label for e in builtin_catalog() if e.group().order <= 24]
PERTURB_LABELS = [e.label for e in builtin_catalog() if e.group().order <= 60]


@functools.cache
def built_table(label):
    """(G, its classes, Irr(G) as a list of value lists) of a builtin label."""
    G = builtin(label).group()
    return G, conjugacy_classes(G), [list(chi.values) for chi in character_table(G).irreducibles]


def galois_image(v, a):
    """v with zeta_e -> zeta_e^a, by re-indexing its terms."""
    return Cyc.from_root_multiset(v.e, {j * a % v.e: c for j, c in enumerate(v.coeffs)})


def accepts(check, G, classes, values):
    try:
        check([ClassFunction(G, tuple(row)) for row in values], classes)
    except RuntimeError:
        return False
    return True


def constructed(rows, classes):
    """The one table check: constructing a ``CharacterTable`` of the rows."""
    CharacterTable(classes.group, *index_rows(rows))


def reference_accepts(G, classes, values):
    """Whether a table within the bound passes both exact reference checks."""
    return (
        accepts(lambda rows, classes: chartab._reduction(G, *index_rows(rows)), G, classes, values)
        and accepts(reference_check_orthonormal, G, classes, values)
        and accepts(reference_check_galois, G, classes, values)
    )


def table_shape(G):
    """Sorted class sizes, and the character table up to row and column
    order: for each pair of rows, the multiset over the columns of (class
    size, representative order, value, value)."""
    classes = conjugacy_classes(G)
    columns = [(size, G.orders[rep]) for size, rep in zip(classes.sizes, classes.reps)]
    rows = [[(v.e, v.coeffs) for v in chi.values] for chi in character_table(G).irreducibles]
    pairs = sorted(tuple(sorted(Counter(zip(columns, a, b)).items())) for a in rows for b in rows)
    return sorted(classes.sizes), pairs


class TestExponent:
    def test_elementary_abelian(self):
        assert exponent(builtin("C2xC2xC2").group()) == 2

    def test_s3(self, s3):
        assert exponent(s3) == 6

    def test_q8(self, q8):
        assert exponent(q8) == 4


class TestDixonPrime:
    def test_known_values(self):
        assert dixon_prime(6, 6) == 7
        assert dixon_prime(4, 8) == 13
        assert dixon_prime(1, 1) == 3

    def test_properties(self):
        for e, order in [(2, 4), (12, 24), (30, 60), (21, 21), (16, 32)]:
            q = dixon_prime(e, order)
            assert is_prime(q)
            assert q % e == 1
            assert q * q > 4 * order

    def test_prime_above(self):
        assert prime_above(1, 10) == 11
        assert prime_above(4, 13) == 17
        assert prime_above(60, 1000) == 1021


class TestClassMatrices:
    def test_identity_class_matrix(self, s4):
        mats = class_matrices(s4)
        r = conjugacy_classes(s4).count
        expect = [[1 if j == k else 0 for k in range(r)] for j in range(r)]
        assert mats[0] == expect

    def test_s3_transposition_squares(self, s3):
        cl = conjugacy_classes(s3)
        t = next(c for c in range(cl.count) if s3.orders[cl.reps[c]] == 2)
        mats = class_matrices(s3)
        # a_{t,t,identity} = |class| since every transposition squares to 1
        assert mats[t][t][0] == 3

    def test_row_sum_identity(self):
        for label in ["S3", "Q8", "A4", "Frob(7:3)"]:
            G = builtin(label).group()
            cl = conjugacy_classes(G)
            mats = class_matrices(G)
            r = cl.count
            for i in range(r):
                for j in range(r):
                    total = sum(mats[i][j][k] * cl.sizes[k] for k in range(r))
                    assert total == cl.sizes[i] * cl.sizes[j]

    def test_match_elementwise(self):
        # the library reads M_i off the class products of the inverse class;
        # C3 and Frob(7:3) have non-real classes, where that class differs
        labels = [e.label for e in builtin_catalog()] + ["S5", "A6", "Frob(31:15)xC2"]
        for label in labels:
            G = builtin(label).group()
            classes = conjugacy_classes(G)
            got = [chartab._class_matrix(G, classes, i) for i in range(classes.count)]
            assert got == class_matrices(G), label


class TestCharacterTable:
    def test_abelian_all_linear(self):
        G = builtin("C6").group()
        t = character_table(G)
        assert t.degree_sequence == (1,) * 6

    def test_s3_degrees(self, s3):
        assert character_table(s3).degree_sequence == (1, 1, 2)

    def test_q8_degrees(self, q8):
        assert character_table(q8).degree_sequence == (1, 1, 1, 1, 2)

    def test_regular_character_oracle(self, s4):
        t = character_table(s4)
        mults = decompose(regular_character(s4), t)
        assert [m for _, m in mults] == [chi.values[0].as_int() for chi in t.irreducibles]

    def test_identity_column_is_degree(self, a5):
        t = character_table(a5)
        degrees = [chi.values[0].as_int() for chi in t.irreducibles]
        assert degrees == list(t.degree_sequence) and degrees[0] > 0

    def test_order_cap(self, monkeypatch, s4):
        # G's order is capped where G is generated; S4's 5 classes meet a class cap of 5
        monkeypatch.setattr(chartab, "CLASS_CAP", 4)
        with pytest.raises(CapExceeded):
            character_table(s4)
        monkeypatch.setattr(chartab, "CLASS_CAP", 5)
        assert character_table(s4).degree_sequence == (1, 1, 2, 3, 3)

    def test_class_cap(self, monkeypatch, s4):
        monkeypatch.setattr(chartab, "CLASS_CAP", 3)
        with pytest.raises(CapExceeded):
            character_table(s4)

    def test_real_class_cap(self):
        # C64 has 64 classes, above the class cap of 60, which no builtin group reaches
        assert chartab.CLASS_CAP == 60
        with pytest.raises(CapExceeded, match=r"character table class cap exceeded \(reached 64\)"):
            character_table(builtin("C64").group())

    def test_different_prime_same_table(self, s4):
        t1 = character_table(s4)
        e, n = exponent(s4), s4.order
        q = dixon_prime(e, n)
        q2 = q + e
        while not (is_prime(q2) and q2 % e == 1):
            q2 += e
        t2 = reference_character_table(s4, q2)
        assert t1.degree_sequence == t2.degree_sequence
        for a, b in zip(t1.irreducibles, t2.irreducibles):
            assert a.values == b.values

    def test_trivial_group(self):
        G = builtin("C1").group()
        t = character_table(G)
        assert t.degree_sequence == (1,)

    @pytest.mark.parametrize("wrong", ["value_off_by_one", "row_repeated", "linear_exponent"])
    def test_selfcheck_rejects_wrong_rows(self, monkeypatch, wrong):
        # S4's 2 linear rows are read off G/G'; its other 3 rows are lifted
        # one after another, 5 values each.  Since its values are rational
        # integers, chi(k) + 1 at one class k changes |G| [chi, chi] by
        # |K_k| (2 chi(k) + 1), which is odd.  A repeated row keeps every
        # [chi, chi] = 1 but makes [chi_0, chi_1] = 1.  The sign's value -1 =
        # zeta_12^6 with exponent 7 instead is no rational value at all.
        lifted, roots = [], []
        original_lift, original_root = Cyc.from_root_multiset, Cyc.root_power

        def lift(e, counts):
            n = len(lifted)
            lifted.append(original_lift(e, counts))
            if wrong == "value_off_by_one":
                return lifted[n] + Cyc(1, (1,)) if n == 1 else lifted[n]
            if wrong == "row_repeated":
                return lifted[n - 5] if 5 <= n < 10 else lifted[n]
            return lifted[n]

        def root(e, t):
            # the linear rows' values come first; the constructor's bound reads every root again
            roots.append((e, t))
            return original_root(e, 7 if wrong == "linear_exponent" and roots == [(12, 0), (12, 6)] else t)

        monkeypatch.setattr(Cyc, "from_root_multiset", lift)
        monkeypatch.setattr(Cyc, "root_power", root)
        with pytest.raises(RuntimeError, match="character rows are not orthonormal"):
            character_table(builtin("S4").group())
        assert len(lifted) == 15
        assert roots[:2] == [(12, 0), (12, 6)]

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(RELABEL_LABELS), st.randoms(use_true_random=False))
    def test_relabelling_invariance(self, label, rng):
        # Relabelling the points gives an isomorphic group whose elements,
        # classes and rows come in another order.
        entry = builtin(label)
        points = list(range(entry.degree))
        rng.shuffle(points)
        sigma = Permutation(points)
        G = generate(entry.degree, [conjugate(g, sigma) for g in entry.generators])
        assert table_shape(G) == table_shape(entry.group())


# the groups of the benchmark's chartab workload, and two outside the catalog
EXTRA_TABLE_LABELS = ["C60", "C5xC10", "C4xC4xC2", "Heis(5)", "C3xC3xC3", "Q32xC2", "D30", "S5", "S4xC2"]


class TestGaloisClassLift:
    def test_matches_reference_tables(self):
        # every builtin group and more: the same rows, value for value, as the
        # split with whole-space kernels and one DFT per column
        for entry in builtin_catalog() + [builtin(label) for label in EXTRA_TABLE_LABELS]:
            G = entry.group()
            got, want = character_table(G), reference_character_table(G)
            assert got.degree_sequence == want.degree_sequence, entry.label
            for a, b in zip(got.irreducibles, want.irreducibles, strict=True):
                assert [(v.e, v.coeffs) for v in a.values] == [(v.e, v.coeffs) for v in b.values], entry.label

    def test_one_dft_per_galois_class_of_columns(self, monkeypatch):
        # C60's 60 rows are all linear, read off G/G' = G with no lift.
        # Heis(5) lifts each of its 4 rows of degree 5, one after another, at
        # its 8 Galois classes of columns, one per cyclic subgroup: the
        # identity, the centre and 6 more of order 5
        lifted = []
        original = chartab._eigenvalue_counts
        monkeypatch.setattr(chartab, "_eigenvalue_counts", lambda *args: lifted.append(args) or original(*args))
        table = character_table(builtin("C60").group())
        assert len(table.irreducibles) == 60
        assert lifted == []
        table = character_table(builtin("Heis(5)").group())
        assert table.degree_sequence == (1,) * 25 + (5,) * 4
        assert len(lifted) == 32
        assert Counter(len(pcls) for _, pcls, *_ in lifted) == {1: 4, 5: 28}

    # the Galois orbits of the rows of degree > 1
    NONLINEAR_ORBITS = {"C60": 0, "C5xC10": 0, "C4xC4xC2": 0, "Heis(5)": 1, "C3xC3xC3": 0, "Q32xC2": 6, "D30": 6}
    # the lifts: rows of degree > 1 times Galois classes of columns, 0 for abelian groups
    LIFTS = {"C60": 0, "C5xC10": 0, "C4xC4xC2": 0, "Heis(5)": 4 * 8, "C3xC3xC3": 0, "Q32xC2": 14 * 14, "D30": 14 * 10}

    @pytest.mark.parametrize(
        "label, orbits",
        [("C60", 12), ("C5xC10", 14), ("C4xC4xC2", 20), ("Heis(5)", 8), ("C3xC3xC3", 14), ("Q32xC2", 14), ("D30", 10)],
    )
    def test_one_dft_per_row_orbit_and_column_class(self, monkeypatch, label, orbits):
        # the chartab benchmark's groups: the rows' Galois orbits, counted on
        # the values, and the columns' Galois classes, counted on the group,
        # are equally many (Brauer's permutation lemma); each row of degree
        # > 1 is lifted once per column class, the linear rows are read off G/G'
        calls = []
        original = chartab._eigenvalue_counts
        monkeypatch.setattr(chartab, "_eigenvalue_counts", lambda *args: calls.append(args) or original(*args))
        G = builtin(label).group()
        rows = [chi.values for chi in character_table(G).irreducibles]
        classes = conjugacy_classes(G)
        units = [a for a in range(1, exponent(G) + 1) if math.gcd(a, exponent(G)) == 1]
        column_classes = {frozenset(classes.class_of[table_power(G, x, a)] for a in units) for x in classes.reps}
        keys = [tuple((v.e, v.coeffs) for v in row) for row in rows]
        row_orbits = {
            frozenset(keys.index(tuple((v.e, galois_image(v, a).coeffs) for v in row)) for a in units) for row in rows
        }
        nonlinear_orbits = [orbit for orbit in row_orbits if rows[min(orbit)][0] != 1]
        nonlinear_rows = [row for row in rows if row[0] != 1]
        assert len(row_orbits) == len(column_classes) == orbits
        assert len(nonlinear_orbits) == self.NONLINEAR_ORBITS[label]
        assert len(calls) == len(nonlinear_rows) * len(column_classes) == self.LIFTS[label]


class TestLinearCharacters:
    LABELS = [e.label for e in builtin_catalog()] + EXTRA_TABLE_LABELS

    def test_count_is_index_of_derived_subgroup(self):
        for label in self.LABELS:
            G, _, values = built_table(label)
            linear = [row for row in values if row[0] == 1]
            assert len(linear) == G.order // len(derived_subgroup(G)), label

    def test_homomorphisms_on_the_cayley_table(self):
        # each linear row, read per element, is a root of unity zeta_e^t(x)
        # with t(xy) = t(x) + t(y) (mod e) for every product xy of the table
        for label in self.LABELS:
            G, classes, values = built_table(label)
            e = exponent(G)
            exponent_of = {Cyc.root_power(e, t).coeffs: t for t in range(e)}
            for row in values:
                if row[0] != 1:
                    continue
                t = [exponent_of[row[k].rebase(e).coeffs] for k in classes.class_of]
                assert all(
                    t[xy] == (tx + t[y]) % e for tx, products in zip(t, G.rows) for y, xy in enumerate(products)
                ), label

    def test_generator_with_a_power_already_reached(self):
        # with x^2 listed before x, x is reached with x^2 already in the part
        # built, and each character of it extends by a square root of its
        # value at x^2; likewise x^3 after x^6, and c s after c^2 in
        # <c s, r> = C3 : C8 (c an 8-cycle, s a transposition and r a 3-cycle
        # on three more points)
        x = from_cycles(8, [tuple(range(8))])
        c, s, r = (from_cycles(11, [cycle]) for cycle in (tuple(range(8)), (8, 9), (8, 9, 10)))
        for gens, label in (
            ([power(x, 2), x], "C8"),
            ([power(x, 4), power(x, 2), x], "C8"),
            ([power(x, 6), power(x, 3)], "C8"),
            ([power(c, 2), compose(c, s), r], None),
        ):
            G = generate(gens[0].degree, gens)
            linear = [chi for chi in character_table(G).irreducibles if chi.values[0].as_int() == 1]
            assert len(linear) == G.order // len(derived_subgroup(G)) == 8
            if label:
                assert table_shape(G) == table_shape(builtin(label).group())

    @pytest.mark.parametrize(
        "label, skipped",
        [("C60", ("_eigenvalue_counts",)), ("C5xC10", ("_eigenvalue_counts",)),
         ("C4xC4xC2", ("_eigenvalue_counts",)), ("C3xC3xC3", ("_eigenvalue_counts",)),
         ("S3", ()), ("A4", ()), ("Frob(11:10)", ())],
    )
    def test_no_class_matrices_when_at_most_one_row_is_left(self, monkeypatch, label, skipped):
        # abelian groups need no split and no lift; S3, A4 and Frob(11:10)
        # have one row of degree > 1, (rho_G - sum of the linear rows) / d.
        # The split builds its matrices one at a time with _class_matrix, so
        # that is forbidden, or the test would pass with matrices built
        for name in ("_class_matrix",) + skipped:
            monkeypatch.setattr(chartab, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        G = builtin(label).group()
        table = character_table(G)
        assert len(table.irreducibles) == conjugacy_classes(G).count
        assert sum(d * d for d in table.degree_sequence) == G.order

    def test_split_starts_in_the_complement(self, monkeypatch):
        # the split starts from the span of the central characters of the
        # rows of degree > 1: 4 for Heis(5) and 14 for D30
        starts = []
        original = chartab._simultaneous_eigenvectors

        def recorded(mats, start, q):
            starts.append(len(start))
            return original(mats, start, q)

        monkeypatch.setattr(chartab, "_simultaneous_eigenvectors", recorded)
        dims = {}
        for label in self.LABELS:
            G = builtin(label).group()
            starts.clear()
            degrees = character_table(G).degree_sequence
            nonlinear = sum(1 for d in degrees if d > 1)
            assert starts == ([nonlinear] if nonlinear else []), label
            dims[label] = nonlinear
        assert dims["Heis(5)"] == 4 and dims["D30"] == 14


class TestDixonSplit:
    def test_each_space_split_by_its_own_matrix(self, monkeypatch):
        # C16's 16 one-dimensional spaces: no kernel for a root that is no
        # eigenvalue on the space being split
        calls = []
        original = chartab._rref
        monkeypatch.setattr(chartab, "_rref", lambda *args: calls.append(args) or original(*args))
        assert len(character_table(builtin("C16").group()).irreducibles) == 16
        assert len(calls) <= 120

    @pytest.mark.parametrize("label, most", [("Q32xC2", 13), ("D30", 11)])
    def test_no_characteristic_polynomial_of_a_scalar(self, monkeypatch, label, most):
        # a class matrix that acts on a space as a scalar leaves it whole:
        # splitting every space by every matrix took 59 and 31 of them
        calls = []
        original = chartab._charpoly
        monkeypatch.setattr(chartab, "_charpoly", lambda *args: calls.append(args) or original(*args))
        G = builtin(label).group()
        assert len(character_table(G).irreducibles) == conjugacy_classes(G).count
        assert 0 < len(calls) <= most
        for A, q in calls:
            assert A != [[A[0][0] if i == j else 0 for j in range(len(A))] for i in range(len(A))]

    def test_heis5_builds_one_class_matrix(self, monkeypatch):
        # the first non-identity class matrix splits Heis(5)'s four
        # central characters apart, so none of the other 27 is built
        built = []
        original = chartab._class_matrix
        monkeypatch.setattr(chartab, "_class_matrix", lambda *args: built.append(args[2]) or original(*args))
        assert character_table(builtin("Heis(5)").group()).degree_sequence == (1,) * 25 + (5,) * 4
        assert built == [1]

    def test_scalar_matrix_keeps_the_space_and_no_matrix_is_drawn_after_the_split(self, monkeypatch):
        # 3 I keeps span(e_0, e_1); the swap splits it into the lines of
        # (1, 1) and (1, -1), after which the third matrix is never drawn
        q = 7
        calls = []
        original = chartab._charpoly
        monkeypatch.setattr(chartab, "_charpoly", lambda *args: calls.append(args) or original(*args))
        drawn = []

        def mats():
            for M in ([[3, 0], [0, 3]], [[0, 1], [1, 0]], None):
                drawn.append(M)
                yield M

        got = chartab._simultaneous_eigenvectors(mats(), [[1, 0], [0, 1]], q)
        assert got == [[1, 1], [1, q - 1]]
        assert calls == [([[0, 1], [1, 0]], q)]
        assert drawn == [[[3, 0], [0, 3]], [[0, 1], [1, 0]]]

    def test_too_few_matrices_to_split(self):
        with pytest.raises(RuntimeError, match="did not split to one-dimensional spaces"):
            chartab._simultaneous_eigenvectors(iter([[[3, 0], [0, 3]]]), [[1, 0], [0, 1]], 7)

    @pytest.mark.parametrize("label", ["Q16xQ8", "D20xC3", "Frob(31:15)xC2"])
    def test_larger_tables_match_the_reference_split(self, label):
        # the shortened split against the oracle that splits every space
        # by every class matrix's own eigenvalues on the whole space
        G = builtin(label).group()
        got, want = character_table(G), reference_character_table(G)
        assert len(got.irreducibles) == conjugacy_classes(G).count
        for a, b in zip(got.irreducibles, want.irreducibles, strict=True):
            assert [(v.e, v.coeffs) for v in a.values] == [(v.e, v.coeffs) for v in b.values], label


class TestModularSelfCheck:
    def test_agrees_with_reference_on_builtin_tables(self):
        for entry in builtin_catalog():
            G, classes, values = built_table(entry.label)
            assert accepts(constructed, G, classes, values), entry.label
            assert accepts(reference_check_orthonormal, G, classes, values), entry.label

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PERTURB_LABELS), st.data())
    def test_agrees_with_reference_on_perturbed_tables(self, label, data):
        G, classes, values = built_table(label)
        i = data.draw(st.integers(0, len(values) - 1))
        k = data.draw(st.integers(0, len(values) - 1))
        coeffs = list(values[i][k].coeffs)
        j = data.draw(st.integers(0, len(coeffs) - 1))
        coeffs[j] += data.draw(st.integers(-3, 3))
        perturbed = [list(row) for row in values]
        perturbed[i][k] = Cyc(values[i][k].e, coeffs)
        assert accepts(constructed, G, classes, perturbed) == reference_accepts(G, classes, perturbed)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PERTURB_LABELS), st.data())
    def test_agrees_with_reference_on_galois_conjugated_values(self, label, data):
        # sigma_a(v) keeps v's coefficient norm, so the table keeps its bound
        # and its p, and only the modular check decides it
        G, classes, values = built_table(label)
        i = data.draw(st.integers(0, len(values) - 1))
        k = data.draw(st.integers(0, len(values) - 1))
        v = values[i][k]
        a = data.draw(st.sampled_from([a for a in range(1, v.e + 1) if math.gcd(a, v.e) == 1]))
        perturbed = [list(row) for row in values]
        perturbed[i][k] = galois_image(v, a)
        assert accepts(constructed, G, classes, perturbed) == reference_accepts(G, classes, perturbed)

    def test_one_embedding_pair(self, monkeypatch):
        # the product is formed under iota_1 alone: X_1 is the values under
        # zeta_e -> z, and W_1 reads X_1 at the inverse classes, which is
        # the values under zeta_e -> z^-1
        grams = []
        original = chartab._gram_mod
        monkeypatch.setattr(chartab, "_gram_mod", lambda *args: grams.append(args) or original(*args))
        for label in ("C1", "C2", "S3", "Q8", "Frob(5:4)", "A5", "C5xC10"):
            G, classes, values = built_table(label)
            grams.clear()
            assert accepts(constructed, G, classes, values), label
            [(X, W, p)] = grams
            e = exponent(G)
            z = chartab._root_of_unity(e, p)
            iota = [[sum(c * pow(z, t, p) for t, c in enumerate(v.coeffs)) % p for v in row] for row in values]
            iota_inv = [[sum(c * pow(z, -t, p) for t, c in enumerate(v.coeffs)) % p for v in row] for row in values]
            assert X == iota, label
            assert W == [[x[k] * size % p for k, size in zip(classes.inverse_class, classes.sizes)] for x in X], label
            assert W == [[x * size % p for x, size in zip(row, classes.sizes)] for row in iota_inv], label

    def test_unit_generators_generate_the_units(self):
        # the closure check is made for these units only; -1 needs none,
        # since iota_-1 of [chi_i, chi_j] is iota_1 of [chi_j, chi_i]
        for e in range(1, 121):
            reached, frontier = {1 % e, -1 % e}, [1 % e, -1 % e]
            while frontier:
                h = frontier.pop()
                for a in chartab._unit_generators(e):
                    if h * a % e not in reached:
                        reached.add(h * a % e)
                        frontier.append(h * a % e)
            assert reached == {a for a in range(e) if math.gcd(a, e) == 1}, e

    def test_embeddings_other_than_plus_or_minus_one(self, monkeypatch):
        # zeta_e - z is sent to 0 by iota_1 (zeta_e -> z), and zeta_e - z^-1
        # by iota_-1, which W_1 reads at the inverse classes; their product
        # changes a value of Frob(5:4) (e = 20) where only iota_3, iota_7 and
        # iota_9 can see it.
        G, classes, values = built_table("Frob(5:4)")
        seen = []
        original = chartab._residues
        monkeypatch.setattr(chartab, "_residues", lambda *args: seen.append(args) or original(*args))
        assert accepts(constructed, G, classes, values)
        reduced, _, p = seen[0]
        e = reduced.e
        z = chartab._root_of_unity(e, p)
        zeta = Cyc.root_power(e, 1)
        delta = (zeta + Cyc(1, (-z,)).rebase(e)) * (zeta + Cyc(1, (-pow(z, -1, p),)).rebase(e))
        perturbed = [list(row) for row in values]
        perturbed[1][1] = perturbed[1][1] + delta
        assert e == 20 and not delta.is_zero()
        # under the table's own p, past the bound check
        ids = {}
        cells = [tuple(ids.setdefault(v.coeffs, len(ids)) for v in row) for row in perturbed]
        with pytest.raises(RuntimeError, match="character rows are not orthonormal"):
            original(chartab._Values(cells, list(ids), ids, e), classes, p)
        assert not accepts(constructed, G, classes, perturbed)

    def test_equal_values_given_in_different_rings(self):
        # a table's values are given as coefficient tuples in Z[zeta_e], e =
        # exp(G), each deg(Phi_e) long: S4's integer values with every other
        # cell as a Cyc of root order 1, and S3's table moved whole into
        # Z[zeta_2] or Z[zeta_12], have tuples of another length and are
        # rejected, though each value equals one of Irr(G).  (Z[zeta_3] has
        # as many coefficients as Z[zeta_6], so S3's rational table moved
        # there has the very tuples of its own.)
        G, classes, values = built_table("S4")
        mixed = [
            [Cyc(1, (v.as_int(),)) if (i + k) % 2 else v for k, v in enumerate(row)] for i, row in enumerate(values)
        ]
        assert {v.e for row in mixed for v in row} == {1, 12}
        assert accepts(constructed, G, classes, values)
        with pytest.raises(RuntimeError, match=r"character values are not in Z\[zeta_e\]"):
            chartab.CharacterTable(G, *index_rows(ClassFunction(G, tuple(row)) for row in mixed))
        G, classes, values = built_table("S3")
        assert {v.e for row in values for v in row} == {6}
        for e in (2, 12):
            moved = [[Cyc(1, (v.as_int(),)).rebase(e) for v in row] for row in values]
            assert moved == values
            with pytest.raises(RuntimeError, match=r"character values are not in Z\[zeta_e\]"):
                chartab.CharacterTable(G, *index_rows(ClassFunction(G, tuple(row)) for row in moved))

    def test_rows_of_another_length_than_the_class_count(self):
        # C2's rows with a zero appended, or one row cut short, are no table
        G, classes, values = built_table("C2")
        zero = Cyc(1, (0,))
        assert accepts(constructed, G, classes, values)
        assert not accepts(constructed, G, classes, [row + [zero] for row in values])
        assert not accepts(constructed, G, classes, [values[0], values[1][:1]])

    def test_one_row_per_class(self):
        # S3's first two rows are orthonormal, Galois-closed and follow the
        # power maps, but a table has a row for each of the 3 classes
        G, classes, values = built_table("S3")
        rows = tuple(ClassFunction(G, tuple(row)) for row in values)
        assert accepts(constructed, G, classes, values)
        for part in (rows[:2], ()):
            with pytest.raises(RuntimeError, match="character rows are not orthonormal"):
                CharacterTable(G, *index_rows(part))

    def test_no_cyc_products(self, monkeypatch):
        # the check embeds values into F_p; only the reference multiplies Cyc values
        G, classes, values = built_table("C60")
        calls = []
        original = Cyc.__mul__

        def counted(self, other):
            calls.append(self)
            return original(self, other)

        monkeypatch.setattr(Cyc, "__mul__", counted)
        monkeypatch.setattr(Cyc, "__rmul__", counted)
        assert accepts(constructed, G, classes, values)
        assert calls == []


@functools.cache
def largest_table_prime():
    """The largest p of ``mod_p`` over the builtin tables and EXTRA_TABLE_LABELS."""
    labels = [e.label for e in builtin_catalog()] + EXTRA_TABLE_LABELS
    return max(character_table(builtin(label).group()).mod_p[0] for label in labels)


class TestPackedGram:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_dot_products_on_random_residues(self, data):
        p = data.draw(st.sampled_from([2, 3, 61, 4441, largest_table_prime(), 2**61 - 1]))
        rows, cols = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        residue = st.integers(0, p - 1)
        X = data.draw(st.lists(st.lists(residue, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        W = data.draw(st.lists(st.lists(residue, min_size=cols, max_size=cols), min_size=1, max_size=12))
        assert chartab._gram_mod(X, W, p) == reference_gram_mod(X, W, p)

    @pytest.mark.parametrize("r", [1, 2, 60])
    def test_largest_slot_sums(self, r):
        # every entry p - 1: each slot holds r (p - 1)^2, its largest value
        p = largest_table_prime()
        assert p == 50131
        top = [[p - 1] * r for _ in range(r)]
        assert chartab._gram_mod(top, top, p) == reference_gram_mod(top, top, p) == [[r % p] * r] * r

    def test_sixty_classes_at_the_largest_prime(self):
        rng = random.Random(60)
        p = largest_table_prime()
        X, W = ([[rng.randrange(p) for _ in range(60)] for _ in range(60)] for _ in range(2))
        X[7] = [p - 1] * 60
        assert chartab._gram_mod(X, W, p) == reference_gram_mod(X, W, p)

    def test_check_forms_one_packed_gram(self, monkeypatch):
        # C60's check reads its 60 x 60 residues off one _gram_mod call
        G, classes, values = built_table("C60")
        grams = []
        original = chartab._gram_mod
        monkeypatch.setattr(chartab, "_gram_mod", lambda *args: grams.append(args) or original(*args))
        assert accepts(constructed, G, classes, values)
        [(X, W, p)] = grams
        assert len(X) == len(W) == 60 and all(len(row) == 60 for row in X + W)


def own_residues(table):
    """(e, D, and for each primitive e-th root of unity z mod the table's p,
    the values reduced under zeta_e -> z): e the lcm of the values' root
    orders and D their largest coefficient L1 norm in Z[zeta_e]."""
    p, _ = table.mod_p
    values = [chi.values for chi in table.irreducibles]
    e = math.lcm(*(v.e for row in values for v in row))
    D = max(sum(map(abs, v.rebase(e).coeffs)) for row in values for v in row)
    roots = [z for z in range(1, p) if pow(z, e, p) == 1 and all(pow(z, e // r, p) != 1 for r in prime_factors(e))]
    reduced = {
        z: [[sum(c * pow(z, t * (e // v.e), p) for t, c in enumerate(v.coeffs)) % p for v in row] for row in values]
        for z in roots
    }
    return e, D, reduced


class TestModP:
    def test_residues_of_built_and_loaded_tables(self, tmp_path):
        s4 = builtin("S4").group()
        save_chartab(s4, character_table(s4), tmp_path)
        loaded = load_chartab(builtin("S4").group(), tmp_path)
        assert loaded is not None
        tables = [(entry.label, character_table(entry.group())) for entry in builtin_catalog()]
        tables.append(("S4 loaded", loaded))
        for label, table in tables:
            p, X = table.mod_p
            e, D, reduced = own_residues(table)
            assert is_prime(p) and p % e == 1, label
            assert p > table.group.order * (D * D + 1), label
            assert any(X == residues for residues in reduced.values()), label

    def test_residues_and_value_ids_are_pinned(self):
        # sha256 of (mod_p, values.cells) of every builtin table, in catalog
        # order: the prime, the residues under iota_1 and the value ids
        h = hashlib.sha256()
        for entry in builtin_catalog():
            table = character_table(entry.group())
            h.update(repr((table.mod_p, table.values.cells)).encode())
        assert h.hexdigest() == "d0ba39415d3d9672fe1420b9238bb105e2fc981270f5cf6a74a54d5536f20ee5"

    def test_one_reduction_per_built_table(self, monkeypatch):
        calls = []
        original = chartab._reduction
        monkeypatch.setattr(chartab, "_reduction", lambda *args: calls.append(args) or original(*args))
        for label in ("S3", "Q8", "Frob(5:4)", "A5"):
            calls.clear()
            character_table(builtin(label).group()).mod_p
            assert len(calls) == 1, label

    def test_one_reduction_per_loaded_table(self, monkeypatch, tmp_path):
        # the power-map check runs on coefficient tuples, with no prime
        for label in ("S4", "Frob(5:4)", "C5xC10"):
            save_chartab(builtin(label).group(), character_table(builtin(label).group()), tmp_path)
        calls = []
        original = chartab._reduction
        monkeypatch.setattr(chartab, "_reduction", lambda *args: calls.append(args) or original(*args))
        for label in ("S4", "Frob(5:4)", "C5xC10"):
            calls.clear()
            assert load_chartab(builtin(label).group(), tmp_path) is not None, label
            assert len(calls) == 1, label


class TestPowerMapCheck:
    def test_agrees_with_reference_on_built_tables(self):
        for label in [e.label for e in builtin_catalog()] + EXTRA_TABLE_LABELS:
            G, classes, values = built_table(label)
            assert accepts(constructed, G, classes, values), label
            assert accepts(reference_check_galois, G, classes, values), label

    def test_c4_swapped_columns(self):
        # orthonormality survives swapping the columns of the involution and
        # of a generator g; the power maps do not: g^2 has class size 1 too,
        # but chi(g^3) must be the complex conjugate of chi(g)
        G, classes, values = built_table("C4")
        swapped = [[row[0], row[2], row[1], row[3]] for row in values]
        assert accepts(reference_check_orthonormal, G, classes, swapped)
        assert not accepts(reference_check_galois, G, classes, swapped)
        with pytest.raises(RuntimeError, match="character values do not follow the power maps"):
            constructed([ClassFunction(G, tuple(row)) for row in swapped], classes)

    def test_c60_columns_moved_by_two_power_maps_only(self):
        # with x of order 60, move the column of x^u to that of x^(7u) for the
        # units u outside H = <7, -1>, a subgroup of index 2: chi(x^(cu)) =
        # sigma_c(chi(x^u)) still holds for c in H, but fails for c = 13
        G, classes, values = built_table("C60")
        x = next(r for r in classes.reps if G.orders[r] == 60)
        H = {1}
        while len(H) < 8:
            H |= {h * c % 60 for h in H for c in (7, 59)}
        at = {u: classes.class_of[table_power(G, x, u)] for u in range(60)}
        moved = {at[u]: at[u if u in H or math.gcd(u, 60) > 1 else 7 * u % 60] for u in range(60)}
        changed = [[row[moved[k]] for k in range(len(row))] for row in values]
        assert accepts(reference_check_orthonormal, G, classes, changed)
        assert not accepts(reference_check_galois, G, classes, changed)
        with pytest.raises(RuntimeError, match="character values do not follow the power maps"):
            constructed([ClassFunction(G, tuple(row)) for row in changed], classes)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PERTURB_LABELS + ["C8", "C5xC10"]), st.data())
    def test_agrees_with_reference_on_swapped_or_perturbed_tables(self, label, data):
        G, classes, values = built_table(label)
        same_size = [(a, b) for a in range(classes.count) for b in range(a) if classes.sizes[a] == classes.sizes[b]]
        changed = [list(row) for row in values]
        if same_size and data.draw(st.booleans()):
            a, b = data.draw(st.sampled_from(same_size))
            for row in changed:
                row[a], row[b] = row[b], row[a]
        else:
            i, k = data.draw(st.integers(0, len(values) - 1)), data.draw(st.integers(0, len(values) - 1))
            coeffs = list(values[i][k].coeffs)
            coeffs[data.draw(st.integers(0, len(coeffs) - 1))] += data.draw(st.integers(-2, 2))
            changed[i][k] = Cyc(values[i][k].e, coeffs)
        # the constructor also requires rows in canonical order, which the
        # reference checks do not read: both see the rows in that order
        changed.sort(key=lambda row: [v.coeffs for v in row])
        # values no character of G can take fail the bound of the modular check first
        assert accepts(constructed, G, classes, changed) == reference_accepts(G, classes, changed)

    def test_a_build_runs_it(self, monkeypatch):
        # without the lambda(g^k)/k term, C8 from [x^2, x] builds the
        # characters of C4 x C2 read through element coordinates: orthonormal
        # and Galois-closed, but chi(x^3) is not sigma_3(chi(x))
        source = textwrap.dedent(inspect.getsource(chartab._linear_exponents))
        faulty_source = source.replace("(s // k + l * step,)", "(l * step,)")
        assert faulty_source != source
        namespace = {}
        exec(faulty_source, vars(chartab), namespace)
        faulty = namespace["_linear_exponents"]
        x = from_cycles(8, [tuple(range(8))])
        G = generate(8, [power(x, 2), x])
        classes = conjugacy_classes(G)
        values = [[Cyc.root_power(8, t) for t in ts] for ts in faulty(G, classes, 8)]
        assert accepts(reference_check_orthonormal, G, classes, values)
        assert not accepts(reference_check_galois, G, classes, values)
        monkeypatch.setattr(chartab, "_linear_exponents", faulty)
        with pytest.raises(RuntimeError, match="character values do not follow the power maps"):
            character_table(G)


class TestInnerProduct:
    def test_orthonormal_rows(self, frob21):
        t = character_table(frob21)
        for i, a in enumerate(t.irreducibles):
            for j, b in enumerate(t.irreducibles):
                assert inner_product_int(a, b) == (1 if i == j else 0)

    def test_trivial_vs_regular(self, s4):
        assert inner_product_int(trivial_character(s4), regular_character(s4)) == 1

    def test_natural_permutation_character(self, s3):
        # fixed points of the natural action: orbit count is 1
        cl = conjugacy_classes(s3)
        values = []
        for rep in cl.reps:
            fixed = sum(1 for i, v in enumerate(s3.elements[rep]) if i == v)
            values.append(Cyc(1, (fixed,)))
        pi = ClassFunction(s3, tuple(values))
        assert inner_product_int(pi, trivial_character(s3)) == 1

    def test_inexact_division_raises(self, s3):
        # [f, f] = 3/6 for the indicator f of the transpositions
        cl = conjugacy_classes(s3)
        f = ClassFunction(s3, tuple(Cyc(1, (1 if k == 1 else 0,)) for k in range(cl.count)))
        with pytest.raises(ValueError):
            inner_product(f, f)


class TestInduceRestrict:
    def test_induced_trivial_is_permutation_character(self, s4):
        for H in subgroups(s4):
            table, _, _ = subgroup_table(s4, H)
            ind = induce(s4, H, trivial_character(table))
            assert ind.values[0].as_int() == s4.order // len(H)
            assert inner_product_int(ind, trivial_character(s4)) == 1

    def test_s3_a3_linear_induces_degree_two(self, s3):
        A3 = by_order(s3, 3)
        table, _, _ = subgroup_table(s3, A3)
        thetas = character_table(table).irreducibles
        nontrivial = [t for t in thetas if not all(v == 1 for v in t.values)]
        assert len(nontrivial) == 2
        for theta in nontrivial:
            ind = induce(s3, A3, theta)
            degree2 = character_table(s3).irreducibles[-1]
            assert ind == degree2

    def test_induce_from_whole_group(self, s3):
        whole = ElementSet.whole(s3)
        table, _, _ = subgroup_table(s3, whole)
        chi = character_table(table).irreducibles[-1]
        ind = induce(s3, whole, chi)
        assert ind.values == chi.values

    def test_restrict_trivial(self, s4):
        H = by_order(s4, 8)
        table, _, _ = subgroup_table(s4, H)
        r = restrict(s4, trivial_character(s4), H)
        assert r == trivial_character(table)

    def test_restrict_preserves_degree(self, a5):
        H = by_order(a5, 12)
        for chi in character_table(a5).irreducibles:
            assert restrict(a5, chi, H).values[0].as_int() == chi.values[0].as_int()

    def test_s3_degree2_restricts_to_two_linears(self, s3):
        A3 = by_order(s3, 3)
        table, _, _ = subgroup_table(s3, A3)
        chi = character_table(s3).irreducibles[-1]
        res = restrict(s3, chi, A3)
        mults = decompose(res, character_table(table))
        nontrivial = [
            i for i, t in enumerate(character_table(table).irreducibles)
            if not all(v == 1 for v in t.values)
        ]
        assert [m for i, m in mults if i in nontrivial] == [1, 1]
        assert sum(m for _, m in mults) == 2

    def test_frobenius_reciprocity_spot(self, s4):
        t_g = character_table(s4)
        for H in subgroups(s4):
            if len(H) in (1, 24):
                continue
            table, _, _ = subgroup_table(s4, H)
            t_h = character_table(table)
            for theta in t_h.irreducibles:
                ind = induce(s4, H, theta)
                for chi in t_g.irreducibles:
                    lhs = inner_product_int(ind, chi)
                    rhs = inner_product_int(theta, restrict(s4, chi, H))
                    assert lhs == rhs

    def test_frobenius_reciprocity_above_sixty(self):
        # catalog members between 60 and 100 are covered here, beyond the
        # acceptance cut at 60
        G = builtin("Frob(13:6)").group()
        t_g = character_table(G)
        for H in subgroups(G):
            table, _, _ = subgroup_table(G, H)
            for theta in character_table(table).irreducibles:
                ind = induce(G, H, theta)
                for chi in t_g.irreducibles:
                    assert inner_product_int(ind, chi) == inner_product_int(
                        theta, restrict(G, chi, H)
                    )

    def test_induce_matches_centralizer_formula(self):
        # independent route: theta^G(g) = |C_G(g)| * sum over H-classes fusing
        # into g^G of theta(x) / |C_H(x)|
        from camina.structure import centralizer

        for label in ["S4", "A4", "Frob(5:4)", "D6"]:
            G = builtin(label).group()
            g_classes = conjugacy_classes(G)
            for H in subgroups(G):
                if len(H) in (1, G.order):
                    continue
                table, to_parent, _ = subgroup_table(G, H)
                h_classes = conjugacy_classes(table)
                e = exponent(G)
                for theta in character_table(table).irreducibles:
                    ind = induce(G, H, theta)
                    for k, rep in enumerate(g_classes.reps):
                        cg = len(centralizer(G, rep))
                        total = Cyc.zero(e)
                        for j, hrep in enumerate(h_classes.reps):
                            if g_classes.class_of[to_parent[hrep]] != k:
                                continue
                            ch = len(centralizer(table, hrep))
                            total = total + theta.values[j].rebase(e) * (cg // ch)
                        assert total == ind.values[k], (label, len(H))


class TestDecompose:
    def test_single_irreducible(self, s3):
        t = character_table(s3)
        for i, chi in enumerate(t.irreducibles):
            mults = decompose(chi, t)
            assert all(m == (1 if j == i else 0) for j, m in mults)

    def test_regular(self, frob21):
        t = character_table(frob21)
        mults = decompose(regular_character(frob21), t)
        assert [m for _, m in mults] == [chi.values[0].as_int() for chi in t.irreducibles]

    def test_induced_trivial_from_a3(self, s3):
        A3 = by_order(s3, 3)
        table, _, _ = subgroup_table(s3, A3)
        ind = induce(s3, A3, trivial_character(table))
        t = character_table(s3)
        mults = dict(decompose(ind, t))
        degrees = [chi.values[0].as_int() for chi in t.irreducibles]
        # trivial + sign: the two linear characters appear once each
        assert [mults[i] for i in range(3)] == [1 if degrees[i] == 1 else 0 for i in range(3)]

    def test_not_a_character(self, s3):
        cl = conjugacy_classes(s3)
        f = ClassFunction(s3, tuple(Cyc(1, (1 if k == 1 else 0,)) for k in range(cl.count)))
        with pytest.raises(ValueError):
            decompose(f)


class TestHomogeneity:
    def test_whole_group(self, s3):
        whole = ElementSet.whole(s3)
        table, _, _ = subgroup_table(s3, whole)
        chi = character_table(table).irreducibles[-1]
        ok, idx, a = is_homogeneous_induction(s3, whole, chi)
        assert ok and a == 1

    def test_s3_a3(self, s3):
        A3 = by_order(s3, 3)
        table, _, _ = subgroup_table(s3, A3)
        theta = next(
            t for t in character_table(table).irreducibles if not all(v == 1 for v in t.values)
        )
        ok, idx, a = is_homogeneous_induction(s3, A3, theta)
        assert ok and a == 1
        assert character_table(s3).irreducibles[idx].values[0].as_int() == 2

    def test_s4_transposition_subgroup_fails(self, s4):
        H = next(
            H for H in subgroups(s4)
            if len(H) == 2 and cycles(s4.elements[H.members[1]])[0] == (0, 1)
        )
        table, _, _ = subgroup_table(s4, H)
        sign = next(
            t for t in character_table(table).irreducibles if not all(v == 1 for v in t.values)
        )
        ok, idx, a = is_homogeneous_induction(s4, H, sign)
        assert not ok and idx is None

    def test_rejects_non_irreducible(self, s3):
        with pytest.raises(ValueError):
            A3 = by_order(s3, 3)
            table, _, _ = subgroup_table(s3, A3)
            is_homogeneous_induction(s3, A3, regular_character(table))


class TestKernels:
    def test_trivial_character_kernel(self, s4):
        assert kernel_of(trivial_character(s4)).members == tuple(range(24))

    def test_q8_faithful(self, q8):
        chi = character_table(q8).irreducibles[-1]
        assert chi.values[0].as_int() == 2
        assert kernel_of(chi).members == (0,)

    def test_s3_irr_given_n(self, s3):
        A3 = by_order(s3, 3)
        t = character_table(s3)
        sign = next(
            chi for chi in t.irreducibles
            if chi.values[0].as_int() == 1 and not all(v == 1 for v in chi.values)
        )
        degree2 = t.irreducibles[-1]
        assert not reference_in_irr_given_N(sign, A3)
        assert reference_in_irr_given_N(degree2, A3)

    def test_requires_normal(self, s3):
        H = by_order(s3, 2)
        with pytest.raises(ValueError):
            reference_in_irr_given_N(trivial_character(s3), H)

    def test_match_elementwise_kernels(self):
        # every irreducible of every builtin group of order <= 60, against
        # chi(x) == chi(1) compared element by element
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 60:
                continue
            class_of = conjugacy_classes(G).class_of
            for chi in character_table(G).irreducibles:
                elementwise = [x for x in range(G.order) if chi.values[class_of[x]] == chi.values[0]]
                assert kernel_of(chi).members == tuple(elementwise), entry.label

    def test_value_index_decodes_to_the_rows(self, tmp_path):
        # every builtin group and more, built and, for a few, loaded: the
        # ids and distinct values decode to Irr(G) value for value, equal ids
        # are equal values, and the kernels read off the ids are those found
        # by Cyc equality
        loaded = {"S4", "Heis(5)", "D30"}
        for label in [e.label for e in builtin_catalog()] + EXTRA_TABLE_LABELS:
            G = builtin(label).group()
            tables = [character_table(G)]
            if label in loaded:
                save_chartab(G, tables[0], tmp_path)
                tables.append(load_chartab(builtin(label).group(), tmp_path))
            for table in tables:
                cells, distinct, ids, e = table.values
                assert e == exponent(G) and ids == {c: i for i, c in enumerate(distinct)}, label
                decoded = [[(e, distinct[i]) for i in row] for row in cells]
                assert decoded == [[(v.e, v.coeffs) for v in chi.values] for chi in table.irreducibles], label
                by_value = tuple(
                    frozenset(k for k, v in enumerate(chi.values) if v == chi.values[0]) for chi in table.irreducibles
                )
                assert table.kernels == by_value, label

    def test_table_kernels_are_kernel_classes(self):
        # the table's per-row class sets are the classes of kernel_of(chi)
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 60:
                continue
            class_of = conjugacy_classes(G).class_of
            table = character_table(G)
            for chi, ker in zip(table.irreducibles, table.kernels, strict=True):
                assert ker == {class_of[x] for x in kernel_of(chi).members}, entry.label


class TestCliffordConsistency:
    def test_single_multiplicity(self):
        for label in ["S3", "S4", "Q8", "A4", "SL23", "Frob(7:3)", "C3xS3"]:
            G = builtin(label).group()
            t = character_table(G)
            for N in subgroups(G):
                if not N.is_normal() or len(N) in (1, G.order):
                    continue
                table, _, _ = subgroup_table(G, N)
                t_n = character_table(table)
                for chi in t.irreducibles:
                    mults = [m for _, m in decompose(restrict(G, chi, N), t_n) if m]
                    assert len(set(mults)) == 1, (label, len(N))
