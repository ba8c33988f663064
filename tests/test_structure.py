import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

import camina.grouptable as grouptable
from camina import structure
from camina.catalog import builtin, builtin_catalog
from camina.grouptable import (
    CapExceeded,
    ElementSet,
    GroupTable,
    closure_indices,
    generate,
    small_generating_set,
    subgroup_table,
)
from camina.perm import Permutation
from camina.structure import (
    center,
    centralizer,
    conjugacy_classes,
    derived_series,
    derived_subgroup,
    is_frobenius_with_kernel,
    is_nilpotent,
    is_simple,
    is_solvable,
    normal_closure,
    normal_subgroups,
    normalizer,
    o_lower_p,
    o_upper_p,
    p_part,
    prime_factors,
    subgroups,
)
from reference import compose, conjugate, from_cycles, reference_is_normal


def by_order(G, n, which=0):
    return [H for H in subgroups(G) if len(H) == n][which]


def psl27():
    """PSL(2,7) on the 7 points of the Fano plane."""
    return generate(7, [from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)]), from_cycles(7, [(0, 1), (2, 5)])])


RELABEL_LABELS = [e.label for e in builtin_catalog() if e.group().order <= 48] + ["S4xC2"]


def lattice_shape(subs):
    """(count, sorted orders, normal count): unchanged by relabelling."""
    return len(subs), sorted(len(H) for H in subs), sum(H.is_normal() for H in subs)


class TestConjugacyClasses:
    def test_abelian_all_singletons(self):
        G = builtin("C2xC6").group()
        cl = conjugacy_classes(G)
        assert cl.count == G.order
        assert all(s == 1 for s in cl.sizes)

    def test_s3(self, s3):
        assert conjugacy_classes(s3).sizes == (1, 3, 2)

    def test_q8(self, q8):
        assert conjugacy_classes(q8).sizes == (1, 1, 2, 2, 2)

    def test_identity_class(self, s4):
        cl = conjugacy_classes(s4)
        assert cl.class_of[0] == 0
        assert cl.sizes[0] == 1

    def test_conjugation_invariance(self, s4):
        cl = conjugacy_classes(s4)
        for x in range(s4.order):
            for g in range(s4.order):
                assert cl.class_of[x] == cl.class_of[s4.conj(x, g)]

    def test_inverse_class_involution(self, frob21):
        cl = conjugacy_classes(frob21)
        for c in range(cl.count):
            assert cl.inverse_class[cl.inverse_class[c]] == c

    def test_class_equation_catalog(self):
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 200:
                continue
            cl = conjugacy_classes(G)
            assert sum(cl.sizes) == G.order
            assert all(G.order % s == 0 for s in cl.sizes)

    def test_orbit_stabilizer_catalog(self):
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 200:
                continue
            cl = conjugacy_classes(G)
            for x in range(G.order):
                assert cl.sizes[cl.class_of[x]] * len(centralizer(G, x)) == G.order


    def test_partition_fields_and_methods(self, s4):
        cl = conjugacy_classes(s4)
        assert cl is conjugacy_classes(s4)  # cached on the table
        assert cl.group is s4
        assert cl.count == len(cl.reps) == len(cl.sizes) == len(cl.inverse_class) == len(cl.member_lists) == 5
        assert cl.sizes == (1, 3, 6, 8, 6)
        assert cl.reps == tuple(m[0] for m in cl.member_lists)
        assert len(cl.class_of) == 24
        assert all(cl.class_of[x] == c for c in range(cl.count) for x in cl.member_lists[c])
        assert len(cl.conjugators) == len(s4.generator_ids)
        assert all(row == tuple(s4.conj(x, g) for x in range(24)) for row, g in zip(cl.conjugators, s4.generator_ids))
        klein = closure_indices(s4, cl.member_lists[1])
        assert cl.counts(klein) == {0: 1, 1: 3}
        assert cl.is_union(cl.counts(klein))
        assert not cl.is_union(cl.counts(klein[:2]))

    def test_partition_is_a_slots_record(self, s4):
        cl = conjugacy_classes(s4)
        assert not hasattr(cl, "__dict__")
        with pytest.raises(AttributeError):
            cl.extra = 1


class TestNumberTheory:
    @pytest.mark.parametrize("name", ["is_prime", "prime_factors", "p_part", "_root_of_unity"])
    def test_structure_reexports_grouptable(self, name):
        assert getattr(structure, name) is getattr(grouptable, name)


class TestCentralizerCenter:
    def test_identity_centralizer(self, s3):
        assert len(centralizer(s3, 0)) == s3.order

    def test_central_element(self, q8):
        minus_one = next(i for i in range(q8.order) if i and q8.orders[i] == 2)
        assert len(centralizer(q8, minus_one)) == q8.order

    def test_s3_three_cycle(self, s3):
        x = s3.index_of[(1, 2, 0)]
        c = centralizer(s3, x)
        assert len(c) == 3 and x in c

    def test_matches_permutation_definition(self):
        # Independent oracle: g commutes with x as permutations
        for label, G in small_builtin_groups():
            perms = list(map(Permutation, G.elements))
            for x, px in enumerate(perms):
                want = tuple(g for g, pg in enumerate(perms) if compose(pg, px) == compose(px, pg))
                assert centralizer(G, x).members == want, (label, x)

    def test_center_abelian(self):
        G = builtin("C3xC3").group()
        assert len(center(G)) == 9

    def test_center_s3_trivial(self, s3):
        assert center(s3).members == (0,)

    def test_center_q8(self, q8):
        assert len(center(q8)) == 2


class TestCommutatorAndSeries:
    def test_abelian_trivial(self):
        G = builtin("C2xC4").group()
        assert derived_subgroup(G).members == (0,)

    def test_s3_derived_is_a3(self, s3):
        d = derived_subgroup(s3)
        assert len(d) == 3
        assert all(s3.orders[i] in (1, 3) for i in d.members)

    def test_q8_derived(self, q8):
        assert len(derived_subgroup(q8)) == 2

    def test_s4_derived_series(self, s4):
        assert [len(t) for t in derived_series(s4)] == [24, 12, 4, 1]
        assert is_solvable(s4)

    def test_a5_not_solvable(self, a5):
        assert len(derived_series(a5)[-1]) == 60
        assert not is_solvable(a5)

    def test_p_group_solvable(self):
        assert is_solvable(builtin("Q16").group())

    def test_q8_nilpotent(self, q8):
        assert is_nilpotent(q8)

    def test_s3_not_nilpotent(self, s3):
        assert not is_nilpotent(s3)

    def test_abelian_nilpotent(self):
        assert is_nilpotent(builtin("C12").group())

    def test_solvable_matches_chief_factor_oracle(self):
        # Independent oracle: walk a chief series (minimal-order normal
        # subgroup above each term); solvable iff every factor is a prime power.
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 100:
                continue
            normals = [S for S in subgroups(G) if S.is_normal()]
            current = normals[0]
            assert len(current) == 1
            oracle = True
            while len(current) < G.order:
                cur = set(current.members)
                candidates = [
                    N for N in normals if len(N) > len(current) and cur <= set(N.members)
                ]
                nxt = min(candidates, key=lambda N: (len(N), N.members))
                if len(prime_factors(len(nxt) // len(current))) != 1:
                    oracle = False
                    break
                current = nxt
            assert is_solvable(G) == oracle, entry.label


class TestSubgroupFactsInsideG:
    def test_match_the_subgroup_table(self):
        # Reference: each fact computed on H's own table, mapped back to G;
        # H = G passes G as an explicit S
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 60:
                continue
            for H in subgroups(G)[1:]:
                table, to_parent, _ = subgroup_table(G, H)

                def back(S):
                    return tuple(sorted(to_parent[i] for i in S.members))

                where = (entry.label, H.members)
                assert is_solvable(G, H) == is_solvable(table), where
                assert is_nilpotent(G, H) == is_nilpotent(table), where
                assert derived_subgroup(G, H).members == back(derived_subgroup(table)), where
                assert [back(t) for t in derived_series(table)] == [t.members for t in derived_series(G, H)], where
                for p in prime_factors(G.order):
                    assert o_upper_p(G, p, H).members == back(o_upper_p(table, p)), (where, p)


class TestNormalClosureAndCore:
    def test_normal_h_is_fixed(self, s3):
        A3 = by_order(s3, 3)
        assert normal_closure(s3, A3) == A3

    def test_s3_transposition_generates(self, s3):
        H = by_order(s3, 2)
        assert len(normal_closure(s3, H)) == 6

    def test_s4_double_transposition_gives_v4(self, s4):
        dt = s4.index_of[(1, 0, 3, 2)]
        H = ElementSet(s4, (0, dt))
        assert len(normal_closure(s4, H)) == 4

    def test_least_normal_oracle(self):
        for label in ["S3", "S4", "Q8", "A4", "D6", "Frob(7:3)", "S3xS3"]:
            G = builtin(label).group()
            if G.order > 100:
                continue
            normals = [S for S in subgroups(G) if S.is_normal()]
            for H in subgroups(G):
                closure = normal_closure(G, H)
                hset = set(H.members)
                least = min(
                    (N for N in normals if hset <= set(N.members)),
                    key=lambda N: (len(N), N.members),
                )
                assert closure == least


NORMALITY_LABELS = [e.label for e in builtin_catalog()] + ["S5", "PSL(2,7)", "S4xC2"]


def fresh_group(label):
    """A newly generated table, with nothing cached on it."""
    return psl27() if label == "PSL(2,7)" else builtin(label).group()


class TestNormalityFromClasses:
    @pytest.mark.parametrize("label", NORMALITY_LABELS)
    def test_is_normal_matches_generator_conjugation(self, label):
        G = fresh_group(label)
        for H in subgroups(G):
            assert H.is_normal() == reference_is_normal(G, H.members), (label, H.members)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_any_subset(self, data):
        # a union of classes, with some elements toggled or not
        G = S4_TABLE
        classes = conjugacy_classes(G)
        chosen = data.draw(st.sets(st.integers(0, classes.count - 1)))
        toggled = data.draw(st.sets(st.integers(0, G.order - 1), max_size=3))
        members = {m for c in chosen for m in classes.member_lists[c]} ^ toggled
        S = ElementSet(G, members)
        assert S.is_normal() == reference_is_normal(G, S.members)
        assert sum(classes.counts(S.members).values()) == len(S)

    def test_no_conj_beyond_the_partition_maps(self, monkeypatch):
        # the classes conjugate each element by each generator once; the
        # normality flags and the lattice's conjugates read those maps
        calls = [0]
        original = GroupTable.conj

        def counted(self, x, g):
            calls[0] += 1
            return original(self, x, g)

        monkeypatch.setattr(GroupTable, "conj", counted)
        for label in ["S5", "PSL(2,7)", "S4xC2", "A4"]:
            G = fresh_group(label)
            calls[0] = 0
            flags = [H.is_normal() for H in subgroups(G)]
            assert ElementSet(G, range(0, G.order, 2)).is_normal() in (True, False)
            assert calls[0] == G.order * len(G.generator_ids), label
            assert sum(flags) == sum(reference_is_normal(G, H.members) for H in subgroups(G))

    def test_conjugators_are_the_generator_maps(self, s4):
        classes = conjugacy_classes(s4)
        assert len(classes.conjugators) == len(s4.generator_ids)
        for g, conj in zip(s4.generator_ids, classes.conjugators):
            assert list(conj) == [s4.conj(x, g) for x in range(s4.order)]

    def test_derived_subgroup_of_g_is_computed_once(self, monkeypatch):
        G = builtin("S4").group()
        calls = []
        original = structure._conjugation_closure
        monkeypatch.setattr(structure, "_conjugation_closure", lambda *args: calls.append(args) or original(*args))
        first = derived_subgroup(G)
        assert derived_subgroup(G) is first and len(first) == 12
        assert len(calls) == 1

    def test_a_subgroup_is_never_answered_from_the_cached_g_prime(self):
        # a wrong G' planted in the cache changes no answer for a given S,
        # the whole group as an ElementSet included
        for label in ("S4", "Q8", "Frob(5:4)"):
            fresh = builtin(label).group()
            want = {H.members: derived_subgroup(fresh, H).members for H in subgroups(fresh)}
            G = builtin(label).group()
            G._cache["derived_subgroup"] = ElementSet(G, range(G.order))
            for H in subgroups(G):
                assert derived_subgroup(G, ElementSet(G, H.members)).members == want[H.members], (label, H.members)
            assert len(derived_subgroup(G)) == G.order

    def test_derived_subgroup_of_g_matches_the_whole_set(self):
        # S = None seeds from G's generators, S = G from a generating set of G
        for label in [e.label for e in builtin_catalog()] + ["S5", "S4xC2", "Heis(5)"]:
            G = builtin(label).group()
            assert derived_subgroup(G) == derived_subgroup(G, ElementSet.whole(G)), label


S4_TABLE = builtin("S4").group()


class TestSubgroups:
    def test_prime_cyclic(self):
        assert len(subgroups(builtin("C7").group())) == 2

    def test_s3(self, s3):
        assert len(subgroups(s3)) == 6

    def test_q8(self, q8):
        assert len(subgroups(q8)) == 6

    def test_ordering(self, s4):
        subs = subgroups(s4)
        keys = [(len(H), H.members) for H in subs]
        assert keys == sorted(keys)

    def test_listed_sets_are_not_sorted_again(self, monkeypatch):
        # every listed member tuple is already sorted and in range, so no
        # set goes through ElementSet's checking constructor
        G = builtin("S4xC2").group()
        monkeypatch.setattr(ElementSet, "__init__", lambda *args: pytest.fail("ElementSet.__init__ ran"))
        subs = subgroups(G)
        monkeypatch.undo()
        assert len(subs) == 98
        for H in subs:
            assert H == ElementSet(G, H.members) and H.is_subgroup
            assert H.members == tuple(sorted(set(H.members)))

    def test_known_counts(self):
        for label, expect in [("A4", 10), ("S4", 30), ("A5", 59), ("D6", 16), ("S5", 156)]:
            assert len(subgroups(builtin(label).group())) == expect, label
        assert len(subgroups(psl27())) == 179
        a6 = generate(6, [from_cycles(6, [(0, 1, 2)]), from_cycles(6, [(1, 2, 3, 4, 5)])])
        assert a6.order == 360
        assert len(subgroups(a6)) == 501
        assert len(subgroups(builtin("S6").group())) == 1_455

    def test_elementary_abelian_counts(self):
        # C_p^n has [n choose k]_p subgroups of order p^k, the number of
        # k-dimensional subspaces of F_p^n (OEIS A006116 for p = 2)
        def gaussian_binomial(n, k, p):
            top = math.prod(p ** (n - i) - 1 for i in range(k))
            return top // math.prod(p ** (i + 1) - 1 for i in range(k))

        for p, n, expect in [(2, 5, 374), (2, 6, 2_825), (3, 4, 212), (5, 3, 64)]:
            count = sum(gaussian_binomial(n, k, p) for k in range(n + 1))
            assert count == expect
            label = "x".join([f"C{p}"] * n)
            assert len(subgroups(builtin(label).group())) == count, label

    @pytest.mark.parametrize("label", [entry.label for entry in builtin_catalog()] + ["S5"])
    def test_zuppos_match_a_separate_walk(self, monkeypatch, label):
        # zuppo_of is a copy of the lattice's former second walk of every
        # cyclic subgroup: the least generator of <x> for x of prime-power
        # order, -1 for the other elements
        G = builtin(label).group()

        def zuppo_of(G):
            least = [0] * G.order
            for x in range(1, G.order):
                if not least[x]:
                    walk = G.powers(x)
                    n = len(walk)
                    for k, y in enumerate(walk, 1):
                        if math.gcd(k, n) == 1:
                            least[y] = x
            return [x if x and structure.is_p_group(G.orders[x]) else -1 for x in least]

        want = zuppo_of(G)
        zuppos = [x for x in range(1, G.order) if want[x] == x]
        # on the elements of prime-power order, least_generators is that copy
        assert [z if z == -1 else G.least_generators[y] for y, z in enumerate(want)] == want, label
        joined = []
        original = structure.closure_indices

        def recorded(G, seed, start=((0,), ())):
            joined.extend(seed)
            return original(G, seed, start)

        monkeypatch.setattr(structure, "closure_indices", recorded)
        subs = subgroups(G)
        assert set(joined) <= set(zuppos), label
        cyclic = [
            min(x for x in H if G.orders[x] == len(H))
            for H in subs
            if len(H) > 1 and structure.is_p_group(len(H)) and any(G.orders[x] == len(H) for x in H)
        ]
        assert sorted(cyclic) == zuppos, label

    def test_closure_budget(self, monkeypatch):
        # One join per (class representative A, N_G(A)-orbit of zuppos z
        # outside A with z^p in A, p the prime dividing o(z)), each a
        # closure_indices pass that starts from A's members with the zuppo
        # as its one seed, none from an A of prime index once G is listed,
        # and one more _dimino pass per class, for N_G(A): S5 makes 125
        # joins in 144 passes, PSL(2,7) 101 in 116 and S6 968 in 1,024
        # (159, 136 and 1,408 joins without the z^p test).  A pass whose
        # union of cosets outgrows |G|/p, p the least prime dividing the
        # index of the group it extends, stops there and returns G's member
        # tuple: 46 passes on S5, 46 on PSL(2,7) and 282 on S6.
        joins, passes, stopped = [], [0], [0]
        original_closure, original_dimino = closure_indices, grouptable._dimino

        def counted_closure(G, seed, **kwargs):
            joins.append(tuple(seed))
            return original_closure(G, seed, **kwargs)

        def counted_dimino(G, *args, **kwargs):
            passes[0] += 1
            result = original_dimino(G, *args, **kwargs)
            stopped[0] += result[0] is G.members
            return result

        monkeypatch.setattr(structure, "closure_indices", counted_closure)
        for module in (grouptable, structure):
            monkeypatch.setattr(module, "_dimino", counted_dimino)
        for G, join_budget, pass_budget, at_bound in [
            (builtin("S5").group(), 130, 150, 46),
            (psl27(), 105, 120, 46),
            (builtin("S6").group(), 980, 1_040, 282),
        ]:
            joins.clear()
            passes[0] = stopped[0] = 0
            subgroups(G)
            assert len(joins) < join_budget and passes[0] < pass_budget, (G, len(joins), passes[0])
            assert all(len(seed) == 1 for seed in joins)
            # every class but the trivial one is first found by a join, so
            # joins made around closure_indices leave this count short
            assert len(joins) >= len(G._cache["subgroup_classes"]) - 1, (G, len(joins))
            assert stopped[0] == at_bound, (G, stopped[0])

    def test_mul_budget(self, table_reads):
        # Each closure adds whole cosets of the group built so far, one
        # table row mapped over it, starts from the subgroup it extends and
        # stops once Lagrange says it is G; every product the lattice
        # makes, class partition included.  The zuppos are read off the
        # generation walk, so the lattice walks no cyclic subgroup.
        for label, budget in [("S5", 10_808), ("S6", 263_665)]:
            G = builtin(label).group()
            reads = table_reads(G)
            subgroups(G)
            assert sum(reads.values()) <= budget, (label, sum(reads.values()))

    def test_lattice_digest(self):
        # The member tuples of every subgroup list, pinned as recorded when
        # each class representative was still joined with every zuppo.
        groups = [entry.group() for entry in builtin_catalog()]
        groups += [builtin("S5").group(), psl27(), builtin("S4xC2").group(), builtin("A6").group(), builtin("S6").group()]
        digest = hashlib.sha256()
        for G in groups:
            digest.update(repr([H.members for H in subgroups(G)]).encode())
        assert digest.hexdigest() == "b7f358507eb677327f7787ca22044140cd57d6f5789723022b4b8ce3692f3aab"

    def test_class_normalizers(self):
        # N_G(A) from the Schreier generators of A's class orbit, against
        # the normalizer computed element by element; the class size is its
        # index, and the classes of size 1 are the normal subgroups.
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 60:
                continue
            listed = subgroups(G)
            classes = G._cache["subgroup_classes"]
            assert sum(size for _, size, _ in classes) == len(listed), entry.label
            for members, size, gens in classes:
                want = normalizer(G, ElementSet(G, members))
                assert closure_indices(G, gens) == want.members, (entry.label, members)
                assert size * len(want) == G.order, (entry.label, members)
            assert normal_subgroups(G) == [H for H in listed if reference_is_normal(G, H.members)], entry.label

    def test_complete_under_single_element_joins(self):
        # Independent of how subgroups are found: the list holds distinct
        # subgroups, joining any of them with any element stays in it, and
        # its length is the known count.  S5, S4xC2 and PSL(2,7) are where
        # the z^p test skips the most zuppos.
        groups = [(e.label, e.group(), None) for e in builtin_catalog() if e.order <= 60]
        groups += [("S5", builtin("S5").group(), 156), ("S4xC2", builtin("S4xC2").group(), 98), ("PSL(2,7)", psl27(), 179)]
        for label, G, count in groups:
            listed = [H.members for H in subgroups(G)]
            assert len(set(listed)) == len(listed), label
            assert all(ElementSet(G, m).is_subgroup for m in listed), label
            found = set(listed)
            for members in listed:
                inside = set(members)
                gens = small_generating_set(G, members)
                for x in range(G.order):
                    if x not in inside:
                        assert closure_indices(G, gens + (x,)) in found, (label, members, x)
            assert count is None or len(listed) == count, label

    def test_count_cap(self, monkeypatch):
        monkeypatch.setattr(structure, "SUBGROUP_CAP", 29)
        with pytest.raises(CapExceeded, match="subgroup cap exceeded") as exc:
            subgroups(builtin("S4").group())
        assert exc.value.partial == 29
        monkeypatch.setattr(structure, "SUBGROUP_CAP", 30)
        assert len(subgroups(builtin("S4").group())) == 30

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(RELABEL_LABELS), st.randoms(use_true_random=False))
    def test_relabelling_invariance(self, label, rng):
        # Relabelling the points conjugates G inside Sym(n): an isomorphic
        # group with different element indices and the same lattice shape.
        entry = builtin(label)
        points = list(range(entry.degree))
        rng.shuffle(points)
        sigma = Permutation(points)
        G = generate(entry.degree, [conjugate(g, sigma) for g in entry.generators])
        subs = subgroups(G)
        assert lattice_shape(subs) == lattice_shape(subgroups(entry.group()))
        listed = {H.members for H in subs}
        for H in subs:
            for g in G.generator_ids:
                assert tuple(sorted(G.conj(h, g) for h in H.members)) in listed


VERDICT_LABELS = [e.label for e in builtin_catalog()] + ["S5", "A6", "PSL(2,7)"]


class TestStructureVerdicts:
    def test_verdicts_are_pinned(self):
        # sha256 of is_simple(G) and of (label, subgroup index, nilpotent,
        # solvable) for every subgroup, as recorded from the upper central
        # series and the per-class normal closures: 1,681 subgroups
        digest, count = hashlib.sha256(), 0
        for label in VERDICT_LABELS:
            G = fresh_group(label)
            digest.update(repr((label, is_simple(G))).encode())
            for idx, H in enumerate(subgroups(G)):
                digest.update(repr((label, idx, is_nilpotent(G, H), is_solvable(G, H))).encode())
                count += 1
        assert count == 1681
        assert digest.hexdigest() == "7afc95a9bcad6419ea1ace5a6eb40ed5a2775bc1879a358e9e5adb30816cf1ef"

    @pytest.mark.parametrize("label", VERDICT_LABELS + ["C1"])
    def test_simple_iff_nonabelian_with_two_normal_subgroups(self, label):
        G = fresh_group(label)
        nonabelian = len(center(G)) < G.order
        assert is_simple(G) == (nonabelian and len(normal_subgroups(G)) == 2)


class TestSylowAndFittingPieces:
    def test_p_group(self, q8):
        assert len(o_lower_p(q8, 2)) == 8
        assert o_upper_p(q8, 2).members == (0,)

    def test_s3_p2(self, s3):
        assert o_lower_p(s3, 2).members == (0,)
        assert len(o_upper_p(s3, 2)) == 3

    def test_s3_p3(self, s3):
        assert len(o_lower_p(s3, 3)) == 3
        assert len(o_upper_p(s3, 3)) == 6

    def test_p_not_dividing(self, s3):
        assert o_lower_p(s3, 5).members == (0,)
        assert len(o_upper_p(s3, 5)) == 6

    def test_s4_and_sl23_p2(self):
        assert len(o_lower_p(builtin("S4").group(), 2)) == 4  # the Klein four-group
        assert len(o_lower_p(builtin("SL23").group(), 2)) == 8  # the quaternion group

    @pytest.mark.parametrize("label", NORMALITY_LABELS)
    def test_o_lower_p_is_the_largest_normal_p_subgroup(self, label):
        G = fresh_group(label)
        for p in prime_factors(G.order):
            O = o_lower_p(G, p)
            assert O.is_subgroup and O.is_normal() and p_part(len(O), p) == len(O), p
            for N in normal_subgroups(G):
                if p_part(len(N), p) == len(N):
                    assert set(N.members) <= set(O.members), (p, N.members)

    def test_o_upper_invariants(self):
        # quotient is a p-group and O^p is idempotent
        for entry in builtin_catalog():
            G = entry.group()
            if G.order > 100:
                continue
            for p in prime_factors(G.order):
                K = o_upper_p(G, p)
                assert K.is_normal()
                quotient = G.order // len(K)
                assert p_part(quotient, p) == quotient
                table, _unused, _ = subgroup_table(G, K)
                assert len(o_upper_p(table, p)) == len(K)


class TestFrobeniusDetection:
    def test_s3_a3(self, s3):
        assert is_frobenius_with_kernel(s3, by_order(s3, 3))

    def test_q8_center_not(self, q8):
        assert not is_frobenius_with_kernel(q8, by_order(q8, 2))

    def test_frob21(self, frob21):
        c7 = next(H for H in subgroups(frob21) if len(H) == 7)
        assert is_frobenius_with_kernel(frob21, c7)

    def test_non_normal_rejected(self, s3):
        assert not is_frobenius_with_kernel(s3, by_order(s3, 2))


def small_builtin_groups(max_order=60):
    return [(e.label, e.group()) for e in builtin_catalog() if e.group().order <= max_order]


def elementwise_center(G):
    members = set(range(G.order))
    for g in G.generator_ids:
        members &= set(centralizer(G, g).members)
    return ElementSet(G, members)


def elementwise_frobenius_kernel(G, N):
    if not N.is_subgroup or not N.is_normal() or len(N) in (1, G.order):
        return False
    return all(g in N for n in N.members if n != 0 for g in centralizer(G, n).members)


class TestClassRepresentativesMatchElementwise:
    """The normal subsets read off one representative per class equal the
    element-by-element definitions on every builtin group of order <= 60."""

    def test_center(self):
        for label, G in small_builtin_groups():
            assert center(G) == elementwise_center(G), label

    def test_frobenius_kernel(self):
        kernels = 0
        for label, G in small_builtin_groups():
            for N in subgroups(G):
                got = is_frobenius_with_kernel(G, N)
                assert got == elementwise_frobenius_kernel(G, N), (label, N.members)
                kernels += got
        assert kernels == 9  # D3, S3, D5, A4, D7, D9, Frob(5:4), Frob(7:3), D11
