import random

import pytest
from hypothesis import given, settings, strategies as st

from camina.catalog import builtin, builtin_catalog
from camina.grouptable import (
    DEFAULT_ORDER_CAP,
    CapExceeded,
    ElementSet,
    closure_indices,
    generate,
    quotient_table,
    small_generating_set,
    subgroup_table,
)
from camina.perm import Permutation
from camina.structure import conjugacy_classes, subgroups
from reference import (
    compose,
    conjugate,
    element_order,
    from_cycles,
    inverse,
    power,
    reference_closure_indices,
    reference_is_subgroup,
    reference_small_generating_set,
    table_power,
)

SMALL_LABELS = [entry.label for entry in builtin_catalog() if entry.group().order <= 60]


def composed_table(elements, ids):
    """The rows ``ids`` of the Cayley table of the image tuples
    ``elements`` and their inverses, by ``reference.compose`` and
    ``reference.inverse`` looked up in the elements' own index."""
    index = {p: i for i, p in enumerate(elements)}
    perms = list(map(Permutation, elements))
    rows = [[index[compose(perms[x], y).images] for y in perms] for x in ids]
    return rows, [index[inverse(perms[x]).images] for x in ids]


def cyc(degree, *cycles):
    return from_cycles(degree, cycles)


def coset(G, x, H):
    """The left coset xH, read off G's product."""
    return ElementSet(G, (G.mul(x, h) for h in H.members))


class TestGenerate:
    def test_s3(self):
        G = generate(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))])
        assert G.order == 6

    def test_trivial(self):
        G = generate(1, [])
        assert G.order == 1
        assert G.elements[0] == (0,)

    def test_cyclic_from_four_cycle(self):
        G = generate(4, [cyc(4, (0, 1, 2, 3))])
        assert G.order == 4

    def test_cap_exceeded(self):
        # generation stops at the first element over the cap
        gens = [cyc(4, (0, 1)), cyc(4, (0, 1, 2, 3))]
        for cap in (1, 10, 23):
            with pytest.raises(CapExceeded) as exc:
                generate(4, gens, cap=cap)
            assert exc.value.partial == cap + 1
        assert generate(4, gens, cap=24).order == 24

    def test_default_cap_stops_a7(self):
        # |A7| = 2520 is above the one order cap, 2000
        with pytest.raises(CapExceeded) as exc:
            builtin("A7").group()
        assert exc.value.partial == DEFAULT_ORDER_CAP + 1

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            generate(4, [cyc(3, (0, 1))])

    def test_degree_zero(self):
        with pytest.raises(ValueError, match="^permutation must have positive degree$"):
            generate(0, [])

    def test_elements_are_sorted_image_tuples_of_bijections(self):
        # generate keeps the products it found as image tuples, without
        # checking them again; each is a bijection, as the checking
        # constructor finds
        G = builtin("S5").group()
        assert G.order == 120
        for x in G.elements:
            checked = Permutation(x)
            assert type(x) is tuple
            assert x == checked.images and hash(x) == hash(checked)
        assert sorted(G.elements) == list(G.elements)

    def test_canonical_order(self):
        G = generate(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))])
        images = list(G.elements)
        assert images == sorted(images)
        assert G.elements[0] == (0, 1, 2)
        for i, p in enumerate(G.elements):
            assert G.index_of[p] == i

    def test_closure_and_inverses(self):
        for label in ["S3", "Q8", "S4", "D6", "Frob(7:3)"]:
            G = builtin(label).group()
            members = set(range(G.order))
            for i in range(G.order):
                assert G.inv(G.inv(i)) == i
                assert G.mul(i, G.inv(i)) == 0
                for j in range(G.order):
                    assert G.mul(i, j) in members

    @pytest.mark.parametrize("label", [entry.label for entry in builtin_catalog()] + ["S5", "S6", "Heis(5)"])
    def test_matches_the_table_built_from_its_elements(self, label):
        # Every row by permutation composition and every inverse by
        # permutation inversion, independent of the generation walk; S6 on
        # its generators and 20 seeded elements.
        entry = builtin(label)
        G = entry.group()
        assert G.order == entry.order
        assert list(G.elements) == sorted(G.elements)
        assert G.index_of == {p: i for i, p in enumerate(G.elements)}
        assert [G.elements[g] for g in G.generator_ids] == [g.images for g in entry.generators]
        ids = range(G.order)
        if label == "S6":
            ids = sorted({*G.generator_ids, *random.Random(label).sample(ids, 20)})
        rows, inverse_ids = composed_table(G.elements, ids)
        assert [G.rows[x] for x in ids] == rows
        assert [G.inv(x) for x in ids] == inverse_ids

    def test_regeneration_is_deterministic(self):
        a = builtin("S4").group()
        b = builtin("S4").group()
        assert a.elements == b.elements
        assert a.generator_ids == b.generator_ids


class TestCayleyTable:
    """The table against permutation arithmetic, pair by pair."""

    @pytest.mark.parametrize("label", SMALL_LABELS + ["S5"])
    def test_mul_is_compose(self, label):
        G = builtin(label).group()
        els = list(map(Permutation, G.elements))
        for i in range(G.order):
            for j in range(G.order):
                assert G.mul(i, j) == G.index_of[compose(els[i], els[j]).images]

    @pytest.mark.parametrize("label", SMALL_LABELS + ["S5"])
    def test_conj_commutator_power_inv(self, label):
        G = builtin(label).group()
        els, index = list(map(Permutation, G.elements)), G.index_of
        for x in range(G.order):
            assert G.inv(x) == index[inverse(els[x]).images]
            o = G.element_order(x)
            for k in range(-2 * o, 2 * o + 1):  # 0, negative k and multiples of o
                assert table_power(G, x, k) == index[power(els[x], k).images]
        for a in range(G.order):
            for b in range(G.order):
                assert G.conj(a, b) == index[conjugate(els[a], els[b]).images]
                ab = compose(compose(compose(inverse(els[a]), inverse(els[b])), els[a]), els[b])
                assert G.commutator(a, b) == index[ab.images]

    @pytest.mark.parametrize("label", [entry.label for entry in builtin_catalog()])
    def test_element_order_is_permutation_order(self, label):
        # the table walk against the lcm of the cycle lengths; the orders of
        # all generators of <x> come from one walk of <x>, so query forwards
        # and backwards
        els = list(map(Permutation, builtin(label).group().elements))
        want = [element_order(x) for x in els]
        for ids in (range(len(els)), reversed(range(len(els)))):
            G = builtin(label).group()
            assert {x: G.element_order(x) for x in ids} == dict(enumerate(want)), label
        G = builtin(label).group()
        for x in range(G.order):
            assert G.powers(x) == [G.index_of[power(els[x], j).images] for j in range(1, want[x] + 1)]

    @pytest.mark.parametrize("label", [entry.label for entry in builtin_catalog()] + ["S5", "S6"])
    def test_least_generator_is_least_y_with_the_same_cyclic_subgroup(self, label):
        # <x> from the permutation powers of x, independent of the table walk
        G = builtin(label).group()
        cyclic = [
            frozenset(G.index_of[power(x, k).images] for k in range(element_order(x)))
            for x in map(Permutation, G.elements)
        ]
        want = [min(y for y in C if cyclic[y] == C) for C in cyclic]
        assert list(G.least_generators) == want, label
        assert list(G.orders) == list(map(len, cyclic)), label

    def test_trivial_table(self):
        assert generate(1, []).rows == [[0]]
        assert generate(3, [Permutation(range(3))]).rows == [[0]]

class TestClosure:
    def test_identity_never_multiplies(self, table_reads):
        # Each coset is one row of the table mapped over the group built so
        # far, and each representative a row entry: the identity's row is
        # never read.
        G = builtin("S4").group()
        reads = table_reads(G)
        for seed in ([0], [0, 1], [5, 0, 9], list(range(G.order))):
            closure_indices(G, seed)
        assert reads and 0 not in reads
        assert closure_indices(G, [0]) == (0,)
        assert closure_indices(G, range(G.order)) == tuple(range(G.order))

    def test_start_from_a_subgroup(self):
        # Starting from a subgroup's members and generators gives the
        # closure of the generators and the seeds together.
        for label in ["S4", "D6", "Q8", "C2xA4"]:
            G = builtin(label).group()
            for H in subgroups(G):
                gens = small_generating_set(G, H.members)
                for x in range(0, G.order, 5):
                    want = reference_closure_indices(G, gens + (x,))
                    assert closure_indices(G, (x,), start=(H.members, gens)) == want, (label, H.members, x)


def assert_matches_reference(G, members):
    """closure_indices, small_generating_set and is_subgroup on ``members``
    agree with the breadth-first, re-closing and all-pairs versions."""
    closure = closure_indices(G, members)
    assert closure == reference_closure_indices(G, members)
    is_subgroup = ElementSet(G, members).is_subgroup
    assert is_subgroup == reference_is_subgroup(G, members)
    gens = small_generating_set(G, members)
    want = reference_small_generating_set(G, members)
    if is_subgroup:
        assert gens == want
    else:
        # the reference stops once it has reached len(members) elements,
        # which a non-subgroup's closure can do before every member is seen
        assert gens[: len(want)] == want
    assert closure_indices(G, gens) == closure


class TestClosureAgainstReference:
    @pytest.mark.parametrize("label", SMALL_LABELS)
    def test_subgroups_classes_and_cosets(self, label):
        G = builtin(label).group()
        subs = subgroups(G)
        sets = {H.members for H in subs}
        classes = conjugacy_classes(G)
        sets.update(classes.members(cid) for cid in range(classes.count))
        sets.update(coset(G, x, H).members for H in subs for x in range(G.order))
        for members in sets:
            assert_matches_reference(G, members)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_drawn_seed_sets(self, data):
        G = builtin(data.draw(st.sampled_from(SMALL_LABELS))).group()
        seeds = data.draw(st.lists(st.integers(0, G.order - 1), max_size=6))
        assert closure_indices(G, seeds) == reference_closure_indices(G, seeds)
        members = tuple(sorted(set(seeds)))
        assert_matches_reference(G, members)
        assert_matches_reference(G, closure_indices(G, seeds))


class TestElementSet:
    def test_subgroup_flag(self, s3):
        subs = subgroups(s3)
        for H in subs:
            assert H.is_subgroup
        not_group = ElementSet(s3, (0, 1, 2))
        assert not not_group.is_subgroup

    def test_members_sorted_unique(self, s3):
        es = ElementSet(s3, (3, 1, 3, 0))
        assert es.members == (0, 1, 3)

    def test_out_of_range(self, s3):
        with pytest.raises(ValueError):
            ElementSet(s3, (99,))

    def test_sorted_members_taken_as_they_are(self, s3):
        # the lattice's members are sorted closures, so they skip the
        # constructor's sort and range check and give the same set
        members = closure_indices(s3, [1])
        es = ElementSet._sorted(s3, members, is_subgroup=True)
        assert es.members is members
        assert es == ElementSet(s3, members) and hash(es) == hash(ElementSet(s3, members))
        assert es.is_subgroup and list(es) == list(members) and all(x in es for x in members)
        assert ElementSet._sorted(s3, (0, 1, 2)).is_subgroup is False

    @pytest.mark.parametrize(
        "members, named",
        [((99,), 99), ((3, 7, 6, 0), 6), ((5, -1, 99, -4), -4), ((-2,), -2), ((0, 1, 2, 3, 4, 5, 6), 6)],
    )
    def test_out_of_range_message(self, s3, members, named):
        # the least negative member, or else the least member >= |G|
        with pytest.raises(ValueError, match=f"^element index {named} out of range$"):
            ElementSet(s3, members)


class TestLeftCoset:
    """The left cosets that the coset scans and Dimino's closure walk."""

    def test_member_gives_subgroup(self, s3):
        H = next(H for H in subgroups(s3) if len(H) == 3)
        for x in H.members:
            assert coset(s3, x, H) == H

    def test_whole_group(self, s3):
        whole = ElementSet.whole(s3)
        for x in range(s3.order):
            assert coset(s3, x, whole) == whole

    def test_s3_example(self, s3):
        H = next(H for H in subgroups(s3) if len(H) == 2 and s3.index_of[(1, 0, 2)] in H)
        x = s3.index_of[(1, 2, 0)]
        xH = coset(s3, x, H)
        assert len(xH) == 2
        assert x in xH

    def test_lagrange_partition(self, s4):
        for H in subgroups(s4):
            seen = set()
            cosets = set()
            for x in range(s4.order):
                c = coset(s4, x, H)
                assert len(c) == len(H)
                cosets.add(c.members)
                seen.update(c.members)
            assert len(cosets) == s4.order // len(H)
            assert len(seen) == s4.order


class TestSubgroupTable:
    def test_round_trip(self, s4):
        H = next(H for H in subgroups(s4) if len(H) == 8)
        table, to_parent, from_parent = subgroup_table(s4, H)
        assert table.order == 8
        assert to_parent == H.members
        for i, g_idx in enumerate(to_parent):
            assert from_parent[g_idx] == i
        # products agree through the embedding
        for i in range(table.order):
            for j in range(table.order):
                assert to_parent[table.mul(i, j)] == s4.mul(to_parent[i], to_parent[j])

    def test_cached(self, s4):
        H = next(H for H in subgroups(s4) if len(H) == 4)
        assert subgroup_table(s4, H)[0] is subgroup_table(s4, H)[0]

    @pytest.mark.parametrize("label", ["S4", "A5"])
    def test_matches_the_table_built_from_its_elements(self, label):
        # every subgroup's table against composition and inversion of its
        # members, with the generators small_generating_set keeps
        G = builtin(label).group()
        for H in subgroups(G):
            table = subgroup_table(G, H)[0]
            elements = [G.elements[m] for m in H.members]
            assert list(table.elements) == elements
            assert table.generator_ids == tuple(map(H.members.index, small_generating_set(G, H.members)))
            rows, inverse_ids = composed_table(elements, range(len(H)))
            assert table.rows == rows
            assert list(table.inverse_ids) == inverse_ids


class TestQuotientTable:
    def test_s3_mod_a3(self, s3):
        A3 = next(H for H in subgroups(s3) if len(H) == 3)
        Q, proj = quotient_table(s3, A3)
        assert Q.order == 2
        for i in range(s3.order):
            for j in range(s3.order):
                assert proj[s3.mul(i, j)] == Q.mul(proj[i], proj[j])
        assert {proj[i] for i in A3.members} == {0}

    def test_requires_normal(self, s3):
        H = next(H for H in subgroups(s3) if len(H) == 2)
        with pytest.raises(ValueError):
            quotient_table(s3, H)

    def test_s4_mod_v4(self, s4):
        V4 = next(H for H in subgroups(s4) if len(H) == 4 and H.is_normal())
        Q, proj = quotient_table(s4, V4)
        assert Q.order == 6
        kernel = [i for i in range(s4.order) if proj[i] == 0]
        assert tuple(kernel) == V4.members
