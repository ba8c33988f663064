import re

import pytest
from hypothesis import given, strategies as st

from camina.perm import Permutation, cycles
from reference import compose, conjugate, element_order, from_cycles, inverse, power


def cyc(degree, *cycle_list):
    return from_cycles(degree, cycle_list)


perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(range(n)).map(Permutation)
)


def same_degree_perms(count):
    return st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(*(st.permutations(range(n)).map(Permutation) for _ in range(count)))
    )


class TestCompose:
    def test_involution_squared(self):
        t = cyc(2, (0, 1))
        assert compose(t, t) == Permutation(range(2))

    def test_identity_law(self):
        p = cyc(5, (0, 3, 1), (2, 4))
        e = Permutation(range(5))
        assert compose(e, p) == p
        assert compose(p, e) == p

    def test_three_cycle_squared(self):
        r = cyc(3, (0, 1, 2))
        assert compose(r, r) == cyc(3, (0, 2, 1))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation(range(2)), Permutation(range(3)))

    @given(same_degree_perms(3))
    def test_associative(self, abc):
        a, b, c = abc
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestInverse:
    def test_identity(self):
        assert inverse(Permutation(range(4))) == Permutation(range(4))

    def test_involution(self):
        t = cyc(3, (0, 1))
        assert inverse(t) == t

    def test_three_cycle(self):
        assert inverse(cyc(3, (0, 1, 2))) == cyc(3, (0, 2, 1))

    @given(perms)
    def test_left_and_right_inverse(self, p):
        e = Permutation(range(p.degree))
        assert compose(p, inverse(p)) == e
        assert compose(inverse(p), p) == e

    @given(perms)
    def test_involution_property(self, p):
        assert inverse(inverse(p)) == p


class TestElementOrder:
    def test_identity(self):
        assert element_order(Permutation(range(3))) == 1

    def test_lcm_of_cycle_lengths(self):
        assert element_order(cyc(5, (0, 1), (2, 3, 4))) == 6

    def test_three_cycle(self):
        assert element_order(cyc(3, (0, 1, 2))) == 3

    @given(perms)
    def test_power_of_order_is_identity(self, p):
        n = element_order(p)
        assert power(p, n) == Permutation(range(p.degree))
        for d in range(1, n):
            if n % d == 0:
                assert power(p, d) != Permutation(range(p.degree))


class TestConjugate:
    def test_by_identity(self):
        x = cyc(4, (0, 2, 1))
        assert conjugate(x, Permutation(range(4))) == x

    def test_of_identity(self):
        g = cyc(4, (0, 2, 1, 3))
        assert conjugate(Permutation(range(4)), g) == Permutation(range(4))

    def test_transposition_by_three_cycle(self):
        assert conjugate(cyc(3, (0, 1)), cyc(3, (0, 1, 2))) == cyc(3, (1, 2))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(Permutation(range(2)), Permutation(range(3)))

    @given(same_degree_perms(2))
    def test_preserves_order(self, xg):
        x, g = xg
        assert element_order(conjugate(x, g)) == element_order(x)

    @given(same_degree_perms(2))
    def test_matches_definition(self, xg):
        x, g = xg
        assert conjugate(x, g) == compose(compose(inverse(g), x), g)


class TestValidation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Permutation((0, 3, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Permutation(())

    @pytest.mark.parametrize(
        "images",
        [(0, 2, 2), (0, -1, 1), (0, 3, 1), (0, 1.0, 2), (0, "1", 2)],
        ids=["duplicate", "negative", "out-of-range", "float", "string"],
    )
    def test_rejection_message(self, images):
        with pytest.raises(ValueError, match=re.escape(f"images {images!r} are not a bijection of 0..2")):
            Permutation(images)

    def test_from_cycles_rejects_repeated_point(self):
        with pytest.raises(ValueError):
            from_cycles(4, [(0, 1), (1, 2)])

    def test_cycles_round_trip(self):
        p = cyc(6, (0, 4), (1, 2, 5))
        assert from_cycles(6, cycles(p.images)) == p
