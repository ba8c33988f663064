import pytest
from hypothesis import given, strategies as st

from camina.cyclotomic import Cyc, cyclotomic_polynomial


KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_known_cyclotomic_polynomials():
    for e, coeffs in KNOWN_PHI.items():
        assert cyclotomic_polynomial(e) == coeffs


def test_product_of_divisors_is_x_to_e_minus_1():
    for e in range(1, 31):
        prod = [1]
        for d in range(1, e + 1):
            if e % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expect = [-1] + [0] * (e - 1) + [1]
        assert prod == expect


def test_root_power_wraps():
    for e in (1, 2, 3, 4, 6, 8, 12):
        assert Cyc.root_power(e, e) == Cyc(1, (1,)).rebase(e)
        assert Cyc.root_power(e, 0) == 1


def test_prime_root_sum_vanishes():
    for p in (2, 3, 5, 7, 11):
        total = Cyc.zero(p)
        for k in range(p):
            total = total + Cyc.root_power(p, k)
        assert total.is_zero()


def test_conjugate_is_involution_and_inverts_roots():
    for e in (3, 4, 5, 8, 12):
        for k in range(e):
            z = Cyc.root_power(e, k)
            assert z.conjugate() == Cyc.root_power(e, e - k)
            assert z.conjugate().conjugate() == z


def test_norm_of_root_is_one():
    for e in (3, 4, 5, 8, 12):
        z = Cyc.root_power(e, 1)
        assert z * z.conjugate() == 1


def test_rebase_embeds_consistently():
    minus_one = Cyc.root_power(6, 3)
    assert minus_one == Cyc(1, (-1,)).rebase(2)
    assert Cyc.root_power(3, 1).rebase(6) == Cyc.root_power(6, 2)
    with pytest.raises(ValueError):
        Cyc.root_power(4, 1).rebase(6)


def test_mixed_root_order_arithmetic():
    a = Cyc.root_power(3, 1)
    b = Cyc.root_power(2, 1)  # -1
    assert (a * b) == -1 * a.rebase(6)
    assert (a + b).rebase(12) == a.rebase(12) + b.rebase(12)


def test_divide_exact():
    v = Cyc(1, (6,)).rebase(4) + Cyc.root_power(4, 1) * 9
    assert v.divide_exact(3) == Cyc(1, (2,)).rebase(4) + Cyc.root_power(4, 1) * 3
    with pytest.raises(ArithmeticError):
        v.divide_exact(4)


def test_rational_integer_detection():
    assert Cyc(1, (5,)).rebase(12).is_rational_integer()
    assert Cyc(1, (5,)).rebase(12).as_int() == 5
    z = Cyc.root_power(8, 1)
    assert not z.is_rational_integer()
    with pytest.raises(ValueError):
        z.as_int()


def test_from_root_multiset():
    v = Cyc.from_root_multiset(4, {0: 2, 1: 1, 2: 1})
    assert v == Cyc(1, (2,)).rebase(4) + Cyc.root_power(4, 1) + Cyc.root_power(4, 2)


small_e = st.sampled_from([1, 2, 3, 4, 6, 8, 12])


@st.composite
def cyc_pairs(draw, count=2):
    e = draw(small_e)
    deg = len(cyclotomic_polynomial(e)) - 1
    vals = []
    for _ in range(count):
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg))
        vals.append(Cyc(e, coeffs))
    return vals


@given(cyc_pairs(3))
def test_ring_laws(vals):
    a, b, c = vals
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Cyc.zero(a.e) == a
    assert a * Cyc(1, (1,)).rebase(a.e) == a


@given(cyc_pairs(2))
def test_conjugation_is_ring_homomorphism(vals):
    a, b = vals
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
