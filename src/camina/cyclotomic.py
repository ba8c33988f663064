"""Exact arithmetic in rings of cyclotomic integers Z[zeta_e].

Values are integer coefficient vectors of length deg(Phi_e), reduced
modulo the e-th cyclotomic polynomial.  Zero tests and equality are
exact; mixed root orders are aligned by embedding into the lcm ring.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of monic integer polynomial division with zero remainder."""
    num = list(num)
    dn = len(den) - 1
    q = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - dn] = c
        for j, d in enumerate(den):
            num[i - dn + j] -= c * d
    if any(num[:dn]):
        raise ArithmeticError("division was not exact")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients (ascending) of Phi_e, by dividing x^e - 1 by all Phi_d, d|e, d<e."""
    if e == 1:
        return (-1, 1)
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num = _poly_divmod_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


class _Ring:
    """Reduction data for Z[x]/Phi_e: rows[k] = x^k reduced, 0 <= k < e,
    so x^k is rows[k % e] for every k."""

    def __init__(self, e: int):
        self.e = e
        phi = cyclotomic_polynomial(e)
        self.deg = len(phi) - 1
        rows: list[tuple[int, ...]] = []
        for k in range(self.deg):
            rows.append(tuple(1 if i == k else 0 for i in range(self.deg)))
        for k in range(self.deg, e):
            # x^k = x * x^(k-1), then kill the top coefficient with the monic Phi_e.
            prev = rows[k - 1]
            shifted = [0] + list(prev[:-1])
            top = prev[-1]
            if top:
                for i in range(self.deg):
                    shifted[i] -= top * phi[i]
            rows.append(tuple(shifted))
        self.rows = rows


@lru_cache(maxsize=None)
def _ring(e: int) -> _Ring:
    return _Ring(e)


def _root_sum(ring: _Ring, terms: Iterable[tuple[int, int]]) -> list[int]:
    """Coefficients of sum c * zeta_e^k over the (k, c) terms, reduced."""
    acc = [0] * ring.deg
    for k, c in terms:
        if c == 0:
            continue
        row = ring.rows[k % ring.e]
        for i in range(ring.deg):
            acc[i] += c * row[i]
    return acc


class Cyc:
    """An element of Z[zeta_e] in the power basis of zeta_e mod Phi_e."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs: Sequence[int]):
        ring = _ring(e)
        if len(coeffs) != ring.deg:
            raise ValueError(f"expected {ring.deg} coefficients for e={e}")
        self.e = e
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, e: int) -> Cyc:
        return cls(e, (0,) * _ring(e).deg)

    @classmethod
    def root_power(cls, e: int, k: int) -> Cyc:
        """zeta_e^k reduced mod Phi_e."""
        return cls(e, _ring(e).rows[k % e])

    @classmethod
    def from_root_multiset(cls, e: int, counts: dict[int, int]) -> Cyc:
        """Sum of counts[k] copies of zeta_e^k."""
        return cls(e, _root_sum(_ring(e), counts.items()))

    def rebase(self, new_e: int) -> Cyc:
        """Embed into Z[zeta_new_e] via zeta_e = zeta_new_e^(new_e/e)."""
        if new_e == self.e:
            return self
        if new_e % self.e:
            raise ValueError(f"cannot embed Z[zeta_{self.e}] into Z[zeta_{new_e}]")
        step = new_e // self.e
        return Cyc(new_e, _root_sum(_ring(new_e), ((j * step, c) for j, c in enumerate(self.coeffs))))

    def _aligned(self, other: Cyc) -> tuple[Cyc, Cyc]:
        if self.e == other.e:
            return self, other
        e = math.lcm(self.e, other.e)
        return self.rebase(e), other.rebase(e)

    def __add__(self, other: Cyc) -> Cyc:
        a, b = self._aligned(other)
        return Cyc(a.e, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __mul__(self, other: Cyc | int) -> Cyc:
        if isinstance(other, int):
            return Cyc(self.e, tuple(other * x for x in self.coeffs))
        a, b = self._aligned(other)
        conv = [0] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    conv[i + j] += x * y
        return Cyc(a.e, _root_sum(_ring(a.e), enumerate(conv)))

    __rmul__ = __mul__

    def galois(self, a: int) -> Cyc:
        """The Galois automorphism sigma_a: zeta_e -> zeta_e^a, a prime to e."""
        return Cyc(self.e, _root_sum(_ring(self.e), ((a * j, c) for j, c in enumerate(self.coeffs))))

    def conjugate(self) -> Cyc:
        """Complex conjugation: zeta_e -> zeta_e^(e-1)."""
        return self.galois(-1)

    def divide_exact(self, n: int) -> Cyc:
        if any(c % n for c in self.coeffs):
            raise ArithmeticError(f"coefficients {self.coeffs} not divisible by {n}")
        return Cyc(self.e, tuple(c // n for c in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_rational_integer():
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.is_rational_integer() and self.coeffs[0] == other
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._aligned(other)
        return a.coeffs == b.coeffs

    # Equal values can live in different rings, so Cyc stays unhashable.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Cyc({self.e}, {self.coeffs})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
                continue
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            power = f"z{self.e}" if j == 1 else f"z{self.e}^{j}"
            sign = "-" if c < 0 else ("+" if terms else "")
            terms.append(f"{sign}{mag}{power}")
        return "".join(terms)
