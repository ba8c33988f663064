"""Permutations of {0, ..., n-1} stored as image tables.

All group elements in this package are permutations; composition reads
left to right (``compose(a, b)`` applies ``a`` first, then ``b``).
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterable, Sequence


class Permutation:
    """A bijection of {0, ..., n-1}; ``images[i]`` is the image of point i."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        n = len(imgs)
        if n == 0:
            raise ValueError("permutation must have positive degree")
        if not all(map(isinstance, imgs, repeat(int))) or sorted(imgs) != list(range(n)):
            raise ValueError(f"images {imgs!r} are not a bijection of 0..{n - 1}")
        self.images = imgs

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        """Build a permutation from disjoint cycles on 0-based points."""
        images = list(range(degree))
        touched = [False] * degree
        for cycle in cycles:
            for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
                if not 0 <= a < degree:
                    raise ValueError(f"point {a} out of range for degree {degree}")
                if touched[a]:
                    raise ValueError(f"point {a} repeated across cycles")
                touched[a] = True
                images[a] = b
        return cls(images)

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its least point, sorted by that point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cur, cycle = start, []
            while not seen[cur]:
                seen[cur] = True
                cycle.append(cur)
                cur = self.images[cur]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Permutation.identity({self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation[{body}]"

    def __pow__(self, k: int) -> Permutation:
        n = element_order(self)
        k %= n
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = compose(result, base)
            base = compose(base, base)
            k >>= 1
        return result


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Apply ``a`` first, then ``b``: the result maps i to b.images[a.images[i]]."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} != {b.degree}")
    bi = b.images
    return Permutation(tuple(bi[v] for v in a.images))


def inverse(a: Permutation) -> Permutation:
    out = [0] * a.degree
    for i, v in enumerate(a.images):
        out[v] = i
    return Permutation(out)


def element_order(a: Permutation) -> int:
    """Least k >= 1 with a^k = identity: the lcm of the cycle lengths."""
    return math.lcm(*(len(c) for c in a.cycles(include_fixed=True)))


def conjugate(x: Permutation, g: Permutation) -> Permutation:
    """The conjugate g^-1 x g (apply g^-1, then x, then g)."""
    if x.degree != g.degree:
        raise ValueError(f"degree mismatch: {x.degree} != {g.degree}")
    gi, xi = g.images, x.images
    ginv = [0] * g.degree
    for i, v in enumerate(gi):
        ginv[v] = i
    return Permutation(tuple(gi[xi[ginv[i]]] for i in range(x.degree)))
