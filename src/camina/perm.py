"""Permutations of {0, ..., n-1} stored as image tables.

``Permutation`` is the validated type in which groups come in (generators)
and go out (elements); it does no arithmetic.  Products, inverses, powers
and conjugates are index lookups on a ``GroupTable``, whose ``mul``
documents the left-to-right convention: elements[i], then elements[j].
"""

from __future__ import annotations

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

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> Permutation:
        """Wrap an image tuple that is already known to be a bijection of
        0..n-1, n >= 1, such as a product of validated permutations, without
        checking it again."""
        perm = object.__new__(cls)
        perm.images = images
        return perm

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

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial disjoint cycles, each starting at its least point, sorted
        by that point."""
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
            if len(cycle) > 1:
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
