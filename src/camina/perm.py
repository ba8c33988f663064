"""Permutations of {0, ..., n-1} stored as image tables.

``Permutation`` is the validated type in which groups come in
(generators); it does no arithmetic.  A ``GroupTable``'s elements are
plain image tuples, and products, inverses, powers and conjugates are
index lookups on it, whose ``mul`` documents the left-to-right
convention: elements[i], then elements[j].
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence


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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cyc = cycles(self.images)
        if not cyc:
            return f"Permutation(range({self.degree}))"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation[{body}]"


def cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """The nontrivial disjoint cycles of the bijection with these images,
    each starting at its least point, sorted by that point."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cur, cycle = start, []
        while not seen[cur]:
            seen[cur] = True
            cycle.append(cur)
            cur = images[cur]
        if len(cycle) > 1:
            out.append(tuple(cycle))
    return out
