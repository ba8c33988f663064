"""Built-in group catalog and the group file format.

Labels: Cn, Dn (dihedral of order 2n, n >= 3), Sn, An, Q8/Q16/Q32,
SL23, Frob(p:q) with q | p-1 (affine action on p points), Heis(p)
(extraspecial of order p^3 and exponent p, regular representation),
and direct products AxB of supported labels: a label splits at every
``x``, which no family label contains.  Each family, and each product,
is the action of a few maps on a list of points, built by ``_action``.
The prime test and the root of unity that Heis(p) and Frob(p:q) read
are ``grouptable``'s number theory, so importing the catalog loads no
structure layer.

Group files are UTF-8 text, with or without a leading byte-order mark:
line 1 is ``degree N``; each following non-comment line is one generator
in 1-based disjoint-cycle notation, e.g. ``(1,2)(3,4,5)``; ``#`` starts a
comment, blank lines are ignored.
"""

from __future__ import annotations

import codecs
import math
import re
from functools import cached_property
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .grouptable import DEFAULT_ORDER_CAP, CapExceeded, GroupTable, _root_of_unity, generate, is_prime
from .perm import Permutation, cycles


class CatalogEntry:
    """A group: its label, degree, the function that makes its generators
    and, for a builtin label, the function that lists integers whose
    product is its order, known without generating.  ``order`` (None for a
    group file) and ``generators`` are made at their first read.  Two
    entries are equal when their labels, degrees, orders and generators
    are."""

    def __init__(
        self,
        label: str,
        degree: int,
        make: Callable[[], Sequence[Permutation]],
        factors: Callable[[], Iterable[int]] | None = None,
    ):
        self.label = label
        self.degree = degree
        self.make = make
        self.factors = factors

    @cached_property
    def order(self) -> int | None:
        return None if self.factors is None else math.prod(self.factors())

    @cached_property
    def generators(self) -> tuple[Permutation, ...]:
        return tuple(self.make())

    def __eq__(self, other) -> bool:
        key = attrgetter("label", "degree", "order", "generators")
        return isinstance(other, CatalogEntry) and key(self) == key(other)

    def group(self, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
        """The generated group, or the CapExceeded that ``generate`` raises
        above ``cap``: raised before any generator is made when the order's
        factors are known, as soon as their running product passes ``cap``,
        so that S1000000 is refused without computing 1000000!."""
        if self.factors is not None:
            product = 1
            for f in self.factors():
                product *= f
                if product > cap:
                    raise CapExceeded("order cap exceeded", cap + 1)
        return generate(self.degree, self.generators, cap=cap)


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownLabel(ValueError):
    pass


# --- cycle notation (1-based externally, 0-based internally) ---------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse ``(1,2)(3,4,5)`` into a permutation of the given degree."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise ValueError("empty permutation")
    consumed = 0
    images = list(range(degree))
    seen: set[int] = set()
    for m in _CYCLE_RE.finditer(stripped):
        if m.start() != consumed:
            raise ValueError(f"malformed cycle text {text!r}")
        consumed = m.end()
        body = m.group(1)
        if not body:
            continue
        try:
            points = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise ValueError(f"malformed cycle {m.group(0)!r}") from None
        for p in points:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} out of range 1..{degree}")
            if p in seen:
                raise ValueError(f"point {p} repeated across cycles")
            seen.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b - 1
    if consumed != len(stripped):
        raise ValueError(f"malformed cycle text {text!r}")
    return Permutation(images)


def format_cycles(images: Sequence[int]) -> str:
    """An image tuple, such as a group element, in 1-based disjoint-cycle
    notation; the identity prints as ``()``."""
    cyc = cycles(images)
    if not cyc:
        return "()"
    return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cyc)


def parse_group_file(path: str | Path) -> CatalogEntry:
    path = Path(path)
    degree = None
    gens: list[Permutation] = []
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", data.count(b"\n", 0, exc.start) + 1) from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise ParseError("expected 'degree N' on the first content line", lineno)
            degree = int(m.group(1))
            if degree < 1:
                raise ParseError("degree must be positive", lineno)
            continue
        try:
            gens.append(parse_cycles(line, degree))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    if degree is None:
        raise ParseError("file contains no 'degree N' line", 1)
    return CatalogEntry(f"file:{path.name}", degree, lambda: gens)


# --- builtin families -------------------------------------------------------

# A family constructor checks its parameters and returns (degree, make):
# make() builds the generators, which no one asks for before
# ``CatalogEntry.group`` has checked the label's order against the cap.
_Family = tuple[int, Callable[[], list[Permutation]]]


def _action(points: Sequence, maps: Sequence[Callable]) -> list[Permutation]:
    """The permutations that ``maps`` induce on ``points``, numbered in the
    order given."""
    index = {p: i for i, p in enumerate(points)}
    return [Permutation(tuple(index[f(p)] for p in points)) for f in maps]


def _cyclic(n: int) -> _Family:
    if n < 1:
        raise UnknownLabel(f"cyclic parameter must be >= 1, got {n}")
    return n, lambda: _action(range(n), [lambda i: (i + 1) % n] if n > 1 else [])


def _dihedral(n: int) -> _Family:
    if n < 3:
        raise UnknownLabel(f"dihedral parameter must be >= 3, got {n}")
    return n, lambda: _action(range(n), [lambda i: (i + 1) % n, lambda i: -i % n])


def _symmetric(n: int) -> _Family:
    # the transposition (0 1) and, for n > 2, the n-cycle
    if n < 2:
        raise UnknownLabel(f"symmetric parameter must be >= 2, got {n}")
    maps = [lambda i: 1 - i if i < 2 else i, lambda i: (i + 1) % n]
    return n, lambda: _action(range(n), maps[: 1 if n == 2 else 2])


def _alternating(n: int) -> _Family:
    # the 3-cycle (0 1 2) and, for n > 3, the n-cycle (n odd) or (1 ... n-1)
    if n < 3:
        raise UnknownLabel(f"alternating parameter must be >= 3, got {n}")
    big = (lambda i: (i + 1) % n) if n % 2 else (lambda i: i and i % (n - 1) + 1)
    maps = [lambda i: (i + 1) % 3 if i < 3 else i, big]
    return n, lambda: _action(range(n), maps[: 1 if n == 3 else 2])


def _quaternion(order: int) -> _Family:
    # <a, b | a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1> with order = 4m.
    m = order // 4
    n = 2 * m
    elements = [(i, j) for j in range(2) for i in range(n)]

    def mult(x, y):
        i, j = x
        s, t = y
        if j == 0:
            return ((i + s) % n, t)
        if t == 0:
            return ((i - s) % n, 1)
        return ((i - s + m) % n, 0)

    return order, lambda: _action(elements, [lambda x: mult(x, (1, 0)), lambda x: mult(x, (0, 1))])


def _heisenberg(p: int) -> _Family:
    if p == 2 or not is_prime(p):
        raise UnknownLabel(f"Heis parameter must be an odd prime, got {p}")

    def mult(x, y):
        a, b, c = x
        d, e, f = y
        return ((a + d) % p, (b + e) % p, (c + f + a * e) % p)

    def make() -> list[Permutation]:
        elements = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
        return _action(elements, [lambda x: mult(x, (1, 0, 0)), lambda x: mult(x, (0, 1, 0))])

    return p**3, make


def _sl23() -> _Family:
    # the matrices [[1, 1], [0, 1]] and [[1, 0], [1, 1]] on the nonzero vectors of F_3^2
    vectors = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    return 8, lambda: _action(vectors, [lambda v: ((v[0] + v[1]) % 3, v[1]), lambda v: (v[0], (v[0] + v[1]) % 3)])


def _frobenius(p: int, q: int) -> _Family:
    if not is_prime(p):
        raise UnknownLabel(f"Frob parameter {p} is not prime")
    if q <= 1:
        raise UnknownLabel(f"Frob requires q > 1, got Frob({p}:{q})")
    if (p - 1) % q != 0:
        raise UnknownLabel(f"Frob requires q | p-1, got Frob({p}:{q})")

    def make() -> list[Permutation]:
        c = _root_of_unity(q, p)  # factors p - 1, so only once the order passed the cap
        return _action(range(p), [lambda i: (i + 1) % p, lambda i: c * i % p])

    return p, make


def _direct_product(parts: list[CatalogEntry]) -> _Family:
    # the points are (factor, point) pairs; each factor's generators move only its own block
    def make() -> list[Permutation]:
        points = [(i, x) for i, part in enumerate(parts) for x in range(part.degree)]
        moves = [(i, g.images) for i, part in enumerate(parts) for g in part.generators]
        return _action(points, [lambda x, i=i, g=g: (i, g[x[1]]) if x[0] == i else x for i, g in moves])

    return sum(part.degree for part in parts), make


# Each family: a label pattern, the constructor that takes the pattern's
# groups as integers, and integers whose product is the group order, as a
# function of the same integers: n! is 2 3 ... n, and n!/2 is 3 ... n.
_FAMILIES: list[tuple[str, Callable[..., _Family], Callable[..., Iterable[int]]]] = [
    (r"C(\d+)", _cyclic, lambda n: (n,)),
    (r"D(\d+)", _dihedral, lambda n: (2, n)),
    (r"S(\d+)", _symmetric, lambda n: range(2, n + 1)),
    (r"A(\d+)", _alternating, lambda n: range(3, n + 1)),
    (r"Q(8|16|32)", _quaternion, lambda n: (n,)),
    (r"SL23", _sl23, lambda: (24,)),
    (r"Frob\((\d+):(\d+)\)", _frobenius, lambda p, q: (p, q)),
    (r"Heis\((\d+)\)", _heisenberg, lambda p: (p, p, p)),
]


def builtin(label: str) -> CatalogEntry:
    """Resolve a builtin label to a catalog entry; raises UnknownLabel."""
    label = label.strip()
    parts = label.split("x")
    if len(parts) > 1:
        entries = [builtin(p) for p in parts]
        degree, make = _direct_product(entries)
        return CatalogEntry(label, degree, make, lambda: chain.from_iterable(e.factors() for e in entries))
    for pattern, build, order_of in _FAMILIES:
        m = re.fullmatch(pattern, label)
        if m:
            try:
                args = list(map(int, m.groups()))
            except ValueError:  # more digits than int() converts
                raise UnknownLabel(f"builtin label {label[:20]}... has a parameter too long to read") from None
            degree, make = build(*args)
            return CatalogEntry(label, degree, make, lambda: order_of(*args))
    raise UnknownLabel(f"unknown builtin label {label!r}")


BUILTIN_LABELS = (
    [f"C{n}" for n in range(2, 17)]
    + [f"D{n}" for n in range(3, 13)]
    + ["S3", "S4", "A4", "A5", "Q8", "Q16", "Q32", "SL23"]
    + ["Frob(7:3)", "Frob(5:4)", "Frob(13:6)", "Heis(3)"]
    + [
        "C2xC2",
        "C2xC4",
        "C2xC6",
        "C2xC2xC2",
        "C3xC3",
        "C4xC4",
        "C2xS3",
        "C2xQ8",
        "C3xS3",
        "C2xA4",
        "S3xS3",
        "C2xA5",
    ]
    + ["Frob(11:10)"]
)


def builtin_catalog() -> list[CatalogEntry]:
    """The default catalog, ordered by (group order, label)."""
    return sorted((builtin(label) for label in BUILTIN_LABELS), key=lambda e: (e.order, e.label))
