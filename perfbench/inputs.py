"""Seeded input files: every group the benchmark queries, with its points
randomly relabelled.

A relabelling conjugates each generator by a random permutation of the
points.  Orders, class sizes, subgroup counts, character tables up to row
and column order and every verdict count are unchanged by it, so the
golden values in ``golden.json`` hold for every seed, while element
indices, subgroup indices and class representatives differ.
"""

from __future__ import annotations

import random
from pathlib import Path

from camina.catalog import builtin, builtin_catalog

# chartab workload: 18 to 60 classes each, no lattice.
CHARTAB_LABELS = ("C60", "C5xC10", "C4xC4xC2", "Heis(5)", "C3xC3xC3", "Q32xC2", "D30")

# lattice workload: groups outside the builtin catalog; PSL(2,7) acts on
# the 7 points of the Fano plane.
LATTICE_GROUPS = (
    ("S5", None),
    ("PSL(2,7)", (7, ((0, 1, 2, 3, 4, 5, 6),), ((0, 1), (2, 5)))),
    ("S4xC2", None),
)


def _generators(label: str, spec) -> tuple[int, list[tuple[int, ...]]]:
    """(degree, generator image tuples) of a builtin label or a cycle spec."""
    if spec is None:
        entry = builtin(label)
        return entry.degree, [g.images for g in entry.generators]
    degree, *gens = spec
    out = []
    for cycles in gens:
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        out.append(tuple(images))
    return degree, out


def _cycles_text(images: tuple[int, ...]) -> str:
    seen = set()
    parts = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        nxt = images[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = images[nxt]
        parts.append("(" + ",".join(str(p + 1) for p in cycle) + ")")
    return "".join(parts) or "()"


def relabelled_text(label: str, degree: int, gens: list[tuple[int, ...]], seed: int) -> str:
    """Group file text for ``gens`` conjugated by a seeded point relabelling."""
    sigma = list(range(degree))
    random.Random(f"{seed}:{label}").shuffle(sigma)
    lines = [f"# {label}, points relabelled with seed {seed}", f"degree {degree}"]
    for g in gens:
        images = [0] * degree
        for i in range(degree):
            images[sigma[i]] = sigma[g[i]]
        lines.append(_cycles_text(tuple(images)))
    return "\n".join(lines) + "\n"


def _file_name(position: int, label: str) -> str:
    safe = "".join(ch if ch.isalnum() else "-" for ch in label).strip("-")
    return f"{position:02d}-{safe}.grp"


def write_inputs(workload: str, seed: int, directory: Path) -> list[tuple[str, Path]]:
    """Write the workload's group files into ``directory``.

    Returns (label, path) in query order, which for the sweep is builtin
    catalog order.  Each sweep group file sits in a directory of its own,
    so that ``verify --catalog`` can be given one group at a time.
    """
    if workload == "sweep":
        groups = [(e.label, None) for e in builtin_catalog()]
    elif workload == "chartab":
        groups = [(label, None) for label in CHARTAB_LABELS]
    elif workload == "lattice":
        groups = list(LATTICE_GROUPS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for position, (label, spec) in enumerate(groups):
        degree, gens = _generators(label, spec)
        path = directory / _file_name(position, label)
        if workload == "sweep":
            path = path.with_suffix("") / path.name
            path.parent.mkdir()
        path.write_text(relabelled_text(label, degree, gens, seed))
        out.append((label, path))
    return out
