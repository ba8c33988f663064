"""Output checks.  Each signature is unchanged by a relabelling of the
points, so one golden value (``golden.json``) serves every seed.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

_CLAIM_LINE = re.compile(
    r"(\S+)\s+PASS=\s*(\d+) VACUOUS=\s*(\d+) VIOLATION=\s*(\d+) SKIPPED=\s*(\d+) fired=(\d+)"
)
# Witness dicts name elements by index, and indices follow the labelling.
_WITNESS_KEYS = ("x", "h")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def sweep_summary(stdout: str) -> dict:
    """Per-claim counts and totals as printed by ``camina verify``."""
    claims = {}
    totals = {}
    for line in stdout.splitlines():
        m = _CLAIM_LINE.fullmatch(line.strip())
        if m:
            name, *counts = m.groups()
            claims[name] = dict(zip(("PASS", "VACUOUS", "VIOLATION", "SKIPPED", "fired"), map(int, counts)))
        elif line.startswith("total reports: "):
            totals["reports"] = int(line.split(": ")[1])
        elif line.startswith("violations: "):
            totals["violations"] = int(line.split(": ")[1])
        elif line.startswith("non-normal subgroups satisfying (F): "):
            totals["nonnormal_f_pairs"] = int(line.split(": ")[1])
    return {"claims": claims, **totals}


def add_summaries(summaries: list[dict]) -> dict:
    """The summary of a sweep made of the sweeps ``summaries`` came from."""
    total: dict = {"claims": {}}
    for summary in summaries:
        for claim, counts in summary["claims"].items():
            into = total["claims"].setdefault(claim, dict.fromkeys(counts, 0))
            for status, n in counts.items():
                into[status] += n
        for key, n in summary.items():
            if key != "claims":
                total[key] = total.get(key, 0) + n
    return total


def _scrub(value):
    if isinstance(value, dict):
        return {k: (None if k in _WITNESS_KEYS else _scrub(v)) for k, v in value.items()}
    return value


def reports_digest(paths: list[Path]) -> str:
    """Digest of the multiset of reports in ``paths`` without subgroup
    indices, element indices and timestamps."""
    rows = []
    for path in paths:
        for line in Path(path).read_text().splitlines():
            r = json.loads(line)
            rows.append(
                json.dumps(
                    [r["group_label"], r["group_order"], r["subgroup_order"], r["claim"], r["status"], _scrub(r["details"])],
                    sort_keys=True,
                )
            )
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


def _cycle_type(rep: str) -> list[int]:
    """Sorted lengths of the non-trivial cycles of a printed permutation."""
    return sorted(len(cycle.split(",")) for cycle in re.findall(r"\(([^()]*,[^()]*)\)", rep))


def chartab_signature(stdout: str) -> dict:
    """Order, class count, degree sequence and a digest of the table up to
    row and column order.

    Each column is tagged with its class size and the cycle type of its
    representative.  The digest covers, for every pair of rows (a row with
    itself included), the multiset of (column tag, value, value) over the
    columns, so it keeps which value sits in which row and column.
    """
    lines = stdout.splitlines()
    m = re.fullmatch(r"character table of .* \(order (\d+), (\d+) classes\)", lines[0])
    if m is None:
        raise ValueError(f"unexpected chartab header {lines[0]!r}")
    reps = next(line for line in lines if line.startswith("class reps: ")).split(": ", 1)[1].split()
    sizes = next(line for line in lines if line.startswith("class sizes: ")).split(": ")[1].split()
    rows = [line.split(": ", 1)[1].split("  ") for line in lines if line.startswith("chi_")]
    degrees = next(line for line in lines if line.startswith("degree sequence: ")).split(": ")[1]
    tags = [[sizes[k], _cycle_type(reps[k])] for k in range(len(sizes))]
    pairs = sorted(  # one short digest per pair keeps the check's memory small
        hashlib.sha256(json.dumps(min(
            sorted([tags[k], x[k], y[k]] for k in range(len(tags))) for x, y in ((a, b), (b, a))
        )).encode()).hexdigest()
        for i, a in enumerate(rows)
        for b in rows[i:]
    )
    digest = hashlib.sha256(" ".join(pairs).encode()).hexdigest()
    return {"order": int(m.group(1)), "classes": int(m.group(2)), "degrees": degrees, "digest": digest}


def lattice_signature(stdout: str) -> dict:
    """Subgroup count, multiset of subgroup orders and count of normal ones."""
    lines = [line for line in stdout.splitlines() if line.startswith("index=")]
    orders = Counter(int(re.search(r" order=(\d+) ", line).group(1)) for line in lines)
    return {
        "subgroups": len(lines),
        "orders": {str(k): orders[k] for k in sorted(orders)},
        "normal": sum(line.endswith(" normal") for line in lines),
    }


def mismatch(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]
