"""Report persistence (JSON lines) and the character-table cache, which
holds a table's value index and hands it back to the table constructor."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .chartab import CharacterTable, character_table, check_caps
from .grouptable import GroupTable
from .structure import exponent

if TYPE_CHECKING:
    from .verify import VerificationReport

FORMAT_VERSION = "camina/0.2.0"


def persist_reports(
    reports: Iterable[VerificationReport], path: str | Path, version: str, timestamp: str
) -> None:
    """One JSON object per line, one line per report, exact round trip: the
    dict ``record`` of a report's fields with the run's ``version`` and
    ``timestamp`` added, written as ``json.dumps(record, sort_keys=True,
    separators=(",", ":"))`` writes it, keys in sorted order, so
    ``json.loads`` reads each line back.  Strings are escaped as
    ``json.dumps`` escapes them, and ``details`` goes through one shared
    sorted-key encoder.

    A sweep's reports hold few distinct ``details``, so each is encoded
    once: a dict seen before is found by identity (the memo keeps it alive,
    so its id is not reused), an equal one by its ``repr``, which tells
    ``True`` from ``1`` and ``1`` from ``1.0``.  The text around ``details``
    is formatted once per (claim, label, order, status)."""
    quote = json.encoder.encode_basestring_ascii
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    tail = f',"timestamp":{quote(timestamp)},"version":{quote(version)}}}\n'
    by_id: dict[int, tuple[dict, str]] = {}
    by_repr: dict[str, str] = {}
    heads: dict[tuple[str, str, int, str], tuple[str, str]] = {}
    lines = []
    for r in reports:
        details = r.details
        hit = by_id.get(id(details))
        if hit is None:
            text = repr(details)
            encoded = by_repr.get(text)
            if encoded is None:
                encoded = by_repr[text] = encode(details)
            hit = by_id[id(details)] = (details, encoded)
        key = (r.claim, r.group_label, r.group_order, r.status)
        head = heads.get(key)
        if head is None:
            head = heads[key] = (
                f'{{"claim":{quote(r.claim)},"details":',
                f',"group_label":{quote(r.group_label)},"group_order":{r.group_order:d},'
                f'"status":{quote(r.status)},"subgroup_index":',
            )
        lines.append(f'{head[0]}{hit[1]}{head[1]}{r.subgroup_index:d},"subgroup_order":{r.subgroup_order:d}{tail}')
    Path(path).write_text("".join(lines))


# --- character table cache --------------------------------------------------


def chartab_cache_key(G: GroupTable) -> str:
    """Hash of the canonical element list, whose image tuples carry the
    degree; identical regenerated groups share it."""
    return hashlib.sha256(repr(G.elements).encode()).hexdigest()


def _cache_path(G: GroupTable, cache_dir: str | Path) -> Path:
    """G's file in ``cache_dir``; the key is hashed once per group and kept
    on it, so a query that loads and then saves hashes G once."""
    key = G._cache.get("chartab_key")
    if key is None:
        key = G._cache["chartab_key"] = chartab_cache_key(G)
    return Path(cache_dir) / f"chartab-{key}.json"


def save_chartab(G: GroupTable, table: CharacterTable, cache_dir: str | Path) -> Path:
    """Write G's table as its value index: each distinct coefficient list
    once, under ``"values"``, and each row as the ids of its values, under
    ``"rows"``."""
    path = _cache_path(G, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    values = table.values
    obj = {"format": FORMAT_VERSION, "order": G.order, "root_order": values.e, "values": values.distinct,
           "rows": values.cells}
    path.write_text(json.dumps(obj, sort_keys=True))
    return path


def load_chartab(G: GroupTable, cache_dir: str | Path) -> CharacterTable | None:
    """The cached table of G, or None when there is no readable file, its
    format, order or root order is not G's, or its ``values`` and ``rows``
    fail the constructor of ``CharacterTable``, which checks every
    coefficient and id and then the table, exactly as it checks a build."""
    path = _cache_path(G, cache_dir)
    try:
        obj = json.loads(path.read_text())
        if obj["format"] != FORMAT_VERSION or obj["order"] != G.order or obj["root_order"] != exponent(G):
            return None
        return CharacterTable(G, obj["values"], obj["rows"])
    except (OSError, LookupError, RuntimeError, TypeError, ValueError):
        return None


def cached_character_table(G: GroupTable, cache_dir: str | Path) -> CharacterTable:
    """G's table from ``cache_dir`` when a valid file is there, else a fresh
    build that is saved there.  The class cap applies to a load as to a build."""
    check_caps(G)
    hit = load_chartab(G, cache_dir)
    if hit is not None:
        return hit
    table = character_table(G)
    save_chartab(G, table, cache_dir)
    return table
