"""Command line interface.

Exit codes: 0 success with no violations, 1 usage error, 2 when any
VIOLATION report was produced, 3 on cap overruns and IO errors.

Importing this module loads the catalog and the structure layer only.
The predicates, character tables, claims and report files are imported
by the commands that use them, so ``catalog list``, ``info`` and
``subgroups`` load none of them.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .catalog import (
    BUILTIN_LABELS,
    ParseError,
    UnknownLabel,
    builtin,
    builtin_catalog,
    format_cycles,
    parse_group_file,
)
from .grouptable import DEFAULT_ORDER_CAP, CapExceeded, ElementSet, GroupTable, closure_indices
from .structure import (
    center,
    conjugacy_classes,
    derived_subgroup,
    exponent,
    is_nilpotent,
    is_simple,
    is_solvable,
    normal_subgroups,
    small_generating_set,
    subgroups,
)

if TYPE_CHECKING:
    from .conditions import ConditionVerdict
    from .verify import VerificationReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_CAPS_IO = 3

# the --condition names, each mapped to its predicate by ``_predicate``
_CONDITIONS = ("camina", "f", "fpm", "ci", "o", "equal-order")

# claim alias -> the name of its tuple of claims in ``verify``
CLAIM_ALIASES = {"all": "ALL_CLAIMS", "lemmas": "LEMMA_CLAIMS"}

# Input that cannot be read or is over a cap: exit code 3, or one group left out of a sweep.
INPUT_ERRORS = (ParseError, OSError, CapExceeded)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we need exit code 1
        raise UsageError(message)


class _ClaimsHelp(argparse.HelpFormatter):
    """Names the claims in the help of ``verify --claims`` when the help is
    printed, so that building the parser does not import ``verify``."""

    def _get_help_string(self, action):
        if action.dest != "claims":
            return action.help
        from .verify import ALL_CLAIMS

        return f"comma list of claims ({', '.join(ALL_CLAIMS)}) and aliases ({', '.join(CLAIM_ALIASES)})"


def _predicate(condition: str):
    """The predicate on (G, H) that ``--condition`` names."""
    from .conditions import equal_order_coset, is_camina_pair, satisfies_CI, satisfies_F, satisfies_Fpm, satisfies_O

    return {
        "camina": is_camina_pair,
        "f": satisfies_F,
        "fpm": satisfies_Fpm,
        "ci": satisfies_CI,
        "o": satisfies_O,
        "equal-order": equal_order_coset,
    }[condition]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@cache
def build_parser() -> _Parser:
    """The ``camina`` argument parser, built at the first call and returned
    by every later one: a build costs over ten times what parsing one
    command line does.  Parsing leaves no state on the parser, so each
    ``run_cli`` call starts from the same defaults.  Its defaults and
    choices, ``DEFAULT_ORDER_CAP`` and ``_CONDITIONS``, are read at the first
    build; rebinding either name later does not reach the parser."""
    p = _Parser(prog="camina", description="Exact coset-conjugacy workbench for small groups")
    p.add_argument("--order-cap", type=_positive_int, default=DEFAULT_ORDER_CAP, help="group order cap (default %(default)s)")
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers for verify")
    p.add_argument("--cache-dir", default=".camina-cache", help="character table cache directory")
    sub = p.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="catalog operations")
    cat.add_argument("action", choices=["list"])

    info = sub.add_parser("info", help="structural summary of one group")
    info.add_argument("--group", required=True)

    chartab = sub.add_parser("chartab", help="print the exact character table")
    chartab.add_argument("--group", required=True)

    subs = sub.add_parser("subgroups", help="list all subgroups in canonical order")
    subs.add_argument("--group", required=True)

    check = sub.add_parser("check", help="check one condition on one (G, H) pair")
    check.add_argument("--group", required=True)
    which = check.add_mutually_exclusive_group(required=True)
    which.add_argument("--subgroup-order", type=int)
    which.add_argument("--subgroup-index", type=int)
    which.add_argument("--subgroup-file")
    check.add_argument("--condition", required=True, choices=_CONDITIONS)

    search = sub.add_parser("search", help="list all subgroups satisfying a condition")
    search.add_argument("--group", required=True)
    search.add_argument("--condition", required=True, choices=_CONDITIONS)

    verify = sub.add_parser("verify", help="sweep theorem/lemma claims over a catalog", formatter_class=_ClaimsHelp)
    verify.add_argument("--catalog", default="builtin", help="'builtin' or a directory of group files")
    verify.add_argument("--max-order", type=_positive_int, default=96)
    verify.add_argument("--claims", default="all", help="comma list of claims and aliases")
    verify.add_argument("--out", default=None, help="write a JSON-lines report file")
    return p


def _resolve_group(args) -> tuple[str, GroupTable]:
    entry = parse_group_file(args.group) if _is_file(args.group) else builtin(args.group)
    return entry.label, entry.group(cap=args.order_cap)


def _is_file(path: str) -> bool:
    """Whether ``path`` names a file.  A name that the system refuses to
    look up, such as one longer than its file-name limit, names none, so
    ``--group`` reads it as a builtin label."""
    try:
        return Path(path).is_file()
    except OSError:
        return False


def _subgroup_by_file(G: GroupTable, path: str) -> ElementSet:
    entry = parse_group_file(path)
    if entry.degree != G.degree:
        raise UsageError(f"subgroup file degree {entry.degree} != group degree {G.degree}")
    ids = []
    for gen in entry.generators:
        idx = G.index_of.get(gen.images)
        if idx is None:
            raise UsageError(f"generator {format_cycles(gen.images)} is not an element of the group")
        ids.append(idx)
    return ElementSet(G, closure_indices(G, ids))


def _print_verdict(G: GroupTable, H: ElementSet, index: int | None, verdict: ConditionVerdict) -> None:
    gens = [format_cycles(G.elements[i]) for i in small_generating_set(G, H.members)]
    where = f"subgroup index={index} " if index is not None else ""
    print(f"{where}order={len(H)} gens={' '.join(gens) or '()'}")
    if verdict.holds:
        print(f"condition {verdict.condition}: holds")
        return
    witness = [f"{k}={format_cycles(G.elements[i])}" for k, i in (("x", verdict.x), ("h", verdict.h)) if i is not None]
    print(f"condition {verdict.condition}: fails", *witness, f"({verdict.detail})")


def _cmd_catalog(args) -> int:
    for entry in builtin_catalog():
        print(f"{entry.label:12s} order={entry.order:4d} degree={entry.degree}")
    return EXIT_OK


def _cmd_info(args) -> int:
    label, G = _resolve_group(args)
    classes = conjugacy_classes(G)
    print(f"group {label}")
    print(f"order {G.order}")
    print(f"degree {G.degree}")
    print(f"exponent {exponent(G)}")
    print(f"generators {' '.join(format_cycles(G.elements[i]) for i in G.generator_ids) or '()'}")
    print(f"classes {classes.count} sizes {list(classes.sizes)}")
    print(f"center order {len(center(G))}")
    print(f"derived subgroup order {len(derived_subgroup(G))}")
    print(f"solvable {is_solvable(G)}")
    print(f"nilpotent {is_nilpotent(G)}")
    print(f"simple {is_simple(G)}")
    return EXIT_OK


def _cmd_chartab(args) -> int:
    from .cyclotomic import Cyc
    from .reports import cached_character_table

    label, G = _resolve_group(args)
    table = cached_character_table(G, args.cache_dir)
    classes = conjugacy_classes(G)
    print(f"character table of {label} (order {G.order}, {classes.count} classes)")
    reps = [format_cycles(G.elements[r]) for r in classes.reps]
    print("class reps:  " + "  ".join(reps))
    print("class sizes: " + "  ".join(str(s) for s in classes.sizes))
    values = table.values  # a table holds few distinct values, each formatted once
    shown = [str(Cyc(values.e, coeffs)) for coeffs in values.distinct]
    for i, row in enumerate(values.cells):
        print(f"chi_{i}: " + "  ".join(map(shown.__getitem__, row)))
    print("degree sequence: " + ",".join(str(d) for d in table.degree_sequence))
    return EXIT_OK


def _cmd_subgroups(args) -> int:
    label, G = _resolve_group(args)
    normal = set(normal_subgroups(G))
    cycles = cache(lambda i: format_cycles(G.elements[i]))  # each element formatted once
    for idx, H in enumerate(subgroups(G)):
        gens = [cycles(i) for i in small_generating_set(G, H.members)]
        print(f"index={idx} order={len(H)} gens={' '.join(gens) or '()'}" + (" normal" if H in normal else ""))
    return EXIT_OK


def _cmd_check(args) -> int:
    label, G = _resolve_group(args)
    targets: list[tuple[int | None, ElementSet]] = []
    if args.subgroup_file is not None:
        targets.append((None, _subgroup_by_file(G, args.subgroup_file)))
    else:
        subs = subgroups(G)
        if args.subgroup_index is not None:
            if not 0 <= args.subgroup_index < len(subs):
                raise UsageError(f"subgroup index {args.subgroup_index} out of range (0..{len(subs) - 1})")
            targets.append((args.subgroup_index, subs[args.subgroup_index]))
        else:
            targets = [(i, H) for i, H in enumerate(subs) if len(H) == args.subgroup_order]
            if not targets:
                raise UsageError(f"no subgroup of order {args.subgroup_order}")
    for index, H in targets:
        try:
            verdict = _predicate(args.condition)(G, H)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _print_verdict(G, H, index, verdict)
    return EXIT_OK


def _cmd_search(args) -> int:
    label, G = _resolve_group(args)
    predicate = _predicate(args.condition)
    found = 0
    for idx, H in enumerate(subgroups(G)):
        try:
            verdict = predicate(G, H)
        except ValueError:
            continue  # precondition not met (trivial or improper H)
        if verdict.holds:
            found += 1
            _print_verdict(G, H, idx, verdict)
    print(f"{found} subgroup(s) satisfy {args.condition}")
    return EXIT_OK


def _parse_claims(text: str) -> list[str]:
    from . import verify

    claims: list[str] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token in CLAIM_ALIASES:
            claims.extend(getattr(verify, CLAIM_ALIASES[token]))
        elif token in verify.ALL_CLAIMS:
            claims.append(token)
        else:
            raise UsageError(f"unknown claim {token!r}")
    if not claims:
        raise UsageError("no claims selected")
    return list(dict.fromkeys(claims))  # the first of each repeated claim


def _catalog_entries(source: str) -> list[tuple[str, str]]:
    """(kind, payload) pairs a worker can rebuild a group from, in the
    order of the labels of their groups."""
    if source == "builtin":
        return [("builtin", label) for label in sorted(BUILTIN_LABELS)]
    directory = Path(source)
    if not directory.is_dir():
        raise UsageError(f"--catalog must be 'builtin' or a directory, got {source!r}")
    return [("file", str(f)) for f in sorted(directory.iterdir()) if f.is_file()]


def _sweep_payload(item, max_order, claims, order_cap) -> tuple[list[VerificationReport], str | None]:
    """The reports of one catalog group, and the error that left them out
    when its file cannot be read or it is over the order cap.

    Generation stops at the smaller of ``max_order`` and the order cap,
    so a group above ``max_order`` is never enumerated past it: it has no
    reports and no error."""
    from .verify import sweep_single

    kind, payload = item
    try:
        entry = builtin(payload) if kind == "builtin" else parse_group_file(payload)
        G = entry.group(cap=min(max_order, order_cap))
    except INPUT_ERRORS as exc:
        if isinstance(exc, CapExceeded) and max_order <= order_cap:
            return [], None
        return [], f"{payload}: {exc}"
    return sweep_single(entry.label, G, claims), None


def _cmd_verify(args) -> int:
    from .verify import VIOLATION, summarize

    claims = _parse_claims(args.claims)
    items = _catalog_entries(args.catalog)
    run = partial(_sweep_payload, max_order=args.max_order, claims=claims, order_cap=args.order_cap)
    workers = min(args.jobs, len(items))  # a fork pool starts all its workers at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, which --jobs 1 never needs

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, items))
    else:
        results = [run(item) for item in items]
    errors = [error for _, error in results if error is not None]
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    # each chunk is in report_key order, and the chunks in label order
    reports = [r for chunk, _ in results for r in chunk]
    summary = summarize(reports)
    for claim in sorted(summary["claims"]):
        c = summary["claims"][claim]
        print(
            f"{claim:12s} PASS={c['PASS']:5d} VACUOUS={c['VACUOUS']:5d} "
            f"VIOLATION={c['VIOLATION']:3d} SKIPPED={c['SKIPPED']:3d} fired={c['fired']}"
        )
    print(f"total reports: {summary['total']}")
    print(f"violations: {summary['violations']}")
    if "theorem1" in claims:
        print(f"non-normal subgroups satisfying (F): {summary['nonnormal_f_pairs']}")
    for r in reports:
        if r.status == VIOLATION:
            print(f"VIOLATION {r.group_label} subgroup_index={r.subgroup_index} {r.claim}: {r.details}")
    if args.out:
        from .reports import persist_reports

        timestamp = datetime.now(timezone.utc).isoformat()
        persist_reports(reports, args.out, __version__, timestamp)
        print(f"wrote {len(reports)} reports to {args.out}")
    if errors:
        return EXIT_CAPS_IO
    return EXIT_VIOLATION if summary["violations"] else EXIT_OK


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "catalog": _cmd_catalog,
        "info": _cmd_info,
        "chartab": _cmd_chartab,
        "subgroups": _cmd_subgroups,
        "check": _cmd_check,
        "search": _cmd_search,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (UsageError, UnknownLabel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPS_IO


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
