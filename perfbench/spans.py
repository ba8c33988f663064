"""Span tracing for the traced benchmark run.

``Tracer.install`` wraps each layer's public functions in every ``camina``
module that holds them, so calls between modules and inside a module are
both seen.  Every call becomes a span (name, start, end, parent) kept in
flat in-memory arrays; ``GroupTable.mul``/``conj`` and ``Cyc.__mul__``/
``__add__`` are only counted, because they run millions of times.

The benchmark writes the trace after its traced rounds; ``layer_metrics``
turns the tracer's spans and counters into per-layer metrics.  Only the
calling process is traced: ``verify --jobs N`` with N > 1 is not.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from array import array
from pathlib import Path

import camina.chartab as chartab
import camina.cli as cli
import camina.conditions as conditions
import camina.grouptable as grouptable
import camina.reports as reports
import camina.structure as structure
import camina.verify as verify
from camina.cyclotomic import Cyc
from camina.grouptable import GroupTable

# (module, function, span name): one span per call.
SPANS = (
    (grouptable, "generate", "grouptable.generate"),
    (grouptable, "closure_indices", "grouptable.closure"),
    (grouptable, "subgroup_table", "grouptable.subgroup_table"),
    (grouptable, "quotient_table", "grouptable.quotient_table"),
    (structure, "conjugacy_classes", "structure.classes"),
    (structure, "normal_closure", "structure.normal_closure"),
    (structure, "normalizer", "structure.normalizer"),
    (chartab, "induce", "chartab.induce"),
    (chartab, "decompose", "chartab.decompose"),
    (chartab, "inner_product", "chartab.inner_product"),
    (conditions, "satisfies_F", "conditions.F"),
    (conditions, "satisfies_Fpm", "conditions.Fpm"),
    (conditions, "satisfies_CI", "conditions.CI"),
    (conditions, "satisfies_O", "conditions.O"),
    (conditions, "is_camina_pair", "conditions.camina"),
    (conditions, "derangements", "conditions.derangements"),
    (verify, "verify_cor2", "claim.cor2"),
    (verify, "verify_covering", "claim.covering"),
    (reports, "persist_reports", "reports.persist"),
    (reports, "save_chartab", "reports.chartab_save"),
    (cli, "_sweep_payload", "cli.group"),
)

# Predicates whose repeated evaluation on the same (G, H) pair is counted.
REUSE = {"conditions.CI": "ci_reuse", "conditions.F": "f_reuse"}

# (class, method): counter name.
COUNTED = {
    (GroupTable, "mul"): "grouptable.mul",
    (GroupTable, "conj"): "grouptable.conj",
    (Cyc, "__mul__"): "cyclotomic.mul",
    (Cyc, "__rmul__"): "cyclotomic.mul",
    (Cyc, "__add__"): "cyclotomic.add",
}


class Tracer:
    """Spans and counters of this process, written to ``out_dir``."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters = {name: [0] for name in set(COUNTED.values())}
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        for cell in self.counters.values():  # the counting wrappers hold these cells
            cell[0] = 0
        self.found = 0  # subgroups found by fresh enumerations
        self.pairs = {label: weakref.WeakKeyDictionary() for label in REUSE}
        self.pair_calls = dict.fromkeys(REUSE, 0)
        self.distinct_pairs = dict.fromkeys(REUSE, 0)

    def total_time(self, name: str) -> float:
        """Summed duration of this process's spans called ``name``."""
        nid = self._ids.get(name)
        return sum(self.end[i] - self.start[i] for i in range(len(self.name)) if self.name[i] == nid)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    # --- wrappers ---------------------------------------------------------

    def _span(self, fn, name: str):
        nid = self.intern(name)
        reuse = name in REUSE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if reuse:
                self._note_pair(name, args[0], args[1])
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _note_pair(self, label: str, G, H) -> None:
        self.pair_calls[label] += 1
        seen = self.pairs[label].setdefault(G, set())
        if H.members not in seen:
            seen.add(H.members)
            self.distinct_pairs[label] += 1

    def _subgroups(self, fn):
        nid = self.intern("structure.subgroups")

        @functools.wraps(fn)
        def wrapper(G, *args, **kwargs):
            fresh = "subgroups" not in G._cache
            idx = self.open(nid)
            try:
                result = fn(G, *args, **kwargs)
            finally:
                self.close(idx)
            if fresh:
                self.found += len(result)
            return result

        return wrapper

    def _character_table(self, fn):
        build, hit = self.intern("chartab.build"), self.intern("chartab.hit")

        @functools.wraps(fn)
        def wrapper(G, *args, **kwargs):
            cached = "chartab" in G._cache and kwargs.get("prime", args[2] if len(args) > 2 else None) is None
            idx = self.open(hit if cached else build)
            try:
                return fn(G, *args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _load_chartab(self, fn):
        miss, hit = self.intern("reports.chartab_load_miss"), self.intern("reports.chartab_load")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(miss)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if result is not None:
                self.name[idx] = hit
            return result

        return wrapper

    def _claim(self, fn):
        @functools.wraps(fn)
        def wrapper(G, H, claim, *args, **kwargs):
            idx = self.open(self.intern(f"claim.{claim}"))
            try:
                return fn(G, H, claim, *args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _counted(self, fn, cell: list):
        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        """Wrap the layer functions and count the arithmetic, in place."""
        replace = [(m, f, self._span(getattr(m, f), n)) for m, f, n in SPANS]
        replace.append((structure, "subgroups", self._subgroups(structure.subgroups)))
        replace.append((chartab, "character_table", self._character_table(chartab.character_table)))
        replace.append((reports, "load_chartab", self._load_chartab(reports.load_chartab)))
        replace.append((verify, "verify_pair_claim", self._claim(verify.verify_pair_claim)))
        modules = [m for name, m in sys.modules.items() if name == "camina" or name.startswith("camina.")]
        for module, attr, wrapper in replace:
            original = getattr(module, attr)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        for (cls, attr), name in COUNTED.items():
            setattr(cls, attr, self._counted(cls.__dict__[attr], self.counters[name]))

    def write(self) -> None:
        """Write the spans to ``out_dir``: ``trace.bin`` holds the name id,
        parent, start and end arrays one after another, ``trace.json`` the
        span count and the names the ids index."""
        stem = self.out_dir / "trace"
        with open(f"{stem}.bin", "wb") as f:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)
        Path(f"{stem}.json").write_text(json.dumps({"spans": len(self.name), "names": self.names}))


class _Totals:
    """Per span name: calls, outermost inclusive time and self time."""

    # (span, ancestor): calls of span nested anywhere below ancestor.
    UNDER = (("grouptable.closure", "structure.subgroups"), ("chartab.inner_product", "chartab.build"))

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.group_durations: list[float] = []
        self.under = dict.fromkeys(self.UNDER, 0)

    def add(self, names, name, parent, start, end) -> None:
        n = len(name)
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        # Each span's set of ancestor names, interned: parents precede
        # children, so one forward pass builds them.
        sets: list[frozenset] = [frozenset()]
        memo: dict[tuple[int, int], int] = {}
        anc = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                key = (anc[p], name[p])
                sid = memo.get(key)
                if sid is None:
                    sid = memo[key] = len(sets)
                    sets.append(sets[anc[p]] | {name[p]})
                anc[i] = sid
        ids = {label: nid for nid, label in enumerate(names)}
        under = [(pair, ids.get(pair[0]), ids.get(pair[1])) for pair in self.UNDER]
        group = ids.get("cli.group")
        for i in range(n):
            nid = name[i]
            label = names[nid]
            self.calls[label] = self.calls.get(label, 0) + 1
            self.self_time[label] = self.self_time.get(label, 0.0) + dur[i] - child[i]
            ancestors = sets[anc[i]]
            if nid not in ancestors:
                self.incl[label] = self.incl.get(label, 0.0) + dur[i]
            if nid == group:
                self.group_durations.append(dur[i])
            for pair, span, ancestor in under:
                if nid == span and ancestor in ancestors:
                    self.under[pair] += 1


def layer_metrics(
    tracer: Tracer,
    rounds: int,
    traced_wall: float,
    untraced_wall: float,
    report_bytes: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round, as {name: (value, unit)}."""
    totals = _Totals()
    totals.add(tracer.names, tracer.name, tracer.parent, tracer.start, tracer.end)
    counters = {k: v[0] for k, v in tracer.counters.items()}
    found, pair_calls, distinct = tracer.found, tracer.pair_calls, tracer.distinct_pairs

    def calls(name: str) -> float:
        return totals.calls.get(name, 0) / rounds

    def seconds(name: str) -> float:
        return totals.incl.get(name, 0.0) / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    groups = totals.group_durations
    group_sum = sum(groups) / rounds
    m = {
        "grouptable.mul_calls": (counters["grouptable.mul"] / rounds, "count"),
        "grouptable.conj_calls": (counters["grouptable.conj"] / rounds, "count"),
        "grouptable.closure_calls": (calls("grouptable.closure"), "count"),
        "grouptable.closure_s": (seconds("grouptable.closure"), "s"),
        "grouptable.generate_s": (seconds("grouptable.generate"), "s"),
        "grouptable.subgroup_table_s": (seconds("grouptable.subgroup_table"), "s"),
        "grouptable.quotient_table_s": (seconds("grouptable.quotient_table"), "s"),
        "structure.subgroups_s": (seconds("structure.subgroups"), "s"),
        "structure.subgroups_found": (found / rounds, "count"),
        "structure.join_yield": (ratio(found, totals.under[("grouptable.closure", "structure.subgroups")]), "ratio"),
        "structure.classes_s": (seconds("structure.classes"), "s"),
        "structure.normal_closure_s": (seconds("structure.normal_closure"), "s"),
        "structure.normalizer_s": (seconds("structure.normalizer"), "s"),
        "chartab.builds": (calls("chartab.build"), "count"),
        "chartab.calls": (calls("chartab.build") + calls("chartab.hit"), "count"),
        "chartab.build_s": (seconds("chartab.build"), "s"),
        "chartab.selfcheck_inner_products": (
            totals.under[("chartab.inner_product", "chartab.build")] / rounds,
            "count",
        ),
        "chartab.induce_calls": (calls("chartab.induce"), "count"),
        "chartab.induce_s": (seconds("chartab.induce"), "s"),
        "chartab.decompose_s": (seconds("chartab.decompose"), "s"),
        "chartab.inner_product_calls": (calls("chartab.inner_product"), "count"),
        "chartab.inner_product_s": (seconds("chartab.inner_product"), "s"),
        "cyclotomic.mul_calls": (counters["cyclotomic.mul"] / rounds, "count"),
        "cyclotomic.add_calls": (counters["cyclotomic.add"] / rounds, "count"),
    }
    for pred in ("F", "Fpm", "CI", "O", "camina", "derangements"):
        m[f"conditions.{pred}_calls"] = (calls(f"conditions.{pred}"), "count")
        m[f"conditions.{pred}_s"] = (seconds(f"conditions.{pred}"), "s")
    for label, metric in REUSE.items():
        m[f"conditions.{metric}"] = (ratio(distinct[label], pair_calls[label]), "ratio")
    for claim in verify.ALL_CLAIMS:
        m[f"verify.claim.{claim}_s"] = (totals.self_time.get(f"claim.{claim}", 0.0) / rounds, "s")
    m["verify.group_max_s"] = (max(groups, default=0.0), "s")
    m["verify.group_max_share"] = (ratio(max(groups, default=0.0), group_sum), "ratio")
    m["reports.persist_s"] = (seconds("reports.persist"), "s")
    m["reports.bytes"] = (float(report_bytes), "B")
    m["reports.chartab_save_s"] = (seconds("reports.chartab_save"), "s")
    m["cli.par_efficiency"] = (ratio(group_sum, traced_wall), "ratio")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.overhead_frac"] = (ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
    return m
