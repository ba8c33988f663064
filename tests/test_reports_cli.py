import argparse
import hashlib
import json
import re
import shlex
import time
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import camina.chartab as chartab
import camina.cyclotomic as cyclotomic
import camina.reports as reports
from camina.catalog import BUILTIN_LABELS, builtin, builtin_catalog
from camina.chartab import character_table
from camina.cli import build_parser, run_cli
from camina.grouptable import CapExceeded
from camina.reports import (
    cached_character_table,
    chartab_cache_key,
    load_chartab,
    persist_reports,
    save_chartab,
)
from camina.verify import ALL_CLAIMS, VerificationReport, sweep_single
from reference import ReportRecord, load_reports


REPORTS = [
    VerificationReport("S3", 6, 4, 3, "theorem1", "PASS", {"f_holds": True}),
    VerificationReport(
        "S3",
        6,
        1,
        2,
        "lemma_b",
        "VIOLATION",
        {"witness": {"x": 3, "h": 1, "detail": "x*h is not conjugate to x"}},
    ),
]


class TestReportPersistence:
    def test_round_trip(self, tmp_path):
        records = [ReportRecord(**vars(r), version="0.1.0", timestamp="t0") for r in REPORTS]
        path = tmp_path / "reports.jsonl"
        persist_reports(REPORTS, path, "0.1.0", "t0")
        assert load_reports(path) == records
        # witness fields survive verbatim
        reloaded = load_reports(path)[1]
        assert reloaded.details["witness"]["x"] == 3
        assert reloaded.details["witness"]["detail"] == "x*h is not conjugate to x"

    def test_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        persist_reports([], path, "0.1.0", "t0")
        assert path.read_text() == ""
        assert load_reports(path) == []

    def test_records_are_the_written_reports(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        persist_reports(REPORTS, path, "0.1.0", "2024-01-01T00:00:00+00:00")
        records = load_reports(path)
        assert len(records) == len(REPORTS)
        for record, report in zip(records, REPORTS):
            assert isinstance(record, VerificationReport)
            assert all(getattr(record, f.name) == getattr(report, f.name) for f in fields(VerificationReport))
            assert (record.version, record.timestamp) == ("0.1.0", "2024-01-01T00:00:00+00:00")

    def test_one_object_per_line(self, tmp_path):
        reports = [VerificationReport("Q8", 8, 0, 1, "odd_order", "PASS", {"fired": True})]
        path = tmp_path / "r.jsonl"
        persist_reports(reports, path, "0.1.0", "2024-01-01T00:00:00+00:00")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj["group_label"] == "Q8"
        assert obj["version"] == "0.1.0"

    def test_lines_are_json_dumps_sorted(self, tmp_path):
        # each line is what json.dumps writes with sorted keys and no
        # spaces, non-ASCII text escaped as \u sequences
        reports = [r for e in builtin_catalog() for r in sweep_single(e.label, e.group(), list(ALL_CLAIMS))]
        assert len(reports) == 13_642
        reports.append(VerificationReport("Gé", 6, 0, 1, "cor1", "SKIPPED", {"reason": "über ∅", "n": [1, None]}))
        # details that are equal, or whose items are, but encode differently,
        # and details that encode alike but are not equal, each kept apart
        # by the encoding memo
        distinct = [{"n": 1}, {"n": True}, {"n": 1.0}, {"a": 1, "b": 2}, {"b": 2, "a": 1}, {"n": [1]}, {"n": (1,)}]
        reports += [VerificationReport("S3", 6, i, 2, "cor1", "PASS", d) for i, d in enumerate(distinct)]
        # one dict shared by reports that differ in claim, label and status
        shared = {"fired": True, "n": 1}
        reports += [
            VerificationReport(label, 6, i, 2, claim, status, shared)
            for i, (label, claim, status) in enumerate(
                [("S3", "cor1", "PASS"), ("Gé", "cor1", "PASS"), ("S3", "lemma_a", "PASS"), ("S3", "cor1", "VACUOUS")]
            )
        ]
        path = tmp_path / "r.jsonl"
        persist_reports(reports, path, "0.1.0", "2024-01-01T00:00:00+00:00")
        expected = "".join(
            json.dumps(
                {**vars(r), "version": "0.1.0", "timestamp": "2024-01-01T00:00:00+00:00"},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
            for r in reports
        )
        written = path.read_text()
        assert len(reports) == 13_643 + 11 and written == expected
        assert '"group_label":"G\\u00e9","group_order":6,' in written and "\\u00fcber \\u2205" in written

    def test_details_of_reports_no_longer_held(self, tmp_path):
        # each report, and its details, is dropped as soon as it is written:
        # a later dict that reuses the freed id must not be taken for it
        def reports():
            for i in range(2_000):
                yield VerificationReport("C2", 2, i, 1, "cor1", "PASS", {"i": i, "even": not i % 2})

        path = tmp_path / "r.jsonl"
        persist_reports(reports(), path, "0.1.0", "t0")
        assert [(r.subgroup_index, r.details) for r in load_reports(path)] == [
            (i, {"i": i, "even": not i % 2}) for i in range(2_000)
        ]


def damaged(text: str, damage: str) -> str:
    """A character-table cache file with one kind of damage."""
    if damage == "truncated":
        return text[:40]
    if damage == "missing_key":
        return json.dumps({"format": reports.FORMAT_VERSION, "order": 6})
    if damage == "list":
        return f"[{text}]"
    obj = json.loads(text)
    if damage == "string_coefficient":
        obj["values"][1][0] = str(obj["values"][1][0])
    elif damage in ("bool_coefficient", "float_coefficient"):
        # the value 1 at the trivial character's first class, its 1 written
        # as true or 1.0, which Python reads as 1
        one = obj["values"][obj["rows"][0][0]]
        assert one[0] == 1
        one[0] = {"bool_coefficient": True, "float_coefficient": 1.0}[damage]
    elif damage == "value_one_coefficient_short":
        obj["values"][obj["rows"][1][1]].pop()
    elif damage == "row_one_cell_short":
        obj["rows"][1].pop()
    elif damage == "true_id":
        # an id 1 written as true, which Python reads as 1
        row, k = next((i, k) for i, row in enumerate(obj["rows"]) for k, v in enumerate(row) if v == 1)
        obj["rows"][row][k] = True
    else:
        # the trivial character's first id, 0, as no index into the values;
        # Python would read -len(values) and False as 0, the same table
        n = len(obj["values"])
        assert obj["rows"][0][0] == 0
        obj["rows"][0][0] = {"negative_id": -n, "id_past_the_end": n, "float_id": 0.0, "bool_id": False,
                             "string_id": "0"}[damage]
    return json.dumps(obj)


class TestChartabCache:
    def test_cache_equals_fresh(self, tmp_path, s4):
        fresh = character_table(s4)
        save_chartab(s4, fresh, tmp_path)
        loaded = load_chartab(s4, tmp_path)
        assert loaded is not None
        assert loaded.degree_sequence == fresh.degree_sequence
        for a, b in zip(loaded.irreducibles, fresh.irreducibles):
            assert a.values == b.values

    def test_key_stable_across_regeneration(self):
        a = builtin("S4").group()
        b = builtin("S4").group()
        assert chartab_cache_key(a) == chartab_cache_key(b)

    def test_cached_character_table_writes(self, tmp_path, q8):
        t = cached_character_table(q8, tmp_path)
        files = list(Path(tmp_path).glob("chartab-*.json"))
        assert len(files) == 1
        again = cached_character_table(q8, tmp_path)
        assert again.degree_sequence == t.degree_sequence

    def test_miss_returns_none(self, tmp_path, s3):
        assert load_chartab(s3, tmp_path) is None

    @pytest.mark.parametrize("tamper", ["coefficient", "row_id"])
    def test_tampered_file_is_not_trusted(self, tmp_path, s4, tamper):
        fresh = character_table(s4)
        path = save_chartab(s4, fresh, tmp_path)
        obj = json.loads(path.read_text())
        if tamper == "coefficient":
            # S4 is rational: chi(k) + 1 at one cell changes [chi, chi] by |K| (2 chi(k) + 1)
            value = list(obj["values"][obj["rows"][1][2]])
            value[0] += 1
            obj["values"].append(value)
            obj["rows"][1][2] = len(obj["values"]) - 1
        else:
            obj["rows"][1][0] = obj["rows"][2][0]  # the sign's degree 1 read as the next row's 2
        path.write_text(json.dumps(obj, sort_keys=True))
        assert load_chartab(s4, tmp_path) is None
        table = cached_character_table(s4, tmp_path)
        assert [chi.values for chi in table.irreducibles] == [chi.values for chi in fresh.irreducibles]
        assert table.degree_sequence == fresh.degree_sequence == (1, 1, 2, 3, 3)
        assert load_chartab(s4, tmp_path) is not None  # a rejected file is rebuilt and saved again

    def test_negated_row_is_not_trusted(self, tmp_path, s4):
        # -chi is orthonormal to every other row, but -chi(1) is no degree
        fresh = character_table(s4)
        path = save_chartab(s4, fresh, tmp_path)
        obj = json.loads(path.read_text())
        obj["values"] += [[-c for c in obj["values"][i]] for i in obj["rows"][2]]
        obj["rows"][2] = list(range(len(obj["values"]) - len(obj["rows"][2]), len(obj["values"])))
        path.write_text(json.dumps(obj, sort_keys=True))
        assert load_chartab(s4, tmp_path) is None
        table = cached_character_table(s4, tmp_path)
        assert [chi.values for chi in table.irreducibles] == [chi.values for chi in fresh.irreducibles]
        assert load_chartab(s4, tmp_path).degree_sequence == (1, 1, 2, 3, 3)

    def test_column_swapped_table_is_rebuilt(self, tmp_path, capsys):
        # swapping C4's involution and generator columns keeps the rows
        # orthonormal and the degrees positive, but puts z4 at the involution
        cache = str(tmp_path)
        assert run_cli(["--cache-dir", cache, "chartab", "--group", "C4"]) == 0
        printed = capsys.readouterr().out
        assert "chi_0: 1  -1  -z4  z4\n" in printed
        (path,) = tmp_path.glob("chartab-*.json")
        obj = json.loads(path.read_text())
        for row in obj["rows"]:
            row[1], row[2] = row[2], row[1]
        path.write_text(json.dumps(obj))
        assert load_chartab(builtin("C4").group(), tmp_path) is None
        assert run_cli(["--cache-dir", cache, "chartab", "--group", "C4"]) == 0
        assert capsys.readouterr().out == printed
        assert load_chartab(builtin("C4").group(), tmp_path) is not None  # rebuilt and saved again

    def test_reordered_rows_are_a_miss(self, tmp_path, capsys):
        # S4's rows 0 and 4 swapped pass every other check: the rows are still
        # Irr(S4), but the cache must give the table in the order a build does
        cache = str(tmp_path)
        assert run_cli(["--cache-dir", cache, "chartab", "--group", "S4"]) == 0
        printed = capsys.readouterr().out
        assert "chi_0: 1  1  -1  1  -1\n" in printed
        (path,) = tmp_path.glob("chartab-*.json")
        obj = json.loads(path.read_text())
        obj["rows"][0], obj["rows"][4] = obj["rows"][4], obj["rows"][0]
        path.write_text(json.dumps(obj))
        assert load_chartab(builtin("S4").group(), tmp_path) is None
        assert run_cli(["--cache-dir", cache, "chartab", "--group", "S4"]) == 0
        assert capsys.readouterr().out == printed
        assert load_chartab(builtin("S4").group(), tmp_path) is not None  # rebuilt and saved again

    def test_every_built_table_loads_after_a_save(self, tmp_path):
        # the builtin groups and those of the benchmark's chartab workload
        extra = ["C60", "C5xC10", "C4xC4xC2", "Heis(5)", "C3xC3xC3", "Q32xC2", "D30"]
        for label in [e.label for e in builtin_catalog()] + extra:
            G = builtin(label).group()
            fresh = character_table(G)
            save_chartab(G, fresh, tmp_path)
            loaded = load_chartab(builtin(label).group(), tmp_path)
            assert loaded is not None, label
            assert [chi.values for chi in loaded.irreducibles] == [chi.values for chi in fresh.irreducibles], label

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "missing_key", "list", "string_coefficient", "bool_coefficient", "float_coefficient",
         "value_one_coefficient_short", "negative_id", "id_past_the_end", "float_id", "bool_id", "true_id",
         "string_id", "row_one_cell_short"],
    )
    def test_unreadable_file_is_a_miss(self, tmp_path, capsys, s3, damage):
        # the coefficients and ids are checked by the table constructor alone
        cache = str(tmp_path)
        assert run_cli(["--cache-dir", cache, "chartab", "--group", "S3"]) == 0
        printed = capsys.readouterr().out
        (path,) = tmp_path.glob("chartab-*.json")
        written = path.read_text()
        path.write_text(damaged(written, damage))
        assert load_chartab(s3, tmp_path) is None
        assert run_cli(["--cache-dir", cache, "chartab", "--group", "S3"]) == 0
        assert capsys.readouterr().out == printed
        assert load_chartab(s3, tmp_path) is not None  # rebuilt and saved again
        assert path.read_text() == written

    def test_value_listed_twice_loads_as_the_build(self, tmp_path, capsys):
        # Frob(7:3)'s values are irrational, 12 coefficients each.  A row's
        # degree at a class of its kernel goes under a new id of its own,
        # while the identity class keeps the old id: equal values merge
        argv = ["--cache-dir", str(tmp_path), "chartab", "--group", "Frob(7:3)"]
        assert run_cli(argv) == 0
        printed = capsys.readouterr().out
        (path,) = tmp_path.glob("chartab-*.json")
        obj = json.loads(path.read_text())
        rows = obj["rows"]
        i, k = next((i, k) for i, row in enumerate(rows) for k in range(1, len(row)) if row[k] == row[0])
        obj["values"].append(list(obj["values"][rows[i][0]]))
        rows[i][k] = len(obj["values"]) - 1
        path.write_text(json.dumps(obj))
        loaded = load_chartab(builtin("Frob(7:3)").group(), tmp_path)
        fresh = character_table(builtin("Frob(7:3)").group())
        assert loaded is not None
        assert loaded.values.distinct == fresh.values.distinct and loaded.values.cells == fresh.values.cells
        assert loaded.mod_p == fresh.mod_p
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == printed

    def test_root_order_not_dividing_the_exponent_is_a_miss(self, tmp_path, capsys, monkeypatch, s3):
        # Z[zeta_e] costs time and memory quadratic in e, so no ring is built
        # for a root order that no value of G's table can need
        cache = str(tmp_path)
        assert run_cli(["--cache-dir", cache, "chartab", "--group", "S3"]) == 0
        printed = capsys.readouterr().out
        (path,) = tmp_path.glob("chartab-*.json")
        obj = json.loads(path.read_text())
        obj["root_order"] = 100_000
        path.write_text(json.dumps(obj))
        rings = []
        original = cyclotomic._ring

        def ring(e):
            rings.append(e)
            if e == 100_000:
                raise ValueError("ring for root order 100000 requested")
            return original(e)

        monkeypatch.setattr(cyclotomic, "_ring", ring)
        assert load_chartab(s3, tmp_path) is None
        assert run_cli(["--cache-dir", cache, "chartab", "--group", "S3"]) == 0
        assert capsys.readouterr().out == printed
        assert json.loads(path.read_text())["root_order"] == 6  # rebuilt and saved again
        assert 100_000 not in rings

    def test_root_order_other_than_the_exponent_is_a_miss(self, tmp_path, capsys, s3):
        # S3's values are rational, and Z[zeta_3] has as many coefficients as
        # Z[zeta_6]; the same coefficients under root order 3 are the same
        # values, but a table's ring is Z[zeta_e] with e = exp(G) = 6 only
        cache = str(tmp_path)
        assert run_cli(["--cache-dir", cache, "chartab", "--group", "S3"]) == 0
        printed = capsys.readouterr().out
        (path,) = tmp_path.glob("chartab-*.json")
        obj = json.loads(path.read_text())
        assert obj["root_order"] == 6
        obj["root_order"] = 3
        path.write_text(json.dumps(obj))
        assert load_chartab(s3, tmp_path) is None
        assert run_cli(["--cache-dir", cache, "chartab", "--group", "S3"]) == 0
        assert capsys.readouterr().out == printed
        assert json.loads(path.read_text())["root_order"] == 6  # rebuilt and saved again
        assert load_chartab(s3, tmp_path) is not None

    def test_huge_coefficient_is_a_quick_miss(self, tmp_path, monkeypatch, s4):
        # the modular check's prime grows with the largest value, so a value
        # no character of G can take is rejected before the prime search
        path = save_chartab(s4, character_table(s4), tmp_path)
        obj = json.loads(path.read_text())
        obj["values"][obj["rows"][1][2]][0] = 10**15
        path.write_text(json.dumps(obj))

        def no_search(e, bound):
            raise AssertionError(f"prime search above {bound}")

        monkeypatch.setattr(chartab, "prime_above", no_search)
        start = time.perf_counter()
        assert load_chartab(s4, tmp_path) is None
        assert time.perf_counter() - start < 1.0

    def test_one_key_hash_per_query(self, monkeypatch, tmp_path, capsys):
        # a cold query misses, builds and saves; a warm one loads; each
        # hashes the group once
        calls = []
        original = reports.chartab_cache_key
        monkeypatch.setattr(reports, "chartab_cache_key", lambda G: calls.append(G) or original(G))
        argv = ["--cache-dir", str(tmp_path), "chartab", "--group", "S4"]
        assert run_cli(argv) == 0
        assert len(calls) == 1 and len(list(tmp_path.glob("chartab-*.json"))) == 1
        built = capsys.readouterr().out
        calls.clear()
        monkeypatch.setattr(reports, "character_table", lambda G: pytest.fail("a warm query built the table"))
        assert run_cli(argv) == 0
        assert len(calls) == 1 and capsys.readouterr().out == built

    def test_caps_apply_before_a_load(self, monkeypatch, tmp_path, s4):
        save_chartab(s4, character_table(s4), tmp_path)
        assert load_chartab(s4, tmp_path) is not None
        monkeypatch.setattr(chartab, "CLASS_CAP", 4)
        with pytest.raises(CapExceeded, match="character table class cap exceeded"):
            cached_character_table(s4, tmp_path)
        monkeypatch.setattr(chartab, "CLASS_CAP", 5)
        assert cached_character_table(s4, tmp_path).degree_sequence == (1, 1, 2, 3, 3)


class TestCli:
    def test_check_camina(self, capsys):
        rc = run_cli(["check", "--group", "S3", "--subgroup-order", "3", "--condition", "camina"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "holds" in out

    def test_check_subgroup_index(self, capsys):
        rc = run_cli(["check", "--group", "S3", "--subgroup-index", "1", "--condition", "f"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fails" in out

    def test_check_subgroup_file(self, tmp_path, capsys):
        f = tmp_path / "h.grp"
        f.write_text("degree 3\n(1,2,3)\n")
        rc = run_cli(["check", "--group", "S3", "--subgroup-file", str(f), "--condition", "camina"])
        assert rc == 0
        assert "holds" in capsys.readouterr().out

    def test_chartab_q8(self, tmp_path, capsys):
        rc = run_cli(["--cache-dir", str(tmp_path), "chartab", "--group", "Q8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("chi_") == 5
        assert "degree sequence: 1,1,1,1,2" in out

    def test_chartab_irrational_values(self, tmp_path, capsys):
        assert run_cli(["--cache-dir", str(tmp_path), "chartab", "--group", "C3"]) == 0
        assert "chi_0: 1  -1-z3  z3\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "condition, name, reason",
        [
            ("fpm", "FPM", "x*h is conjugate to neither x nor x^-1"),
            ("o", "O", "x has odd order but x*h has even order"),
            ("equal-order", "EQUAL_ORDER_COSET", "o(x*h) differs from o(x)"),
        ],
    )
    def test_check_other_conditions(self, capsys, condition, name, reason):
        assert run_cli(["check", "--group", "S3", "--subgroup-order", "3", "--condition", condition]) == 0
        assert capsys.readouterr().out == f"subgroup index=4 order=3 gens=(1,2,3)\ncondition {name}: holds\n"
        assert run_cli(["check", "--group", "S3", "--subgroup-index", "1", "--condition", condition]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == "subgroup index=1 order=2 gens=(2,3)"
        assert second.startswith(f"condition {name}: fails x=") and second.endswith(f"h=(2,3) ({reason})")

    def test_chartab_class_cap_with_cached_table(self, monkeypatch, tmp_path, capsys):
        cache = str(tmp_path)
        assert run_cli(["--cache-dir", cache, "chartab", "--group", "S4"]) == 0
        assert "character table of S4" in capsys.readouterr().out
        monkeypatch.setattr(chartab, "CLASS_CAP", 3)
        assert run_cli(["--cache-dir", cache, "chartab", "--group", "S4"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: character table class cap exceeded (reached 5)\n"

    def test_info(self, capsys):
        rc = run_cli(["info", "--group", "Frob(7:3)"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "order 21" in out

    def test_info_digest(self, capsys):
        # Every info line of the builtin labels, S5 and A6, pinned byte for
        # byte: solvable, nilpotent and simple verdicts included.
        for label in BUILTIN_LABELS + ["S5", "A6"]:
            assert run_cli(["info", "--group", label]) == 0
        out = capsys.readouterr().out
        assert out.count("\nsimple True\n") == 2  # A5 and A6
        assert hashlib.sha256(out.encode()).hexdigest() == "6d916ea67dae7e93606d38202096df257e515936e137e2f8836d037d2868a2e8"

    def test_subgroups_listing(self, capsys):
        rc = run_cli(["subgroups", "--group", "S3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(out.strip().splitlines()) == 6

    @pytest.mark.parametrize(
        "group, digest",
        [
            ("S5", "2866904159fe8ef41d2287c2af7a949bd8634aa659d973d52aeee70af225b05d"),
            ("S4xC2", "9853a528c30a2ded77c13649c1f3d996f6703407b5d6c9f1cfe3188154c28594"),
            ("S6", "71e82bf554e1e90f8b5a9f264f7ee2ffcf1a580ff6c72186900a0c47e59a1507"),
            ("fano", "9c689f0be7c48a3ae771fe24684f691b4dbe232cf4d5db9d908aef72b3d75d8b"),
        ],
    )
    def test_subgroups_listing_digest(self, capsys, tmp_path, group, digest):
        # The whole listing, subgroup order, orders, generators and normal
        # marks, pinned byte for byte; "fano" is PSL(2,7) on the 7 points
        # of the Fano plane, read from a group file.
        if group == "fano":
            group = tmp_path / "fano.grp"
            group.write_text("degree 7\n(1,2,3,4,5,6,7)\n(1,2)(3,6)\n")
        assert run_cli(["subgroups", "--group", str(group)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "group, digest",
        [
            ("C60", "8456a57e37494c4bec85594f25089eaecf42a06ed0feb534855607b0b1942860"),
            ("C5xC10", "8770bcc41e9233489439f0552e4faeaa4a02d1fab68e34479c3ebdaef2428217"),
            ("C4xC4xC2", "3847bee9048ba6440bcee88868e4c9d631919ac52518d8b4b781d0230a30d6b2"),
            ("Heis(5)", "0ff116e75d4569f37b71360fc5f2d5f664e0c62a98bdc244ff0bddf670a42d16"),
            ("C3xC3xC3", "f0dc36bfb577fd39db257cbc7cd5b33d65c22b1aa48b3488d44ec4bd087bf854"),
            ("Q32xC2", "5a3bd9dfa1b5f7f449de898154015027a4a61694f5f57225cbf0944773167455"),
            ("D30", "f1a8b8cfc686a4fc4ceef9c6cd0e2b05f35f30604ceea4568c27bb572b6db313"),
            ("S5", "e172aaaf7e246dedb31e5b7ad8d9780d7c3e4ae62a797c678d252e462d590813"),
            ("S6", "0957828e57df42fe937f1c2948d869bcdba731f74be247593e9fe4557b41fd2c"),
        ],
    )
    def test_chartab_listing_digest(self, capsys, tmp_path, group, digest):
        # The whole printed table, class representatives, class sizes and
        # every value, pinned byte for byte: first as built, then as loaded
        # from the cache file that the first call saved.
        for _ in ("built", "loaded"):
            assert run_cli(["--cache-dir", str(tmp_path), "chartab", "--group", group]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        assert len(list(tmp_path.glob("chartab-*.json"))) == 1

    def test_catalog_list(self, capsys):
        rc = run_cli(["catalog", "list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "S3" in out and "Q8" in out

    def test_verify_takes_groups_in_label_order(self, tmp_path, capsys):
        # verify concatenates its groups' chunks in label order; catalog list
        # keeps the catalog's (order, label) order
        out = tmp_path / "reports.jsonl"
        assert run_cli(["verify", "--catalog", "builtin", "--max-order", "12", "--claims", "cor2", "--out", str(out)]) == 0
        swept = list(dict.fromkeys(r.group_label for r in load_reports(out)))
        capsys.readouterr()
        assert run_cli(["catalog", "list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [e.label for e in builtin_catalog()]
        small = [label for label in listed if builtin(label).order <= 12]
        assert swept == sorted(small) != small

    def test_search(self, capsys):
        rc = run_cli(["search", "--group", "A4", "--condition", "f"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 subgroup(s) satisfy f" in out

    def test_search_ci_matches_f(self, capsys):
        # theorem 1: (CI) and (F) select the same subgroups
        listed = {}
        for condition in ("ci", "f"):
            assert run_cli(["search", "--group", "A4", "--condition", condition]) == 0
            out = capsys.readouterr().out
            listed[condition] = [line for line in out.splitlines() if line.startswith("subgroup ")]
        assert listed["ci"] == listed["f"] and len(listed["ci"]) == 4

    def test_usage_errors(self, capsys):
        assert run_cli(["check", "--group", "NOPE", "--subgroup-order", "2", "--condition", "f"]) == 1
        assert run_cli(["verify", "--claims", "bogus", "--max-order", "6"]) == 1
        assert run_cli(["nonsense"]) == 1
        assert run_cli(["check", "--group", "S3", "--subgroup-order", "5", "--condition", "f"]) == 1

    @pytest.mark.parametrize("label", ["C0", "C2xC0"])
    def test_cyclic_parameter_zero_is_a_usage_error(self, capsys, label):
        assert run_cli(["info", "--group", label]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: cyclic parameter must be >= 1, got 0\n"

    def test_label_longer_than_a_file_name_is_a_label(self, capsys):
        # a --group value past the file-name length limit is no file: 300
        # nines name a cyclic group over the order cap, 5000 nines are more
        # digits than an int is read from, an unknown label
        assert run_cli(["info", "--group", "C" + "9" * 300]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: order cap exceeded (reached 2001)\n")
        assert run_cli(["info", "--group", "C" + "9" * 5000]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: builtin label C9999999999999999999... has a parameter too long to read\n"

    @pytest.mark.parametrize("flag", ["--order-cap", "--jobs", "--max-order"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_counts_are_positive_integers(self, capsys, flag, value):
        if flag == "--max-order":
            argv = ["verify", flag, value, "--claims", "cor2"]
        else:
            argv = [flag, value, "info", "--group", "S3"]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: argument {flag}: expected a positive integer, got '{value}'\n"

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("camina ")]
        assert lines
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])  # raises UsageError on an argument it does not take

    def test_cap_exit_code(self, capsys):
        rc = run_cli(["--order-cap", "10", "info", "--group", "S4"])
        assert rc == 3
        assert capsys.readouterr().err == "error: order cap exceeded (reached 11)\n"
        assert run_cli(["info", "--group", "C20000"]) == 3
        assert capsys.readouterr().err == "error: order cap exceeded (reached 2001)\n"

    def test_chartab_over_the_class_cap(self, tmp_path, capsys):
        # C64's 64 classes are over the class cap of 60
        assert run_cli(["--cache-dir", str(tmp_path), "chartab", "--group", "C64"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: character table class cap exceeded (reached 64)\n"

    @pytest.mark.parametrize("flag", ["--class-cap", "--subgroup-cap"])
    def test_caps_are_not_flags(self, capsys, flag):
        assert run_cli([flag, "3", "info", "--group", "S3"]) == 1
        assert run_cli(["info", "--group", "S3", flag, "3"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"error: unrecognized arguments: {flag} 3\n")

    def test_max_order_below_order_cap(self, capsys):
        # groups above --max-order are left out before they reach the generation cap
        assert run_cli(["--order-cap", "50", "verify", "--max-order", "24", "--claims", "cor2"]) == 0
        assert "violations: 0" in capsys.readouterr().out
        # a selected group above --order-cap (A5, order 60) is still a cap error
        assert run_cli(["--order-cap", "50", "verify", "--max-order", "60", "--claims", "cor2"]) == 3

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.grp"
        f.write_text("degree 3\n(1,2)(2,3)\n")
        rc = run_cli(["check", "--group", "S3", "--subgroup-file", str(f), "--condition", "f"])
        assert rc == 3

    def test_verify_writes_reports(self, tmp_path, capsys):
        out_file = tmp_path / "reports.jsonl"
        rc = run_cli(
            ["verify", "--catalog", "builtin", "--max-order", "8", "--claims", "theorem1", "--out", str(out_file)]
        )
        assert rc == 0
        assert out_file.exists()
        records = load_reports(out_file)
        assert records and all(r.claim == "theorem1" for r in records)
        out = capsys.readouterr().out
        assert "violations: 0" in out

    def test_verify_lemmas_alias(self, tmp_path, capsys):
        out_file = tmp_path / "reports.jsonl"
        assert run_cli(["verify", "--max-order", "6", "--claims", "lemmas", "--out", str(out_file)]) == 0
        assert sorted({r.claim for r in load_reports(out_file)}) == [f"lemma_{c}" for c in "abcdefghijklm"]
        assert "violations: 0" in capsys.readouterr().out

    def test_verify_repeated_claims_reported_once(self, tmp_path, capsys):
        once, repeated = tmp_path / "once.jsonl", tmp_path / "repeated.jsonl"
        assert run_cli(["verify", "--max-order", "6", "--claims", "lemmas", "--out", str(once)]) == 0
        printed = capsys.readouterr().out
        assert run_cli(["verify", "--max-order", "6", "--claims", "lemmas,lemma_a", "--out", str(repeated)]) == 0
        assert capsys.readouterr().out == printed.replace(str(once), str(repeated))
        strip = lambda p: re.sub(r'"timestamp":"[^"]*"', '"timestamp":null', p.read_text())
        assert strip(repeated) == strip(once)

    def test_verify_all_alias_in_a_list(self, tmp_path, capsys):
        # "all" is an alias like "lemmas", so it may stand in a comma list
        strip = lambda p: re.sub(r'"timestamp":"[^"]*"', '"timestamp":null', p.read_text())
        files = {}
        for claims in ("all", "all,cor2", "lemmas,all"):
            files[claims] = tmp_path / f"{claims.replace(',', '-')}.jsonl"
            assert run_cli(["verify", "--max-order", "12", "--claims", claims, "--out", str(files[claims])]) == 0
        assert strip(files["all,cor2"]) == strip(files["all"]) == strip(files["lemmas,all"])

    def test_verify_exit_two_on_violation(self, monkeypatch, capsys):
        import camina.verify as verify_mod  # the CLI imports sweep_single from it per group

        def fake_sweep_single(label, G, claims, *a, **k):
            return [VerificationReport(label, G.order, 0, 1, claims[0], "VIOLATION", {"x": 1})]

        monkeypatch.setattr(verify_mod, "sweep_single", fake_sweep_single)
        rc = run_cli(["verify", "--catalog", "builtin", "--max-order", "6", "--claims", "theorem1"])
        assert rc == 2

    def test_verify_directory_catalog(self, tmp_path, capsys):
        (tmp_path / "s3.grp").write_text("degree 3\n(1,2)\n(1,2,3)\n")
        (tmp_path / "c4.grp").write_text("degree 4\n(1,2,3,4)\n")
        rc = run_cli(["verify", "--catalog", str(tmp_path), "--max-order", "24", "--claims", "theorem1,odd_order"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "violations: 0" in out

    def test_verify_jobs_determinism(self, tmp_path):
        out1 = tmp_path / "r1.jsonl"
        out2 = tmp_path / "r2.jsonl"
        args = ["verify", "--catalog", "builtin", "--max-order", "12", "--claims", "theorem1,cor2"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(["--jobs", "2"] + args + ["--out", str(out2)]) == 0
        strip = lambda p: re.sub(r'"timestamp":"[^"]*"', '"timestamp":null', p.read_text())
        assert strip(out1) == strip(out2)

    def test_verify_pool_has_no_more_workers_than_groups(self, tmp_path, monkeypatch, capsys):
        # a fork pool starts all of its workers at the first submit; an
        # in-process stand-in records the size of each pool that is built.
        # verify imports the pool class from concurrent.futures when it
        # needs one, so the stand-in is bound there.
        import concurrent.futures

        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        one, empty = tmp_path / "one", tmp_path / "empty"
        one.mkdir()
        empty.mkdir()
        (one / "s3.grp").write_text("degree 3\n(1,2)\n(1,2,3)\n")
        args = ["verify", "--max-order", "12", "--claims", "theorem1"]
        assert run_cli(["--jobs", "8"] + args + ["--catalog", str(one)]) == 0
        assert run_cli(["--jobs", "2"] + args + ["--catalog", str(empty)]) == 0
        assert pools == []
        assert run_cli(["--jobs", "3"] + args + ["--catalog", "builtin"]) == 0
        assert pools == [3]


class TestCliErrorPaths:
    """Each bad command line or group file gets its exit code and one
    ``error:`` line on stderr, and prints nothing to stdout."""

    def test_verify_help_lists_every_claim(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        assert f"comma list of claims ({', '.join(ALL_CLAIMS)}) and aliases (all, lemmas)" in text

    @staticmethod
    def fails(capsys, argv, code, message):
        assert run_cli(argv) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_jobs_not_an_integer(self, capsys):
        message = "argument --jobs: expected a positive integer, got 'abc'"
        self.fails(capsys, ["--jobs", "abc", "info", "--group", "S3"], 1, message)

    @pytest.mark.parametrize(
        "group, text, message",
        [
            ("S3", "degree 4\n(1,2)\n", "subgroup file degree 4 != group degree 3"),
            ("A4", "degree 4\n(1,2,3)\n(1,2)\n", "generator (1,2) is not an element of the group"),
        ],
    )
    def test_subgroup_file_outside_the_group(self, tmp_path, capsys, group, text, message):
        f = tmp_path / "h.grp"
        f.write_text(text)
        argv = ["check", "--group", group, "--subgroup-file", str(f), "--condition", "f"]
        self.fails(capsys, argv, 1, message)

    @pytest.mark.parametrize("index", ["6", "-1"])
    def test_subgroup_index_out_of_range(self, capsys, index):
        argv = ["check", "--group", "S3", "--subgroup-index", index, "--condition", "f"]
        self.fails(capsys, argv, 1, f"subgroup index {index} out of range (0..5)")

    def test_empty_claim_list(self, capsys):
        self.fails(capsys, ["verify", "--claims", ",", "--max-order", "6"], 1, "no claims selected")

    def test_catalog_naming_a_file(self, tmp_path, capsys):
        f = tmp_path / "s3.grp"
        f.write_text("degree 3\n(1,2)\n(1,2,3)\n")
        argv = ["verify", "--catalog", str(f), "--max-order", "6", "--claims", "cor2"]
        self.fails(capsys, argv, 1, f"--catalog must be 'builtin' or a directory, got {str(f)!r}")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("degree 3\nx(1,2)\n", "line 2: malformed cycle text 'x(1,2)'"),
            ("degree 0\n(1,2)\n", "line 1: degree must be positive"),
            ("# no degree line\n\n", "line 1: file contains no 'degree N' line"),
        ],
    )
    def test_malformed_group_file(self, tmp_path, capsys, text, message):
        f = tmp_path / "g.grp"
        f.write_text(text)
        self.fails(capsys, ["info", "--group", str(f)], 3, message)


class TestCachedParser:
    """``run_cli`` reuses one parser per process; no call leaves state on it
    that a later call sees."""

    def test_cap_then_default_cap(self, capsys):
        assert run_cli(["--order-cap", "10", "info", "--group", "S4"]) == 3
        capsys.readouterr()
        assert run_cli(["info", "--group", "S4"]) == 0
        assert "order 24\n" in capsys.readouterr().out

    def test_claims_then_default_claims(self, tmp_path, capsys):
        one, default = tmp_path / "one.jsonl", tmp_path / "default.jsonl"
        assert run_cli(["verify", "--max-order", "12", "--claims", "lemma_a", "--out", str(one)]) == 0
        assert {r.claim for r in load_reports(one)} == {"lemma_a"}
        capsys.readouterr()
        assert run_cli(["verify", "--max-order", "12", "--out", str(default)]) == 0
        assert {r.claim for r in load_reports(default)} == set(ALL_CLAIMS) and len(ALL_CLAIMS) == 20
        summary = capsys.readouterr().out.splitlines()[:20]
        assert [line.split()[0] for line in summary] == sorted(ALL_CLAIMS)

    def test_usage_error_then_valid_call(self, capsys):
        assert run_cli(["verify", "--claims", "nope"]) == 1
        assert capsys.readouterr().err == "error: unknown claim 'nope'\n"
        assert run_cli(["verify", "--max-order", "6", "--claims", "cor2"]) == 0
        assert "violations: 0\n" in capsys.readouterr().out

    def test_one_build_for_many_calls(self, monkeypatch, capsys):
        builds = []
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            builds.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser.cache_clear()
        for argv in (["catalog", "list"], ["info", "--group", "S3"], ["nonsense"], ["info", "--group", "C4"]):
            run_cli(argv)
        assert builds.count("camina") == 1 and len(builds) == 8  # camina and its 7 commands
        assert build_parser() is build_parser()


# sha256 of the builtin sweep's report file, all claims up to order 1000,
# with every timestamp replaced by null: 13,642 reports, 0 violations
BUILTIN_SWEEP_SHA256 = "92d8349cf9c68629866d14f829ca04085b2f3d0d2b868e5fef2ca34c037cff77"


class TestBuiltinSweepDigest:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_reports_are_pinned(self, tmp_path, capsys, jobs):
        out = tmp_path / "reports.jsonl"
        argv = ["--jobs", jobs, "verify", "--catalog", "builtin", "--max-order", "1000", "--claims", "all"]
        assert run_cli(argv + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "total reports: 13642\nviolations: 0\n" in printed
        stripped = re.sub(r'"timestamp":"[^"]*"', '"timestamp":null', out.read_text())
        assert hashlib.sha256(stripped.encode()).hexdigest() == BUILTIN_SWEEP_SHA256


class TestSweepFaultIsolation:
    """A group that cannot be read or is over a cap is left out of a sweep
    with an error; the other groups are swept and the exit code is 3."""

    @staticmethod
    def records(path):
        return [{**asdict(r), "timestamp": None} for r in load_reports(path)]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_malformed_file_in_catalog(self, tmp_path, capsys, jobs):
        good, mixed = tmp_path / "good", tmp_path / "mixed"
        for directory in (good, mixed):
            directory.mkdir()
            (directory / "s3.grp").write_text("degree 3\n(1,2)\n(1,2,3)\n")
            (directory / "c4.grp").write_text("degree 4\n(1,2,3,4)\n")
        bad = mixed / "bad.grp"
        bad.write_text("degree 3\n(1,2)(2,3)\n")
        args = ["--jobs", jobs, "verify", "--max-order", "24", "--claims", "all"]
        assert run_cli(args + ["--catalog", str(good), "--out", str(tmp_path / "good.jsonl")]) == 0
        capsys.readouterr()
        assert run_cli(args + ["--catalog", str(mixed), "--out", str(tmp_path / "mixed.jsonl")]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: line 2: point 2 repeated across cycles\n"
        assert "violations: 0" in captured.out
        assert self.records(tmp_path / "mixed.jsonl") == self.records(tmp_path / "good.jsonl") != []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_binary_file_in_catalog(self, tmp_path, capsys, jobs):
        (tmp_path / "s3.grp").write_text("degree 3\n(1,2)\n(1,2,3)\n")
        binary = tmp_path / "binary.grp"
        binary.write_bytes(b"degree 3\n(1,2)\n\xff\xfe\x00\x01\n")
        args = ["--jobs", jobs, "verify", "--catalog", str(tmp_path), "--max-order", "24", "--claims", "all"]
        assert run_cli(args) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {binary}: line 3: not UTF-8 text\n"
        assert "violations: 0" in captured.out and "total reports: 0" not in captured.out
        assert run_cli(["info", "--group", str(binary)]) == 3
        assert capsys.readouterr().err == "error: line 3: not UTF-8 text\n"

    def test_group_over_order_cap(self, tmp_path, capsys):
        capped, below = tmp_path / "capped.jsonl", tmp_path / "below.jsonl"
        args = ["--order-cap", "50", "verify", "--claims", "cor2", "--out"]
        assert run_cli(args + [str(capped), "--max-order", "200"]) == 3
        # the builtin groups of order 51 to 200, in label order
        labels = ["A5", "C2xA5", "Frob(11:10)", "Frob(13:6)"]
        assert capsys.readouterr().err == "".join(f"error: {g}: order cap exceeded (reached 51)\n" for g in labels)
        assert run_cli(args + [str(below), "--max-order", "50"]) == 0
        assert self.records(capped) == self.records(below) != []
