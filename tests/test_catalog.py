import codecs
import hashlib

import pytest

import camina.catalog as catalog
import camina.grouptable as grouptable
from camina.catalog import (
    BUILTIN_LABELS,
    CatalogEntry,
    ParseError,
    UnknownLabel,
    builtin,
    builtin_catalog,
    format_cycles,
    parse_cycles,
    parse_group_file,
)
from camina.grouptable import CapExceeded
from camina.perm import Permutation
from reference import from_cycles
from camina.structure import conjugacy_classes, is_frobenius_with_kernel, subgroups


FAMILY_ORDERS = [
    ("C1", 1),
    ("C9", 9),
    ("D3", 6),
    ("D12", 24),
    ("S2", 2),
    ("S4", 24),
    ("A3", 3),
    ("A5", 60),
    ("Q8", 8),
    ("Q16", 16),
    ("Q32", 32),
    ("SL23", 24),
    ("Frob(7:3)", 21),
    ("Frob(5:4)", 20),
    ("Frob(11:10)", 110),
    ("Heis(3)", 27),
    ("C2xS3", 12),
    ("S3xS3", 36),
    ("C2xC2xC2", 8),
]


class TestBuiltin:
    @pytest.mark.parametrize("label,order", FAMILY_ORDERS)
    def test_family_orders(self, label, order):
        entry = builtin(label)
        assert entry.group().order == order
        assert entry.label == label

    def test_frob_has_frobenius_kernel(self, frob21):
        kernel = next(H for H in subgroups(frob21) if len(H) == 7)
        assert is_frobenius_with_kernel(frob21, kernel)

    def test_q8_unique_involution(self, q8):
        assert sum(1 for i in range(q8.order) if q8.orders[i] == 2) == 1

    def test_heis3_exponent_three(self):
        G = builtin("Heis(3)").group()
        assert all(G.orders[i] in (1, 3) for i in range(G.order))

    def test_unknown_labels(self):
        for label in ["X5", "Frob(6:2)", "Frob(7:4)", "D2", "Heis(2)", "Heis(4)", "Q12", "S1", "C0", "C2xC0"]:
            with pytest.raises(UnknownLabel):
                builtin(label)

    @pytest.mark.parametrize(
        "label,message",
        [
            ("Q12", "unknown builtin label 'Q12'"),
            ("C2xX5", "unknown builtin label 'X5'"),
            ("Frob(6:2)", "Frob parameter 6 is not prime"),
            ("Frob(7:4)", "Frob requires q | p-1, got Frob(7:4)"),
            ("Frob(3:1)", "Frob requires q > 1, got Frob(3:1)"),
            ("Frob(2:1)", "Frob requires q > 1, got Frob(2:1)"),
            ("D2", "dihedral parameter must be >= 3, got 2"),
            ("S1", "symmetric parameter must be >= 2, got 1"),
            ("A2", "alternating parameter must be >= 3, got 2"),
            ("C0", "cyclic parameter must be >= 1, got 0"),
            ("C2xC0", "cyclic parameter must be >= 1, got 0"),
            ("Heis(4)", "Heis parameter must be an odd prime, got 4"),
            ("Heis(x)", "unknown builtin label 'Heis('"),  # a label splits at every x
        ],
    )
    def test_unknown_label_messages(self, label, message):
        with pytest.raises(UnknownLabel) as info:
            builtin(label)
        assert str(info.value) == message

    @pytest.mark.parametrize("label", ["C" + "9" * 5000, "C2xD" + "7" * 5000, "Frob(" + "7" * 5000 + ":2)"])
    def test_parameter_too_long_for_an_int(self, label):
        # past Python's int-conversion digit limit: an unknown label, not a bare ValueError
        with pytest.raises(UnknownLabel, match=r"has a parameter too long to read$"):
            builtin(label)

    def test_long_parameter_that_converts_is_over_the_cap(self):
        with pytest.raises(CapExceeded, match=r"^order cap exceeded \(reached 2001\)$"):
            builtin("C" + "9" * 300).group()

    def test_generators_pinned(self):
        # sha256 of (degree, generator images) of every builtin label: the
        # generators fix the element order, and so the subgroup indices and
        # witnesses in every report
        h = hashlib.sha256()
        for label in BUILTIN_LABELS:
            entry = builtin(label)
            h.update(repr((entry.degree, [g.images for g in entry.generators])).encode())
        assert h.hexdigest() == "f5a75feda7fcd06961af9897b290e82c181666d94649c34bfcb5b7b829edac9a"

    def test_labels_outside_the_catalog_pinned(self):
        # sha256 of (degree, generator images, order) of labels that are not
        # builtin catalog entries: the edge parameters of each family and
        # products of several factors
        labels = ["C1", "S2", "A3", "A6", "S6", "Q16", "Heis(5)", "Heis(7)", "Frob(13:4)"]
        labels += ["Frob(7:3)xC2", "C2xHeis(3)xFrob(7:2)", "S3xS3xS3"]
        h = hashlib.sha256()
        for label in labels:
            entry = builtin(label)
            h.update(repr((entry.degree, [g.images for g in entry.generators], entry.order)).encode())
        assert h.hexdigest() == "d968851f74e2ef5b18a2fbb932006c2f42936660a302953edbb115edfd922e39"

    @pytest.mark.parametrize(
        "label,images",
        [
            ("C2xS3", [(1, 0, 2, 3, 4), (0, 1, 3, 2, 4), (0, 1, 3, 4, 2)]),
            ("S3xS3", [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)]),
            (
                "Frob(7:3)xC2",
                [(1, 2, 3, 4, 5, 6, 0, 7, 8), (0, 2, 4, 6, 1, 3, 5, 7, 8), (0, 1, 2, 3, 4, 5, 6, 8, 7)],
            ),
            ("C2xC2xC2", [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)]),
            ("C1xC2", [(0, 2, 1)]),
        ],
    )
    def test_product_generators_pinned(self, label, images):
        # a product's points are its factors' points, block after block; each
        # factor's generators, in order, move only their own block
        assert [g.images for g in builtin(label).generators] == images

    def test_catalog_sorted_and_unique(self):
        entries = builtin_catalog()
        labels = [e.label for e in entries]
        assert len(set(labels)) == len(labels)
        orders = [e.group().order for e in entries]
        assert orders == sorted(orders)
        assert all(o <= 200 for o in orders)

    @pytest.mark.parametrize("label", BUILTIN_LABELS + ["C1", "S2", "A3", "S5", "A6", "Q16", "Heis(5)", "S4xC2"])
    def test_static_order_is_generated_order(self, label):
        entry = builtin(label)
        assert entry.order == entry.group().order

    def test_file_entry_has_no_static_order(self, tmp_path):
        path = tmp_path / "s3.grp"
        path.write_text("degree 3\n(1,2)\n(1,2,3)\n")
        assert parse_group_file(path).order is None

    @pytest.mark.parametrize("label, cap", [("C2001", 2000), ("C20000", 2000), ("S4", 10), ("S4xC2", 47)])
    def test_static_order_over_the_cap_is_not_generated(self, monkeypatch, label, cap):
        def refuse(*args, **kwargs):
            raise AssertionError("generate called for a group whose static order is over the cap")

        entry = builtin(label)
        monkeypatch.setattr(catalog, "generate", refuse)
        with pytest.raises(CapExceeded, match=rf"^order cap exceeded \(reached {cap + 1}\)$") as exc:
            entry.group(cap)
        assert exc.value.partial == cap + 1

    @pytest.mark.parametrize(
        "label",
        ["C1000000000", "Heis(13)", "S1000", "A1000", "C2xD1000000000", "S10000000", "A10000000", "S10000000xC2"]
        + ["Heis(1000000000000000009)", "Frob(1000000000000000009:2)"],
    )
    def test_label_over_the_cap_builds_no_generator(self, monkeypatch, label):
        # a family builds its generators only when they are read: a label
        # over the cap is refused before any point map or permutation is made,
        # and its order's factors are multiplied only until they pass the cap;
        # a prime parameter, 10^18 + 9 too, is tested and Frob's p - 1 left
        # unfactored, with no trial division
        def refuse(*args, **kwargs):
            raise AssertionError("a generator was built, or a trial division run, for a label over the cap")

        monkeypatch.setattr(grouptable, "_least_prime", refuse)
        monkeypatch.setattr(catalog, "_action", refuse)
        monkeypatch.setattr(catalog, "Permutation", refuse)
        monkeypatch.setattr(catalog, "generate", refuse)
        entry = builtin(label)
        with pytest.raises(CapExceeded, match=r"^order cap exceeded \(reached 2001\)$") as exc:
            entry.group()
        assert exc.value.partial == 2001
        assert "order" not in vars(entry)
        assert "generators" not in vars(entry)

    def test_static_order_at_the_cap_is_generated(self):
        assert builtin("S4xC2").group(48).order == 48

    def test_file_entry_over_the_cap_stops_in_generation(self, tmp_path):
        # a file entry's order is unknown until generated: generation stops
        # at the first element over the cap, as for a builtin label
        path = tmp_path / "s4.grp"
        path.write_text("degree 4\n(1,2)\n(1,2,3,4)\n")
        with pytest.raises(CapExceeded, match=r"^order cap exceeded \(reached 11\)$"):
            parse_group_file(path).group(10)

    def test_criterion_families_present(self):
        labels = {e.label for e in builtin_catalog()}
        required = {"S3", "S4", "A4", "A5", "Q8", "Q16", "SL23", "Frob(7:3)", "Frob(5:4)", "Heis(3)"}
        required |= {f"D{n}" for n in range(4, 13)}
        assert required <= labels


class TestCatalogEntry:
    def test_equal_by_label_degree_order_and_generators(self):
        assert builtin("S4") == builtin("S4")
        assert builtin("S4xC2") == builtin(" S4xC2 ")
        assert builtin("S4") != builtin("A4")
        assert builtin("C2xC3") != builtin("C3xC2")  # same order, other label
        assert builtin("S4") != "S4"

    def test_equal_labels_with_other_generators_differ(self):
        entry = builtin("C4")
        other = CatalogEntry("C4", 4, lambda: [Permutation((1, 0, 3, 2))], entry.factors)
        assert entry.order == other.order == 4
        assert entry != other

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(builtin("S3"))

    def test_generators_made_once_at_first_read_after_the_cap_check(self):
        calls = []

        def make():
            calls.append(1)
            return builtin("S4").generators

        entry = CatalogEntry("S4", 4, make, builtin("S4").factors)
        with pytest.raises(CapExceeded):
            entry.group(10)
        assert calls == []
        first = entry.generators
        assert calls == [1]
        assert entry.generators is first
        assert entry.group().order == 24
        assert calls == [1]


class TestCycleNotation:
    def test_parse_basic(self):
        p = parse_cycles("(1,2)(3,4,5)", 5)
        assert p == from_cycles(5, [(0, 1), (2, 3, 4)])

    def test_parse_with_spaces(self):
        assert parse_cycles("(1, 2) (3, 4, 5)".replace(" ", ""), 5) == parse_cycles("(1,2)(3,4,5)", 5)

    def test_identity(self):
        assert parse_cycles("()", 3) == Permutation(range(3))

    def test_repeated_point_rejected(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,2)(2,3)", 3)

    @pytest.mark.parametrize("text, point", [("(1,2)(2,3)", 2), ("(1,1)", 1)])
    def test_repeated_point_named_one_based(self, text, point):
        with pytest.raises(ValueError, match=rf"^point {point} repeated"):
            parse_cycles(text, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,4)", 3)
        with pytest.raises(ValueError):
            parse_cycles("(0,1)", 3)

    def test_malformed_rejected(self):
        for text in ["1,2", "(1,2", "(1,,2)", "(a,b)", "(1)(", ""]:
            with pytest.raises(ValueError):
                parse_cycles(text, 4)

    def test_format_round_trip(self):
        for p in [
            Permutation(range(4)),
            from_cycles(5, [(0, 1), (2, 3, 4)]),
            from_cycles(6, [(0, 5)]),
        ]:
            assert parse_cycles(format_cycles(p.images), p.degree) == p


class TestGroupFile:
    def test_s3_file(self, tmp_path):
        f = tmp_path / "s3.grp"
        f.write_text("# symmetric group on 3 points\ndegree 3\n(1,2)\n(1,2,3)\n")
        entry = parse_group_file(f)
        assert entry.degree == 3
        assert entry.group().order == 6
        assert entry.label == "file:s3.grp"

    def test_trivial_file(self, tmp_path):
        f = tmp_path / "t.grp"
        f.write_text("degree 1\n")
        assert parse_group_file(f).group().order == 1

    def test_repeated_point_error_has_line(self, tmp_path):
        f = tmp_path / "bad.grp"
        f.write_text("degree 3\n(1,2)(2,3)\n")
        with pytest.raises(ParseError) as exc:
            parse_group_file(f)
        assert exc.value.line == 2

    def test_missing_degree(self, tmp_path):
        f = tmp_path / "bad.grp"
        f.write_text("(1,2)\n")
        with pytest.raises(ParseError):
            parse_group_file(f)

    def test_point_out_of_range(self, tmp_path):
        f = tmp_path / "bad.grp"
        f.write_text("degree 3\n\n# comment\n(1,5)\n")
        with pytest.raises(ParseError) as exc:
            parse_group_file(f)
        assert exc.value.line == 4

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = b"# symmetric group on 3 points\ndegree 3\n(1,2)\n(1,2,3)\n"
        plain, marked = tmp_path / "s3.grp", tmp_path / "bom" / "s3.grp"
        marked.parent.mkdir()
        plain.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        assert parse_group_file(marked) == parse_group_file(plain)
        # on the first content line too
        marked.write_bytes(codecs.BOM_UTF8 + b"degree 3\n(1,2)\n")
        assert parse_group_file(marked).degree == 3

    def test_bad_byte_after_byte_order_mark_reports_its_line(self, tmp_path):
        f = tmp_path / "bad.grp"
        f.write_bytes(codecs.BOM_UTF8 + b"degree 3\n(1,2)\n\xff\n")
        with pytest.raises(ParseError, match=r"^line 3: not UTF-8 text$") as exc:
            parse_group_file(f)
        assert exc.value.line == 3

    def test_byte_order_mark_only_at_the_start(self, tmp_path):
        # a second mark is the character U+FEFF, which no cycle contains
        f = tmp_path / "bad.grp"
        f.write_bytes(codecs.BOM_UTF8 * 2 + b"degree 3\n")
        with pytest.raises(ParseError, match=r"^line 1: expected 'degree N'"):
            parse_group_file(f)

    def test_comments_and_blanks_ignored(self, tmp_path):
        f = tmp_path / "ok.grp"
        f.write_text("\n# header\ndegree 4  # not allowed? yes: inline comment\n(1,2,3,4)\n\n")
        entry = parse_group_file(f)
        assert entry.group().order == 4


class TestRegenerationDeterminism:
    def test_builtin_members_regenerate_identically(self):
        for label in ["S4", "Q16", "Frob(7:3)", "Heis(3)", "C2xA4"]:
            a = builtin(label).group()
            b = builtin(label).group()
            assert a.elements == b.elements
            assert conjugacy_classes(a).reps == conjugacy_classes(b).reps
            assert [H.members for H in subgroups(a)] == [H.members for H in subgroups(b)]
