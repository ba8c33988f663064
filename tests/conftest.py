import itertools
from collections import Counter

import pytest

from camina.catalog import builtin
from camina.cli import EXIT_OK, EXIT_VIOLATION, run_cli
from reference import load_reports


@pytest.fixture(scope="session")
def s3():
    return builtin("S3").group()


@pytest.fixture(scope="session")
def s4():
    return builtin("S4").group()


@pytest.fixture(scope="session")
def a4():
    return builtin("A4").group()


@pytest.fixture(scope="session")
def a5():
    return builtin("A5").group()


@pytest.fixture(scope="session")
def q8():
    return builtin("Q8").group()


@pytest.fixture(scope="session")
def frob21():
    return builtin("Frob(7:3)").group()


class RecordingRow(list):
    """A Cayley table row that counts, by row index, the entries read from it."""

    def __init__(self, index, row, reads):
        super().__init__(row)
        self.index, self.reads = index, reads

    def __getitem__(self, j):
        self.reads[self.index] += 1
        return list.__getitem__(self, j)


@pytest.fixture
def table_reads(monkeypatch):
    """``watch(G)``: put recording rows in place of ``G.rows`` and return
    the Counter they fill, row index -> entries read: every product G
    makes, whether through ``mul``, ``conj`` or a direct row read."""

    def watch(G):
        reads = Counter()
        monkeypatch.setattr(G, "rows", [RecordingRow(i, row, reads) for i, row in enumerate(G.rows)])
        return reads

    return watch


@pytest.fixture
def verify_builtin(tmp_path):
    """``verify_builtin(max_order, claims)``: the reports that
    ``camina verify --catalog builtin`` writes, read back from its --out file."""
    runs = itertools.count()

    def run(max_order, claims):
        out = tmp_path / f"verify-{next(runs)}.jsonl"
        argv = ["verify", "--catalog", "builtin", "--max-order", str(max_order), "--claims", ",".join(claims)]
        assert run_cli(argv + ["--out", str(out)]) in (EXIT_OK, EXIT_VIOLATION)
        return load_reports(out)

    return run


def subgroup_of_order(G, n, which=0):
    from camina.structure import subgroups

    matches = [H for H in subgroups(G) if len(H) == n]
    return matches[which]
