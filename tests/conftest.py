import itertools

import pytest

from camina.catalog import builtin
from camina.cli import EXIT_OK, EXIT_VIOLATION, run_cli
from camina.reports import load_reports


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
