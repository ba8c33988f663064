"""The package root's contract, and the modules each entry point loads.

``import camina`` resolves its exports on first access, so the import
graph is pinned in fresh interpreters: a module imported by an earlier
test would hide an eager import here.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import camina

# the package root's exports, by defining submodule
EXPORTS = {
    "catalog": ["CatalogEntry", "builtin", "builtin_catalog", "parse_group_file"],
    "chartab": [
        "CharacterTable",
        "ClassFunction",
        "character_table",
        "decompose",
        "dixon_prime",
        "induce",
        "inner_product",
    ],
    "conditions": [
        "ConditionVerdict",
        "derangements",
        "equal_order_coset",
        "is_camina_pair",
        "satisfies_CI",
        "satisfies_F",
        "satisfies_Fpm",
        "satisfies_O",
    ],
    "cyclotomic": ["Cyc", "cyclotomic_polynomial"],
    "grouptable": ["CapExceeded", "ElementSet", "GroupTable", "generate"],
    "perm": ["Permutation"],
    "structure": [
        "ConjClassPartition",
        "center",
        "centralizer",
        "conjugacy_classes",
        "derived_series",
        "derived_subgroup",
        "exponent",
        "is_frobenius_with_kernel",
        "is_nilpotent",
        "is_solvable",
        "is_subnormal",
        "normal_closure",
        "normal_subgroups",
        "o_lower_p",
        "o_upper_p",
        "subgroups",
    ],
    "reports": ["cached_character_table", "persist_reports"],
    "verify": [
        "CLAIMS",
        "Pair",
        "VerificationReport",
        "summarize",
        "verify_cor2",
        "verify_covering",
        "verify_pair_claim",
    ],
}

SRC = str(Path(camina.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parent.parent


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports this checkout's
    camina; it prints one JSON value, which is returned."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(statements: str) -> list[str]:
    """The modules that ``statements`` add to ``sys.modules``, sorted."""
    return fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statements}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )


# what ``import camina.cli`` loads of the package
CLI_MODULES = ["camina", "camina.catalog", "camina.cli", "camina.grouptable", "camina.perm", "camina.structure"]


def camina_modules(names: list[str]) -> list[str]:
    return [m for m in names if m == "camina" or m.startswith("camina.")]


class TestImportGraph:
    def test_package_root_loads_no_submodule(self):
        assert camina_modules(loaded_after("import camina")) == ["camina"]

    def test_catalog_loads_no_character_table_layer(self):
        # nor the structure layer: the catalog reads grouptable's number theory
        added = loaded_after("import camina.catalog")
        assert camina_modules(added) == ["camina", "camina.catalog", "camina.grouptable", "camina.perm"]

    def test_catalog_loads_no_dataclasses(self):
        # the records on the catalog's path are plain classes, so neither
        # dataclasses nor the inspect module it imports is loaded
        added = loaded_after("import camina.catalog")
        assert "dataclasses" not in added
        assert "inspect" not in added

    def test_cli_loads_catalog_and_structure_only(self):
        # the predicates, character tables, claims and report files are
        # imported by the commands that use them
        assert camina_modules(loaded_after("import camina.cli")) == CLI_MODULES

    @pytest.mark.parametrize(
        "argv, layers",
        [
            (["catalog", "list"], []),
            (["info", "--group", "S4"], []),
            (["subgroups", "--group", "S4"], []),
            (["check", "--group", "S4", "--subgroup-order", "4", "--condition", "o"], ["chartab", "conditions", "cyclotomic"]),
            (["chartab", "--group", "S4"], ["chartab", "cyclotomic", "reports"]),
            (["verify", "--max-order", "8", "--claims", "theorem1"], ["chartab", "conditions", "cyclotomic", "verify"]),
            (["verify", "--max-order", "8", "--claims", "theorem1", "--out"], ["chartab", "conditions", "cyclotomic", "reports", "verify"]),
        ],
        ids=["catalog", "info", "subgroups", "check", "chartab", "verify", "verify-out"],
    )
    def test_command_loads_the_layers_it_uses(self, tmp_path, argv, layers):
        if argv[-1] == "--out":
            argv = argv + [str(tmp_path / "reports.jsonl")]
        argv = ["--cache-dir", str(tmp_path / "cache")] + argv
        added = loaded_after(f"from camina.cli import run_cli\ncode = run_cli({argv!r})\nassert code == 0, code")
        assert camina_modules(added) == sorted(CLI_MODULES + [f"camina.{m}" for m in layers])

    @pytest.mark.parametrize("jobs, pooled", [(1, False), (2, True)])
    def test_process_pool_loads_only_for_several_jobs(self, jobs, pooled):
        added = loaded_after(
            "from camina.cli import run_cli\n"
            f"code = run_cli(['--jobs', '{jobs}', 'verify', '--max-order', '8', '--claims', 'theorem1'])\n"
            "assert code == 0, code"
        )
        assert ("multiprocessing" in added) is pooled
        assert ("concurrent.futures.process" in added) is pooled


class TestPackageRoot:
    def test_exports_are_todays_names(self):
        names = [name for names in EXPORTS.values() for name in names]
        assert len(names) == 51
        assert sorted(camina.__all__) == sorted(names)

    @pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
    def test_export_is_the_submodules_object(self, module, name):
        assert getattr(camina, name) is getattr(import_module(f"camina.{module}"), name)

    def test_submodule_resolves_without_prior_import(self):
        code = "import json, camina\nprint(json.dumps([camina.verify.__name__, camina.verify.verify_pair_claim.__module__]))"
        assert fresh(code) == ["camina.verify", "camina.verify"]

    def test_dir_lists_every_export(self):
        assert set(camina.__all__) <= set(dir(camina))

    def test_unknown_attribute_names_the_package(self):
        with pytest.raises(AttributeError, match="module 'camina' has no attribute 'no_such_name'"):
            camina.no_such_name

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from camina import *", namespace)
        assert set(camina.__all__) <= set(namespace)
        assert all(namespace[name] is getattr(camina, name) for name in camina.__all__)

    def test_version_needs_no_submodule(self):
        added = loaded_after("import camina\nassert camina.__version__ == '0.1.0'")
        assert camina_modules(added) == ["camina"]


@functools.cache
def _parsed(directory: str) -> tuple[tuple[Path, ast.Module], ...]:
    """Each ``*.py`` file under ``ROOT / directory`` with its syntax tree."""
    return tuple((path, ast.parse(path.read_text())) for path in sorted((ROOT / directory).glob("*.py")))


def _own_definition(tree: ast.Module, name: str) -> ast.stmt | None:
    """The module-level def or class of ``name``, whose body may name it
    (a recursive call, a classmethod's return type); an assignment stores
    its name and loads none."""
    return next((n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name), None)


def _library_references(name: str) -> list[str]:
    """The modules of the package, its root aside, whose code reads ``name``
    (a load or an import of it) outside the statement that defines it."""
    found = []
    for path, tree in _parsed("src/camina"):
        if path.name == "__init__.py":
            continue
        definition = _own_definition(tree, name)
        inside = {id(node) for node in ast.walk(definition)} if definition else set()
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)) or (
                isinstance(node, ast.alias) and node.name == name
            ):
                found.append(path.stem)
                break
    return found


def _benchmark_references(name: str) -> list[str]:
    """The benchmark files that name ``name``: as a variable, an attribute,
    or a string, as its tracer names the functions it wraps."""
    found = []
    for path, tree in _parsed("perfbench"):
        for node in ast.walk(tree):
            if (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.Constant) and node.value == name)
            ):
                found.append(path.name)
                break
    return found


def _definitions() -> set[str]:
    """The names of the module-level functions and classes of the package,
    its root aside."""
    return {
        node.name
        for path, tree in _parsed("src/camina")
        if path.name != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


class TestExportsAreUsed:
    """Every export, and every module-level function and class, is read by
    the package's own code or by the benchmark; one that only tests read
    belongs in ``tests/reference.py``."""

    @pytest.mark.parametrize("name", sorted(set(camina.__all__) | _definitions()))
    def test_export_is_referenced(self, name):
        assert _library_references(name) or _benchmark_references(name), name
