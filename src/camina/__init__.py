"""Exact workbench for coset-conjugacy conditions in finite permutation groups.

The package root loads no submodule at import: each exported name, and
each submodule that defines one, is imported the first time it is read
(PEP 562), so a caller pays only for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package root exports from it
_EXPORTS = {
    "catalog": ("CatalogEntry", "builtin", "builtin_catalog", "parse_group_file"),
    "chartab": (
        "CharacterTable",
        "ClassFunction",
        "character_table",
        "decompose",
        "dixon_prime",
        "induce",
        "inner_product",
    ),
    "conditions": (
        "ConditionVerdict",
        "derangements",
        "equal_order_coset",
        "is_camina_pair",
        "satisfies_CI",
        "satisfies_F",
        "satisfies_Fpm",
        "satisfies_O",
    ),
    "cyclotomic": ("Cyc", "cyclotomic_polynomial"),
    "grouptable": ("CapExceeded", "ElementSet", "GroupTable", "generate"),
    "perm": ("Permutation",),
    "structure": (
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
    ),
    "reports": ("cached_character_table", "persist_reports"),
    "verify": (
        "CLAIMS",
        "Pair",
        "VerificationReport",
        "summarize",
        "verify_cor2",
        "verify_covering",
        "verify_pair_claim",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
