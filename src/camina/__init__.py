"""Exact workbench for coset-conjugacy conditions in finite permutation groups."""

from .catalog import CatalogEntry, builtin, builtin_catalog, parse_group_file
from .chartab import (
    CharacterTable,
    ClassFunction,
    character_table,
    decompose,
    dixon_prime,
    induce,
    inner_product,
    is_homogeneous_induction,
    kernel_of,
    restrict,
)
from .conditions import (
    ConditionVerdict,
    bs_hypothesis,
    derangements,
    equal_order_coset,
    is_camina_pair,
    satisfies_CI,
    satisfies_F,
    satisfies_Fpm,
    satisfies_O,
)
from .cyclotomic import Cyc, cyclotomic_polynomial
from .grouptable import CapExceeded, ElementSet, GroupTable, generate
from .perm import Permutation, compose, conjugate, element_order, inverse
from .structure import (
    ConjClassPartition,
    center,
    centralizer,
    conjugacy_classes,
    derived_series,
    derived_subgroup,
    exponent,
    is_frobenius_with_kernel,
    is_nilpotent,
    is_solvable,
    is_subnormal,
    normal_closure,
    normal_subgroups,
    o_lower_p,
    o_upper_p,
    subgroups,
)
from .reports import (
    ReportRecord,
    cached_character_table,
    load_reports,
    persist_reports,
)
from .verify import (
    CLAIMS,
    Pair,
    VerificationReport,
    summarize,
    verify_cor2,
    verify_covering,
    verify_pair_claim,
)

__version__ = "0.1.0"
