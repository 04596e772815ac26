"""Counting isomorphism classes of subgroup transversals in finite groups.

The count ict(G, H) is the number of isomorphism classes of left
transversals-with-identity of H in G, where a bijection between transversals
counts as an isomorphism when it preserves the induced binary operations.
Exact Burnside-style engines (general, symmetric, alternating, cyclic) live
in ict_formulas; exhaustive enumeration classifiers that double as ground
truth live in oracle; perm, symclasses, and groups carry the permutation and
group machinery; cli wires everything into the `ict` command.
"""

from ._version import __version__
from .errors import (
    CapExceeded,
    DisagreementError,
    HypothesisViolation,
)
from .perm import Permutation, compose, conjugate, format_cycles, parse_cycles
from .symclasses import class_size, partitions
from .groups import (
    PairGH,
    PermGroup,
    Transversal,
    coset_representation,
    enumerate_transversals,
    make_alt,
    make_dihedral,
    make_pq,
    make_sym,
    pair_from_fixture,
)
from .ict_formulas import (
    ClassContribution,
    IctReport,
    all_even_centralizer,
    cyclic_fixed_and_orbit_data,
    cyclic_gamma,
    ict_alt,
    ict_cyclic,
    ict_sym,
    ict_theorem6,
    report_to_json,
    report_to_text,
)
from .oracle import (
    ClassificationResult,
    LoopTable,
    census_left_loops,
    classify_by_conjugation,
    classify_by_table_iso,
    induced_table,
    left_right_agreement,
    render_classes_dump,
    subgroup_transversals,
)

__all__ = [
    "__version__",
    "CapExceeded",
    "DisagreementError",
    "HypothesisViolation",
    "Permutation",
    "compose",
    "conjugate",
    "format_cycles",
    "parse_cycles",
    "class_size",
    "partitions",
    "PairGH",
    "PermGroup",
    "Transversal",
    "coset_representation",
    "enumerate_transversals",
    "make_alt",
    "make_dihedral",
    "make_pq",
    "make_sym",
    "pair_from_fixture",
    "ClassContribution",
    "IctReport",
    "all_even_centralizer",
    "cyclic_fixed_and_orbit_data",
    "cyclic_gamma",
    "ict_alt",
    "ict_cyclic",
    "ict_sym",
    "ict_theorem6",
    "report_to_json",
    "report_to_text",
    "ClassificationResult",
    "LoopTable",
    "census_left_loops",
    "classify_by_conjugation",
    "classify_by_table_iso",
    "induced_table",
    "left_right_agreement",
    "render_classes_dump",
    "subgroup_transversals",
]
