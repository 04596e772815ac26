"""Counting isomorphism classes of subgroup transversals in finite groups.

The count ict(G, H) is the number of isomorphism classes of left
transversals-with-identity of H in G, where a bijection between transversals
counts as an isomorphism when it preserves the induced binary operations.
Exact Burnside-style engines (general, symmetric, alternating, cyclic) live
in ict_formulas; exhaustive enumeration classifiers that double as ground
truth live in oracle; perm, symclasses, and groups carry the permutation and
group machinery; cli wires everything into the `ict` command.  A
permutation is a 0-based image row wherever the package computes with it,
a group's generators included (PermGroup.conjugacy_classes yields (row,
size) pairs; enumerate_transversals yields each transversal as an (n, n)
array of rows, identity first); x after y is the row x[y].  Permutation
objects, each built by the validating constructor, exist only where text or
generators enter (parse_cycles, fixtures, cache reads,
PermGroup.from_generators).

groups and oracle import numpy, so their names here load on first access
(PEP 562): `import transversals`, the closed forms and the renderers run
without numpy.
"""

import importlib

from ._version import __version__
from .errors import (
    CapExceeded,
    DisagreementError,
    HypothesisViolation,
)
from .perm import Permutation, format_cycles, parse_cycles
from .symclasses import class_size, partitions
from .ict_formulas import (
    ClassContribution,
    IctReport,
    all_even_centralizer,
    cyclic_fixed_and_orbit_data,
    ict_alt,
    ict_cyclic,
    ict_sym,
    ict_theorem6,
    report_to_json,
    report_to_text,
)

_LAZY = dict.fromkeys(["PairGH", "PermGroup", "coset_representation",
                       "enumerate_transversals", "make_alt", "make_dihedral", "make_pq",
                       "make_sym", "pair_from_fixture"], "groups")
_LAZY.update(dict.fromkeys(["ClassificationResult", "LoopTable", "census_left_loops",
                            "classify_by_conjugation", "classify_by_table_iso",
                            "render_classes_dump"], "oracle"))


def __getattr__(name):
    # import_module: `from . import` here would call back into this function
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = [
    "__version__",
    "CapExceeded",
    "DisagreementError",
    "HypothesisViolation",
    "Permutation",
    "format_cycles",
    "parse_cycles",
    "class_size",
    "partitions",
    "PairGH",
    "PermGroup",
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
    "render_classes_dump",
]
