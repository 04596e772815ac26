"""Brute-force oracles and example groups shared by the tests.

Nothing in the package runs these: they are independent checks (left/right
symmetry of the classification, subgroup transversals, pair isomorphism by
sweeping every relabeling, parity by orbit count, class representatives
built from image tuples and from cycles), the permutation algebra the
package no longer needs (powers, inverses, induced tables of Transversal
objects), the affine relabeling group of a cyclic pair, and the order-18
example pair behind acceptance criterion 10.  Import them as `from oracles
import ...`; pytest puts this directory on the path.
"""

from math import prod

import numpy as np

from transversals.errors import CAP_STAB_ENUM, CAP_TRANSVERSALS, CapExceeded
from transversals.groups import (
    NORMALIZER_CHUNK,
    PairGH,
    PermGroup,
    _invert_rows,
    _is_subgroup,
    _least_in_coset,
    _normalizing,
    _perm_rows,
    _perms,
    _section_rows,
    _stabilizer_batches,
    enumerate_transversals,
)
from transversals.ict_formulas import _affine_elements, _affine_group, _standard_cycle
from transversals.oracle import LoopTable, _canonical_forms, classify_by_table_iso
from transversals.perm import Permutation, compose, identity, parse_cycles


def cycle_type(p):
    """p's cycle lengths, fixed points included, as a non-increasing partition."""
    return tuple(sorted(map(len, p.orbits()), reverse=True))


def class_representative(parts, m):
    """Canonical class representative of degree m+1 fixing symbol 1.

    Cycles are filled with consecutive symbols starting at 2, longest part
    first, so e.g. [2, 2] on m = 4 gives (2,3)(4,5).
    """
    if sum(parts) != m:
        raise ValueError(f"partition {parts} does not sum to {m}")
    if any(p < 1 for p in parts):
        raise ValueError(f"invalid partition {parts}")
    images = list(range(1, m + 2))
    nxt = 2
    for l in sorted(parts, reverse=True):
        if l > 1:  # the cycle (nxt, nxt + 1, ..., nxt + l - 1)
            images[nxt - 1:nxt + l - 1] = [*range(nxt + 1, nxt + l), nxt]
        nxt += l
    return Permutation(images)


def representative_from_cycles(parts, m):
    """Class representative of cycle type `parts` on symbols 2..m+1, built
    through the validating Permutation.from_cycles: consecutive symbols from
    2, longest part first."""
    cycles = []
    nxt = 2
    for l in sorted(parts, reverse=True):
        if l > 1:
            cycles.append(range(nxt, nxt + l))
        nxt += l
    return Permutation.from_cycles(m + 1, cycles)


def parity(p):
    """+1 for even, -1 for odd: (-1)^(degree - number of orbits)."""
    return -1 if (p.degree - len(p.orbits())) % 2 else 1


def inverse(p):
    inv = [0] * p.degree
    for i, v in enumerate(p.images):
        inv[v - 1] = i + 1
    return Permutation(inv)


def power(p, m):
    """p composed with itself m times; a negative m powers the inverse."""
    if m < 0:
        return power(inverse(p), -m)
    acc = identity(p.degree)
    for _ in range(m):
        acc = compose(p, acc)
    return acc


def induced_table(pair: PairGH, T) -> LoopTable:
    """Table of the operation i*j = (member over i, then member over j,
    read off at 1); with members indexed by their image of 1 this is just
    row i = images of member i."""
    n = pair.degree
    if len(T) != n:
        raise ValueError(f"transversal has {len(T)} members, pair needs {n}")
    return LoopTable(n, tuple(p.images for p in T))


def cyclic_gamma(n: int, a=None) -> PermGroup:
    """The abelian group of affine relabelings normalizing a regular cyclic
    transversal generated by the n-cycle a (default (1, 2, ..., n)); its
    order is phi(n) and every element fixes symbol 1."""
    if a is None:
        a = _standard_cycle(n)
    return _affine_group(n, _affine_elements(n, a))


def _sections(blocks, degree: int, cap: int):
    """The identity followed by one element of each block of sorted rows,
    as permutations, for every choice in Cartesian-product order (first
    block slowest); the count is capped before any is built."""
    total = prod(len(block) for block in blocks)
    if total > cap:
        raise CapExceeded("transversals", cap, total)
    for rows in _section_rows(blocks, np.arange(total), degree):
        yield tuple(_perms(rows))


def _left_coset_blocks(G: PermGroup, H: PermGroup) -> list:
    """Sorted rows of each left coset gH, by least element: H comes first."""
    least = _least_in_coset(G, H)
    return [G._rows[least == i] for i in np.unique(least)]


def subgroup_transversal_sets(G: PermGroup, H: PermGroup, cap: int = CAP_TRANSVERSALS):
    """All transversals of an arbitrary subgroup H <= G (identity included),
    as tuples of elements, one per left coset."""
    yield from _sections(_left_coset_blocks(G, H)[1:], G.degree, cap)


def pair_isomorphic(p1: PairGH, p2: PairGH, cap: int = CAP_STAB_ENUM) -> bool:
    """Brute-force simultaneous-conjugation isomorphism of two normalized
    pairs: some sigma in Sym(n) fixing 1 with sigma G1 sigma^-1 = G2 (H maps
    along automatically, both being stabilizers of 1)."""
    if p1.degree != p2.degree or p1.group.order != p2.group.order:
        return False
    return any(_normalizing(p1.group, sigmas, p2.group).any()
               for sigmas in _stabilizer_batches(p1.degree, NORMALIZER_CHUNK, cap))


def order18_example() -> tuple[PermGroup, PermGroup]:
    """Order-18 group (elementary-abelian 3x3 extended by an inverting
    involution) with a subgroup of order 6 whose transversals never generate;
    returned abstract, i.e. before coset_representation."""
    x1 = parse_cycles(6, "(1,2,3)")
    x2 = parse_cycles(6, "(4,5,6)")
    y = parse_cycles(6, "(2,3)(5,6)")
    G = PermGroup.from_generators([x1, x2, y], degree=6)
    H = PermGroup.from_generators([x1, y], degree=6)
    assert G.order == 18 and H.order == 6
    return G, H


def subgroup_transversals(pair: PairGH, cap: int = CAP_TRANSVERSALS):
    """All transversals that are subgroups of G (closed under composition),
    in enumeration order."""
    return [T for T in enumerate_transversals(pair, cap=cap) if _is_subgroup(T)]


def _right_transversals(pair: PairGH, cap: int):
    """Right coset sections with identity: member over slot i sends i to 1."""
    rows = pair.group._rows
    # g sends s to 1 when its 0-based row holds 0 at position s - 1
    yield from _sections([rows[rows[:, s - 1] == 0] for s in range(2, pair.degree + 1)],
                         pair.degree, cap)


def left_right_agreement(pair: PairGH, cap: int = CAP_TRANSVERSALS) -> bool:
    """Right coset sections induce tables i*j = (member over j, inverted,
    read at i); classify both sides by canonical form and confirm the
    member-wise inversion map carries left classes onto right classes
    one-to-one."""
    n = pair.degree
    left = classify_by_table_iso(pair, cap=cap)

    rights = list(_right_transversals(pair, cap))
    right_index = {tuple(p.images for p in R[1:]): i for i, R in enumerate(rights)}
    # row i of a right table is column i of its members' inverse rows
    right_tables = np.stack([_invert_rows(_perm_rows(R, n)).T for R in rights])
    right_labels = np.unique(
        _canonical_forms(right_tables, n), axis=0, return_inverse=True)[1]

    count_right = int(right_labels.max()) + 1 if len(rights) else 0
    if left.class_count != count_right:
        return False

    pairing = {}
    for T, left_label in zip(enumerate_transversals(pair, cap=cap), left.labels):
        # member over left slot k inverts to the member over right slot k
        inv_key = tuple(inverse(p).images for p in tuple(T)[1:])
        j = right_index.get(inv_key)
        if j is None:
            return False
        lab = left_label, int(right_labels[j])
        if lab[0] in pairing and pairing[lab[0]] != lab[1]:
            return False
        pairing[lab[0]] = lab[1]
    return len(set(pairing.values())) == left.class_count
