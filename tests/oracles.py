"""Brute-force oracles and example groups shared by the tests.

Nothing in the package runs these: they are independent checks (left/right
symmetry of the classification, subgroup transversals, pair isomorphism by
sweeping every relabeling, parity by orbit count, class representatives
built from image tuples and from cycles), the permutation and group algebra
the package no longer needs (composition, conjugation, powers, inverses,
Permutations from rows, a group's elements and membership in it,
commutativity, transitivity and normality flags, induced tables of transversals and
their members, fixture text), the affine relabeling group of a cyclic pair
built the old way, by Permutation conjugation and closure (the reference
for ict_formulas._affine_rows), the normal regular cycle found the old way,
by closing each n-cycle (the reference for
ict_formulas._find_regular_normal_cycle), the order-18 example pair
behind acceptance criterion 10, the closed forms' class rows evaluated
orbit by orbit through cycle types of powers (the reference for
ict_formulas._closed_form), and the coset representation that names every
coset of G first (the reference for groups.coset_representation).  Import
them as `from oracles import ...`; pytest puts this directory on the path.
"""

from math import gcd, prod

import numpy as np

from transversals.errors import CAP_STAB_ENUM, CAP_TRANSVERSALS, CapExceeded
from transversals.groups import (
    NORMALIZER_CHUNK,
    PairGH,
    PermGroup,
    _invert_rows,
    _normalizing,
    _perm_rows,
    _row_dtype,
    _section_rows,
    _stabilizer_batches,
    closure,
    enumerate_transversals,
)
from transversals.ict_formulas import _contribution
from transversals.oracle import LoopTable, _canonical_forms, classify_by_table_iso
from transversals.perm import Permutation, format_cycles, parse_cycles
from transversals.symclasses import class_size, multiplicities, partitions


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: compose(p, q)(i) == p(q(i)), the row p[q] of the package."""
    pi, qi = p.images, q.images
    if len(pi) != len(qi):
        raise ValueError(f"degree mismatch: {len(pi)} vs {len(qi)}")
    return Permutation([pi[v - 1] for v in qi])


def conjugate(p: Permutation, a: Permutation) -> Permutation:
    """a p a^-1."""
    pi, ai = p.images, a.images
    if len(pi) != len(ai):
        raise ValueError(f"degree mismatch: {len(pi)} vs {len(ai)}")
    out = [0] * len(pi)
    for i, v in enumerate(pi):
        out[ai[i] - 1] = ai[v - 1]
    return Permutation(out)


def perms(rows) -> list:
    """Permutations from 0-based image rows (an array or a sequence of
    rows), through the checked constructor."""
    return [Permutation(row) for row in (np.asarray(rows, dtype=np.int64) + 1).tolist()]


def elements(group: PermGroup) -> list:
    """The group's elements as Permutations, in sorted order."""
    return perms(group._rows)


def contains(group: PermGroup, p: Permutation) -> bool:
    """Is the Permutation p an element of the group?"""
    return p.degree == group.degree and bool(group._locate(_perm_rows([p], p.degree))[0] >= 0)


def is_subgroup(ps) -> bool:
    """Is the finite set of permutations closed under composition?"""
    ps = set(ps)
    return all(compose(p, q) in ps for p in ps for q in ps)


def row_of(p: Permutation) -> tuple:
    """The 0-based image row of a permutation, as a tuple."""
    return tuple(v - 1 for v in p.images)


def is_abelian(group: PermGroup) -> bool:
    """Do the group's generators commute pairwise?  compose(a, b) is a[b]."""
    gens = group.generators
    return all((a[gens] == gens[:, a]).all() for a in gens)


def is_transitive(group: PermGroup) -> bool:
    """Does every block of the group's rows by image of 1 hold an element?"""
    return all(len(block) for block in group._blocks())


def format_fixture(name: str, degree: int, generators) -> str:
    """Fixture text that parse_fixture reads back as (name, degree, generators)."""
    lines = []
    if name:
        lines.append(f"name {name}")
    lines.append(f"degree {degree}")
    for g in generators:
        lines.append(f"gen {format_cycles(g)}")
    return "\n".join(lines) + "\n"


def members(table: LoopTable) -> tuple:
    """The table's rows as permutations: the transversal inducing it."""
    return tuple(Permutation(row) for row in table.table)


def relabel(pair: PairGH, sigma: Permutation) -> PairGH:
    """The pair conjugated by sigma, which fixes 1."""
    gens = [conjugate(g, sigma) for g in perms(pair.group.generators)]
    G = PermGroup.from_generators(gens, degree=pair.degree)
    return PairGH(G, name=f"{pair.name} relabeled")


def find_regular_normal_cycle(pair: PairGH):
    """The least n-cycle of G generating a normal subgroup, by closing each
    n-cycle of G in turn and testing the closure for normality; None when
    there is none."""
    for x in elements(pair.group):
        if len(x.orbits()) == 1 and is_normal(PermGroup.from_generators([x]), pair.group):
            return x
    return None


def cycle_type(p):
    """p's cycle lengths, fixed points included, as a non-increasing partition."""
    return tuple(sorted(map(len, p.orbits()), reverse=True))


def power_cycle_counts(cycle_counts: dict, m: int) -> dict:
    """Cycle type of x^m from the cycle type of x.

    Both types are maps length -> multiplicity with fixed points included
    under key 1.  A cycle of length l falls apart into gcd(l, m) cycles of
    length l // gcd(l, m).
    """
    if m < 1:
        raise ValueError("need m >= 1")
    out: dict = {}
    for l, mult in cycle_counts.items():
        g = gcd(l, m)
        out[l // g] = out.get(l // g, 0) + mult * g
    return out


def closed_form_reference(n: int, factor_fn) -> tuple:
    """The closed forms' class rows for Sym(n)_1, evaluated orbit by orbit:
    factor_fn is called afresh for every fixed symbol and every cycle, on
    the cycle type of x^l built by power_cycle_counts, and each class's
    representative is built as a Permutation.  The reference for
    ict_formulas._closed_form, whose report contributions must equal it."""
    m = n - 1
    rows = []
    for parts in sorted(partitions(m), key=lambda p: (m - p.count(1), p)):
        counts = multiplicities(parts)
        size = class_size(counts, m)
        counts[1] = counts.get(1, 0) + 1
        a_factors = [1] + [factor_fn(counts) for _ in range(counts[1] - 1)]
        orbit_factors = [factor_fn(power_cycle_counts(counts, l))
                         for l, mult in counts.items() if l > 1 for _ in range(mult)]
        rep = format_cycles(class_representative(parts, m))
        rows.append(_contribution(rep, size, a_factors, orbit_factors))
    return tuple(rows)


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
    acc = Permutation.identity(p.degree)
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


def standard_cycle(n: int) -> Permutation:
    """The n-cycle (1, 2, ..., n)."""
    return Permutation(tuple(range(2, n + 1)) + (1,))


def affine_elements(n: int, a: Permutation):
    """The affine relabelings x -> (x-1)*j^-1 + 1 (mod n), one per unit j,
    transported into the numbering where a plays the standard n-cycle.
    Returns a list of (j, permutation) with j ascending."""
    if a.degree != n:
        raise ValueError(f"expected degree {n}, got {a.degree}")
    if len(a.orbits()) != 1:
        raise ValueError("a must be a single n-cycle")
    if n == 1:
        return [(1, Permutation((1,)))]
    # sigma renumbers so that a becomes (1, 2, ..., n)
    imgs = [1]
    p = 1
    for _ in range(n - 1):
        p = a(p)
        imgs.append(p)
    sigma = Permutation(imgs)
    out = []
    for j in range(1, n + 1):
        if gcd(j, n) != 1:
            continue
        jinv = pow(j, -1, n)
        std = Permutation(tuple((x - 1) * jinv % n + 1 for x in range(1, n + 1)))
        out.append((j, conjugate(std, sigma)))
    return out


def affine_group(n: int, affine) -> PermGroup:
    """The group of the (j, permutation) pairs from affine_elements, by
    closure, checked to be exactly those elements, abelian and fixing 1."""
    elems = [g for _, g in affine]
    grp = PermGroup.from_generators(elems, degree=n)
    assert grp.order == len(elems), "affine family failed to close"
    assert is_abelian(grp)
    assert all(g(1) == 1 for g in elems)
    return grp


def cyclic_gamma(n: int, a=None) -> PermGroup:
    """The abelian group of affine relabelings normalizing a regular cyclic
    transversal generated by the n-cycle a (default (1, 2, ..., n)); its
    order is phi(n) and every element fixes symbol 1."""
    if a is None:
        a = standard_cycle(n)
    return affine_group(n, affine_elements(n, a))


def _sections(blocks, degree: int, cap: int):
    """The identity followed by one element of each block of sorted rows,
    as permutations, for every choice in Cartesian-product order (first
    block slowest); the count is capped before any is built."""
    total = prod(len(block) for block in blocks)
    if total > cap:
        raise CapExceeded("transversals", cap, total)
    for rows in _section_rows(blocks, np.arange(total), degree):
        yield tuple(perms(rows))


def _least_in_coset(G: PermGroup, H: PermGroup) -> np.ndarray:
    """For each element g of G, the index of the least element of gH: one
    gather over all of G per element of H."""
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    least = np.arange(G.order)
    for h in H._rows:  # compose(g, h) is g[h]
        least = np.minimum(least, G._locate(G._rows[:, h]))
    return least


def coset_representation_reference(G: PermGroup, H: PermGroup, name: str = "") -> PairGH:
    """groups.coset_representation computed the old way: every coset of G
    named first (_least_in_coset), then the same breadth-first numbering,
    then the generators' images looked up in a second pass."""
    coset = _least_in_coset(G, H)
    gens = G.generators
    number = np.full(G.order, -1)
    number[0] = 0
    reps = [0]
    for r in reps:
        for gr in G._locate(gens[:, G._rows[r]]).tolist():
            if number[coset[gr]] < 0:
                number[coset[gr]] = len(reps)
                reps.append(gr)
    n = len(reps)
    if n * H.order != G.order:
        raise ValueError("generators do not generate G")
    images = number[coset[G._locate(gens[:, G._rows[reps]].reshape(-1, G.degree))]]
    image_gens = np.unique(images.reshape(len(gens), n).astype(_row_dtype(n)), axis=0)
    return PairGH(PermGroup(closure(image_gens), image_gens), name=name)


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
    return any(_conjugates_inside(p1.group, sigmas, p2.group).any()
               for sigmas in _stabilizer_batches(p1.degree, NORMALIZER_CHUNK, cap))


def _conjugates_inside(group: PermGroup, alphas: np.ndarray, target: PermGroup) -> np.ndarray:
    """Mask of the rows alpha with alpha G alpha^-1 inside `target`: G's
    generators conjugated by every alpha at once, one gather per generator."""
    alphas_inv = _invert_rows(alphas)
    keep = np.ones(len(alphas), dtype=bool)
    for g in group.generators:
        # row k: alpha_k g alpha_k^-1, i.e. alpha_k[g[alpha_k^-1[j]]]
        keep &= target._locate(np.take_along_axis(alphas, g[alphas_inv], axis=1)) >= 0
    return keep


def is_normal(sub: PermGroup, group: PermGroup) -> bool:
    """Is sub a normal subgroup of group?  A subgroup that every generator
    of group normalizes."""
    return sub.is_subgroup_of(group) and bool(_normalizing(sub, group.generators).all())


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
    in enumeration order, each as a tuple of permutations."""
    transversals = (tuple(perms(T)) for T in enumerate_transversals(pair, cap=cap))
    return [T for T in transversals if is_subgroup(T)]


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
        inv_key = tuple(inverse(p).images for p in perms(T[1:]))
        j = right_index.get(inv_key)
        if j is None:
            return False
        lab = left_label, int(right_labels[j])
        if lab[0] in pairing and pairing[lab[0]] != lab[1]:
            return False
        pairing[lab[0]] = lab[1]
    return len(set(pairing.values())) == left.class_count
