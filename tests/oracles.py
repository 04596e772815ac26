"""Brute-force oracles and example groups shared by the tests.

Nothing in the package runs these: they are independent checks (left/right
symmetry of the classification, subgroup transversals, pair isomorphism by
sweeping every relabeling, parity by orbit count, class representatives
built from image tuples and from cycles), the permutation and group algebra
the package no longer needs (composition, conjugation, powers, inverses,
Permutations from rows, a group generated by Permutations, a group's
elements, its stabilizer of 1 and membership in it, commutativity,
transitivity, subgroup and normality flags, validated left-loop tables
(LoopTable), induced tables of transversals and their members, a
classification result as tuples of Python values, fixture text), the
affine relabeling group of a cyclic pair built the old way, by
Permutation conjugation and closure (the reference
for ict_formulas._affine_rows), the normal regular cycle found the old way,
by closing each n-cycle (the reference for
ict_formulas._find_regular_normal_cycle), the order-18 example pair
behind acceptance criterion 10, partitions built recursively (the
reference for symclasses.partitions) and their multiplicities, the closed
forms' class rows evaluated orbit by orbit through cycle types of powers,
with one commuting count per cycle type for Sym(n) and Alt(n)
(closed_form_reference, sym_commuting_count and alt_commuting_count, the
references for ict_formulas._closed_form), a report's table rendered
cell by cell with str.format (the reference for
ict_formulas.report_to_text), theorem6's per-class
factors in orbit order (theorem6_factors_reference), and the action of G on the
left cosets of any subgroup H, naming every coset of G first (the
reference for groups.pair_from_fixture, whose H is G_1, and the builder of
the tests' pairs over other subgroups), with seeded random intransitive
generating sets to feed it, and the generation test one set of rows at a
time, by breadth-first search over element indices (the reference for
groups.generates, which answers a stack of them at once), and the stabilizer
of 1 in Sym(n) listed by itertools.permutations (the reference for
groups.stabilizer_candidates), and canonical forms by refining every
(table, relabeling) pair (sweep_canonical_forms, the reference for
oracle._canonical_forms, which searches), and the relabeling sweeps at full
width, every test on every alpha (conjugates_reference,
candidate_relabelings_reference and normalizing_reference, the references
for oracle._coset_conjugates, oracle._candidate_relabelings and
groups._normalizing, which narrow, and check_candidate_relabelings, which
holds the candidates to theirs at the natural choice and with the seeds
or the sweep forced, spying on the sweeps through sweeps_spied).
Import them as `from oracles import ...`; pytest puts this directory on
the path.
"""

from dataclasses import dataclass
from itertools import permutations
from math import factorial, gcd, prod
from typing import NamedTuple

import numpy as np

import transversals.groups as groups
import transversals.oracle as oracle
from transversals.errors import (
    CAP_GROUP_ORDER,
    CAP_RELABELINGS,
    CAP_STAB_ENUM,
    CAP_TRANSVERSALS,
    CapExceeded,
)
from transversals.groups import (
    NORMALIZER_CHUNK,
    PairGH,
    PermGroup,
    _invert_rows,
    _normalizing,
    _perm_rows,
    _row_dtype,
    _section_rows,
    closure,
    enumerate_transversals,
    stabilizer_candidates,
)
from transversals.ict_formulas import ClassContribution, all_even_centralizer
from transversals.oracle import BATCH, _canonical_forms, classify_by_table_iso
from transversals.perm import Permutation, format_cycles, parse_cycles
from transversals.symclasses import centralizer_order, class_size, partitions


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


def group_of(generators, degree=None, cap=CAP_GROUP_ORDER) -> PermGroup:
    """The group generated by these Permutations, all of one degree;
    `degree` is required when there are none."""
    gens = list(generators)
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generating set")
        degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    return PermGroup.from_generators(_perm_rows(gens, degree), cap=cap)


def stabilizer_of_1(group: PermGroup) -> PermGroup:
    """The elements of the group fixing symbol 1: its first block."""
    return PermGroup(group._blocks()[0])


def is_subgroup_of(sub: PermGroup, group: PermGroup) -> bool:
    """Is every element of sub an element of group?"""
    return sub.degree == group.degree and bool((group._locate(sub._rows) >= 0).all())


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


@dataclass(frozen=True)
class LoopTable:
    """Multiplication table of a left loop on symbols 1..n with identity 1.

    Row 1 and column 1 are identity row/column and every row is a
    permutation; in particular row i sends 1 to i, so the rows, read as
    permutations, form a transversal of the stabilizer of 1 in Sym(n).
    """

    order: int
    table: tuple

    def __post_init__(self):
        n = self.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError(f"table must be {n}x{n}")
        full = tuple(range(1, n + 1))
        if self.table[0] != full:
            raise ValueError("row 1 must be the identity row")
        for i, row in enumerate(self.table, start=1):
            if row[0] != i:
                raise ValueError("column 1 must be the identity column")
            if tuple(sorted(row)) != full:
                raise ValueError(f"row {i} is not a permutation of 1..{n}")


class Classification(NamedTuple):
    """A classification as Python values: the form the references build."""

    class_count: int
    representatives: tuple  # one LoopTable per class
    class_sizes: tuple
    generating_flags: tuple
    labels: tuple


def classification_tuples(result) -> Classification:
    """An oracle.ClassificationResult, whose fields are arrays, as a
    Classification: each 0-based representative becomes a validated 1-based
    LoopTable, every other field a tuple of Python ints or bools."""
    reps = result.representatives
    return Classification(
        class_count=result.class_count,
        representatives=tuple(LoopTable(reps.shape[-1], tuple(map(tuple, table)))
                              for table in (reps.astype(np.int64) + 1).tolist()),
        class_sizes=tuple(result.class_sizes.tolist()),
        generating_flags=tuple(result.generating_flags.tolist()),
        labels=tuple(result.labels.tolist()),
    )


def members(table: LoopTable) -> tuple:
    """The table's rows as permutations: the transversal inducing it."""
    return tuple(Permutation(row) for row in table.table)


def relabel(pair: PairGH, sigma: Permutation) -> PairGH:
    """The pair conjugated by sigma, which fixes 1."""
    gens = [conjugate(g, sigma) for g in perms(pair.group.generators)]
    G = group_of(gens, degree=pair.degree)
    return PairGH(G, name=f"{pair.name} relabeled")


def find_regular_normal_cycle(pair: PairGH):
    """The least n-cycle of G generating a normal subgroup, by closing each
    n-cycle of G in turn and testing the closure for normality; None when
    there is none."""
    for x in elements(pair.group):
        if len(x.orbits()) == 1 and is_normal(group_of([x]), pair.group):
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


def multiplicities(parts) -> dict:
    """A partition's cycle type: length -> multiplicity."""
    mult = {}
    for l in parts:
        mult[l] = mult.get(l, 0) + 1
    return mult


def partitions_reference(m: int, largest: int | None = None) -> list:
    """The partitions of m with every part at most `largest` (default m),
    in reverse-lexicographic order, built recursively: each first part from
    the largest down, followed by every partition of the rest into parts no
    larger.  The reference for symclasses.partitions."""
    if m == 0:
        return [()]
    top = m if largest is None else min(m, largest)
    return [(first,) + rest for first in range(top, 0, -1)
            for rest in partitions_reference(m - first, first)]


def sym_commuting_count(cycle_counts: dict) -> int:
    """Permutations commuting with z that send 1 to a chosen fixed symbol of z.

    This is the per-orbit count that ict_theorem6 filters G's coset for
    (_commuting_in_coset), evaluated for G = Sym(n) from cycle types alone.
    cycle_counts is z's cycle type on the full domain (fixed points under
    key 1; symbol 1 itself must be fixed): (f-1)! times centralizer_order
    for f fixed symbols.  The reference for ict_formulas._closed_form's
    Sym counts, whose docstring gives the reasoning.
    """
    f = cycle_counts.get(1, 0)
    if f < 1:
        raise ValueError("symbol 1 must be fixed")
    return factorial(f - 1) * centralizer_order(cycle_counts)


def alt_commuting_count(cycle_counts: dict) -> int:
    """Even permutations commuting with z that send 1 to a fixed symbol i > 1:
    half of sym_commuting_count, or zero when z fixes only 1 and i and its
    centralizer on the moved symbols is all-even.  The reference for
    ict_formulas._closed_form's Alt counts, whose docstring gives the
    reasoning.
    """
    f = cycle_counts.get(1, 0)
    if f < 2:
        raise ValueError("symbols 1 and i must both be fixed")
    if f < 3:
        moved = [l for l, mult in cycle_counts.items() if l > 1 for _ in range(mult)]
        # no moved symbols: the centralizer is trivial, so all-even
        if not moved or all_even_centralizer(moved):
            return 0
    half, rem = divmod(sym_commuting_count(cycle_counts), 2)
    assert rem == 0
    return half


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
        a_factors = (1, *[factor_fn(counts) for _ in range(counts[1] - 1)])
        orbit_factors = tuple(factor_fn(power_cycle_counts(counts, l))
                              for l, mult in counts.items() if l > 1 for _ in range(mult))
        rep = format_cycles(class_representative(parts, m))
        rows.append(ClassContribution(rep, size, len(orbit_factors), len(a_factors),
                                      a_factors, orbit_factors,
                                      prod(a_factors) * prod(orbit_factors)))
    return tuple(rows)


def report_to_text_reference(report) -> str:
    """ict_formulas.report_to_text built the long way: every cell read by
    attribute and converted with str, and every row laid out by one
    str.format call on a "{:<w}" layout.  The reference that
    report_to_text, which lays out the whole table with one %-format, must
    equal byte for byte."""
    lines = [
        f"pair: {report.pair_label or '-'}",
        f"method: {report.method}",
        f"gamma order: {report.gamma_order}",
    ]
    if report.contributions:
        rows = [("representative", "size", "k", "t", "a_factors", "orbit_factors", "fix")]
        for c in report.contributions:
            rows.append((
                c.representative,
                str(c.class_size),
                str(c.k),
                str(c.t),
                ",".join(map(str, c.a_factors)),
                ",".join(map(str, c.orbit_factors)) or "-",
                str(c.fix_count),
            ))
        widths = [max(map(len, column)) for column in zip(*rows)]
        layout = "".join(f"{{:<{w}}}  " for w in widths[:-1]) + "{}"
        lines += [layout.format(*r) for r in rows]
    flag = "validated" if report.validated else "unvalidated"
    lines += [f"numerator: {report.numerator}", f"value: {report.value}",
              f"hypothesis ({flag}): {report.justification or '-'}", ""]
    return "\n".join(lines)


def theorem6_factors_reference(pair: PairGH, x: Permutation) -> tuple:
    """(a_factors, orbit_factors) of ict_theorem6's row for the class of x,
    from x.orbits(): symbol 1's factor 1, then one factor per fixed symbol
    in ascending order, then one per orbit of length m > 1 ordered by least
    member, each the count of elements q of G sending 1 to that member with
    q x^m = x^m q, composed as Permutations."""
    fixed = sorted(orb[0] for orb in x.orbits() if len(orb) == 1 and orb[0] != 1)
    long_orbits = sorted((min(orb), len(orb)) for orb in x.orbits() if len(orb) > 1)
    group = elements(pair.group)

    def commuting(s, m):
        z = power(x, m)
        return sum(1 for q in group if q(1) == s and compose(q, z) == compose(z, q))

    return (tuple([1] + [commuting(s, 1) for s in fixed]),
            tuple(commuting(s, m) for s, m in long_orbits))


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
    grp = group_of(elems, degree=n)
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
    if not is_subgroup_of(H, G):
        raise ValueError("H is not a subgroup of G")
    least = np.arange(G.order)
    for h in H._rows:  # compose(g, h) is g[h]
        least = np.minimum(least, G._locate(G._rows[:, h]))
    return least


def coset_representation_reference(G: PermGroup, H: PermGroup, name: str = "") -> PairGH:
    """The action of G on the left cosets of H, cosets numbered 1..n in
    first-discovery order under a breadth-first sweep over the generators
    (coset H is 1), as a core-free PairGH: every coset of G named first
    (_least_in_coset), then the breadth-first numbering, then the
    generators' images looked up in a second pass."""
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
               for sigmas in stabilizer_candidates(p1.degree, cap, size=NORMALIZER_CHUNK))


def stabilizer_rows_reference(n: int) -> np.ndarray:
    """Sym(n)_1 listed by itertools, one tuple per permutation of 2..n:
    the sorted ((n-1)!, n) array of 0-based rows (the reference for
    groups.stabilizer_candidates and groups._all_rows)."""
    tails = permutations(range(1, n))
    return np.array([(0, *tail) for tail in tails], dtype=_row_dtype(n)).reshape(-1, n)


def sweep_canonical_forms(tables: np.ndarray, n: int, cap: int = CAP_RELABELINGS) -> np.ndarray:
    """Lexicographically minimal flattened relabeling of each table, the way
    oracle._canonical_forms found it before it searched (its reference).

    tables is (N, n, n), 0-based entries.  A relabeling f rewrites a table T
    to f[T[finv[i], finv[j]]]; the minimum over all identity-fixing f is a
    complete isomorphism invariant for tables with our invariants.  It is
    found by refinement: every (table, relabeling) pair starts as a
    candidate, and the cells are visited in row-major order, each keeping
    only the pairs that reach their table's least value there, until every
    table has one candidate left.  Candidates still tied after the last
    cell give the same table.  Row 1 and column 1 are skipped: every
    relabeling fixes them.  The caller has capped the relabelings.
    """
    flat = tables.reshape(len(tables), n * n)
    F = np.concatenate(list(stabilizer_candidates(n, cap, size=BATCH)))
    m = len(F)
    Finv = _invert_rows(F).T.astype(np.uint16 if n <= 255 else np.int64)
    # by_cell[c, k]: source position of flattened cell c after relabeling by F[k]
    by_cell = (Finv[:, None, :] * n + Finv[None, :, :]).reshape(n * n, m)
    cells = [i * n + j for i in range(1, n) for j in range(1, n)]
    canon = flat.copy()
    if not cells:
        return canon
    offsets = np.arange(0, m * n, n)[None, :]
    step = max(1, BATCH // m)
    for lo in range(0, len(flat), step):
        block = flat[lo:lo + step]
        # the first cell for every pair at once: v[t, k] = F[k, block[t, by_cell[c, k]]]
        v = F.ravel()[offsets + block[:, by_cell[cells[0]]]]
        t, k = np.nonzero(v == v.min(axis=1, keepdims=True))
        for c in cells[1:]:
            if len(t) == len(block):
                break
            v = F[k, block[t, by_cell[c][k]]]
            least = np.full(len(block), n, dtype=v.dtype)
            np.minimum.at(least, t, v)
            keep = v == least[t]
            t, k = t[keep], k[keep]
        # pairs are table-major: keep each table's first survivor
        first = np.concatenate(([True], t[1:] != t[:-1]))
        t, k = t[first], k[first]
        sources = by_cell[:, k].T
        canon[lo:lo + step] = np.take_along_axis(F[k], block[t[:, None], sources], axis=1)
    return canon


def _conjugates_inside(group: PermGroup, alphas: np.ndarray, target: PermGroup) -> np.ndarray:
    """Mask of the rows alpha with alpha G alpha^-1 inside `target`: G's
    generators conjugated by every alpha at once, one gather per generator."""
    alphas_inv = _invert_rows(alphas)
    keep = np.ones(len(alphas), dtype=bool)
    for g in group.generators:
        # row k: alpha_k g alpha_k^-1, i.e. alpha_k[g[alpha_k^-1[j]]]
        keep &= target._locate(np.take_along_axis(alphas, g[alphas_inv], axis=1)) >= 0
    return keep


def normalizing_reference(group: PermGroup, alphas: np.ndarray) -> np.ndarray:
    """groups._normalizing as a full-width sweep: every generator of G is
    conjugated by every alpha, whether or not an earlier one failed."""
    return _conjugates_inside(group, alphas, group)


def conjugates_reference(pair: PairGH, alphas: np.ndarray) -> np.ndarray:
    """Entry [k, s, c]: the element index of alphas[k] p alphas[k]^-1 for
    the c-th member p over slot s + 2, or -1 when it is not in G; every
    element of G outside H conjugated by every alpha (the full-width
    reference for the conjugates oracle._coset_conjugates keeps)."""
    n, h = pair.degree, pair.subgroup_order
    inverses = _invert_rows(alphas)
    index = np.empty((len(alphas), (n - 1) * h), dtype=np.int64)
    # G's rows past H's are the cosets over slots 2..n, in order
    for e, p in enumerate(pair.group._rows[h:]):
        # alpha p alpha^-1 is alpha[p[alpha^-1]]
        index[:, e] = pair.group._locate(np.take_along_axis(alphas, p[inverses], axis=1))
    return index.reshape(len(alphas), n - 1, h)


def candidate_relabelings_reference(pair: PairGH, stab_cap: int = CAP_STAB_ENUM) -> np.ndarray:
    """oracle._candidate_relabelings as a full-width sweep: each batch's
    alphas all conjugate every element of G outside H (conjugates_reference),
    and an alpha is kept when some member of each coset lands in G."""
    n = pair.degree
    kept = [np.empty((0, n - 1, pair.subgroup_order), dtype=np.int64)]
    for alphas in stabilizer_candidates(n, stab_cap, size=max(1, BATCH // pair.group.order)):
        index = conjugates_reference(pair, alphas)
        kept.append(index[(index >= 0).any(axis=2).all(axis=1)])
    return np.concatenate(kept)


def sweeps_spied(monkeypatch) -> list:
    """The degrees of the Sym(n)_1 sweeps that groups.stabilizer_candidates
    starts from now on, spied through its groups binding, which
    groups._relabelings reads: the normalizer's and the candidate set C's
    sweeps both pass the spy, the canonical forms' do not."""
    sweeps, candidates = [], groups.stabilizer_candidates
    monkeypatch.setattr(groups, "stabilizer_candidates",
                        lambda n, *a, **k: sweeps.append(n) or candidates(n, *a, **k))
    return sweeps


def check_candidate_relabelings(pair: PairGH, monkeypatch):
    """oracle._candidate_relabelings equals candidate_relabelings_reference
    in values, dtype and order at its own choice between seeds and sweep,
    with the seeds forced (groups.SEED_COST_ROWS far below zero), which
    seeds every pair with a coset to seed from, and with the sweep forced
    (SEED_COST_ROWS at 12!)."""
    want = candidate_relabelings_reference(pair)
    got = oracle._candidate_relabelings(pair, CAP_STAB_ENUM)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for cost, seeded in ((-factorial(12), pair.degree > 1), (factorial(12), False)):
        with monkeypatch.context() as patch:
            patch.setattr(groups, "SEED_COST_ROWS", cost)
            sweeps = sweeps_spied(patch)
            got = oracle._candidate_relabelings(pair, CAP_STAB_ENUM)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert sweeps == ([] if seeded else [pair.degree])


def is_normal(sub: PermGroup, group: PermGroup) -> bool:
    """Is sub a normal subgroup of group?  A subgroup that every generator
    of group normalizes."""
    return is_subgroup_of(sub, group) and bool(_normalizing(sub, group.generators).all())


def _left_row(group: PermGroup, i: int) -> list:
    """Index of g x for every element x, g the i-th element (one gather)."""
    return group._locate(group._rows[i][group._rows]).tolist()


def generates_reference(group: PermGroup, rows) -> bool:
    """Do these (k, degree) 0-based image rows generate the group?  One set
    of rows per call: each row is checked for range and located, then a
    breadth-first search from the identity runs over element indices; a row
    outside the group never generates."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, group.degree)
    if not ((rows >= 0) & (rows < group.degree)).all():
        return False
    indices = group._locate(rows.astype(_row_dtype(group.degree)))
    if not (indices >= 0).all():
        return False
    order = group.order
    gens = [_left_row(group, i) for i in set(indices.tolist())]
    seen = bytearray(order)
    seen[0] = 1
    count = 1
    frontier = [0]
    while frontier:
        fresh = []
        for x in frontier:
            for row in gens:
                y = row[x]
                if not seen[y]:
                    seen[y] = 1
                    fresh.append(y)
        count += len(fresh)
        # Lagrange: a subgroup with more than half the elements is all of them
        if 2 * count > order:
            return True
        frontier = fresh
    return False


def random_intransitive_generators(rng, n: int) -> list:
    """One to three random generators of degree n >= 3, each permuting the
    points inside the blocks of one random split of 1..n: a block of two to
    six points holding 1, then one or two more blocks."""
    points = [1, *rng.sample(range(2, n + 1), n - 1)]
    m = rng.randint(2, min(6, n - 1))
    cuts = sorted({m, rng.randint(m, n - 1)})
    blocks = [points[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, n])]
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(1, n + 1))
        for block in blocks:
            if rng.random() < 0.9:
                for x, y in zip(block, rng.sample(block, len(block))):
                    images[x - 1] = y
        gens.append(Permutation(images))
    return gens


def order18_example() -> tuple[PermGroup, PermGroup]:
    """Order-18 group (elementary-abelian 3x3 extended by an inverting
    involution) with a subgroup of order 6 whose transversals never generate;
    returned abstract, i.e. before coset_representation_reference."""
    x1 = parse_cycles(6, "(1,2,3)")
    x2 = parse_cycles(6, "(4,5,6)")
    y = parse_cycles(6, "(2,3)(5,6)")
    G = group_of([x1, x2, y], degree=6)
    H = group_of([x1, y], degree=6)
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
