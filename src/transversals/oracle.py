"""Independent ground truth by exhaustive enumeration.

Transversals are enumerated outright and classified two ways that must agree:
by conjugation with identity-fixing permutations (the least index in each
transversal's orbit) and by canonical forms of the induced multiplication
tables (lexicographic minimum over all identity-fixing relabelings).  The
census of all left-loop tables of order n is the second classification run on
Sym(n) over the stabilizer of 1.  Nothing here trusts the counting formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import CAP_RELABELINGS, CAP_STAB_ENUM, CAP_TRANSVERSALS, PRINT_LIMIT, CapExceeded
from .groups import (
    PairGH,
    PermGroup,
    _cycle_row,
    _invert_rows,
    _normalizing,
    _row_keys,
    _section_rows,
    generates,
    stabilizer_candidates,
)
from .perm import format_cycles


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

    def __lt__(self, other):
        return self.table < other.table


@dataclass(frozen=True)
class ClassificationResult:
    """Partition of an enumerated transversal family into isomorphism classes.

    labels[i] is the class index of the i-th transversal in enumeration
    order; representatives[c] is the induced table of the first transversal
    of class c, and generating_flags[c] says whether that transversal
    generates the group (a class invariant).
    """

    class_count: int
    representatives: tuple
    class_sizes: tuple
    generating_flags: tuple
    labels: tuple

    def __post_init__(self):
        assert self.class_count == len(self.representatives) == len(self.class_sizes)
        assert len(self.generating_flags) == self.class_count
        assert sum(self.class_sizes) == len(self.labels)


def _classification(tables: np.ndarray, pair: PairGH, sizes: np.ndarray,
                    labels: np.ndarray) -> ClassificationResult:
    """The result whose class c has the 0-based induced table tables[c] as
    its representative and sizes[c] members; a class is generating when the
    rows of its table, the members of its transversal, generate G.

    The induced table of a transversal has row i = the images of the member
    over coset i: i*j is member i after member j, read off at 1."""
    return ClassificationResult(
        class_count=len(sizes),
        representatives=tuple(LoopTable(tables.shape[2], tuple(map(tuple, table)))
                              for table in (tables.astype(np.int64) + 1).tolist()),
        class_sizes=tuple(sizes.tolist()),
        generating_flags=tuple(generates(pair, tables).tolist()),
        labels=tuple(labels.tolist()),
    )


# Candidate (table, relabeling) pairs, conjugated rows or transversal images
# handled per numpy batch: enough to amortize numpy's per-call cost, few
# enough to keep the working arrays at a few MB.
BATCH = 65536


def _canonical_forms(tables: np.ndarray, n: int, cap: int = CAP_RELABELINGS) -> np.ndarray:
    """Lexicographically minimal flattened relabeling of each table.

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


def classify_by_table_iso(pair: PairGH, cap: int = CAP_TRANSVERSALS,
                          relabel_cap: int = CAP_RELABELINGS) -> ClassificationResult:
    """Classes of induced tables under identity-fixing relabeling, decided by
    canonical form.  Classes come out sorted by canonical form; labels
    follow `enumerate_transversals` order, and a class is generating when
    the rows of its first table generate G.  The transversals, then the
    relabelings, are capped before any table is built."""
    n = pair.degree
    total = pair.transversal_count()
    if total > cap:
        raise CapExceeded("transversals", cap, total)
    if factorial(n - 1) > relabel_cap:
        raise CapExceeded("relabelings", relabel_cap, factorial(n - 1))
    tables = _section_rows(pair.cosets()[1:], np.arange(total), n)
    canon = _canonical_forms(tables, n, cap=relabel_cap)
    # row keys sort like the rows, so classes come out by canonical form
    _, first, inverse, counts = np.unique(
        _row_keys(canon), return_index=True, return_inverse=True, return_counts=True)
    return _classification(tables[first], pair, counts, inverse)


class UnionFind:
    """Disjoint sets over the index range 0..size-1; each set's root is its
    least index."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        p = self.parent
        root = i
        while p[root] != root:
            root = p[root]
        while p[i] != root:
            p[i], i = root, p[i]
        return root

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _conjugates(pair: PairGH, alphas: np.ndarray) -> np.ndarray:
    """Entry [k, s, c]: the element index of alphas[k] p alphas[k]^-1 for
    the c-th member p over slot s + 2, or -1 when it is not in G."""
    n, h = pair.degree, pair.subgroup_order
    inverses = _invert_rows(alphas)
    index = np.empty((len(alphas), (n - 1) * h), dtype=np.int64)
    # G's rows past H's are the cosets over slots 2..n, in order
    for e, p in enumerate(pair.group._rows[h:]):
        # alpha p alpha^-1 is alpha[p[alpha^-1]]
        index[:, e] = pair.group._locate(np.take_along_axis(alphas, p[inverses], axis=1))
    return index.reshape(len(alphas), n - 1, h)


def _transversal_images(pair: PairGH, index: np.ndarray) -> np.ndarray:
    """The index of every transversal's image, one row per alpha, from the
    alpha's _conjugates; negative where the image leaves the family.

    Transversals are numbered in mixed radix by their members' positions in
    their cosets, first coset slowest (the `enumerate_transversals` order),
    and element e is position e % h of coset e // h.  A member outside G
    adds -transversal_count(), so a sum over the slots is negative exactly
    when one is outside G."""
    n, h = pair.degree, pair.subgroup_order
    weight = h ** np.arange(n - 1, -1, -1)  # of each coset's digit
    digits = np.where(index >= 0, index % h * weight[index // h], -pair.transversal_count())
    out = np.zeros((len(index), 1), dtype=np.int64)
    for s in range(n - 1):
        out = (out[:, :, None] + digits[:, s, None, :]).reshape(len(index), out.shape[1] * h)
    return out


def _candidate_relabelings(pair: PairGH, stab_cap: int) -> np.ndarray:
    """_conjugates of every identity-fixing alpha that could map some
    transversal back into the family: one that conjugates some member of
    each coset into G.  The others are dropped before the per-transversal
    sweep.  `stab_cap` bounds the (n-1)! alphas before any is built."""
    n = pair.degree
    kept = [np.empty((0, n - 1, pair.subgroup_order), dtype=np.int64)]
    for alphas in stabilizer_candidates(n, stab_cap, size=max(1, BATCH // pair.group.order)):
        index = _conjugates(pair, alphas)
        kept.append(index[(index >= 0).any(axis=2).all(axis=1)])
    return np.concatenate(kept)


def _sweep_labels(pair: PairGH, stab_cap: int) -> np.ndarray:
    """Each transversal's least index among its images under the alphas
    `_candidate_relabelings` keeps: the least index of its class."""
    conjugates = _candidate_relabelings(pair, stab_cap)
    total = pair.transversal_count()
    least = np.arange(total)
    step = max(1, BATCH // total)
    for lo in range(0, len(conjugates), step):
        image = _transversal_images(pair, conjugates[lo:lo + step])
        image[image < 0] = total
        np.minimum(least, image.min(axis=0), out=least)
    return least


def _walk_labels(pair: PairGH, gen_rows: np.ndarray) -> np.ndarray:
    """The least index of each transversal's class, by union-find over its
    images under the relabelings gen_rows, which must generate the
    relabeling group and normalize G, so that no image leaves the family."""
    total = pair.transversal_count()
    uf = UnionFind(total)
    for image in _transversal_images(pair, _conjugates(pair, gen_rows)):
        for i, j in enumerate(image.tolist()):
            if i != j:
                uf.union(i, j)
    return np.array([uf.find(i) for i in range(total)], dtype=np.int64)


def classify_by_conjugation(pair: PairGH, cap: int = CAP_TRANSVERSALS,
                            stab_cap: int = CAP_STAB_ENUM) -> ClassificationResult:
    """Classes under: T is equivalent to L when some identity-fixing
    permutation alpha has alpha T alpha^-1 = L as sets.

    The relation is a group action restricted to the family, so a class is
    an orbit met with the family, and each transversal is labeled with the
    least index of its class.  When the whole relabeling group normalizes G
    (symmetric and alternating pairs), union-find over the images under two
    generators of that group finds it (`_walk_labels`); otherwise every
    candidate relabeling is swept (`_sweep_labels`).  Classes come out in
    order of first member.
    """
    n = pair.degree
    total = pair.transversal_count()
    if total > cap:
        raise CapExceeded("transversals", cap, total)

    # (2,3) and (2,3,...,n) generate the relabeling group; below degree 3, trivially
    gen_rows = np.stack([_cycle_row(n, range(1, min(n, 3))), _cycle_row(n, range(1, n))])
    if _normalizing(pair.group, gen_rows).all():
        least = _walk_labels(pair, gen_rows)
    else:
        least = _sweep_labels(pair, stab_cap)
    # the least index of a class is its first member in enumeration order
    first, labels, sizes = np.unique(least, return_inverse=True, return_counts=True)
    return _classification(_section_rows(pair.cosets()[1:], first, n), pair, sizes, labels)


def census_left_loops(n: int, cap: int = CAP_TRANSVERSALS,
                      relabel_cap: int = CAP_RELABELINGS) -> ClassificationResult:
    """Every left-loop table of order n, classified up to identity-fixing
    isomorphism: `classify_by_table_iso` on the pair of Sym(n) over the
    stabilizer of 1.  Row a of a table is a permutation sending 1 to a, so
    the rows are a transversal of that stabilizer and the table is its
    induced table.  The ((n-1)!)^(n-1) tables are capped before Sym(n) is
    built; a refusal states a count too long to print as its formula."""
    if n < 1:
        raise ValueError("need n >= 1")
    m = n - 1
    bound = max(cap, PRINT_LIMIT)
    # m! >= 2^(m - 1): a count of at least 2^(m(m - 1)) is past a bound of at
    # most m(m - 1) bits uncomputed, and bound + 1 stands in for it
    count = factorial(m) ** m if m * (m - 1) < bound.bit_length() else bound + 1
    if count > cap:
        raise CapExceeded("transversals", cap, count if count < PRINT_LIMIT else f"({m}!)^{m}")
    return classify_by_table_iso(PairGH(PermGroup.symmetric(n)), cap, relabel_cap)


def render_classes_dump(result: ClassificationResult, heading: str = "") -> str:
    """One block per class, in the result's class order (sorted by canonical
    table form for classify_by_table_iso and census_left_loops, first seen
    for classify_by_conjugation): size, generating flag, members in cycle
    notation, table rows."""
    lines = []
    if heading:
        lines.append(heading)
    lines.append(f"classes: {result.class_count}")
    lines.append(f"transversals: {len(result.labels)}")
    for pos, (rep, size, generating) in enumerate(zip(
            result.representatives, result.class_sizes, result.generating_flags), start=1):
        flag = "yes" if generating else "no"
        lines.append("")
        lines.append(f"class {pos}: size {size}, generates: {flag}")
        # row i of the table is the images of the member over coset i
        members = ", ".join(format_cycles(row) for row in rep.table)
        lines.append(f"members: {members}")
        lines.append("table:")
        for row in rep.table:
            lines.append("  " + " ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def classification_to_json(result: ClassificationResult) -> dict:
    """JSON-ready dict; per-transversal labels are left out deliberately
    (they can be huge and the partition is recoverable from a rerun)."""
    from ._version import __version__

    return {
        "schema": "classification/1",
        "version": __version__,
        "class_count": result.class_count,
        "class_sizes": list(result.class_sizes),
        "generating_flags": list(result.generating_flags),
        "representatives": [list(map(list, rep.table)) for rep in result.representatives],
    }
