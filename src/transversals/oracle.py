"""Independent ground truth by exhaustive enumeration.

Transversals are enumerated outright and classified two ways that must agree:
by conjugation with identity-fixing permutations (the least index in each
transversal's orbit) and by canonical forms of the induced multiplication
tables (lexicographic minimum over all identity-fixing relabelings).  The
census of all left-loop tables of order n is the second classification run on
Sym(n) over the stabilizer of 1.  Nothing here trusts the counting formulas.

Conjugation reads only the candidate set C of identity-fixing alphas that
conjugate some member of each coset into G, the only ones that can map a
transversal back into the family.  Its candidates come from
groups._relabelings, which also finds the normalizer's: the coset with the
fewest solutions, counted from cycle types, is built by cycle matching
where that spares enough of Sym(n)_1's (n-1)! rows, which are swept
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import CAP_RELABELINGS, CAP_STAB_ENUM, CAP_TRANSVERSALS, PRINT_LIMIT, CapExceeded
from .groups import (
    PairGH,
    PermGroup,
    _cap_factorial_order,
    _conjugating_into,
    _cycle_row,
    _invert_rows,
    _normalizing,
    _relabelings,
    _row_keys,
    _section_rows,
    generates,
    stabilizer_candidates,
)
from .perm import format_cycles


@dataclass(frozen=True, eq=False)
class ClassificationResult:
    """Partition of an enumerated transversal family into isomorphism
    classes, as the classifiers build it: numpy arrays throughout.

    labels[i] is the class index of the i-th transversal in enumeration
    order and class_sizes[c] the number of members of class c.
    representatives[c] is the (n, n) 0-based induced table of the first
    transversal of class c: row i is the member over coset i, so i*j is
    member i after member j, read off at 1.  generating_flags[c] says
    whether those rows generate G (a class invariant).
    """

    representatives: np.ndarray
    class_sizes: np.ndarray
    generating_flags: np.ndarray
    labels: np.ndarray

    @property
    def class_count(self) -> int:
        return len(self.class_sizes)


# Searched cells (tables times the (n-1)^2 cells past row 0 and column 0),
# conjugated rows or transversal images handled per numpy batch: enough to
# amortize numpy's per-call cost, few enough to keep the working arrays at a
# few MB.
BATCH = 65536


def _canonical_forms(tables: np.ndarray, n: int, cap: int = CAP_RELABELINGS) -> np.ndarray:
    """Lexicographically minimal flattened relabeling of each table.

    tables is (N, n, n), 0-based entries.  A relabeling f rewrites a table T
    to f[T[finv[i], finv[j]]]; the minimum over all identity-fixing f is a
    complete isomorphism invariant for tables with our invariants.  It is
    found by search, a block of tables at a time.  A state is a table and a
    partial relabeling: labels 1..r fixed, r the same for every state of a
    table, and the first of the (n-1-r)! consecutive rows of
    `stabilizer_candidates` that share finv[1..r], read as finv.  Cells are
    visited in row-major order (row 0 and column 0 are the same under every
    relabeling).  Cell (1, j) branches label j over the unlabelled symbols
    when no earlier cell fixed it, so every label is fixed by the end of
    row 1.  A cell holding an unlabelled symbol takes the next free label,
    r + 1: the relabelings of the state give that symbol each free label,
    so r + 1 is the least value the cell can take, and forcing it is exact.
    After each cell a table keeps only the states that reach its least
    value there, and from row 2 on a table with one state left is settled
    and leaves the working arrays.  States still tied after the last cell
    are the table's automorphisms: they give the same table.  The caller
    has capped the relabelings.
    """
    flat = tables.reshape(len(tables), n * n)
    F = np.concatenate(list(stabilizer_candidates(n, cap, size=BATCH)))
    canon = flat.copy()
    if n < 2:
        return canon
    cols, Finv = F.T, _invert_rows(F).ravel()
    # span[r]: the rows sharing finv[1..r]
    span = np.array([factorial(n - 1 - r) for r in range(n)] + [0])
    step = max(1, BATCH // ((n - 1) * (n - 1)))
    for lo in range(0, len(flat), step):
        block = flat[lo:lo + step]
        cells, size = block.ravel(), len(block)
        # state s: table t[s] and row k[s], table-major; r = fixed[t[s]].
        # Label 1 goes to each symbol in turn.
        t = np.repeat(np.arange(size), n - 1)
        k = np.tile(np.arange(n - 1) * span[1], size)
        fixed = np.ones(size, dtype=F.dtype)
        final = np.empty(size, dtype=np.intp)
        for i in range(1, n):
            for j in range(1, n):
                if i == 1:
                    # label j, where unfixed, goes to each unlabelled symbol
                    # (at j = n - 1 one is left, and row k already gives it label j)
                    if 1 < j < n - 1:
                        grow = np.where(fixed < j, n - j, 1)[t]
                        t, k, row = np.repeat(t, grow), np.repeat(k, grow), np.repeat(row, grow)
                        k += (np.arange(len(k)) - np.repeat(np.cumsum(grow) - grow, grow)) * span[j]
                    fixed = np.maximum(fixed, j)
                if j == 1:
                    row = t * (n * n) + cols[i][k].astype(np.intp) * n
                # where the cell's symbol stands in row k: its label if fixed
                p = Finv[k * n + cells[row + cols[j][k]]]
                v = np.minimum(p, (fixed + 1)[t]) if i == 1 else p
                head = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
                least = np.zeros(size, dtype=v.dtype)
                least[t[head]] = np.minimum.reduceat(v, head)
                keep = v == least[t]
                t, k, row = t[keep], k[keep], row[keep]
                if i == 1:
                    fresh = least == fixed + 1
                    if fresh.any():
                        # the symbol takes label r + 1: move to the rows that give it
                        v = v[keep]
                        k += (p[keep] - v) * span[v]
                        fixed += fresh
                else:
                    done = (np.bincount(t, minlength=size) == 1)[t]
                    final[t[done]] = k[done]
                    t, k, row = t[~done], k[~done], row[~done]
                    if not len(t):
                        break
            if not len(t):
                break
        final[t] = k
        # relabel each table by its survivor; row 0 and column 0 stay
        finv = F[final, 1:].astype(np.intp)
        starts = np.arange(size)[:, None] * (n * n) + finv * n
        out = canon[lo:lo + step].reshape(size, n, n)
        for i in range(1, n):
            out[:, i, 1:] = Finv[final[:, None] * n + cells[starts[:, i - 1, None] + finv]]
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
    _cap_factorial_order("relabelings", n - 1, 1, relabel_cap)
    # the tables are rebuilt for the representatives, so none is held past here
    canon = _canonical_forms(_section_rows(pair.cosets()[1:], np.arange(total), n), n,
                             cap=relabel_cap)
    # row keys sort like the rows, so classes come out by canonical form
    _, first, inverse, counts = np.unique(
        _row_keys(canon), return_index=True, return_inverse=True, return_counts=True)
    reps = _section_rows(pair.cosets()[1:], first, n)
    return ClassificationResult(reps, counts, generates(pair, reps), inverse)


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


def _coset_conjugates(pair: PairGH, alphas: np.ndarray) -> np.ndarray:
    """`_conjugating_into` on the cosets past H, for the alphas that
    conjugate some member of each coset into G: entry [k, s, c] is the
    element index of alpha_k p alpha_k^-1 for the c-th member p over slot
    s + 2, or -1 when it is not in G, alpha_k the k-th such alpha."""
    n, h = pair.degree, pair.subgroup_order
    index = np.empty(((n - 1) * h, len(alphas)), dtype=np.int64)
    kept = _conjugating_into(pair.group, alphas, pair.cosets()[1:], index)
    return index[:, kept].T.reshape(len(kept), n - 1, h)


def _transversal_images(pair: PairGH, index: np.ndarray) -> np.ndarray:
    """The index of every transversal's image, one row per alpha, from the
    alpha's `_coset_conjugates`; negative where the image leaves the family.

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
    """`_coset_conjugates` of C, the identity-fixing alphas that could map
    some transversal back into the family: those that conjugate some member
    of each coset into G.  The others are dropped before the per-transversal
    sweep.  The candidates come from `_relabelings` on the cosets past H,
    sorted, and are tested slot by slot, each slot only on the alphas that
    passed the ones before; the survivors keep the conjugates those tests
    located.  `stab_cap` bounds (n-1)! before any alpha is built."""
    n, h = pair.degree, pair.subgroup_order
    cosets = [range(i * h, (i + 1) * h) for i in range(1, n)]
    return np.concatenate([_coset_conjugates(pair, alphas) for alphas in _relabelings(
        pair.group, cosets, stab_cap, max(1, BATCH // pair.group.order))])


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
    for image in _transversal_images(pair, _coset_conjugates(pair, gen_rows)):
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
    candidate relabeling, each alpha of the set C
    (`_candidate_relabelings`), is swept (`_sweep_labels`).  Classes come
    out in order of first member.
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
    reps = _section_rows(pair.cosets()[1:], first, n)
    return ClassificationResult(reps, sizes, generates(pair, reps), labels)


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


def _one_based(result: ClassificationResult) -> list:
    """The representatives as nested lists of 1-based ints."""
    return (result.representatives.astype(np.int64) + 1).tolist()


def render_classes_dump(result: ClassificationResult, heading: str = "") -> str:
    """One block per class, in the result's class order (sorted by canonical
    table form for classify_by_table_iso and census_left_loops, first seen
    for classify_by_conjugation): size, generating flag, members in cycle
    notation, table rows, all 1-based."""
    lines = []
    if heading:
        lines.append(heading)
    lines.append(f"classes: {result.class_count}")
    lines.append(f"transversals: {len(result.labels)}")
    # the members are at most |G| distinct rows: each is rendered once
    text = {}
    for pos, (table, size, generating) in enumerate(zip(
            _one_based(result), result.class_sizes.tolist(),
            result.generating_flags.tolist()), start=1):
        flag = "yes" if generating else "no"
        lines.append("")
        lines.append(f"class {pos}: size {size}, generates: {flag}")
        # row i of the table is the images of the member over coset i
        rows = [tuple(row) for row in table]
        for row in rows:
            if row not in text:
                text[row] = format_cycles(row), "  " + " ".join(map(str, row))
        lines.append(f"members: {', '.join(text[row][0] for row in rows)}")
        lines.append("table:")
        lines.extend(text[row][1] for row in rows)
    return "\n".join(lines) + "\n"


def classification_to_json(result: ClassificationResult) -> dict:
    """JSON-ready dict of Python ints, bools and lists; per-transversal
    labels are left out deliberately (they can be huge and the partition is
    recoverable from a rerun)."""
    from ._version import __version__

    return {
        "schema": "classification/1",
        "version": __version__,
        "class_count": result.class_count,
        "class_sizes": result.class_sizes.tolist(),
        "generating_flags": result.generating_flags.tolist(),
        "representatives": _one_based(result),
    }
