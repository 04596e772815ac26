"""Independent ground truth by exhaustive enumeration.

Transversals are enumerated outright and classified two ways that must agree:
by conjugation with identity-fixing permutations (union-find over the orbit
graph) and by canonical forms of the induced multiplication tables
(lexicographic minimum over all identity-fixing relabelings).  A census of
all left-loop tables of a given order and a left/right symmetry check round
out the module.  Nothing here trusts the counting formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from .errors import CAP_RELABELINGS, CAP_STAB_ENUM, CAP_TRANSVERSALS, CapExceeded
from .groups import (
    PairGH,
    PermGroup,
    Transversal,
    _generates,
    _invert_rows,
    _is_subgroup,
    _normalizing,
    _perm_rows,
    _row_dtype,
    _row_keys,
    _sections,
    enumerate_transversals,
    generates,
    stabilizer_candidates,
)
from .perm import Permutation, format_cycles


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

    def members(self):
        """The rows as permutations; the transversal inducing this table."""
        return tuple(Permutation(row) for row in self.table)

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


def induced_table(pair: PairGH, T: Transversal) -> LoopTable:
    """Table of the operation i*j = (member over i, then member over j,
    read off at 1); with members indexed by their image of 1 this is just
    row i = images of member i."""
    n = pair.degree
    if len(T) != n:
        raise ValueError(f"transversal has {len(T)} members, pair needs {n}")
    return LoopTable(n, tuple(p.images for p in T))


def _identity_fixing_relabelings(n: int, cap: int = CAP_RELABELINGS):
    """All permutations of 1..n fixing 1, 0-based, as one (m, n) array."""
    total = factorial(n - 1) if n else 1
    if total > cap:
        raise CapExceeded("relabelings", cap, total)
    return _perm_rows(stabilizer_candidates(n, cap=max(cap, total)), n)


def _lexmin_update(best: np.ndarray, flat: np.ndarray, rows: np.ndarray):
    """best[i] = lexicographic min(best[i], flat[i]), row-wise, in place."""
    neq = flat != best
    any_neq = neq.any(axis=1)
    first = neq.argmax(axis=1)
    better = any_neq & (flat[rows, first] < best[rows, first])
    best[better] = flat[better]


def _canonical_forms(tables: np.ndarray, n: int, jobs: int = 1,
                     cap: int = CAP_RELABELINGS) -> np.ndarray:
    """Lexicographically minimal flattened relabeling of each table.

    tables is (N, n, n), 0-based entries.  A relabeling f rewrites a table T
    to f[T[finv[i], finv[j]]]; the minimum over all identity-fixing f is a
    complete isomorphism invariant for tables with our invariants.  Each
    relabeling costs one positional gather (precomputed source indices) and
    one value remap over all N tables at once.
    """
    N = tables.shape[0]
    flat_tables = np.ascontiguousarray(tables.reshape(N, n * n))
    F = _identity_fixing_relabelings(n, cap=cap)
    Finv = _invert_rows(F).astype(np.uint16 if n <= 255 else np.int64)
    # source position of flattened cell (i, j) after relabeling by F[k]
    positions = (Finv[:, :, None] * n + Finv[:, None, :]).reshape(len(F), n * n)
    rows = np.arange(N)

    def sweep(lo: int, hi: int) -> np.ndarray:
        best = flat_tables.copy()
        for k in range(max(lo, 1), hi):
            _lexmin_update(best, F[k][flat_tables[:, positions[k]]], rows)
        return best

    m = len(F)
    if jobs and jobs > 1 and m > 64:
        from concurrent.futures import ThreadPoolExecutor

        workers = min(jobs, 32)
        bounds = np.linspace(0, m, workers + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda b: sweep(*b), zip(bounds, bounds[1:])))
        best = parts[0]
        for part in parts[1:]:
            _lexmin_update(best, part, rows)
        return best
    return sweep(0, m)


def _table_classes(slots, n: int, group: PermGroup, jobs: int,
                   relabel_cap: int = CAP_RELABELINGS) -> ClassificationResult:
    """Classify every table with identity row 1 whose row s + 2 is one of
    the 0-based rows in slots[s], classes sorted by canonical form.

    Tables are numbered in Cartesian-product order of the slots, first slot
    slowest; a class is generating when the rows of its first table
    generate `group`.
    """
    total = prod(len(rows) for rows in slots)
    tables = np.empty((total, n, n), dtype=_row_dtype(n))
    tables[:, 0, :] = np.arange(n)
    idx = np.arange(total)
    stride = total
    for s, rows in enumerate(slots):
        stride //= len(rows)
        tables[:, s + 1, :] = rows[(idx // stride) % len(rows)]

    canon = _canonical_forms(tables, n, jobs=jobs, cap=relabel_cap)
    # row keys sort like the rows, so classes come out by canonical form
    _, first, inverse, counts = np.unique(
        _row_keys(canon), return_index=True, return_inverse=True, return_counts=True)
    reps = tuple(LoopTable(n, tuple(tuple(int(v) + 1 for v in row) for row in tables[i]))
                 for i in first)
    return ClassificationResult(
        class_count=len(counts),
        representatives=reps,
        class_sizes=tuple(int(c) for c in counts),
        generating_flags=tuple(_generates(group, tables[i]) for i in first),
        labels=tuple(int(x) for x in inverse),
    )


def classify_by_table_iso(pair: PairGH, jobs: int = 1,
                          cap: int = CAP_TRANSVERSALS,
                          relabel_cap: int = CAP_RELABELINGS) -> ClassificationResult:
    """Classes of induced tables under identity-fixing relabeling, decided by
    canonical form.  Classes come out sorted by canonical form; labels
    follow `enumerate_transversals` order."""
    total = pair.transversal_count()
    if total > cap:
        raise CapExceeded("transversals", cap, total)
    return _table_classes(pair.cosets()[1:], pair.degree, pair.group, jobs, relabel_cap)


class UnionFind:
    """Disjoint sets over a growable index range."""

    def __init__(self, size: int = 0):
        self.parent = list(range(size))

    def add(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

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


def _transversal_key(members) -> tuple:
    """Members beyond the identity, in slot order, as image tuples."""
    return tuple(p.images for p in members[1:])


def _conjugate_key(key, a_img, a_inv, n: int) -> tuple:
    """Key of alpha T alpha^-1: member p goes to q with q(i) =
    alpha(p(alpha^-1(i))), landing in slot q(1) = alpha(p(1))."""
    slots = [None] * (n - 1)
    for images in key:
        q = tuple(a_img[images[a_inv[i] - 1] - 1] for i in range(n))
        slots[q[0] - 2] = q
    return tuple(slots)


def _candidate_relabelings(pair: PairGH, stab_cap: int):
    """(images, inverse images) of every identity-fixing alpha that could
    map some transversal back into the family.

    alpha T alpha^-1 lying in G requires, coset by coset, that at least one
    coset member conjugates into G; alphas failing that for any coset can
    never produce a union, so they are filtered out wholesale (vectorized)
    before the exact per-transversal sweep.
    """
    n = pair.degree
    total = factorial(n - 1)
    if total > stab_cap:
        raise CapExceeded("stabilizer_enum", stab_cap, total)
    A = _identity_fixing_relabelings(n, cap=total)
    Ainv = _invert_rows(A)

    useful = np.ones(total, dtype=bool)
    for coset in pair.cosets()[1:]:
        covered = np.zeros(total, dtype=bool)
        for qrow in coset:
            conj = np.take_along_axis(A, qrow[Ainv], axis=1)
            covered |= pair.group._locate(conj) >= 0
        useful &= covered
        if not useful.any():
            break

    out = []
    for k in np.nonzero(useful)[0]:
        a_img = tuple(int(v) + 1 for v in A[k])
        a_inv = tuple(int(v) + 1 for v in Ainv[k])
        out.append((a_img, a_inv))
    return out


def classify_by_conjugation(pair: PairGH, sweep: str = "auto",
                            cap: int = CAP_TRANSVERSALS,
                            stab_cap: int = CAP_STAB_ENUM) -> ClassificationResult:
    """Classes under: T is equivalent to L when some identity-fixing
    permutation alpha has alpha T alpha^-1 = L as sets.

    The relation is a group action restricted to the family, so it is
    already an equivalence; sweep="all" applies every identity-fixing alpha
    to every transversal and unions the hits.  When the whole relabeling
    group normalizes G (symmetric and alternating pairs), conjugation can
    never leave the family and the orbit graph of two generators of the
    relabeling group has the same components; sweep="auto" detects that and
    takes the cheap walk, falling back to the full sweep otherwise.
    """
    n = pair.degree
    total = pair.transversal_count()
    if total > cap:
        raise CapExceeded("transversals", cap, total)
    transversals = list(enumerate_transversals(pair, cap=cap))
    index = {}
    uf = UnionFind()
    for T in transversals:
        index[_transversal_key(tuple(T))] = uf.add()
    family = len(transversals)

    gens = []
    if n >= 3:
        gens.append(Permutation.from_cycles(n, [(2, 3)]))
        gens.append(Permutation.from_cycles(n, [tuple(range(2, n + 1))]))
    if sweep == "auto":
        mode = "walk" if _normalizing(pair.group, _perm_rows(gens, n)).all() else "all"
    elif sweep == "all":
        mode = "all"
    else:
        raise ValueError(f"unknown sweep mode: {sweep!r}")

    if mode == "all":
        keys = list(index.items())
        for a_img, a_inv in _candidate_relabelings(pair, stab_cap):
            for key, i in keys:
                other = index.get(_conjugate_key(key, a_img, a_inv, n))
                if other is not None:
                    uf.union(i, other)
    else:
        pairs = [(g.images, g.inverse().images) for g in gens]
        keys = list(index.keys())
        for i in range(family):
            for a_img, a_inv in pairs:
                uf.union(i, index[_conjugate_key(keys[i], a_img, a_inv, n)])

    roots = {}
    labels = []
    for i in range(family):
        r = uf.find(i)
        if r not in roots:
            roots[r] = len(roots)
        labels.append(roots[r])
    sizes = [0] * len(roots)
    first = [None] * len(roots)
    for i, lab in enumerate(labels):
        sizes[lab] += 1
        if first[lab] is None:
            first[lab] = i
    result = ClassificationResult(
        class_count=len(roots),
        representatives=tuple(induced_table(pair, transversals[i]) for i in first),
        class_sizes=tuple(sizes),
        generating_flags=tuple(generates(pair, transversals[i]) for i in first),
        labels=tuple(labels),
    )
    assert sum(result.class_sizes) == pair.transversal_count()
    return result


def census_left_loops(n: int, jobs: int = 1, cap: int = CAP_TRANSVERSALS,
                      relabel_cap: int = CAP_RELABELINGS) -> ClassificationResult:
    """Every left-loop table of order n, classified up to identity-fixing
    isomorphism.  Row a ranges over all permutations sending 1 to a, rows
    independent, so there are ((n-1)!)^(n-1) tables; each is the induced
    table of exactly one transversal of the stabilizer of 1 in Sym(n), and
    the generating flag is taken there."""
    if n < 1:
        raise ValueError("need n >= 1")
    total = factorial(n - 1) ** (n - 1)
    if total > cap:
        raise CapExceeded("transversals", cap, total)
    # row a + 1 of a table ranges over the block of Sym(n) sending 1 to a + 1
    group = PermGroup.symmetric(n)
    return _table_classes(group._blocks()[1:], n, group, jobs, relabel_cap)


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
        inv_key = tuple(p.inverse().images for p in tuple(T)[1:])
        j = right_index.get(inv_key)
        if j is None:
            return False
        lab = left_label, int(right_labels[j])
        if lab[0] in pairing and pairing[lab[0]] != lab[1]:
            return False
        pairing[lab[0]] = lab[1]
    return len(set(pairing.values())) == left.class_count


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
        members = ", ".join(format_cycles(p) for p in rep.members())
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
