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
from math import factorial

import numpy as np

from .errors import CAP_RELABELINGS, CAP_STAB_ENUM, CAP_TRANSVERSALS, CapExceeded
from .groups import (
    PairGH,
    Transversal,
    _is_subgroup,
    _normalizers,
    closure,
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
    out = np.empty((total, n), dtype=np.uint8 if n <= 255 else np.int64)
    for k, alpha in enumerate(stabilizer_candidates(n, cap=max(cap, total))):
        out[k] = [v - 1 for v in alpha.images]
    return out


def _invert_rows(perms: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perms)
    m, n = perms.shape
    rows = np.arange(m)[:, None]
    inv[rows, perms.astype(np.intp)] = np.arange(n, dtype=perms.dtype)[None, :]
    return inv


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


def _tables_array(pair: PairGH, transversals) -> np.ndarray:
    n = pair.degree
    dtype = np.uint8 if n <= 255 else np.int64
    out = np.empty((len(transversals), n, n), dtype=dtype)
    for i, T in enumerate(transversals):
        out[i] = [[v - 1 for v in p.images] for p in T]
    return out


def _result_from_canonical(canon: np.ndarray, make_table,
                           generating_test) -> ClassificationResult:
    _, first, inverse, counts = np.unique(
        canon, axis=0, return_index=True, return_inverse=True, return_counts=True)
    reps = tuple(make_table(int(i)) for i in first)
    flags = tuple(bool(generating_test(int(i))) for i in first)
    return ClassificationResult(
        class_count=len(counts),
        representatives=reps,
        class_sizes=tuple(int(c) for c in counts),
        generating_flags=flags,
        labels=tuple(int(x) for x in inverse),
    )


def classify_by_table_iso(pair: PairGH, jobs: int = 1,
                          cap: int = CAP_TRANSVERSALS,
                          relabel_cap: int = CAP_RELABELINGS) -> ClassificationResult:
    """Classes of induced tables under identity-fixing relabeling, decided by
    canonical form.  Classes come out sorted by canonical form."""
    transversals = list(enumerate_transversals(pair, cap=cap))
    tables = _tables_array(pair, transversals)
    canon = _canonical_forms(tables, pair.degree, jobs=jobs, cap=relabel_cap)
    result = _result_from_canonical(
        canon,
        make_table=lambda i: induced_table(pair, transversals[i]),
        generating_test=lambda i: generates(pair, transversals[i]),
    )
    assert sum(result.class_sizes) == pair.transversal_count()
    return result


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

    void = np.dtype((np.void, n * A.dtype.itemsize))
    gset = np.array(sorted(tuple(v - 1 for v in g.images)
                           for g in pair.group.elements), dtype=A.dtype)
    gvoid = np.ascontiguousarray(gset).view(void).ravel()

    useful = np.ones(total, dtype=bool)
    for coset in pair.cosets()[1:]:
        covered = np.zeros(total, dtype=bool)
        for q in coset:
            qrow = np.array([v - 1 for v in q.images], dtype=A.dtype)
            conj = np.take_along_axis(A, qrow[Ainv.astype(np.intp)], axis=1)
            vals = np.ascontiguousarray(conj).view(void).ravel()
            pos = np.searchsorted(gvoid, vals)
            pos_c = np.minimum(pos, len(gvoid) - 1)
            covered |= (gvoid[pos_c] == vals) & (pos < len(gvoid))
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
        mode = "walk" if len(_normalizers(pair.group, gens)) == len(gens) else "all"
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


def census_left_loops(n: int, jobs: int = 1,
                      cap: int = CAP_TRANSVERSALS) -> ClassificationResult:
    """Every left-loop table of order n, classified up to identity-fixing
    isomorphism.  Row a ranges over all permutations sending 1 to a, rows
    independent, so there are ((n-1)!)^(n-1) tables; each is the induced
    table of exactly one transversal of the stabilizer of 1 in Sym(n), and
    the generating flag is taken there."""
    if n < 1:
        raise ValueError("need n >= 1")
    r = factorial(n - 1)
    total = r ** (n - 1)
    if total > cap:
        raise CapExceeded("transversals", cap, total)

    from itertools import permutations as itpermutations

    dtype = np.uint8 if n <= 255 else np.int64
    options = []  # options[s] = all 0-based rows for slot a = s + 2
    for a in range(2, n + 1):
        rest = [x for x in range(1, n + 1) if x != a]
        rows = np.array(
            [[a - 1] + [v - 1 for v in tail] for tail in itpermutations(rest)],
            dtype=dtype,
        ).reshape(r, n)
        options.append(rows)

    tables = np.empty((total, n, n), dtype=dtype)
    tables[:, 0, :] = np.arange(n)
    idx = np.arange(total)
    for s in range(n - 1):
        digit = (idx // r ** (n - 2 - s)) % r
        tables[:, s + 1, :] = options[s][digit]

    canon = _canonical_forms(tables, n, jobs=jobs)
    order_cap = factorial(n) + 1

    def make_table(i: int) -> LoopTable:
        return LoopTable(n, tuple(tuple(int(v) + 1 for v in row) for row in tables[i]))

    def generating_test(i: int) -> bool:
        members = make_table(i).members()
        return len(closure(members, degree=n, cap=order_cap)) == factorial(n)

    result = _result_from_canonical(canon, make_table, generating_test)
    assert sum(result.class_sizes) == total
    return result


def subgroup_transversals(pair: PairGH, cap: int = CAP_TRANSVERSALS):
    """All transversals that are subgroups of G (closed under composition),
    in enumeration order."""
    return [T for T in enumerate_transversals(pair, cap=cap) if _is_subgroup(T)]


def _right_transversals(pair: PairGH, cap: int):
    """Right coset sections with identity: member over slot i sends i to 1."""
    from itertools import product

    n = pair.degree
    buckets = [[] for _ in range(n)]
    for g in pair.group.elements:
        buckets[g.inverse()(1) - 1].append(g)
    buckets = [sorted(b) for b in buckets]
    ident = [g for g in buckets[0] if g.is_identity()]
    assert len(ident) == 1
    total = 1
    for b in buckets[1:]:
        total *= len(b)
    if total > cap:
        raise CapExceeded("transversals", cap, total)
    for tail in product(*buckets[1:]):
        yield (ident[0],) + tail


def left_right_agreement(pair: PairGH, cap: int = CAP_TRANSVERSALS) -> bool:
    """Right coset sections induce tables i*j = (member over j, inverted,
    read at i); classify both sides by canonical form and confirm the
    member-wise inversion map carries left classes onto right classes
    one-to-one."""
    n = pair.degree
    lefts = list(enumerate_transversals(pair, cap=cap))
    left_tables = _tables_array(pair, lefts)
    left_labels = np.unique(
        _canonical_forms(left_tables, n), axis=0, return_inverse=True)[1]

    rights = list(_right_transversals(pair, cap))
    right_index = {tuple(p.images for p in R[1:]): i for i, R in enumerate(rights)}
    right_tables = np.empty((len(rights), n, n), dtype=np.int64)
    for i, R in enumerate(rights):
        right_tables[i] = np.array(
            [[v - 1 for v in p.inverse().images] for p in R], dtype=np.int64).T
    right_labels = np.unique(
        _canonical_forms(right_tables, n), axis=0, return_inverse=True)[1]

    count_left = int(left_labels.max()) + 1 if len(lefts) else 0
    count_right = int(right_labels.max()) + 1 if len(rights) else 0
    if count_left != count_right:
        return False

    pairing = {}
    for i, T in enumerate(lefts):
        # member over left slot k inverts to the member over right slot k
        inv_key = tuple(p.inverse().images for p in tuple(T)[1:])
        j = right_index.get(inv_key)
        if j is None:
            return False
        lab = int(left_labels[i]), int(right_labels[j])
        if lab[0] in pairing and pairing[lab[0]] != lab[1]:
            return False
        pairing[lab[0]] = lab[1]
    return len(set(pairing.values())) == count_left


def render_classes_dump(result: ClassificationResult, heading: str = "") -> str:
    """One block per class, sorted by canonical table form: size, generating
    flag, members in cycle notation, table rows."""
    n = result.representatives[0].order if result.representatives else 0
    order = range(result.class_count)
    if result.class_count and n:
        reps_np = np.array(
            [[[v - 1 for v in row] for row in rep.table] for rep in result.representatives],
            dtype=np.int64,
        )
        canon = _canonical_forms(reps_np, n)
        order = sorted(range(result.class_count), key=lambda c: tuple(canon[c]))
    lines = []
    if heading:
        lines.append(heading)
    lines.append(f"classes: {result.class_count}")
    lines.append(f"transversals: {len(result.labels)}")
    for pos, c in enumerate(order, start=1):
        rep = result.representatives[c]
        flag = "yes" if result.generating_flags[c] else "no"
        lines.append("")
        lines.append(f"class {pos}: size {result.class_sizes[c]}, generates: {flag}")
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
