"""Finite permutation groups, subgroup pairs, and transversal enumeration.

Groups are stored as explicit element sets (generators kept alongside), which
keeps every downstream count a direct filter.  A PairGH is the normalized
object the counting engines work on: G transitive on {1..n}, H the full
stabilizer of symbol 1, and H core-free, i.e. the coset representation has
already been applied.  coset_representation() turns an arbitrary (G, H <= G)
into that normal form.

The hot paths (generation tests, the normalizer sweep, conjugacy classes and
commuting counts) run on a group's array view, _ElementArrays, built once per
group on first use.
"""

from __future__ import annotations

from itertools import chain as _chain
from itertools import compress as _compress
from itertools import islice as _islice
from itertools import permutations as _itpermutations
from itertools import product as _itproduct
from math import factorial, prod

import numpy as np

from .errors import CAP_GROUP_ORDER, CAP_STAB_ENUM, CAP_TRANSVERSALS, CapExceeded
from .perm import (
    Permutation,
    _trusted,
    compose,
    conjugate,
    format_cycles,
    identity,
    parse_cycles,
)

# Candidates conjugated per gather in the normalizer sweep: large enough to
# amortize numpy's per-call cost, small enough that an (n-1)! stream is
# never held whole.
NORMALIZER_CHUNK = 4096


def _row_dtype(degree: int) -> np.dtype:
    """Image dtype whose bytes compare in the same order as the images:
    one byte per image below degree 256, big-endian words beyond."""
    return np.dtype(np.uint8) if degree < 256 else np.dtype(">u4")


def _perm_rows(perms, degree: int) -> np.ndarray:
    """0-based image rows of permutations of the given degree, one
    (len(perms), degree) array; `perms` is streamed, not held."""
    flat = np.fromiter(_chain.from_iterable(p.images for p in perms),
                       dtype=_row_dtype(degree))
    flat -= 1
    return flat.reshape(-1, degree)


def _invert_rows(perms: np.ndarray) -> np.ndarray:
    """Row-wise inverses of a (m, n) array of 0-based permutations."""
    inv = np.empty_like(perms)
    m, n = perms.shape
    rows = np.arange(m)[:, None]
    inv[rows, perms.astype(np.intp)] = np.arange(n, dtype=perms.dtype)[None, :]
    return inv


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row: the row's bytes, which sort like the row."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


class _ElementArrays:
    """A group's sorted elements as arrays.  rows[i] holds the 0-based
    images of the i-th element and keys[i] that row's key; the keys come out
    sorted, so a binary search maps any row back to its element index.  The
    identity, lexicographically least, is element 0."""

    __slots__ = ("rows", "keys", "_left")

    def __init__(self, elements, degree: int):
        self.rows = _perm_rows(elements, degree)
        self.keys = _row_keys(self.rows)
        self._left = {}

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each row, -1 where the row is not an element."""
        keys = _row_keys(rows)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[pos] == keys, pos, -1)

    def left_row(self, i: int) -> list:
        """Index of g x for every element x, g the i-th element (built on
        first use, one gather)."""
        row = self._left.get(i)
        if row is None:
            row = self._left[i] = self.locate(self.rows[i][self.rows]).tolist()
        return row

    def generated_by(self, indices) -> bool:
        """Do the elements with these indices generate the whole group?
        Breadth-first search from the identity over element indices."""
        order = len(self.keys)
        gens = [self.left_row(i) for i in set(indices)]
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


def closure(generators, degree: int | None = None, cap: int = CAP_GROUP_ORDER):
    """Subgroup generated by `generators`, as a sorted element list (BFS).

    Empty generator lists give the trivial group, which is why `degree` is
    then required.  Raises CapExceeded the moment the element count passes
    `cap`.
    """
    gens = list(generators)
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generating set")
        degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    e = identity(degree)
    elements = {e}
    frontier = [e]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in elements:
                    if len(elements) >= cap:
                        raise CapExceeded("group_order", cap, len(elements) + 1)
                    elements.add(y)
                    fresh.append(y)
        frontier = fresh
    return sorted(elements)


class PermGroup:
    """Explicit finite permutation group of a fixed degree."""

    __slots__ = ("degree", "elements", "generators", "_sorted", "_view")

    def __init__(self, elements, generators=(), degree: int | None = None):
        elems = frozenset(elements)
        if not elems:
            raise ValueError("a group needs at least the identity")
        deg = degree if degree is not None else next(iter(elems)).degree
        for g in elems:
            if g.degree != deg:
                raise ValueError("mixed degrees in element set")
        if identity(deg) not in elems:
            raise ValueError("element set lacks the identity")
        object.__setattr__(self, "degree", deg)
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_view", None)

    def __setattr__(self, *a):
        raise AttributeError("PermGroup is immutable")

    @classmethod
    def from_generators(cls, generators, degree=None, cap=CAP_GROUP_ORDER):
        gens = tuple(generators)
        return cls(closure(gens, degree=degree, cap=cap), gens, degree)

    @classmethod
    def trivial(cls, n: int):
        return cls([identity(n)], (), n)

    @classmethod
    def symmetric(cls, n: int, cap=CAP_GROUP_ORDER):
        if factorial(n) > cap:
            raise CapExceeded("group_order", cap, factorial(n))
        elems = [_trusted(p) for p in _itpermutations(range(1, n + 1))]
        gens = symmetric_generators(n)
        return cls(elems, gens, n)

    @classmethod
    def alternating(cls, n: int, cap=CAP_GROUP_ORDER):
        if n < 3:
            raise ValueError("alternating group needs degree >= 3")
        if factorial(n) // 2 > cap:
            raise CapExceeded("group_order", cap, factorial(n) // 2)
        elems = [
            q
            for p in _itpermutations(range(1, n + 1))
            if (q := _trusted(p)).parity() == 1
        ]
        gens = alternating_generators(n)
        return cls(elems, gens, n)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p) -> bool:
        return p in self.elements

    def __iter__(self):
        if self._sorted is None:
            object.__setattr__(self, "_sorted", sorted(self.elements))
        return iter(self._sorted)

    def _arrays(self) -> _ElementArrays:
        """The array view of the sorted elements, built on first use and
        kept (and freed) with the group."""
        if self._view is None:
            object.__setattr__(self, "_view", _ElementArrays(self, self.degree))
        return self._view

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, PermGroup) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"PermGroup(order={self.order}, degree={self.degree})"

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.elements <= other.elements

    def is_normal_in(self, other: "PermGroup") -> bool:
        if not self.is_subgroup_of(other):
            return False
        return all(
            conjugate(h, g) in self.elements
            for g in other.generators or other.elements
            for h in self.generators or self.elements
        )

    def is_abelian(self) -> bool:
        elems = list(self.elements)
        return all(
            compose(a, b) == compose(b, a)
            for i, a in enumerate(elems)
            for b in elems[i + 1 :]
        )

    def is_transitive(self) -> bool:
        reached = {1}
        frontier = [1]
        gens = self.generators or tuple(self.elements)
        while frontier:
            nxt = []
            for s in frontier:
                for g in gens:
                    t = g(s)
                    if t not in reached:
                        reached.add(t)
                        nxt.append(t)
            frontier = nxt
        return len(reached) == self.degree

    def stabilizer_of_1(self) -> "PermGroup":
        elems = [g for g in self.elements if g(1) == 1]
        return PermGroup(elems, degree=self.degree)

    def conjugacy_classes(self):
        """Conjugacy classes as sorted element lists; classes ordered by
        (moved points of min rep, min rep), so the identity class comes first.
        Each class is one gather: x conjugated by every element at once."""
        view = self._arrays()
        rows, inverses = view.rows, _invert_rows(view.rows)
        elems = list(self)
        unseen = np.ones(len(elems), dtype=bool)
        classes = []
        for i in range(len(elems)):
            if not unseen[i]:
                continue
            # row k: g_k x g_k^-1, i.e. g_k[x[g_k^-1[j]]]
            index = view.locate(np.take_along_axis(rows, rows[i][inverses], axis=1))
            assert (index >= 0).all()
            members = np.zeros(len(elems), dtype=bool)
            members[index] = True
            unseen &= ~members
            classes.append([elems[k] for k in np.flatnonzero(members)])
        return sorted(classes, key=lambda c: _class_order_key(c[0]))


def _class_order_key(rep: Permutation):
    """Presentation order of conjugacy classes by representative: fewest
    moved symbols first, then by images, so the identity class leads."""
    moved = sum(1 for i in range(1, rep.degree + 1) if rep(i) != i)
    return (moved, rep.images)


def symmetric_generators(n: int):
    if n <= 1:
        return ()
    if n == 2:
        return (Permutation.from_cycles(2, [(1, 2)]),)
    return (
        Permutation.from_cycles(n, [(1, 2)]),
        Permutation.from_cycles(n, [tuple(range(1, n + 1))]),
    )


def alternating_generators(n: int):
    if n == 3:
        return (Permutation.from_cycles(3, [(1, 2, 3)]),)
    if n % 2 == 1:
        return (
            Permutation.from_cycles(n, [(1, 2, 3)]),
            Permutation.from_cycles(n, [tuple(range(1, n + 1))]),
        )
    return (
        Permutation.from_cycles(n, [(1, 2, 3)]),
        Permutation.from_cycles(n, [tuple(range(2, n + 1))]),
    )


class PairGH:
    """Normalized pair: G transitive on {1..n}, H = stabilizer of 1, core-free."""

    __slots__ = ("group", "stabilizer", "name", "_normalizer", "_cosets")

    def __init__(self, group: PermGroup, stabilizer: PermGroup, name: str = ""):
        if not group.is_transitive():
            raise ValueError("G must be transitive on 1..n")
        stab = {g for g in group.elements if g(1) == 1}
        if stabilizer.elements != stab:
            raise ValueError("H must be exactly the stabilizer of symbol 1 in G")
        n = group.degree
        if group.order != n * stabilizer.order:
            raise ValueError("orbit-stabilizer mismatch")  # unreachable given the above
        core = _core_order(group, stabilizer)
        if core != 1:
            raise ValueError(
                f"H contains a normal subgroup of G of order {core}; "
                "apply coset_representation first"
            )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "stabilizer", stabilizer)
        object.__setattr__(self, "name", name or f"pair(degree={n}, order={group.order})")
        object.__setattr__(self, "_normalizer", None)
        object.__setattr__(self, "_cosets", None)

    def __setattr__(self, *a):
        raise AttributeError("PairGH is immutable")

    @property
    def degree(self) -> int:
        return self.group.degree

    @property
    def subgroup_order(self) -> int:
        return self.stabilizer.order

    def transversal_count(self) -> int:
        return self.subgroup_order ** (self.degree - 1)

    def cosets(self):
        """cosets()[i] = sorted tuple of the elements mapping 1 to i+1; built
        on the first call and kept on the pair."""
        if self._cosets is None:
            buckets = [[] for _ in range(self.degree)]
            for g in self.group.elements:
                buckets[g(1) - 1].append(g)
            object.__setattr__(self, "_cosets", tuple(tuple(sorted(b)) for b in buckets))
        return self._cosets

    def __repr__(self):
        return f"PairGH({self.name})"


def _core_order(group: PermGroup, sub: PermGroup) -> int:
    """Order of the largest normal subgroup of `group` contained in `sub`:
    the union of the conjugacy classes of `group` that lie in `sub`.  Starts
    from all of sub and drops every element that some generator conjugates
    outside what is left, until nothing changes; each pass is one gather
    per generator over the remaining rows."""
    view = sub._arrays()
    rows = view.rows
    gens = _perm_rows(group.generators or group, group.degree)
    gens = list(zip(gens, _invert_rows(gens)))
    keep = np.ones(len(rows), dtype=bool)
    while True:
        kept = keep.copy()
        for g, g_inv in gens:
            # row k: g h_k g^-1, i.e. g[h_k[g^-1[j]]]
            index = view.locate(g[rows[:, g_inv]])
            keep &= (index >= 0) & keep[index]
        if (keep == kept).all():
            return int(keep.sum())


class Transversal:
    """Coset representatives containing the identity, one per coset of H,
    stored sorted by image-of-1: members[i-1](1) == i."""

    __slots__ = ("members",)

    def __init__(self, members):
        mem = tuple(members)
        if not mem:
            raise ValueError("empty transversal")
        n = mem[0].degree
        for i, m in enumerate(mem):
            if m.degree != n:
                raise ValueError("mixed degrees in transversal")
            if m(1) != i + 1:
                raise ValueError(f"member {i} maps 1 to {m(1)}, want {i + 1}")
        if not mem[0].is_identity():
            raise ValueError("first member must be the identity")
        object.__setattr__(self, "members", mem)

    def __setattr__(self, *a):
        raise AttributeError("Transversal is immutable")

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __getitem__(self, i):
        return self.members[i]

    def __eq__(self, other):
        return isinstance(other, Transversal) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return "Transversal[" + ", ".join(format_cycles(m) for m in self.members) + "]"


def _sections(buckets, degree: int, cap: int = CAP_TRANSVERSALS):
    """Yield the identity followed by one element of each bucket, for every
    choice in Cartesian-product order (first bucket slowest).  The product
    of the bucket sizes is capped before anything is yielded."""
    total = prod(len(bucket) for bucket in buckets)
    if total > cap:
        raise CapExceeded("transversals", cap, total)
    e = identity(degree)
    for choice in _itproduct(*buckets):
        yield (e,) + choice


def enumerate_transversals(pair: PairGH, cap: int = CAP_TRANSVERSALS):
    """Yield every transversal of the pair in a fixed order: the Cartesian
    product of the non-identity cosets' sorted element lists."""
    for members in _sections(pair.cosets()[1:], pair.degree, cap):
        yield Transversal(members)


def left_cosets(G: PermGroup, H: PermGroup):
    """Left cosets gH of H in G as sorted element lists, identity's coset first."""
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    seen = set()
    cosets = []
    for g in G:
        if g in seen:
            continue
        cos = sorted(compose(g, h) for h in H.elements)
        seen.update(cos)
        cosets.append(cos)
    first = [c for c in cosets if identity(G.degree) in c]
    rest = [c for c in cosets if identity(G.degree) not in c]
    return first + rest


def subgroup_transversal_sets(G: PermGroup, H: PermGroup, cap: int = CAP_TRANSVERSALS):
    """All transversals of an arbitrary subgroup H <= G (identity included),
    as tuples of elements, one per left coset."""
    yield from _sections(left_cosets(G, H)[1:], G.degree, cap)


def coset_representation(G: PermGroup, H: PermGroup, name: str = "") -> PairGH:
    """Action of G on the left cosets of H, cosets numbered 1..n in
    first-discovery order under a breadth-first sweep over the generators
    (coset H is 1).  The kernel is quotiented away by construction, so the
    result is always a valid core-free PairGH."""
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    gens = list(G.generators) or sorted(G.elements)
    hset = H.elements
    e = identity(G.degree)

    def coset_key(g):
        return min(compose(g, h).images for h in hset)

    numbering = {coset_key(e): 1}
    reps = [e]
    frontier = [e]
    while frontier:
        nxt = []
        for r in frontier:
            for g in gens:
                gr = compose(g, r)
                key = coset_key(gr)
                if key not in numbering:
                    numbering[key] = len(reps) + 1
                    reps.append(gr)
                    nxt.append(gr)
        frontier = nxt
    n = len(reps)
    if n * H.order != G.order:
        raise ValueError("generators do not generate G")  # cosets unreachable

    def chi(g):
        return Permutation(numbering[coset_key(compose(g, r))] for r in reps)

    image_gens = []
    for g in gens:
        cg = chi(g)
        if not cg.is_identity() and cg not in image_gens:
            image_gens.append(cg)
    image = PermGroup(sorted({chi(g) for g in G.elements}), tuple(image_gens), n)
    stab = image.stabilizer_of_1()
    return PairGH(image, stab, name=name)


def make_sym(n: int, cap: int = CAP_GROUP_ORDER) -> PairGH:
    """Symmetric group of degree n over the stabilizer of 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    G = PermGroup.symmetric(n, cap=cap)
    return PairGH(G, G.stabilizer_of_1(), name=f"sym({n})")


def make_alt(n: int, cap: int = CAP_GROUP_ORDER) -> PairGH:
    """Alternating group of degree n over the stabilizer of 1 (n >= 4)."""
    if n < 4:
        raise ValueError("need n >= 4 for a core-free alternating pair")
    G = PermGroup.alternating(n, cap=cap)
    return PairGH(G, G.stabilizer_of_1(), name=f"alt({n})")


def _cycle_and_multiplier(n: int, r: int, order: int, name: str) -> PairGH:
    """Group generated by the n-cycle (1, ..., n) and the multiplier
    i - 1 -> r * (i - 1) mod n, over the stabilizer of 1."""
    a = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
    b = Permutation((r * (i - 1)) % n + 1 for i in range(1, n + 1))
    G = PermGroup.from_generators([a, b], degree=n)
    assert G.order == order
    return PairGH(G, G.stabilizer_of_1(), name=name)


def make_dihedral(n: int) -> PairGH:
    """Dihedral group of order 2n acting on the n cosets of a reflection."""
    if n < 3:
        raise ValueError("need n >= 3 for a core-free dihedral pair")
    return _cycle_and_multiplier(n, n - 1, 2 * n, f"dihedral({n})")


def make_pq(p: int, q: int) -> PairGH:
    """Nonabelian group of order p*q (p < q prime, p | q-1) on the q cosets
    of a subgroup of order p."""
    if not (_is_prime(p) and _is_prime(q)):
        raise ValueError("p and q must be prime")
    if p >= q:
        raise ValueError("need p < q")
    if (q - 1) % p != 0:
        raise ValueError(f"no nonabelian group of order {p}*{q}: {p} does not divide {q - 1}")
    r = _primitive_root_of_unity(p, q)
    return _cycle_and_multiplier(q, r, p * q, f"pq({p},{q})")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _primitive_root_of_unity(p: int, q: int) -> int:
    """Smallest r with multiplicative order exactly p mod q."""
    for r in range(2, q):
        if pow(r, p, q) == 1:
            ok = all(pow(r, d, q) != 1 for d in range(1, p) if p % d == 0)
            if ok and pow(r, 1, q) != 1:
                return r
    raise ValueError(f"no element of order {p} mod {q}")


def stabilizer_candidates(n: int, cap: int = CAP_STAB_ENUM):
    """All of the stabilizer of 1 inside Sym(n), i.e. permutations of 2..n,
    lazily.  The search space has (n-1)! elements; `cap` guards it."""
    total = factorial(n - 1)
    if total > cap:
        raise CapExceeded("stabilizer_enum", cap, total)
    for tail in _itpermutations(range(2, n + 1)):
        yield _trusted((1,) + tail)


def normalizer_in_stab(pair: PairGH, cap: int = CAP_STAB_ENUM) -> PermGroup:
    """{alpha in Sym(n) : alpha(1) = 1, alpha G alpha^-1 = G}, by brute sweep.

    The sweep runs once per pair and its result is kept on the pair; the
    cap is checked on every call."""
    total = factorial(pair.degree - 1)
    if total > cap:
        raise CapExceeded("stabilizer_enum", cap, total)
    if pair._normalizer is None:
        found = _normalizers(pair.group, stabilizer_candidates(pair.degree, cap=cap))
        object.__setattr__(pair, "_normalizer", PermGroup(found, degree=pair.degree))
    return pair._normalizer


def _normalizers(group: PermGroup, alphas) -> list:
    """The alphas with alpha G alpha^-1 = G, in the order given.  Takes the
    whole candidate stream (the sweep runs (n-1)! candidates) and conjugates
    G's generators by NORMALIZER_CHUNK candidates at a time, one gather per
    generator."""
    view = group._arrays()
    gens = _perm_rows(group.generators or group, group.degree)
    alphas = iter(alphas)
    found = []
    while chunk := list(_islice(alphas, NORMALIZER_CHUNK)):
        A = _perm_rows(chunk, group.degree)
        A_inv = _invert_rows(A)
        keep = np.ones(len(chunk), dtype=bool)
        for g in gens:
            # row k: alpha_k g alpha_k^-1, i.e. alpha_k[g[alpha_k^-1[j]]]
            keep &= view.locate(np.take_along_axis(A, g[A_inv], axis=1)) >= 0
        found += _compress(chunk, keep)
    return found


def _is_subgroup(members) -> bool:
    """Is the finite set of permutations closed under composition?"""
    members = set(members)
    return all(compose(p, q) in members for p in members for q in members)


def centralizer_in_stab(pair: PairGH, cap: int = CAP_STAB_ENUM) -> PermGroup:
    """{alpha in Sym(n) : alpha(1) = 1, alpha g = g alpha for all g in G}."""
    gens = pair.group.generators or tuple(pair.group.elements)
    found = [
        a
        for a in stabilizer_candidates(pair.degree, cap=cap)
        if all(conjugate(g, a) == g for g in gens)
    ]
    return PermGroup(found, degree=pair.degree)


def aut_fixing_H_order(pair: PairGH, cap: int = CAP_STAB_ENUM) -> int:
    """Number of automorphisms of G that map H onto itself, computed as
    |normalizer| / |centralizer| on the stabilizer side."""
    nz = normalizer_in_stab(pair, cap=cap).order
    cz = centralizer_in_stab(pair, cap=cap).order
    q, r = divmod(nz, cz)
    assert r == 0
    return q


def generates(pair: PairGH, transversal) -> bool:
    """Does the transversal generate G?  A member outside G never does."""
    members = list(transversal)
    for p in members:
        if p.degree != pair.degree:
            raise ValueError(f"generator degree {p.degree} != {pair.degree}")
    return _generates(pair.group, _perm_rows(members, pair.degree))


def _generates(group: PermGroup, rows: np.ndarray) -> bool:
    """Do the permutations with these 0-based image rows generate `group`?"""
    view = group._arrays()
    indices = view.locate(rows)
    return bool((indices >= 0).all()) and view.generated_by(indices.tolist())


def pair_isomorphic(p1: PairGH, p2: PairGH, cap: int = CAP_STAB_ENUM) -> bool:
    """Brute-force simultaneous-conjugation isomorphism of two normalized
    pairs: some sigma in Sym(n) fixing 1 with sigma G1 sigma^-1 = G2 (H maps
    along automatically, both being stabilizers of 1)."""
    if p1.degree != p2.degree or p1.group.order != p2.group.order:
        return False
    gens = p1.group.generators or tuple(p1.group.elements)
    for sigma in stabilizer_candidates(p1.degree, cap=cap):
        if all(conjugate(g, sigma) in p2.group.elements for g in gens):
            return True
    return False


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


def parse_fixture(text: str):
    """Parse the group fixture format:

        # comment
        name <label>          (optional)
        degree <n>
        gen <cycle notation>  (one or more)

    Returns (name, degree, generators).
    """
    name = ""
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "name":
            name = rest
        elif key == "degree":
            try:
                degree = int(rest)
            except ValueError:
                raise ValueError(f"line {lineno}: bad degree {rest!r}") from None
        elif key == "gen":
            if degree is None:
                raise ValueError(f"line {lineno}: degree must come before generators")
            gens.append(parse_cycles(degree, rest))
        else:
            raise ValueError(f"line {lineno}: unknown directive {key!r}")
    if degree is None:
        raise ValueError("fixture has no degree line")
    if not gens:
        raise ValueError("fixture has no generators")
    return name, degree, gens


def format_fixture(name: str, degree: int, generators) -> str:
    lines = []
    if name:
        lines.append(f"name {name}")
    lines.append(f"degree {degree}")
    for g in generators:
        lines.append(f"gen {format_cycles(g)}")
    return "\n".join(lines) + "\n"


def pair_from_fixture(text: str, cap: int = CAP_GROUP_ORDER):
    """Build a normalized pair from fixture text.

    If the generated group is already transitive with a core-free stabilizer
    it is used as-is (symbol numbering preserved); otherwise the coset
    representation over the stabilizer of 1 is applied.  Returns
    (pair, normalized_flag) where the flag says a renumbering happened.
    """
    name, degree, gens = parse_fixture(text)
    G = PermGroup.from_generators(gens, degree=degree, cap=cap)
    label = name or f"fixture(degree={degree})"
    try:
        pair = PairGH(G, G.stabilizer_of_1(), name=label)
        return pair, False
    except ValueError:
        pass
    H = G.stabilizer_of_1()
    pair = coset_representation(G, H, name=label)
    return pair, True
