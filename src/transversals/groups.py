"""Finite permutation groups, subgroup pairs, and transversal enumeration.

Input is validated where it enters (Permutation, from_cycles, parse_cycles,
fixture parsing, PairGH's transitivity check); what the kernel builds from
valid input is valid by construction and is not checked again.

A group is stored once, as the sorted (order, degree) array of its elements'
0-based image rows, its generators kept alongside as rows too; every
downstream count is a filter or a gather over these rows.  A row's key is
its bytes, which sort like the row, so a binary search maps rows to element
indices.  The rows sort by the image of 1, so the stabilizer of 1 and its
cosets are slices.  Permutation generators enter only through
PermGroup.from_generators; every family is built from rows.  Permutation
objects are built from rows only where a caller outside the package reads
elements (iterating a group, enumerate_transversals).

A PairGH is the normalized object the counting engines work on: G
transitive on {1..n}, H the full stabilizer of symbol 1 (G's first block
by image of 1, split once per pair, the other blocks being the cosets), and
H core-free, i.e. the coset representation has already been applied.
coset_representation() turns an arbitrary (G, H <= G) into that normal form.
A transversal is a plain tuple of permutations, one per coset in order.
"""

from __future__ import annotations

import re
from itertools import chain as _chain
from itertools import islice as _islice
from itertools import permutations as _itpermutations
from math import factorial, prod

import numpy as np

from .errors import CAP_GROUP_ORDER, CAP_STAB_ENUM, CAP_TRANSVERSALS, PRINT_LIMIT, CapExceeded
from .perm import Permutation, _trusted, compose, parse_cycles

# Candidates conjugated per gather in the normalizer sweep: large enough to
# amortize numpy's per-call cost, small enough that an (n-1)! stream is
# never held whole.
NORMALIZER_CHUNK = 4096


def _row_dtype(degree: int) -> np.dtype:
    """Image dtype: one byte per image below degree 256, words beyond."""
    return np.dtype(np.uint8) if degree < 256 else np.dtype(np.uint32)


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
    """One key per row: the row's bytes, big-endian so that they sort like
    the row (a view of the rows themselves when the images are bytes)."""
    rows = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _perms(rows: np.ndarray) -> list:
    """The permutations with these 0-based image rows, unchecked (_trusted):
    only the kernel's own valid rows come here."""
    return [_trusted(tuple(row)) for row in (rows + 1).tolist()]


def _all_rows(n: int) -> np.ndarray:
    """Every permutation of degree n as 0-based rows, in sorted order, which
    is the order itertools.permutations yields them in."""
    return np.fromiter(_chain.from_iterable(_itpermutations(range(n))),
                       dtype=_row_dtype(n), count=factorial(n) * n).reshape(-1, n)


def _even(rows: np.ndarray) -> np.ndarray:
    """Mask of the even permutations among the rows: the parity of each
    row's inversion count, accumulated one position at a time."""
    odd = np.zeros(len(rows), dtype=bool)
    for i in range(rows.shape[1] - 1):
        odd ^= np.logical_xor.reduce(rows[:, i, None] > rows[:, i + 1:], axis=1)
    return ~odd


def _cap_factorial_order(n: int, divisor: int, cap: int):
    """Raise CapExceeded('group_order') when n!/divisor is past `cap`.  The
    product is multiplied up only until it passes the cap, so a huge n
    costs no more than a small one; an order longer than Python prints by
    default is stated as its formula."""
    bound = max(cap, PRINT_LIMIT) * divisor
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > bound:
            break
    # a partial product k! (k >= 2) is even, so halving keeps it past bound
    order //= divisor
    if order > cap:
        formula = f"{n}!" if divisor == 1 else f"{n}!/{divisor}"
        raise CapExceeded("group_order", cap, order if order < PRINT_LIMIT else formula)


def _cycle_row(n: int, symbols) -> np.ndarray:
    """0-based degree-n row of the cycle through these 0-based symbols."""
    row = np.arange(n, dtype=_row_dtype(n))
    row[list(symbols)] = np.roll(symbols, -1)
    return row


def closure(gen_rows: np.ndarray, cap: int = CAP_GROUP_ORDER) -> np.ndarray:
    """Subgroup generated by the (k, degree) array of 0-based image rows
    `gen_rows`, as the sorted (order, degree) array of its elements' rows.

    Breadth-first search from the identity: each level is one gather per
    generator over the frontier, and a row is new when its key has not been
    seen.  Raises CapExceeded the moment the element count passes `cap`.
    """
    degree = gen_rows.shape[1]
    gen_rows = gen_rows.astype(_row_dtype(degree), copy=False)
    frontier = np.arange(degree, dtype=gen_rows.dtype)[None, :]
    seen = set(_row_keys(frontier).tolist())
    levels = [frontier]
    while len(gen_rows) and len(frontier):
        # compose(g, x) is g[x], for every frontier row x at once
        images = np.concatenate([g[frontier] for g in gen_rows])
        fresh = []
        for k, key in enumerate(_row_keys(images).tolist()):
            if key not in seen:
                if len(seen) >= cap:
                    raise CapExceeded("group_order", cap, len(seen) + 1)
                seen.add(key)
                fresh.append(k)
        frontier = images[fresh]
        levels.append(frontier)
    rows = np.concatenate(levels)
    return rows[np.argsort(_row_keys(rows))]


class PermGroup:
    """Finite permutation group of a fixed degree, stored as the sorted,
    read-only 0-based image rows of its elements: row i is the i-th element
    in sorted order, so the identity is row 0.  Its size is `order`; the
    trivial group of degree n is `from_generators([], degree=n)`."""

    __slots__ = ("degree", "generators", "_rows", "_keys", "_left")

    def __init__(self, rows: np.ndarray, generators: np.ndarray | None = None):
        """The group whose elements are these rows, already sorted, and
        whose `generators` are these (k, degree) rows, by default all of
        them; neither closure nor generation is checked."""
        rows.flags.writeable = False
        object.__setattr__(self, "degree", rows.shape[1])
        object.__setattr__(self, "generators", rows if generators is None else generators)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_keys", _row_keys(rows))
        object.__setattr__(self, "_left", {})

    def __setattr__(self, *a):
        raise AttributeError("PermGroup is immutable")

    @classmethod
    def from_generators(cls, generators, degree=None, cap=CAP_GROUP_ORDER):
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
        rows = _perm_rows(gens, degree)
        return cls(closure(rows, cap=cap), rows)

    @classmethod
    def symmetric(cls, n: int, cap=CAP_GROUP_ORDER):
        _cap_factorial_order(n, 1, cap)
        gens = np.stack([_cycle_row(n, range(min(n, 2))), _cycle_row(n, range(n))])
        return cls(_all_rows(n), gens)

    @classmethod
    def alternating(cls, n: int, cap=CAP_GROUP_ORDER):
        if n < 3:
            raise ValueError("alternating group needs degree >= 3")
        _cap_factorial_order(n, 2, cap)
        rows = _all_rows(n)
        # (1,2,3) and the cycle of odd length (1,...,n) or (2,...,n)
        gens = np.stack([_cycle_row(n, range(3)), _cycle_row(n, range(1 - n % 2, n))])
        return cls(rows[_even(rows)], gens)

    @property
    def order(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(_perms(self._rows))

    def __contains__(self, p) -> bool:
        return (isinstance(p, Permutation) and p.degree == self.degree
                and self._locate(_perm_rows([p], self.degree))[0] >= 0)

    def __eq__(self, other):
        return (isinstance(other, PermGroup) and self.degree == other.degree
                and np.array_equal(self._keys, other._keys))

    def __repr__(self):
        return f"PermGroup(order={self.order}, degree={self.degree})"

    def _locate(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each row, -1 where the row is not an element."""
        keys = _row_keys(rows)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(self._keys[pos] == keys, pos, -1)

    def _blocks(self) -> list:
        """The rows split by image of 1: block i holds the elements mapping
        1 to i + 1, a slice because the rows sort by that image."""
        bounds = np.searchsorted(self._rows[:, 0], np.arange(self.degree + 1))
        return [self._rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return (self.degree == other.degree
                and bool((other._locate(self._rows) >= 0).all()))

    def is_normal_in(self, other: "PermGroup") -> bool:
        return self.is_subgroup_of(other) and bool(
            _normalizing(self, other.generators).all())

    def stabilizer_of_1(self) -> "PermGroup":
        return PermGroup(self._blocks()[0])

    def conjugacy_classes(self):
        """One (row, size) pair per conjugacy class, row being the 0-based
        image row of the class's least element; classes ordered by moved
        symbols, then row (_class_order_key), so the identity class comes
        first.  Each class is one gather: x conjugated by every element."""
        rows, inverses = self._rows, _invert_rows(self._rows)
        unseen = np.ones(len(rows), dtype=bool)
        classes = []
        while unseen.any():
            # every earlier row is in an earlier class: x is its class's least
            x = rows[unseen.argmax()]
            # row k: g_k x g_k^-1, i.e. g_k[x[g_k^-1[j]]]
            index = self._locate(np.take_along_axis(rows, x[inverses], axis=1))
            assert (index >= 0).all()
            members = np.zeros(len(rows), dtype=bool)
            members[index] = True
            unseen &= ~members
            classes.append((x, int(members.sum())))
        return sorted(classes, key=lambda c: _class_order_key(c[0].tolist()))

    def _left_row(self, i: int) -> list:
        """Index of g x for every element x, g the i-th element (built on
        first use, one gather)."""
        row = self._left.get(i)
        if row is None:
            row = self._left[i] = self._locate(self._rows[i][self._rows]).tolist()
        return row

    def _generated_by(self, indices) -> bool:
        """Do the elements with these indices generate the whole group?
        Breadth-first search from the identity over element indices."""
        order = len(self._keys)
        gens = [self._left_row(i) for i in set(indices)]
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


def _class_order_key(row):
    """Presentation order of conjugacy classes by representative, given as
    a list or tuple of 0-based images: fewest moved symbols first, then by
    images, so the identity class leads."""
    return (sum(1 for i, v in enumerate(row) if v != i), tuple(row))


class PairGH:
    """Normalized pair: G transitive on {1..n}, H = G's own stabilizer of 1.

    G is split by image of 1 once: H and the cosets are its blocks.  H is
    core-free without a check: its core, the intersection of its conjugates,
    is the intersection of the stabilizers of all n symbols, and only the
    identity permutation fixes every symbol."""

    __slots__ = ("group", "stabilizer", "name", "_normalizer", "_cosets")

    def __init__(self, group: PermGroup, name: str = ""):
        blocks = tuple(group._blocks())
        if not all(len(block) for block in blocks):
            raise ValueError("G must be transitive on 1..n")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "stabilizer", PermGroup(blocks[0]))
        object.__setattr__(self, "name",
                           name or f"pair(degree={group.degree}, order={group.order})")
        object.__setattr__(self, "_normalizer", None)
        object.__setattr__(self, "_cosets", blocks)

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
        """cosets()[i] = the sorted, read-only rows of the elements mapping 1
        to i+1, a slice of G's rows."""
        return self._cosets

    def __repr__(self):
        return f"PairGH({self.name})"


def _section_rows(blocks, index, degree: int) -> np.ndarray:
    """0-based rows of the sections with these indices, shaped
    (len(index), len(blocks) + 1, degree): the identity row, then one row of
    each block of sorted rows.  Sections are numbered in mixed radix by the
    position chosen in each block, first block slowest (Cartesian-product
    order)."""
    index = np.asarray(index, dtype=np.int64)
    rows = np.empty((len(index), len(blocks) + 1, degree), dtype=_row_dtype(degree))
    rows[:, 0] = np.arange(degree)
    stride = prod(len(block) for block in blocks)
    for s, block in enumerate(blocks):
        stride //= len(block)
        rows[:, s + 1] = block[index // stride % len(block)]
    return rows


# Transversals built per _section_rows call while enumerating
SECTION_CHUNK = 4096


def enumerate_transversals(pair: PairGH, cap: int = CAP_TRANSVERSALS):
    """Yield every transversal of the pair in a fixed order: the Cartesian
    product of the non-identity cosets' sorted rows, first coset slowest.
    Each is a tuple of permutations, the identity first and member i
    mapping 1 to i + 1.  The count is capped before any is built."""
    total = pair.transversal_count()
    if total > cap:
        raise CapExceeded("transversals", cap, total)
    for lo in range(0, total, SECTION_CHUNK):
        chunk = range(lo, min(lo + SECTION_CHUNK, total))
        for rows in _section_rows(pair.cosets()[1:], chunk, pair.degree):
            yield tuple(_perms(rows))


def _least_in_coset(G: PermGroup, H: PermGroup) -> np.ndarray:
    """For each element g of G, the index of the least element of gH."""
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    least = np.arange(G.order)
    for h in H._rows:  # compose(g, h) is g[h]
        least = np.minimum(least, G._locate(G._rows[:, h]))
    return least


def coset_representation(G: PermGroup, H: PermGroup, name: str = "") -> PairGH:
    """Action of G on the left cosets of H, cosets numbered 1..n in
    first-discovery order under a breadth-first sweep over the generators
    (coset H is 1).  The kernel is quotiented away by construction, so the
    result is always a valid core-free PairGH."""
    coset = _least_in_coset(G, H)
    gens = G.generators
    # number[c]: 0-based number of the coset whose least element is c; H's
    # least element is the identity, element 0
    number = np.full(G.order, -1)
    number[0] = 0
    reps = [0]
    for r in reps:  # breadth-first: reps grows as it is swept
        for gr in G._locate(gens[:, G._rows[r]]).tolist():
            if number[coset[gr]] < 0:
                number[coset[gr]] = len(reps)
                reps.append(gr)
    n = len(reps)
    if n * H.order != G.order:
        raise ValueError("generators do not generate G")  # cosets unreachable

    # chi(g) sends the coset of r to the coset of g r
    images = number[coset[G._locate(gens[:, G._rows[reps]].reshape(-1, G.degree))]]
    image_gens = np.unique(images.reshape(len(gens), n).astype(_row_dtype(n)), axis=0)
    # chi is a homomorphism, so the images of G's generators generate chi(G)
    return PairGH(PermGroup(closure(image_gens), image_gens), name=name)


def make_sym(n: int, cap: int = CAP_GROUP_ORDER) -> PairGH:
    """Symmetric group of degree n over the stabilizer of 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    G = PermGroup.symmetric(n, cap=cap)
    return PairGH(G, name=f"sym({n})")


def make_alt(n: int, cap: int = CAP_GROUP_ORDER) -> PairGH:
    """Alternating group of degree n over the stabilizer of 1 (n >= 4)."""
    if n < 4:
        raise ValueError("need n >= 4 for a core-free alternating pair")
    G = PermGroup.alternating(n, cap=cap)
    return PairGH(G, name=f"alt({n})")


def _cycle_and_multiplier(n: int, r: int, order: int, name: str) -> PairGH:
    """Group generated by the n-cycle (1, ..., n) and the multiplier
    i - 1 -> r * (i - 1) mod n, over the stabilizer of 1; its order is
    capped before anything is built."""
    if order > CAP_GROUP_ORDER:
        raise CapExceeded("group_order", CAP_GROUP_ORDER, order)
    gens = np.stack([_cycle_row(n, range(n)), np.arange(n) * r % n]).astype(_row_dtype(n))
    G = PermGroup(closure(gens), gens)
    assert G.order == order
    return PairGH(G, name=name)


def make_dihedral(n: int) -> PairGH:
    """Dihedral group of order 2n acting on the n cosets of a reflection."""
    if n < 3:
        raise ValueError("need n >= 3 for a core-free dihedral pair")
    return _cycle_and_multiplier(n, n - 1, 2 * n, f"dihedral({n})")


def make_pq(p: int, q: int) -> PairGH:
    """Nonabelian group of order p*q (p < q prime, p | q-1) on the q cosets
    of a subgroup of order p.  The order is capped before p and q are
    tested for primality by trial division."""
    if p * q > CAP_GROUP_ORDER:
        raise CapExceeded("group_order", CAP_GROUP_ORDER, p * q)
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
    # p is prime, so r != 1 with r^p = 1 has order exactly p
    for r in range(2, q):
        if pow(r, p, q) == 1:
            return r
    raise ValueError(f"no element of order {p} mod {q}")


def stabilizer_candidates(n: int, cap: int = CAP_STAB_ENUM):
    """All of the stabilizer of 1 inside Sym(n), i.e. permutations of 2..n,
    lazily and in sorted order, each as its 0-based image tuple.  The search
    space has (n-1)! elements; `cap` guards it."""
    total = factorial(n - 1)
    if total > cap:
        raise CapExceeded("stabilizer_enum", cap, total)
    for tail in _itpermutations(range(1, n)):
        yield (0,) + tail


def _stabilizer_batches(n: int, size: int, cap: int):
    """The stabilizer_candidates as rows, `size` rows per batch (the last
    may be shorter): the one row source for Sym(n)_1, streamed so that
    (n-1)! rows are never held at once."""
    candidates = stabilizer_candidates(n, cap=cap)
    total = factorial(n - 1)
    for start in range(0, total, size):
        count = min(size, total - start)
        yield np.fromiter(_chain.from_iterable(_islice(candidates, count)),
                          _row_dtype(n), count=count * n).reshape(count, n)


def normalizer_in_stab(pair: PairGH, cap: int = CAP_STAB_ENUM) -> PermGroup:
    """{alpha in Sym(n) : alpha(1) = 1, alpha G alpha^-1 = G}, by brute sweep.

    The sweep runs once per pair and its result is kept on the pair; the
    cap is checked on every call."""
    total = factorial(pair.degree - 1)
    if total > cap:
        raise CapExceeded("stabilizer_enum", cap, total)
    if pair._normalizer is None:
        # the candidates come sorted, so the rows kept from them are too
        found = [rows[_normalizing(pair.group, rows)]
                 for rows in _stabilizer_batches(pair.degree, NORMALIZER_CHUNK, cap)]
        object.__setattr__(pair, "_normalizer", PermGroup(np.concatenate(found)))
    return pair._normalizer


def _normalizing(group: PermGroup, alphas: np.ndarray, target=None) -> np.ndarray:
    """Mask of the rows alpha with alpha G alpha^-1 inside `target`, by
    default G itself (then alpha normalizes G): G's generators conjugated
    by every alpha at once, one gather per generator."""
    target = group if target is None else target
    alphas_inv = _invert_rows(alphas)
    keep = np.ones(len(alphas), dtype=bool)
    for g in group.generators:
        # row k: alpha_k g alpha_k^-1, i.e. alpha_k[g[alpha_k^-1[j]]]
        keep &= target._locate(np.take_along_axis(alphas, g[alphas_inv], axis=1)) >= 0
    return keep


def _is_subgroup(members) -> bool:
    """Is the finite set of permutations closed under composition?"""
    members = set(members)
    return all(compose(p, q) in members for p in members for q in members)


def generates(pair: PairGH, transversal) -> bool:
    """Does the transversal generate G?  A member outside G never does."""
    members = list(transversal)
    for p in members:
        if p.degree != pair.degree:
            raise ValueError(f"generator degree {p.degree} != {pair.degree}")
    return _generates(pair.group, _perm_rows(members, pair.degree))


def _generates(group: PermGroup, rows: np.ndarray) -> bool:
    """Do the permutations with these 0-based image rows generate `group`?"""
    indices = group._locate(rows)
    return bool((indices >= 0).all()) and group._generated_by(indices.tolist())


def parse_fixture(text: str):
    """Parse the group fixture format:

        # comment
        name <label>          (optional)
        degree <n>            (exactly once)
        gen <cycle notation>  (one or more)

    n and the symbols of the cycles are ASCII decimal.  Returns (name,
    degree, generators).
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
            if degree is not None:
                raise ValueError(f"line {lineno}: degree given twice")
            # ASCII decimal; a sign only so that a negative degree is refused below
            if re.fullmatch(r"-?[0-9]+", rest) is None:
                raise ValueError(f"line {lineno}: bad degree {rest!r}")
            degree = int(rest)
            if degree < 1:
                raise ValueError(f"line {lineno}: degree must be at least 1")
        elif key == "gen":
            if degree is None:
                raise ValueError(f"line {lineno}: degree must come before generators")
            try:
                gens.append(parse_cycles(degree, rest))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        else:
            raise ValueError(f"line {lineno}: unknown directive {key!r}")
    if degree is None:
        raise ValueError("fixture has no degree line")
    if not gens:
        raise ValueError("fixture has no generators")
    return name, degree, gens


def pair_from_fixture(text: str, cap: int = CAP_GROUP_ORDER):
    """Build a normalized pair from fixture text.

    If the generated group is transitive it is used as-is (symbol numbering
    preserved); otherwise the coset representation over the stabilizer of 1
    is applied.  Returns (pair, normalized_flag) where the flag says a
    renumbering happened.
    """
    name, degree, gens = parse_fixture(text)
    G = PermGroup.from_generators(gens, degree=degree, cap=cap)
    label = name or f"fixture(degree={degree})"
    try:
        return PairGH(G, name=label), False
    except ValueError:  # PairGH refuses only an intransitive G
        return coset_representation(G, G.stabilizer_of_1(), name=label), True
