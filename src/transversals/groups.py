"""Finite permutation groups, subgroup pairs, and transversal enumeration.

Input is validated where it enters (Permutation, from_cycles, parse_cycles,
fixture parsing, PairGH's transitivity check); what the kernel builds from
valid input is valid by construction and is not checked again.

A group is stored once, as the sorted (order, degree) array of its elements'
0-based image rows, its generators kept alongside as rows too; every
downstream count is a filter or a gather over these rows.  A row's key is
its bytes, which sort like the row, so a binary search maps rows to element
indices.  The rows sort by the image of 1, so the stabilizer of 1 and its
cosets are slices.  Sym(n), Alt(n) and Sym(n)_1 come from one builder,
_all_rows; stabilizer_candidates yields Sym(n)_1 in batches, which are what
perfbench's groups.normalizer_candidates and oracle.relabelings_applied
count.  PermGroup.from_generators closes a (k, degree) array of
generator rows into a group; fixture Permutations become rows once, in
pair_from_fixture, and no Permutation is built from rows: callers read
elements and transversals as rows.

A PairGH is the normalized object the counting engines work on: G
transitive on {1..n}, H the full stabilizer of symbol 1 (G's first block
by image of 1, split once per pair, the other blocks being the cosets), and
H core-free.  A fixture's pair is its generators' action on the orbit of 1,
which is G's action on the left cosets of G_1 (the coset g G_1 is the point
g(1)).  A transversal is an (n, n) array of 0-based rows, one per coset in
order.  `generates` tests one (k, n) array of rows or a (T, k, n) stack of
them in array passes; an image outside 0..n-1 puts its row outside G.
"""

from __future__ import annotations

import re
from itertools import chain as _chain
from math import factorial, isqrt, prod

import numpy as np

from .errors import CAP_GROUP_ORDER, CAP_STAB_ENUM, CAP_TRANSVERSALS, PRINT_LIMIT, CapExceeded
from .perm import parse_cycles

# Candidates per gather in the normalizer sweep, and element slots (items x
# |G| x rows) per pass of `generates`: large enough to amortize numpy's
# per-call cost, small enough to bound the working arrays of each pass.
NORMALIZER_CHUNK = 4096
GENERATES_BATCH = 1 << 20


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


def _all_rows(n: int):
    """Every permutation of degree n as sorted 0-based rows, and the mask of
    the odd ones.  Degree k comes from degree k - 1: the rows with first image
    f are f, then every shorter row with its images >= f raised by one (which
    keeps their order); putting f first adds exactly f inversions."""
    dtype = _row_dtype(n)
    rows, odd = np.zeros((1, 0), dtype), np.zeros(1, dtype=bool)
    for k in range(1, n + 1):
        out = np.empty((k, len(rows), k), dtype)
        for f in range(k):
            out[f, :, 0] = f
            np.add(rows, rows >= f, out=out[f, :, 1:])
        rows, odd = out.reshape(-1, k), np.concatenate([odd ^ bool(f % 2) for f in range(k)])
    return rows, odd


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
    trivial group of degree n is `from_generators(np.empty((0, n), np.uint8))`."""

    __slots__ = ("degree", "generators", "_rows", "_keys")

    def __init__(self, rows: np.ndarray, generators: np.ndarray | None = None):
        """The group whose elements are these rows, already sorted, and
        whose `generators` are these (k, degree) rows, by default all of
        them; neither closure nor generation is checked."""
        rows.flags.writeable = False
        object.__setattr__(self, "degree", rows.shape[1])
        object.__setattr__(self, "generators", rows if generators is None else generators)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_keys", _row_keys(rows))

    def __setattr__(self, *a):
        raise AttributeError("PermGroup is immutable")

    @classmethod
    def from_generators(cls, gen_rows: np.ndarray, cap=CAP_GROUP_ORDER):
        """The group generated by the (k, degree) array of 0-based image rows
        `gen_rows`, kept as its generators; its order is capped by `cap`."""
        gen_rows = gen_rows.astype(_row_dtype(gen_rows.shape[1]), copy=False)
        return cls(closure(gen_rows, cap=cap), gen_rows)

    @classmethod
    def symmetric(cls, n: int, cap=CAP_GROUP_ORDER):
        _cap_factorial_order(n, 1, cap)
        gens = np.stack([_cycle_row(n, range(min(n, 2))), _cycle_row(n, range(n))])
        return cls(_all_rows(n)[0], gens)

    @classmethod
    def alternating(cls, n: int, cap=CAP_GROUP_ORDER):
        if n < 3:
            raise ValueError("alternating group needs degree >= 3")
        _cap_factorial_order(n, 2, cap)
        rows, odd = _all_rows(n)
        # (1,2,3) and the cycle of odd length (1,...,n) or (2,...,n)
        gens = np.stack([_cycle_row(n, range(3)), _cycle_row(n, range(1 - n % 2, n))])
        return cls(rows[~odd], gens)

    @property
    def order(self) -> int:
        return len(self._rows)

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


# Transversals per _section_rows call while enumerating, and per generates call in the cyclic scan
SECTION_CHUNK = 4096


def enumerate_transversals(pair: PairGH, cap: int = CAP_TRANSVERSALS):
    """Yield every transversal of the pair in a fixed order: the Cartesian
    product of the non-identity cosets' sorted rows, first coset slowest.
    Each is a read-only (n, n) array of 0-based rows (_section_rows), the
    identity row first and row i mapping 0 to i.  The count is capped
    before any is built."""
    total = pair.transversal_count()
    if total > cap:
        raise CapExceeded("transversals", cap, total)
    for lo in range(0, total, SECTION_CHUNK):
        chunk = range(lo, min(lo + SECTION_CHUNK, total))
        sections = _section_rows(pair.cosets()[1:], chunk, pair.degree)
        sections.flags.writeable = False
        yield from sections


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
    G = PermGroup.from_generators(np.stack([_cycle_row(n, range(n)), np.arange(n) * r % n]))
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
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _primitive_root_of_unity(p: int, q: int) -> int:
    """Smallest r with multiplicative order exactly p mod q."""
    # p is prime, so r != 1 with r^p = 1 has order exactly p
    for r in range(2, q):
        if pow(r, p, q) == 1:
            return r
    raise ValueError(f"no element of order {p} mod {q}")


def stabilizer_candidates(n: int, cap: int = CAP_STAB_ENUM, *, size: int):
    """Sym(n)_1, the permutations of 2..n, as sorted 0-based rows, `size` per
    batch (the last may be shorter).  Its (n-1)! rows, capped by `cap`, are
    built at once: a zero column beside _all_rows(n - 1) raised by one."""
    total = factorial(n - 1)
    if total > cap:
        raise CapExceeded("stabilizer_enum", cap, total)
    rows = np.zeros((total, n), _row_dtype(n))
    rows[:, 1:] = _all_rows(n - 1)[0] + 1
    for lo in range(0, total, size):
        yield rows[lo:lo + size]


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
                 for rows in stabilizer_candidates(pair.degree, cap, size=NORMALIZER_CHUNK)]
        object.__setattr__(pair, "_normalizer", PermGroup(np.concatenate(found)))
    return pair._normalizer


def _normalizing(group: PermGroup, alphas: np.ndarray) -> np.ndarray:
    """Mask of the rows alpha that normalize G (alpha G alpha^-1 inside G):
    G's generators conjugated by every alpha at once, one gather per
    generator."""
    alphas_inv = _invert_rows(alphas)
    keep = np.ones(len(alphas), dtype=bool)
    for g in group.generators:
        # row k: alpha_k g alpha_k^-1, i.e. alpha_k[g[alpha_k^-1[j]]]
        keep &= group._locate(np.take_along_axis(alphas, g[alphas_inv], axis=1)) >= 0
    return keep


def generates(pair: PairGH, rows) -> bool | np.ndarray:
    """Do these 0-based image rows, a (k, n) array such as a transversal,
    generate G?  A (T, k, n) stack gets a bool array, one per item.  An item
    with a row outside G, an image outside 0..n-1 included, never does.

    Each pass of items locates every row at once and builds x -> g x for
    the elements g it uses; breadth-first levels then grow every live
    item's reached set by each of its rows in turn.  An item settles True
    once it reaches more than half of G, False when a level adds nothing."""
    rows = np.asarray(rows)
    if rows.ndim not in (2, 3) or rows.shape[-1] != pair.degree:
        raise ValueError(f"rows of shape {rows.shape} are not of degree {pair.degree}")
    stack = rows[None] if rows.ndim == 2 else rows
    group, order, n = pair.group, pair.group.order, pair.degree
    answer = np.zeros(len(stack), dtype=bool)
    step = max(1, GENERATES_BATCH // (order * max(1, stack.shape[1])))
    for lo in range(0, len(stack), step):
        chunk = stack[lo:lo + step]
        inside = ((chunk >= 0) & (chunk < n)).all(axis=2)
        rows_in = np.where(inside[..., None], chunk, 0).astype(_row_dtype(n))
        index = np.where(inside, group._locate(rows_in.reshape(-1, n)).reshape(inside.shape), -1)
        live = np.flatnonzero((index >= 0).all(axis=1))
        index = index[live][:, (index[live] != 0).any(axis=0)]  # the identity adds nothing
        used = np.flatnonzero(np.bincount(index.ravel(), minlength=order))  # ascending
        slot = np.searchsorted(used, index)
        # left[u, x]: the index of g x, g the used[u]-th element
        left = group._locate(group._rows[used][:, group._rows].reshape(-1, n)).reshape(-1, order)
        reached = np.eye(1, order, dtype=bool).repeat(len(live), axis=0)  # the identity
        count = np.ones(len(live), dtype=np.int64)
        while len(live):
            offset, flat = np.arange(0, len(live) * order, order)[:, None], reached.ravel()
            for s in range(slot.shape[1]):
                # x joins once g x is in: closing under g^-1 gives the same subgroup
                reached |= flat[left[slot[:, s]] + offset]
            before, count = count, reached.sum(axis=1)
            # Lagrange: a subgroup with more than half the elements is all of them
            done = 2 * count > order
            answer[lo + live[done]] = True
            keep = ~done & (count > before)
            live, reached, count, slot = live[keep], reached[keep], count[keep], slot[keep]
    return answer if rows.ndim == 3 else bool(answer[0])


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


def pair_from_fixture(text: str, cap: int = CAP_GROUP_ORDER) -> PairGH:
    """Build a normalized pair from fixture text: G acting on the orbit of 1,
    which is its action on the left cosets of G_1.  The orbit is numbered
    breadth-first from 1, each point's images in generator order; a
    transitive G keeps its own numbering.  Only that action is closed, so
    `cap` bounds the group that is built."""
    name, degree, gens = parse_fixture(text)
    rows = _perm_rows(gens, degree)
    orbit, seen = [0], {0}
    for x in orbit:  # breadth-first: orbit grows as it is swept
        for y in rows[:, x].tolist():
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    if len(orbit) < degree:
        renumber = np.empty(degree, dtype=_row_dtype(len(orbit)))
        renumber[orbit] = np.arange(len(orbit))
        # row g sends orbit point j to renumber[g(orbit[j])]
        rows = np.unique(renumber[rows[:, orbit]], axis=0)
    return PairGH(PermGroup.from_generators(rows, cap=cap),
                  name=name or f"fixture(degree={degree})")
