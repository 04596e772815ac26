"""Permutations of {1, ..., n} with an explicit, fixed degree.

Symbols are 1-based everywhere in the public interface.  Composition order is
the single most dangerous convention in this package and is fixed once, here:

    compose(p, q) applies q first, then p

so compose(p, q)(i) == p(q(i)).  This is the order under which the coset
action chi(g)(xH) = gxH is a homomorphism for left actions; test_perm.py
pins it against a worked degree-3 dihedral instance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class Permutation:
    """Immutable permutation; `images[i-1]` is the image of symbol i."""

    __slots__ = ("images",)

    def __init__(self, images):
        img = tuple(images)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise ValueError(f"not a permutation of 1..{len(img)}: {img!r}")
        object.__setattr__(self, "images", img)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build a degree-n permutation from disjoint cycles of 1-based symbols."""
        img = list(range(1, n + 1))
        seen = set()
        for cyc in cycles:
            cyc = tuple(cyc)
            for s in cyc:
                if not 1 <= s <= n:
                    raise ValueError(f"symbol {s} outside 1..{n}")
                if s in seen:
                    raise ValueError(f"symbol {s} repeated across cycles")
                seen.add(s)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a - 1] = b
        return cls(img)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __pow__(self, m: int) -> "Permutation":
        if m < 0:
            return self.inverse() ** (-m)
        acc = Permutation.identity(self.degree)
        for _ in range(m):
            acc = compose(self, acc)
        return acc

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(inv)

    def parity(self) -> int:
        """+1 for even, -1 for odd."""
        return parity(self)

    def orbits(self):
        return orbits(self)

    def cycle_type(self, domain=None) -> "CycleType":
        return cycle_type(self, domain)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({format_cycles(self)}, degree={self.degree})"

    def __str__(self):
        return format_cycles(self)


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths > 1 as (length, multiplicity), plus fixed-point count.

    `pairs` is sorted by descending length, so equal types compare equal.
    """

    pairs: tuple
    fixed: int

    @property
    def cycle_count(self) -> int:
        """Number of cycles of length > 1."""
        return sum(m for _, m in self.pairs)

    @property
    def moved(self) -> int:
        return sum(l * m for l, m in self.pairs)

    def counts(self) -> dict:
        """Cycle counts by length, fixed points under key 1."""
        d = {l: m for l, m in self.pairs}
        if self.fixed:
            d[1] = self.fixed
        return d


def identity(n: int) -> Permutation:
    return Permutation.identity(n)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: compose(p, q).images[i] == p.images[q.images[i]] (1-based)."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    pi = p.images
    return Permutation(pi[v - 1] for v in q.images)


def conjugate(p: Permutation, a: Permutation) -> Permutation:
    """a p a^-1."""
    if p.degree != a.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {a.degree}")
    ai = a.images
    out = [0] * p.degree
    for i, v in enumerate(p.images):
        out[ai[i] - 1] = ai[v - 1]
    return Permutation(out)


def parity(p: Permutation) -> int:
    """(-1)^(degree - number of orbits)."""
    return -1 if (p.degree - len(orbits(p))) % 2 else 1


def orbits(p: Permutation):
    """Orbit partition of {1..n} under p, singletons included, each orbit
    listed from its smallest symbol, orbits sorted by smallest symbol."""
    seen = [False] * p.degree
    out = []
    for s in range(1, p.degree + 1):
        if seen[s - 1]:
            continue
        orb = [s]
        seen[s - 1] = True
        t = p(s)
        while t != s:
            orb.append(t)
            seen[t - 1] = True
            t = p(t)
        out.append(tuple(orb))
    return out


def cycle_type(p: Permutation, domain=None) -> CycleType:
    """Cycle type of p restricted to `domain` (default: the whole domain).

    `domain` must be p-invariant; anything else is a hard error, never a
    silent restriction.
    """
    if domain is None:
        dom = set(range(1, p.degree + 1))
    else:
        dom = set(domain)
        for s in dom:
            if not 1 <= s <= p.degree:
                raise ValueError(f"symbol {s} outside 1..{p.degree}")
            if p(s) not in dom:
                raise ValueError(f"domain not invariant: {s} -> {p(s)} leaves it")
    lengths = {}
    fixed = 0
    for orb in orbits(p):
        if orb[0] not in dom:
            continue
        if len(orb) == 1:
            fixed += 1
        else:
            lengths[len(orb)] = lengths.get(len(orb), 0) + 1
    pairs = tuple(sorted(lengths.items(), key=lambda lm: -lm[0]))
    return CycleType(pairs, fixed)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(n: int, text: str) -> Permutation:
    """Parse cycle notation like "(2,3)(4,5)" into a degree-n permutation.

    "()" is the identity; whitespace is ignored everywhere.
    """
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty permutation string")
    pieces = _CYCLE_RE.findall(compact)
    if "".join(f"({p})" for p in pieces) != compact:
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles = []
    for body in pieces:
        if not body:
            continue
        try:
            syms = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise ValueError(f"malformed cycle: ({body})") from None
        if len(syms) < 2:
            raise ValueError(f"cycle ({body}) needs at least two symbols")
        cycles.append(syms)
    return Permutation.from_cycles(n, cycles)


def format_cycles(p: Permutation) -> str:
    """Nontrivial cycles, each from its smallest symbol; "()" for the identity."""
    parts = [orb for orb in orbits(p) if len(orb) > 1]
    if not parts:
        return "()"
    return "".join("(" + ",".join(str(s) for s in orb) + ")" for orb in parts)
