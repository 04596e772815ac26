"""Permutations of {1, ..., n} with an explicit, fixed degree.

Symbols are 1-based in a Permutation and in cycle text; inside the engines a
permutation is a 0-based image row (see groups).  Composition order is the
single most dangerous convention in this package and is fixed once, here,
on rows:

    x after y is the row x[y]

so (x after y)[i] == x[y[i]].  This is the order under which the coset
action chi(g)(xH) = gxH is a homomorphism for left actions; test_perm.py
pins it, spelled on Permutations as compose(p, q) from tests/oracles.py,
against a worked degree-3 dihedral instance.
"""

from __future__ import annotations

import re


class Permutation:
    """Immutable permutation; `images[i-1]` is the image of symbol i.

    Every Permutation is built by the constructor, which validates the
    images; from_cycles, parse_cycles and identity go through it.  The
    identity of degree n is `Permutation.identity(n)`; the orbits of p are
    `p.orbits()`.
    """

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

    def orbits(self):
        """Orbit partition of {1..n} under self, as _orbits lists it."""
        return _orbits(self.images, 1)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({format_cycles(self)}, degree={self.degree})"

    def __str__(self):
        return format_cycles(self)


# Symbols are ASCII decimal; int() alone also takes "1_0", "+2", "\uff12"
_CYCLE_RE = re.compile(r"\(([0-9,]*)\)")


def parse_cycles(n: int, text: str) -> Permutation:
    """Parse cycle notation like "(2,3)(4,5)" into a degree-n permutation.

    "()" is the identity; whitespace is ignored everywhere; symbols are
    ASCII decimal.
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


def _orbits(images, base: int) -> list:
    """Orbits of the map s -> images[s - base] on base, base + 1, ...
    (1-based images with base 1, a 0-based row with base 0; a list or
    tuple), singletons included, each a tuple from its smallest symbol,
    sorted by smallest symbol."""
    seen = [False] * len(images)
    out = []
    for s, t in enumerate(images, base):
        if seen[s - base]:
            continue
        orb = [s]
        while t != s:
            orb.append(t)
            seen[t - base] = True
            t = images[t - base]
        out.append(tuple(orb))
    return out


def format_cycles(p) -> str:
    """Nontrivial cycles of a Permutation, or of a list or tuple of 1-based
    images, each from its smallest symbol; "()" for the identity."""
    images = p.images if isinstance(p, Permutation) else p
    parts = [orb for orb in _orbits(images, 1) if len(orb) > 1]
    if not parts:
        return "()"
    return "".join("(" + ",".join(map(str, orb)) + ")" for orb in parts)
