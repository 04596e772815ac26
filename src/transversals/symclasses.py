"""Integer partitions as cycle types of Sym(m), and their class arithmetic.

A partition is a non-increasing tuple of positive ints.  All counts are exact
Python ints; division only ever happens where the quotient is provably
integral, and is asserted.
"""

from __future__ import annotations

from math import factorial

from .perm import Permutation, _trusted


def partitions(m: int):
    """All partitions of m in reverse-lexicographic order, [m] first, [1]*m last."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return [()]
    out = []
    part = [m]
    while True:
        out.append(tuple(part))
        # find rightmost part > 1, spread the tail over parts of that size
        i = len(part) - 1
        while i >= 0 and part[i] == 1:
            i -= 1
        if i < 0:
            break
        rest = len(part) - i - 1 + part[i]
        new = part[i] - 1
        part[i:] = []
        while rest:
            take = min(new, rest)
            part.append(take)
            rest -= take
    return out


def multiplicities(parts) -> dict:
    mult = {}
    for l in parts:
        mult[l] = mult.get(l, 0) + 1
    return mult


def centralizer_order(counts: dict) -> int:
    """Order of the centralizer, in the symmetric group on its moved
    symbols, of a permutation with cycle type `counts` (length ->
    multiplicity): prod over l > 1 of mult! * l^mult.  Fixed points (key 1)
    are ignored."""
    out = 1
    for l, mult in counts.items():
        if l > 1:
            out *= factorial(mult) * l ** mult
    return out


def class_size(parts, m: int) -> int:
    """Number of elements of Sym(m) with cycle type `parts` (1s included):
    m! over the centralizer order, f! * centralizer_order for f fixed points."""
    if sum(parts) != m:
        raise ValueError(f"partition {parts} does not sum to {m}")
    counts = multiplicities(parts)
    q, r = divmod(factorial(m), factorial(counts.get(1, 0)) * centralizer_order(counts))
    assert r == 0
    return q


def class_representative(parts, m: int) -> Permutation:
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
    return _trusted(tuple(images))
