"""Integer partitions as cycle types of Sym(m), and their class arithmetic.

A partition is a non-increasing tuple of positive ints.  All counts are exact
Python ints; division only ever happens where the quotient is provably
integral, and is asserted.
"""

from __future__ import annotations

from math import factorial


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


def partitions_exceed(m: int, cap: int) -> bool:
    """Whether p(m), the number of partitions of m, exceeds cap.  p(0),
    p(1), ... are counted upward by Euler's pentagonal recurrence until one
    passes cap (p never decreases), so the work is bounded for any m."""
    p = [1]
    while len(p) <= m and p[-1] <= cap:
        k, total, j = len(p), 0, 1
        while (g := j * (3 * j - 1) // 2) <= k:
            sign = 1 if j % 2 else -1
            total += sign * (p[k - g] + (p[k - g - j] if g + j <= k else 0))
            j += 1
        p.append(total)
    return p[-1] > cap


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


def class_size(counts: dict, m: int) -> int:
    """Number of elements of Sym(m) with cycle type `counts` (length ->
    multiplicity, fixed points under key 1): m! over the centralizer order,
    f! * centralizer_order for f fixed points."""
    if sum(l * mult for l, mult in counts.items()) != m:
        raise ValueError(f"cycle type {counts} does not sum to {m}")
    q, r = divmod(factorial(m), factorial(counts.get(1, 0)) * centralizer_order(counts))
    assert r == 0
    return q
