"""Integer partitions as cycle types of Sym(m), and their class arithmetic.

A partition is a non-increasing tuple of positive ints.  All counts are exact
Python ints; division only ever happens where the quotient is provably
integral, and is asserted.
"""

from __future__ import annotations

from math import factorial


def partitions(m: int):
    """All partitions of m in reverse-lexicographic order, [m] first, [1]*m last.

    Zoghbi and Stojmenovic's ZS1 (Int. J. Comput. Math. 70, 1998): the
    parts live in one array padded with ones, and each step lowers the last
    part above 1 by one and spreads the freed units over parts of the new
    size, so it touches only the tail it rewrites.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return [()]
    x = [1] * (m + 1)
    x[0] = m
    k = h = 0  # x[:k + 1] is the partition, x[h] its last part > 1
    out = [(m,)]
    while x[0] != 1:
        if x[h] == 2:
            k += 1
            x[h] = 1
            h -= 1
        else:
            r = x[h] - 1
            t = k - h + 1  # units freed: the ones after h, and one from x[h]
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                k = h
            else:
                k = h + 1
                if t > 1:
                    h += 1
                    x[h] = t
        out.append(tuple(x[:k + 1]))
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
