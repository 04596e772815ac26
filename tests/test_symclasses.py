"""Partition enumeration and conjugacy class arithmetic for Sym(m)."""

import random
from itertools import permutations as itertools_permutations
from math import factorial

import pytest

from transversals.groups import _class_order_key
from transversals.perm import Permutation
from transversals.symclasses import (
    centralizer_order,
    class_size,
    partitions,
    partitions_exceed,
)

from oracles import (
    class_representative,
    compose,
    cycle_type,
    multiplicities,
    partitions_reference,
    representative_from_cycles,
    row_of,
)


def test_partitions_small_values():
    assert partitions(0) == [()]
    assert partitions(1) == [(1,)]
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_counts_match_oeis():
    # p(0..10) = 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(partitions(m)) for m in range(11)] == expected


def test_partitions_match_recursive_reference():
    """The same partitions in the same order as an independent recursive
    enumeration, and p(41) = 44,583, the most rows a closed form writes."""
    for m in range(31):
        assert partitions(m) == partitions_reference(m), m
    assert len(partitions(41)) == 44_583


def test_partitions_exceed_agrees_with_enumeration():
    """The pentagonal count against len(partitions(m)), at every cap around
    p(m), and its stop: p(41) = 44,583 is under the closed forms' cap,
    p(42) = 53,174 over it, and a 31-digit m answers at once."""
    for m in range(25):
        count = len(partitions(m))
        for cap in (0, 1, count - 1, count, count + 1):
            assert partitions_exceed(m, cap) == (count > cap), (m, cap)
    assert not partitions_exceed(41, 44_583) and partitions_exceed(41, 44_582)
    assert partitions_exceed(42, 53_173) and not partitions_exceed(42, 53_174)
    assert partitions_exceed(10**30, 50_000)


def test_partitions_are_valid_and_ordered():
    for m in range(1, 12):
        parts = partitions(m)
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert sum(p) == m
            assert all(a >= b for a, b in zip(p, p[1:]))
            assert all(x >= 1 for x in p)
        assert parts == sorted(parts, reverse=True)


def test_class_sizes_sum_to_group_order():
    for m in range(1, 9):
        assert sum(class_size(multiplicities(p), m) for p in partitions(m)) == factorial(m)


def test_class_size_against_direct_count():
    """Count cycle types by scanning all of Sym(m) for small m."""
    for m in range(1, 7):
        tally = {}
        for img in itertools_permutations(range(1, m + 1)):
            key = cycle_type(Permutation(img))
            tally[key] = tally.get(key, 0) + 1
        for parts in partitions(m):
            assert class_size(multiplicities(parts), m) == tally.get(parts, 0)


def test_class_size_rejects_wrong_sum():
    with pytest.raises(ValueError):
        class_size(multiplicities((3, 2)), 4)


def test_multiplicities():
    assert multiplicities((3, 2, 2, 1, 1, 1)) == {3: 1, 2: 2, 1: 3}
    assert multiplicities(()) == {}


def test_centralizer_order_complements_class_size():
    """For a fixed-point-free type on m symbols, class size in Sym(m) times
    the moved-symbol centralizer order is m!."""
    for m in range(2, 9):
        for parts in partitions(m):
            if any(l < 2 for l in parts):
                continue
            counts = multiplicities(parts)
            assert class_size(counts, m) * centralizer_order(counts) == factorial(m)


def test_centralizer_order_by_brute_force():
    rng = random.Random(17)
    cases = [(2,), (3,), (2, 2), (4,), (3, 2), (2, 2, 2), (6,)]
    for parts in cases:
        m = sum(parts)
        rep = class_representative(parts, m)
        count = 0
        for img in itertools_permutations(range(1, m + 2)):
            a = Permutation(img)
            if a(1) == 1 and compose(a, rep) == compose(rep, a):
                count += 1
        assert count == centralizer_order(multiplicities(parts)), parts
    del rng  # cases are exhaustive; no sampling needed at these sizes


def test_centralizer_order_ignores_fixed_points():
    assert centralizer_order({2: 1, 1: 3}) == centralizer_order({2: 1}) == 2
    assert centralizer_order({3: 2, 2: 1}) == 2 * 3 ** 2 * 2
    assert centralizer_order({1: 4}) == centralizer_order({}) == 1


def test_class_representative_shape():
    rep = class_representative((2, 1, 1), 4)
    assert rep.images == (1, 3, 2, 4, 5)
    rep = class_representative((3, 2), 5)
    assert rep.images == (1, 3, 4, 2, 6, 5)
    rep = class_representative((2, 2), 4)
    assert str(rep) == "(2,3)(4,5)"


def test_class_representative_fixes_one_and_has_right_type():
    for m in range(1, 9):
        for parts in partitions(m):
            rep = class_representative(parts, m)
            assert rep.degree == m + 1
            assert rep(1) == 1
            # symbol 1 adds one fixed point to the type on 2..m+1
            assert cycle_type(rep) == tuple(parts) + (1,)


def test_class_representative_equals_from_cycles_construction():
    for m in range(1, 13):
        for parts in partitions(m):
            assert class_representative(parts, m) == representative_from_cycles(parts, m)


def test_class_representative_rejects_bad_partitions():
    with pytest.raises(ValueError):
        class_representative((3, 2), 4)  # sums to 5
    with pytest.raises(ValueError):
        class_representative((3, 1, 0), 4)  # part below 1
    with pytest.raises(ValueError):
        class_representative((5, -1), 4)  # part below 1


def test_parts_order_is_class_order():
    """The closed forms list classes sorted by (moved symbols, parts); that
    is the class order of their representatives (_class_order_key)."""
    for m in range(21):
        by_parts = sorted(partitions(m), key=lambda parts: (m - parts.count(1), parts))
        by_rep = sorted(partitions(m), key=lambda parts: _class_order_key(
            row_of(representative_from_cycles(parts, m))))
        assert by_parts == by_rep, m
