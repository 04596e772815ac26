"""Permutation layer: composition convention, cycles, parity, orbits.

The composition order test comes first on purpose; everything downstream
(coset actions, conjugation sweeps, Burnside counts) silently depends on
compose(p, q) meaning "q first", which on 0-based rows is p[q].
"""

import random

import numpy as np
import pytest

from transversals.perm import (
    Permutation,
    format_cycles,
    parse_cycles,
)

from oracles import compose, conjugate, cycle_type, inverse, parity, perms, power


def test_compose_applies_right_factor_first():
    p = Permutation.from_cycles(3, [(1, 2)])
    q = Permutation.from_cycles(3, [(2, 3)])
    # (1,2) after (2,3): 1 -> 1 -> 2, 2 -> 3 -> 3, 3 -> 2 -> 1
    assert compose(p, q) == Permutation.from_cycles(3, [(1, 2, 3)])
    assert compose(q, p) == Permutation.from_cycles(3, [(1, 3, 2)])


def test_compose_matches_pointwise_application():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 9)
        p = Permutation(rng.sample(range(1, n + 1), n))
        q = Permutation(rng.sample(range(1, n + 1), n))
        r = compose(p, q)
        assert all(r(i) == p(q(i)) for i in range(1, n + 1))
        # the same product on the package's 0-based rows: p after q is p[q]
        assert perms([(np.array(p.images) - 1)[np.array(q.images) - 1]]) == [r]


def test_dihedral_presentation_in_coset_numbering():
    """The degree-3 coset action of the smallest dihedral group: with
    a = (1,2,3) and b = (2,3), the relation b a b^-1 = a^-1 holds only
    under the q-first convention."""
    a = parse_cycles(3, "(1,2,3)")
    b = parse_cycles(3, "(2,3)")
    assert conjugate(a, b) == inverse(a)
    assert compose(b, compose(a, b)) == inverse(a)


def test_identity_and_inverse():
    e = Permutation.identity(5)
    assert e.images == (1, 2, 3, 4, 5) == Permutation.from_cycles(5, []).images
    rng = random.Random(11)
    for _ in range(30):
        p = Permutation(rng.sample(range(1, 6), 5))
        assert compose(p, inverse(p)) == e
        assert compose(inverse(p), p) == e


def test_pow_agrees_with_repeated_composition():
    p = parse_cycles(6, "(1,2,3)(4,5)")
    acc = Permutation.identity(6)
    for m in range(1, 8):
        acc = compose(p, acc)
        assert power(p, m) == acc
    assert power(p, 0) == Permutation.identity(6)
    assert power(p, -1) == inverse(p)
    assert power(p, -3) == inverse(power(p, 3))


def test_degree_mismatch_is_an_error():
    p = Permutation.identity(3)
    q = Permutation.identity(4)
    with pytest.raises(ValueError):
        compose(p, q)
    with pytest.raises(ValueError):
        conjugate(p, q)


def test_images_must_be_a_permutation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation((2, 3, 4))


def test_conjugate_direction():
    # conjugate(p, a) = a p a^-1 relabels p's cycles through a
    p = parse_cycles(5, "(1,2)(3,4)")
    a = parse_cycles(5, "(1,3,5)")
    got = conjugate(p, a)
    assert got == compose(a, compose(p, inverse(a)))
    assert got == parse_cycles(5, "(3,2)(5,4)")


def test_conjugation_preserves_cycle_type():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(2, 9)
        p = Permutation(rng.sample(range(1, n + 1), n))
        a = Permutation(rng.sample(range(1, n + 1), n))
        assert cycle_type(conjugate(p, a)) == cycle_type(p)


def test_orbits_are_sorted_and_cover_all_symbols():
    p = parse_cycles(7, "(2,4)(3,6,5)")
    obs = p.orbits()
    assert [min(o) for o in obs] == sorted(min(o) for o in obs)
    assert sorted(s for o in obs for s in o) == list(range(1, 8))
    assert (1,) in obs and (7,) in obs
    assert (2, 4) in obs


def test_parity_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 8)
        p = Permutation(rng.sample(range(1, n + 1), n))
        q = Permutation(rng.sample(range(1, n + 1), n))
        assert parity(compose(p, q)) == parity(p) * parity(q)
    assert parity(parse_cycles(4, "(1,2)")) == -1
    assert parity(parse_cycles(4, "(1,2,3)")) == 1


def test_cycle_type_pairs_and_fixed_points():
    p = parse_cycles(9, "(1,2)(3,4,5)(6,7)")
    assert cycle_type(p) == (3, 2, 2, 1, 1)


def test_parse_and_format_round_trip():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 10)
        p = Permutation(rng.sample(range(1, n + 1), n))
        assert parse_cycles(n, format_cycles(p)) == p
        # a list or tuple of 1-based images prints as its Permutation does
        assert format_cycles(list(p.images)) == format_cycles(p.images) == format_cycles(p)
    assert format_cycles(Permutation.identity(4)) == "()"
    assert parse_cycles(5, "()") == Permutation.identity(5)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles(3, "(1,2,4)")
    with pytest.raises(ValueError):
        parse_cycles(3, "(1,1)")
    with pytest.raises(ValueError):
        parse_cycles(3, "1,2)")
    # symbols are ASCII decimal, though int() reads every one of these
    for text in ("(1,1_0)", "(1,+2)", "(1,-2)", "(1,\uff12)", "(1,\u0662)"):
        with pytest.raises(ValueError, match="malformed cycle notation"):
            parse_cycles(12, text)


def test_from_cycles_requires_disjoint_cycles():
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(1, 2), (2, 3)])


def test_ordering_is_by_image_tuple():
    ps = sorted(Permutation(img) for img in [(2, 1, 3), (1, 2, 3), (3, 1, 2)])
    assert ps[0] == Permutation.identity(3)
    assert ps[0] < ps[1] < ps[2]
