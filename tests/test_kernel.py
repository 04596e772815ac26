"""The array kernel against plain-Python references.

The references below are element-by-element, set-based versions of what
the kernel does on rows: a breadth-first closure over Permutation objects,
the symmetric and alternating groups by closure and parity, the stabilizer
of 1 and its cosets by filtering, transitivity, commutativity and normality
by definition, the per-alpha conjugation filter, set-based conjugacy
classes, the per-element commuting filter and the set-based core.  Every
permutation they build goes through the validating public constructor, and
the kernel's rows are read back through it too.  The kernel must give equal
results (same sets, same lists in the same order, same counts) on the
standard pairs of degree <= 8 and on seeded relabelings of them, and so
must the conjugation oracle's candidate relabelings, seeded or swept.
"""

import random
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import transversals.groups as groups
from transversals.groups import (
    PairGH,
    PermGroup,
    _normalizing,
    _perm_rows,
    closure,
    enumerate_transversals,
    generates,
    make_alt,
    make_dihedral,
    make_pq,
    make_sym,
    normalizer_in_stab,
)
from transversals.ict_formulas import _commuting_in_coset, _row_power
from transversals.perm import Permutation, parse_cycles

from oracles import (
    check_candidate_relabelings,
    compose,
    contains,
    coset_representation_reference,
    cyclic_gamma,
    elements,
    group_of,
    is_abelian,
    is_normal,
    is_subgroup_of,
    is_transitive,
    order18_example,
    perms,
    power,
    stabilizer_of_1,
)

# ------------------------------------------------------------ references


def row(p):
    """The 0-based image row of a permutation."""
    return np.array(p.images) - 1


def ref_compose(p, q):
    return Permutation([p.images[v - 1] for v in q.images])


def ref_conjugate(p, a):
    out = [0] * p.degree
    for i, v in enumerate(p.images):
        out[a.images[i] - 1] = a.images[v - 1]
    return Permutation(out)


def ref_closure(generators, degree):
    e = Permutation(range(1, degree + 1))
    found = {e}
    frontier = [e]
    while frontier:
        fresh = []
        for x in frontier:
            for g in generators:
                y = ref_compose(g, x)
                if y not in found:
                    found.add(y)
                    fresh.append(y)
        frontier = fresh
    return sorted(found)


def ref_symmetric(n):
    gens = [Permutation.from_cycles(n, [(1, 2)]),
            Permutation.from_cycles(n, [tuple(range(1, n + 1))])] if n > 1 else []
    return ref_closure(gens, n)


def ref_is_even(p):
    inversions = sum(1 for i, j in combinations(range(p.degree), 2)
                     if p.images[i] > p.images[j])
    return inversions % 2 == 0


def ref_stabilizer(group):
    return sorted(g for g in set(elements(group)) if g(1) == 1)


def ref_cosets(group):
    members = set(elements(group))
    return [sorted(g for g in members if g(1) == i)
            for i in range(1, group.degree + 1)]


def ref_is_transitive(group):
    return {g(1) for g in elements(group)} == set(range(1, group.degree + 1))


def ref_is_abelian(group):
    members = elements(group)
    return all(ref_compose(a, b) == ref_compose(b, a) for a in members for b in members)


def ref_is_normal_in(sub, group):
    members = set(elements(sub))
    return members <= set(elements(group)) and all(
        ref_conjugate(h, g) in members
        for g in perms(group.generators) for h in members)


def ref_normalizers(group, alphas):
    members = set(elements(group))
    gens = perms(group.generators)
    return [a for a in alphas
            if all(ref_conjugate(g, a) in members for g in gens)]


def ref_conjugacy_classes(group):
    members = elements(group)
    remaining = set(members)
    classes = []
    while remaining:
        x = min(remaining)
        cls = {ref_conjugate(x, g) for g in members}
        remaining -= cls
        classes.append(sorted(cls))

    def key(c):
        rep = c[0]
        return (sum(1 for i, v in enumerate(rep.images, 1) if v != i), rep.images)
    return sorted(classes, key=key)


def ref_commuting(coset, z):
    return sum(1 for q in coset if ref_compose(q, z) == ref_compose(z, q))


def ref_core_order(group, sub):
    members, everything = set(elements(sub)), set(elements(group))
    return sum(1 for h in members
               if all(ref_conjugate(h, g) in members for g in everything))


# ------------------------------------------------------------ fixtures

# Every standard pair of degree <= 8 but Sym(8) and Alt(8), whose
# set-based reference conjugacy classes alone take seconds.
FIXTURES = {
    **{f"sym{n}": (lambda n=n: make_sym(n)) for n in range(2, 8)},
    **{f"alt{n}": (lambda n=n: make_alt(n)) for n in range(4, 8)},
    **{f"dihedral{n}": (lambda n=n: make_dihedral(n)) for n in range(3, 9)},
    **{f"pq{p}_{q}": (lambda p=p, q=q: make_pq(p, q))
       for p, q in ((2, 3), (2, 5), (2, 7), (3, 7))},
    "order18": lambda: coset_representation_reference(*order18_example()),
}

def sample_transversals(pair, rng):
    """Every transversal, or a seeded sample sized so that the reference
    closures stay near 20,000 element products per pair."""
    size = max(5, 20_000 // pair.group.order)
    if pair.transversal_count() <= size:
        return list(enumerate_transversals(pair))
    cosets = pair.cosets()
    return [np.stack([cosets[0][0]] + [rng.choice(c) for c in cosets[1:]])
            for _ in range(size)]


def check_kernel(pair, rng, monkeypatch):
    G, n = pair.group, pair.degree

    assert perms(closure(G.generators)) == ref_closure(perms(G.generators), n) == elements(G)

    H = stabilizer_of_1(G)
    assert elements(H) == ref_stabilizer(G) == elements(pair.stabilizer)
    assert [perms(block) for block in pair.cosets()] == ref_cosets(G)
    # the subgroup of the first generator: normal in the dihedral and pq
    # pairs, not in the others
    C = PermGroup.from_generators(G.generators[:1])
    for group in (G, H, C):
        assert is_transitive(group) == ref_is_transitive(group)
        assert is_abelian(group) == ref_is_abelian(group)
        assert is_normal(group, G) == ref_is_normal_in(group, G)
    # the core check PairGH no longer makes: it can never fail
    assert ref_core_order(G, pair.stabilizer) == 1

    for T in sample_transversals(pair, rng):
        assert generates(pair, T) == (len(ref_closure(perms(T), n)) == G.order), T

    want = ref_normalizers(G, [Permutation((1, *tail))
                               for tail in permutations(range(2, n + 1))])
    # a fresh pair for each sweep: the normalizer is kept on the pair
    assert perms(normalizer_in_stab(PairGH(G))._rows) == want
    monkeypatch.setattr(groups, "NORMALIZER_CHUNK", 7)  # many chunk boundaries
    gamma = normalizer_in_stab(PairGH(G))
    monkeypatch.undo()
    assert perms(gamma._rows) == want
    assert is_abelian(gamma) == ref_is_abelian(gamma)
    assert is_normal(gamma, G) == ref_is_normal_in(gamma, G)
    for group in (G, gamma):
        assert [(perms([x])[0], size) for x, size in group.conjugacy_classes()] == [
            (cls[0], len(cls)) for cls in ref_conjugacy_classes(group)]

    # theorem6 asks for the class rows of gamma and their powers
    xs = [x for x, _ in gamma.conjugacy_classes()]
    zs = {power(x, m) for x in perms(xs) for m in range(1, n)}
    for x, p in zip(xs, perms(xs)):
        assert all(np.array_equal(_row_power(x, m), row(power(p, m)))
                   for m in range(1, n))
    for coset in pair.cosets()[1:]:
        for z in zs:
            assert _commuting_in_coset(coset, row(z)) == ref_commuting(perms(coset), z)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_kernel_matches_reference(name, monkeypatch):
    check_kernel(FIXTURES[name](), random.Random(name), monkeypatch)


def relabel(pair, sigma):
    """The pair conjugated by sigma, which fixes 1."""
    gens = [ref_conjugate(g, sigma) for g in perms(pair.group.generators)]
    G = group_of(gens, degree=pair.degree)
    return PairGH(G, name=f"{pair.name} relabeled")


SMALL = ["sym3", "sym4", "sym5", "alt4", "alt5", "dihedral5", "dihedral6",
         "dihedral7", "dihedral8", "pq2_5", "pq2_7", "pq3_7", "order18"]


@seed(20261018)
@settings(max_examples=20, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(SMALL), data=st.data())
def test_kernel_matches_reference_on_relabelings(name, data, monkeypatch):
    pair = FIXTURES[name]()
    tail = data.draw(st.permutations(range(2, pair.degree + 1)))
    relabeled = relabel(pair, Permutation((1, *tail)))
    check_kernel(relabeled, random.Random(f"{name}{tail}"), monkeypatch)


# Sym(7) and Alt(7) are left out: |G| > 6! leaves the seeds no room, so
# they sweep, and the sweep and its full-width reference take 11 s there.
@pytest.mark.parametrize("name", sorted(set(FIXTURES) - {"sym7", "alt7"}))
def test_candidate_relabelings_match_reference(name, monkeypatch):
    """The candidate set C of the conjugation oracle, seeded or swept, at
    its own choice and with each path forced."""
    check_candidate_relabelings(FIXTURES[name](), monkeypatch)


@seed(20261021)
@settings(max_examples=20, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(SMALL), data=st.data())
def test_candidate_relabelings_match_reference_on_relabelings(name, data, monkeypatch):
    pair = FIXTURES[name]()
    tail = data.draw(st.permutations(range(2, pair.degree + 1)))
    check_candidate_relabelings(relabel(pair, Permutation((1, *tail))), monkeypatch)


def test_kernel_matches_reference_beyond_one_byte_images():
    """Degree 257 stores images as words, not bytes, keyed big-endian."""
    pair = make_dihedral(257)
    G, n = pair.group, pair.degree
    assert G._rows.dtype.itemsize > 1
    assert perms(closure(G.generators)) == ref_closure(perms(G.generators), n) == elements(G)
    assert [perms(block) for block in pair.cosets()] == ref_cosets(G)
    assert elements(stabilizer_of_1(G)) == ref_stabilizer(G)
    a, b = perms(G.generators)
    for members in ([a, b], [a], [b, compose(a, b)], [a, a]):
        assert generates(pair, _perm_rows(members, n)) == (
            len(ref_closure(members, n)) == G.order)
    gamma = elements(cyclic_gamma(n, a))
    rows = _perm_rows(gamma, n)
    assert perms(rows[_normalizing(G, rows)]) == ref_normalizers(G, gamma) == gamma
    cosets = pair.cosets()
    for z in gamma[:5]:
        assert _commuting_in_coset(cosets[1], row(z)) == ref_commuting(perms(cosets[1]), z)


@pytest.mark.parametrize("n", range(1, 8))
def test_symmetric_and_alternating_rows_match_reference(n):
    every = ref_symmetric(n)
    assert elements(PermGroup.symmetric(n)) == every
    if n >= 3:
        assert elements(PermGroup.alternating(n)) == [p for p in every if ref_is_even(p)]


def test_flags_on_intransitive_and_non_core_free_subgroups():
    S4 = make_sym(4).group
    normal_V4 = group_of(
        [parse_cycles(4, "(1,2)(3,4)"), parse_cycles(4, "(1,3)(2,4)")], degree=4)
    intransitive_V4 = group_of([parse_cycles(4, "(1,2)"), parse_cycles(4, "(3,4)")], degree=4)
    G18, H6 = order18_example()
    C3 = group_of([parse_cycles(3, "(1,2,3)")])
    cases = ((S4, normal_V4), (S4, intransitive_V4), (S4, S4), (G18, H6),
             (G18, G18), (C3, group_of([], degree=3)))
    for group, sub in cases:
        assert is_subgroup_of(sub, group)
        assert is_normal(sub, group) == ref_is_normal_in(sub, group)
        for g in (group, sub):
            assert is_transitive(g) == ref_is_transitive(g)
            assert is_abelian(g) == ref_is_abelian(g)
            assert elements(stabilizer_of_1(g)) == ref_stabilizer(g)
    assert is_normal(normal_V4, S4) and not is_normal(intransitive_V4, S4)
    # closed under conjugation by V4, but not inside it
    A4 = PermGroup.alternating(4)
    assert not is_subgroup_of(A4, normal_V4)
    assert is_normal(A4, normal_V4) is ref_is_normal_in(A4, normal_V4) is False
    assert not is_transitive(intransitive_V4) and not is_transitive(G18)
    assert ref_core_order(S4, normal_V4) == 4


def test_generates_is_false_for_a_member_outside_the_group():
    pair = make_dihedral(4)
    T = next(enumerate_transversals(pair))
    outside = parse_cycles(4, "(1,2)")
    assert not contains(pair.group, outside)
    assert generates(pair, T)
    assert not generates(pair, np.stack([T[0], row(outside), T[2], T[3]]))
    assert not generates(pair, [row(outside)])


@pytest.mark.parametrize("images", [(1, 1, 2), (0, 1, 2), (2, 3), (1, 2, 4)])
def test_public_constructor_still_validates(images):
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation(images)


def test_public_cycle_entry_points_still_validate():
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 4)])
    with pytest.raises(ValueError):
        parse_cycles(3, "(1,2)(2,3)")
