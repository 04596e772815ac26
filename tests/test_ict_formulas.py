"""Counting engines: closed forms, the direct Burnside engine, cyclic
arithmetic, and the commuting-count building blocks.

The two `_by_definition` tests are the load-bearing ones: they verify
fixed-transversal counts straight from the definition of the conjugation
action (conjugate every member, compare member sets), with no orbit
factorization assumed, and then hold the engines to those numbers.
"""

import random
import time
from math import factorial, gcd, lcm, prod

import numpy as np
import pytest

import transversals.groups as groups
import transversals.ict_formulas as ict_formulas
from transversals.errors import CapExceeded, DisagreementError, HypothesisViolation
from transversals.groups import (
    PairGH,
    PermGroup,
    _class_order_key,
    _normalizing,
    _row_keys,
    closure,
    coset_representation,
    enumerate_transversals,
    make_alt,
    make_dihedral,
    make_pq,
    make_sym,
    normalizer_in_stab,
    pair_from_fixture,
)
from transversals.ict_formulas import (
    all_even_centralizer,
    alt_commuting_count,
    cyclic_fixed_and_orbit_data,
    ict_alt,
    ict_cyclic,
    ict_sym,
    ict_theorem6,
    orbit_profile,
    power_cycle_counts,
    report_from_json,
    report_to_json,
    report_to_text,
    sym_commuting_count,
    _affine_rows,
    _find_regular_normal_cycle,
    _validate_cyclic_pair,
)
from transversals.oracle import (
    census_left_loops,
    classify_by_conjugation,
    classify_by_table_iso,
    render_classes_dump,
)
from transversals.perm import (
    Permutation,
    _orbits,
    format_cycles,
    parse_cycles,
)
from transversals.symclasses import multiplicities, partitions

from oracles import (
    affine_elements,
    affine_group,
    class_representative,
    compose,
    conjugate,
    contains,
    cycle_type,
    cyclic_gamma,
    elements,
    find_regular_normal_cycle,
    is_subgroup,
    parity,
    perms,
    power,
    relabel,
    row_of,
    standard_cycle,
)


def _conjugated_members(T, x):
    return frozenset(conjugate(q, x) for q in T)


def _contribution_by_type(report):
    out = {}
    for c in report.contributions:
        key = cycle_type(parse_cycles(report.degree, c.representative))
        assert key not in out
        out[key] = c
    return out


# ---------------------------------------------------------------- values


def test_sym_values_frozen():
    assert ict_sym(2).value == 1
    assert ict_sym(3).value == 3
    assert ict_sym(4).value == 44
    assert ict_sym(5).value == 14022
    assert ict_sym(6).value == 207392556
    assert ict_sym(7).value == 193491859167624


def test_alt_values_frozen():
    assert ict_alt(4).value == 7
    assert ict_alt(5).value == 897
    assert ict_alt(6).value == 6483015


def test_sym4_burnside_breakdown():
    report = ict_sym(4)
    assert report.gamma_order == 6
    assert report.numerator == 264
    by_type = _contribution_by_type(report)
    ident = by_type[cycle_type(Permutation.identity(4))]
    assert ident.fix_count == 216 and ident.class_size == 1
    assert sorted(c.class_size * c.fix_count for c in report.contributions) == [12, 36, 216]


def test_alt4_burnside_breakdown():
    report = ict_alt(4)
    # the acting group is the full stabilizer: odd relabelings also
    # normalize the alternating group
    assert report.gamma_order == 6
    assert report.numerator == 42
    assert sorted(c.class_size * c.fix_count for c in report.contributions) == [6, 9, 27]


def test_closed_form_input_validation():
    with pytest.raises(ValueError):
        ict_sym(1)
    with pytest.raises(ValueError):
        ict_alt(3)


def test_class_sizes_sum_to_gamma_order():
    for report in (ict_sym(5), ict_sym(7), ict_alt(5), ict_alt(6)):
        assert sum(c.class_size for c in report.contributions) == report.gamma_order
        assert report.numerator % report.gamma_order == 0


# ------------------------------------------- fixed counts by definition


def test_sym4_fixed_counts_by_definition():
    """Every stabilizer element, every transversal, verdict by member-set
    comparison only; the closed form must match element by element."""
    pair = make_sym(4)
    transversals = [frozenset(perms(T)) for T in enumerate_transversals(pair)]
    assert len(transversals) == 216
    by_type = _contribution_by_type(ict_sym(4))
    total = 0
    for x in elements(pair.stabilizer):
        fixed = sum(1 for T in transversals if _conjugated_members(T, x) == T)
        total += fixed
        assert fixed == by_type[cycle_type(x)].fix_count
    assert total == 6 * 44


def test_alt4_fixed_counts_by_definition():
    """Same sweep for the alternating pair; the acting elements come from the
    full symmetric stabilizer."""
    pair = make_alt(4)
    sym_stab = make_sym(4).stabilizer
    transversals = [frozenset(perms(T)) for T in enumerate_transversals(pair)]
    assert len(transversals) == 27
    by_type = _contribution_by_type(ict_alt(4))
    total = 0
    for x in elements(sym_stab):
        fixed = sum(1 for T in transversals if _conjugated_members(T, x) == T)
        total += fixed
        assert fixed == by_type[cycle_type(x)].fix_count
    assert total == 6 * 7


def _fixed_count_from_scratch(pair, x):
    """Fixed transversals under conjugation by x, built member by member.

    Conjugation by x sends the member over coset i to a member over coset
    x(i), so a fixed transversal is one free choice per orbit of x on the
    non-identity cosets, subject to returning to itself after a full lap.
    Each candidate is assembled explicitly and re-checked as a set, so the
    count leans on nothing beyond the definition.
    """
    cosets = [[Permutation([int(v) + 1 for v in row]) for row in block]
              for block in pair.cosets()]
    n = pair.degree
    orbs = [o for o in x.orbits() if 1 not in o]
    per_orbit = []
    for orb in orbs:
        m = len(orb)
        good = [q for q in cosets[orb[0] - 1] if conjugate(q, power(x, m)) == q]
        per_orbit.append((orb, good))
    count = prod(len(good) for _, good in per_orbit)

    # spot-check actual witnesses, including that a bad choice really fails
    rng = random.Random(99)
    for _ in range(3):
        members = {Permutation.identity(n)}
        for orb, good in per_orbit:
            q = rng.choice(good)
            for s in range(len(orb)):
                members.add(conjugate(q, power(x, s)))
        assert len(members) == n
        assert sorted(q(1) for q in members) == list(range(1, n + 1))
        assert _conjugated_members(members, x) == frozenset(members)
    orb, good = per_orbit[0]
    for bad in cosets[orb[0] - 1]:
        if bad not in good:
            members = {Permutation.identity(n), bad}
            for s in range(1, len(orb)):
                members.add(conjugate(bad, power(x, s)))
            assert _conjugated_members(members, x) != frozenset(members)
            break
    return count


def test_sym6_forced_class_fix_count():
    """The (3,2)-type relabeling of sym(6): 72 fixed transversals, counted
    from scratch; too large a pair to sweep exhaustively."""
    pair = make_sym(6)
    x = class_representative((3, 2), 5)
    assert _fixed_count_from_scratch(pair, x) == 72
    by_type = _contribution_by_type(ict_sym(6))
    assert by_type[cycle_type(x)].fix_count == 72


def test_alt6_forced_class_fix_count():
    pair = make_alt(6)
    x = class_representative((3, 2), 5)
    assert _fixed_count_from_scratch(pair, x) == 18
    by_type = _contribution_by_type(ict_alt(6))
    assert by_type[cycle_type(x)].fix_count == 18


def test_closed_forms_list_classes_in_class_order():
    """One contribution per class, in the class order of their
    representatives, with no sort after the sweep."""
    for n in range(2, 15):
        reports = [ict_sym(n)] + ([ict_alt(n)] if n >= 4 else [])
        for report in reports:
            keys = [_class_order_key(row_of(parse_cycles(report.degree, c.representative)))
                    for c in report.contributions]
            assert keys == sorted(set(keys)), (report.method, n)


def test_closed_form_representatives_are_canonical_cycle_text():
    """The closed forms write each representative from its partition's
    runs of symbols; that text is format_cycles of the image-tuple
    representative, class by class in class order, for every m <= 16."""
    for m in range(1, 17):
        reps = sorted((class_representative(parts, m) for parts in partitions(m)),
                      key=lambda rep: _class_order_key(row_of(rep)))
        want = [format_cycles(rep) for rep in reps]
        reports = [ict_sym(m + 1)] + ([ict_alt(m + 1)] if m >= 3 else [])
        for report in reports:
            assert report.degree == m + 1
            assert [c.representative for c in report.contributions] == want, (
                report.method, m)


# ------------------------------------------------------- direct engine


def test_theorem6_matches_closed_forms_term_by_term():
    for n in range(3, 9):
        direct = _contribution_by_type(ict_theorem6(make_sym(n)))
        closed = _contribution_by_type(ict_sym(n))
        assert direct.keys() == closed.keys()
        for key, c in closed.items():
            d = direct[key]
            assert (d.class_size, d.fix_count) == (c.class_size, c.fix_count), key
            assert sorted(d.a_factors) == sorted(c.a_factors)
            assert sorted(d.orbit_factors) == sorted(c.orbit_factors)


def test_theorem6_matches_alt_closed_form_term_by_term():
    for n in range(4, 9):
        direct = _contribution_by_type(ict_theorem6(make_alt(n)))
        closed = _contribution_by_type(ict_alt(n))
        assert direct.keys() == closed.keys()
        for key, c in closed.items():
            assert (direct[key].class_size, direct[key].fix_count) == (
                c.class_size,
                c.fix_count,
            ), key


def test_theorem6_on_normal_pairs_gives_one():
    C3 = PermGroup.from_generators([parse_cycles(3, "(1,2,3)")])
    regular = PairGH(C3, name="cyclic(3) regular")
    assert ict_theorem6(regular).value == 1

    i = parse_cycles(8, "(1,2,5,6)(3,4,7,8)")
    j = parse_cycles(8, "(1,3,5,7)(2,8,6,4)")
    Q = PermGroup.from_generators([i, j], degree=8)
    quat = PairGH(Q, name="quaternion regular")
    report = ict_theorem6(quat)
    assert report.value == 1
    assert report.gamma_order == 24  # the automorphism group of the quaternions


def test_theorem6_rejects_bad_gamma():
    pair = make_dihedral(4)
    with pytest.raises(HypothesisViolation, match="fix symbol 1"):
        ict_theorem6(pair, gamma=PermGroup.symmetric(4))
    full_stab = PermGroup.from_generators(
        [parse_cycles(4, "(2,3)"), parse_cycles(4, "(2,3,4)")]
    )
    with pytest.raises(HypothesisViolation, match="normalize"):
        ict_theorem6(pair, gamma=full_stab)
    swap = PermGroup.from_generators([parse_cycles(5, "(2,3)")])
    with pytest.raises(HypothesisViolation, match="acting group must normalize the group"):
        ict_theorem6(make_dihedral(5), gamma=swap)
    with pytest.raises(HypothesisViolation, match="degree"):
        ict_theorem6(pair, gamma=PermGroup.from_generators([], degree=5))


def test_theorem6_guards_only_a_supplied_gamma(monkeypatch):
    """The default gamma is built by the normalizing test, so only a gamma
    passed in is tested again: the default costs exactly the tests of a bare
    normalizer_in_stab, a supplied gamma exactly one more."""
    calls = []

    def counted(group, alphas, target=None):
        calls.append(len(alphas))
        return _normalizing(group, alphas, target)

    monkeypatch.setattr(groups, "_normalizing", counted)
    gamma = normalizer_in_stab(make_sym(5))
    sweep, calls[:] = list(calls), []
    assert sweep
    pair = make_sym(5)
    report = ict_theorem6(pair)
    assert calls == sweep
    calls.clear()
    assert ict_theorem6(pair, gamma=gamma) == report
    assert calls == [len(gamma.generators)]


def test_disagreement_error_values_default_to_empty_tuple():
    assert DisagreementError("engines differ").values == ()


def test_theorem6_respects_stabilizer_cap():
    with pytest.raises(CapExceeded):
        ict_theorem6(make_dihedral(5), cap=10)


def test_theorem6_validates_only_the_whole_stabilizer():
    for pair in (make_sym(4), make_alt(5)):
        report = ict_theorem6(pair)
        assert report.gamma_order == factorial(pair.degree - 1)
        assert report.validated
        assert report.justification == ict_sym(4).justification
    report = ict_theorem6(make_dihedral(6))
    assert not report.validated
    assert "order 2, not (n-1)! = 120" in report.justification
    assert "hypothesis (unvalidated): the acting group has order 2" in report_to_text(report)


def test_theorem6_does_not_validate_the_psl25_orbit_count():
    """PSL(2,5) on the projective line over F5.  Its normalizer in Sym(6)_1
    has order 20, not 120: the 160 transversals lying in transitive A4
    subgroups form 10 orbits under it but only 5 isomorphism classes."""
    pair, normalized = pair_from_fixture("degree 6\ngen (1,2,3,4,5)\ngen (1,6)(2,5)\n")
    assert not normalized and pair.group.order == 60
    tables = classify_by_table_iso(pair)
    truth = tables.class_count
    assert truth == 5047
    # the conjugation oracle sweeps all 100,000 transversals under the
    # relabelings that can keep one in the family
    start = time.perf_counter()
    conj = classify_by_conjugation(pair)
    assert time.perf_counter() - start < 10.0
    assert conj.class_count == 5047
    # the same partition: the label pairs match classes one to one
    assert len(set(zip(conj.labels, tables.labels))) == 5047
    report = ict_theorem6(pair)
    assert report.gamma_order == 20
    assert report.validated is False or report.value == truth
    assert not report.validated


# ------------------------------------------------------ cyclic engine


def test_cyclic_values_frozen_dihedral():
    values = [ict_cyclic(n, 2, pair=make_dihedral(n)).value for n in range(3, 11)]
    assert values == [3, 6, 6, 20, 14, 48, 52, 140]


def test_cyclic_values_frozen_pq():
    assert ict_cyclic(3, 2, pair=make_pq(2, 3)).value == 3
    assert ict_cyclic(5, 2, pair=make_pq(2, 5)).value == 6
    assert ict_cyclic(7, 2, pair=make_pq(2, 7)).value == 14
    assert ict_cyclic(7, 3, pair=make_pq(3, 7)).value == 130


def test_cyclic_agrees_with_default_theorem6():
    for n in (5, 6, 9):
        pair = make_dihedral(n)
        assert ict_cyclic(n, 2, pair=pair).value == ict_theorem6(pair).value


def test_cyclic_validated_reports():
    report = ict_cyclic(7, 3, pair=make_pq(3, 7))
    assert report.validated
    assert report.gamma_order == 6
    assert "normal regular cyclic transversal" in report.justification
    assert "brute-force normalizer" in report.justification
    assert "non-generating" in report.justification


@pytest.mark.parametrize("pair", [make_dihedral(6), make_dihedral(8), make_pq(2, 7),
                                  make_sym(4)], ids=lambda pair: pair.name)
def test_nongenerator_scan_reads_rows_as_the_permutations_do(pair):
    """The cyclic validation's scan asks two things of each transversal's
    rows: is it a subgroup (its closure is no larger), and what are its
    element orders (the lcm of each row's orbit lengths)?  Both agree with
    the Permutation spellings: closure under compose, and the least m with
    p^m the identity."""
    for T in enumerate_transversals(pair):
        members = perms(T)
        assert (len(closure(T)) == len(T)) == is_subgroup(members)
        orders = [lcm(*map(len, _orbits(row, 0))) for row in T.tolist()]
        identity = Permutation.identity(pair.degree)
        assert orders == [next(m for m in range(1, 13) if power(p, m) == identity)
                          for p in members]


def test_cyclic_formula_only_is_flagged():
    report = ict_cyclic(12, 5)
    assert not report.validated
    assert "formula-only" in report.justification
    assert report.value == 12_328_125


def test_cyclic_large_degree_skips_brute_normalizer():
    pair = make_dihedral(11)
    report = ict_cyclic(11, 2, pair=pair, cap=1000)
    assert report.validated
    assert "not brute-checked" in report.justification
    assert report.value == 108


def test_cyclic_rejects_wrong_pairs():
    with pytest.raises(HypothesisViolation, match="no normal regular cyclic"):
        ict_cyclic(4, 6, pair=make_sym(4))
    with pytest.raises(HypothesisViolation, match="not \\(5, 2\\)"):
        ict_cyclic(5, 2, pair=make_dihedral(6))
    with pytest.raises(ValueError):
        ict_cyclic(0, 2)
    with pytest.raises(ValueError):
        ict_cyclic(5, 0)


def test_cyclic_trivial_subgroup_always_one():
    for n in range(1, 40):
        assert ict_cyclic(n, 1).value == 1
    assert ict_cyclic(9, 1).value == 1


def test_gcd_data_matches_affine_orbit_structure():
    for n in range(1, 31):
        units, rows = _affine_rows(np.roll(np.arange(n), -1))
        for j, row in zip(units, rows.tolist()):
            k, t = cyclic_fixed_and_orbit_data(n, j)
            fixed, long_orbits = orbit_profile(row)
            assert k == len(fixed) + 1, (n, j)
            assert t == len(long_orbits), (n, j)
            assert k + sum(m for _, m in long_orbits) == n


def test_gcd_data_validation():
    with pytest.raises(ValueError):
        cyclic_fixed_and_orbit_data(6, 2)  # not a unit
    with pytest.raises(ValueError):
        cyclic_fixed_and_orbit_data(0, 1)
    assert cyclic_fixed_and_orbit_data(1, 1) == (1, 0)


def test_cyclic_gamma_order_is_euler_phi():
    def phi(n):
        return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)

    for n in range(1, 25):
        grp = cyclic_gamma(n)
        assert grp.order == phi(n)
        assert all(g(1) == 1 for g in elements(grp))


def test_cyclic_gamma_accepts_any_n_cycle():
    a = parse_cycles(7, "(1,3,5,7,2,4,6)")
    grp = cyclic_gamma(7, a)
    assert grp.order == 6
    assert all(conjugate(a, g) in {power(a, m) for m in range(1, 8)} for g in elements(grp))
    with pytest.raises(ValueError):
        cyclic_gamma(6, parse_cycles(6, "(1,2)(3,4,5)"))


def test_affine_rows_match_the_conjugation_construction():
    """The rows read off the regular cycle equal the relabelings built by
    Permutation conjugation, unit by unit, and form the same group, for the
    standard n-cycle and two random ones per n."""
    rng = random.Random(2011)
    for n in range(1, 41):
        cycles = [standard_cycle(n)]
        for _ in range(2):
            symbols = rng.sample(range(1, n + 1), n)
            cycles.append(Permutation.from_cycles(n, [symbols]))
        for a in cycles:
            want = affine_elements(n, a)
            units, rows = _affine_rows(np.array(a.images) - 1)
            assert units == [j for j, _ in want], (n, a)
            assert [tuple(r) for r in (rows + 1).tolist()] == [g.images for _, g in want]
            gamma = PermGroup(rows[np.argsort(_row_keys(rows))])
            assert gamma == affine_group(n, want), (n, a)


def test_validated_cyclic_gamma_is_the_conjugation_construction():
    pairs = [make_dihedral(n) for n in range(3, 10)]
    pairs += [make_pq(p, q) for p, q in ((2, 5), (3, 7), (2, 11))]
    for pair in pairs:
        n, h = pair.degree, pair.subgroup_order
        a = Permutation((_find_regular_normal_cycle(pair) + 1).tolist())
        units, _, gamma, _ = _validate_cyclic_pair(pair, n, h, cap=0)
        want = affine_elements(n, a)
        assert units == [j for j, _ in want]
        assert gamma == cyclic_gamma(n, a), pair.name


def test_row_finder_matches_the_closure_reference():
    """The row-level finder returns the n-cycle that closing each n-cycle of
    G in turn finds: on dihedral 3..24, on the pq pairs, on a seeded
    relabeling of each by a sigma fixing 1, and in degree 1, where the
    identity is the 1-cycle.  Where the reference finds none, it raises."""
    rng = random.Random(2011)
    pairs = [make_dihedral(n) for n in range(3, 25)]
    pairs += [make_pq(p, q) for p, q in ((2, 3), (2, 5), (2, 7), (3, 7), (2, 11),
                                         (5, 11), (2, 13), (3, 13), (2, 19))]
    pairs += [relabel(pair, Permutation([1, *rng.sample(range(2, pair.degree + 1),
                                                        pair.degree - 1)]))
              for pair in pairs]
    pairs.append(PairGH(PermGroup.from_generators([], degree=1)))
    for pair in pairs:
        want = find_regular_normal_cycle(pair)
        assert want is not None, pair.name
        assert tuple(_find_regular_normal_cycle(pair).tolist()) == row_of(want), pair.name
    for pair in (make_sym(4), make_alt(5)):
        assert find_regular_normal_cycle(pair) is None
        with pytest.raises(HypothesisViolation, match="no normal regular cyclic"):
            _find_regular_normal_cycle(pair)


def spy_on_permutations(monkeypatch) -> list:
    """The list that the image tuple of every Permutation built from now on
    is appended to.  The spy sits on the `images` slot, which every build
    sets: the checked constructor, the one way to build a Permutation, and
    any other way that might come back."""
    built = []
    slot = Permutation.images

    class Spy:
        def __get__(self, obj, owner=None):
            return slot if obj is None else slot.__get__(obj, owner)

        def __set__(self, obj, images):
            built.append(images)
            slot.__set__(obj, images)

    monkeypatch.setattr(Permutation, "images", Spy())
    return built


def test_engines_build_no_permutation(monkeypatch):
    """theorem6, the cyclic engine with and without its validation scan, the
    normal-cycle finder and the class dump work on rows: while each runs, no
    Permutation is built."""
    sym6 = make_sym(6)
    sigma = Permutation([1, *random.Random(8).sample(range(2, 9), 7)])
    dihedral8 = relabel(make_dihedral(8), sigma)
    pq25 = classify_by_table_iso(make_pq(2, 5))
    pq2_11 = make_pq(2, 11)
    built = spy_on_permutations(monkeypatch)
    runs = {
        "theorem6 sym(6)": lambda: ict_theorem6(sym6),
        "theorem6 relabeled dihedral(8)": lambda: ict_theorem6(dihedral8),
        "cyclic(7, 2)": lambda: ict_cyclic(7, 2),
        "cyclic(12, 3)": lambda: ict_cyclic(12, 3),
        # 1,024 transversals scanned for non-generators, on rows
        "cyclic(11, 2) on pq(2,11)": lambda: ict_cyclic(11, 2, pair=pq2_11),
        "normal cycle": lambda: _find_regular_normal_cycle(dihedral8),
        "classes dump pq(2,5)": lambda: render_classes_dump(pq25),
    }
    for what, run in runs.items():
        run()
        assert built == [], what
    assert str(Permutation.identity(3)) == "()" and len(built) == 1  # the spies count


def test_groups_and_classifiers_build_no_permutation(monkeypatch):
    """A group is rows end to end: the family builders, the coset
    representation of an intransitive group, the conjugation classifier
    (whose relabeling generators are rows) and the census build no
    Permutation while they run."""
    G = PermGroup.from_generators(
        [parse_cycles(5, "(1,2,3)"), parse_cycles(5, "(1,2)"), parse_cycles(5, "(4,5)")])
    H = G.stabilizer_of_1()
    built = spy_on_permutations(monkeypatch)
    runs = {
        "sym(5)": lambda: make_sym(5),
        "alt(5)": lambda: make_alt(5),
        "dihedral(7)": lambda: make_dihedral(7),
        "pq(3,7)": lambda: make_pq(3, 7),
        "coset representation": lambda: coset_representation(G, H),
        "conjugation classes alt(4)": lambda: classify_by_conjugation(make_alt(4)),
        "census(3)": lambda: census_left_loops(3),
    }
    for what, run in runs.items():
        run()
        assert built == [], what
    image = coset_representation(G, H)
    assert (image.degree, image.group.order) == (3, 6)
    assert contains(image.group, Permutation.from_cycles(3, [(1, 2)])) and len(built) == 1


def test_ict_cyclic_builds_the_affine_family_once(monkeypatch):
    builds = []

    def spy(a):
        builds.append(len(a))
        return _affine_rows(a)

    monkeypatch.setattr(ict_formulas, "_affine_rows", spy)
    assert ict_cyclic(7, 2, pair=make_dihedral(7)).value == ict_cyclic(7, 2).value
    assert builds == [7, 7]  # one build per call, validated or not


# ------------------------------------------------ commuting counts


def _brute_commuting(z, target, even_only=False):
    n = z.degree
    from itertools import permutations as itp

    count = 0
    for img in itp(range(1, n + 1)):
        q = Permutation(img)
        if q(1) != target:
            continue
        if even_only and parity(q) != 1:
            continue
        if compose(q, z) == compose(z, q):
            count += 1
    return count


def test_sym_commuting_count_brute():
    cases = ["()", "(2,3)", "(2,3)(4,5)", "(2,3,4)", "(2,3,4,5)", "(2,3)(4,5,6)"]
    for text in cases:
        z = parse_cycles(6, text)
        counts = multiplicities(cycle_type(z))
        expected = sym_commuting_count(counts)
        fixed = [i for i in range(1, 7) if z(i) == i]
        for i in fixed:
            assert _brute_commuting(z, i) == expected, (text, i)


def test_alt_commuting_count_brute():
    cases = ["()", "(2,3)", "(2,3)(4,5)", "(2,3,4)", "(2,3,4,5)", "(4,5,6)"]
    for text in cases:
        z = parse_cycles(6, text)
        counts = multiplicities(cycle_type(z))
        expected = alt_commuting_count(counts)
        fixed = [i for i in range(2, 7) if z(i) == i]
        for i in fixed:
            assert _brute_commuting(z, i, even_only=True) == expected, (text, i)


def test_alt_commuting_count_zero_case():
    # centralizer of a lone 3-cycle on {3,4,5} is all-even once 1 and 2 are
    # pinned, so no even element can move 1 to 2
    z = parse_cycles(5, "(3,4,5)")
    assert alt_commuting_count(multiplicities(cycle_type(z))) == 0
    assert _brute_commuting(z, 2, even_only=True) == 0
    # nothing moved: the only element sending 1 to 2 is the odd (1,2)
    assert alt_commuting_count({1: 2}) == 0
    assert _brute_commuting(parse_cycles(2, "()"), 2, even_only=True) == 0


def test_commuting_count_validation():
    with pytest.raises(ValueError):
        sym_commuting_count({2: 2})
    with pytest.raises(ValueError):
        alt_commuting_count({1: 1, 2: 1})


def test_power_cycle_counts_matches_actual_powers():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(2, 10)
        p = Permutation(rng.sample(range(1, n + 1), n))
        m = rng.randrange(1, 13)
        assert (power_cycle_counts(multiplicities(cycle_type(p)), m)
                == multiplicities(cycle_type(power(p, m))))
    with pytest.raises(ValueError):
        power_cycle_counts({2: 1}, 0)


def test_all_even_centralizer_validation():
    with pytest.raises(ValueError):
        all_even_centralizer(())
    with pytest.raises(ValueError):
        all_even_centralizer((3, 1))


# --------------------------------------------------------- reports


def test_report_round_trip():
    for report in (ict_sym(4), ict_alt(5), ict_cyclic(8, 2, pair=make_dihedral(8)), ict_cyclic(6, 4)):
        data = report_to_json(report)
        assert report_from_json(data) == report


def test_report_from_json_rejects_unknown_schema():
    data = report_to_json(ict_sym(3))
    data["schema"] = "something-else"
    with pytest.raises(ValueError):
        report_from_json(data)


@pytest.mark.parametrize("data", [5, None, "ict-report/1", [1, 2]])
def test_report_from_json_rejects_non_object(data):
    with pytest.raises(ValueError, match="not a JSON object"):
        report_from_json(data)


def test_report_text_rendering():
    text = report_to_text(ict_sym(4))
    assert "pair: sym(4)" in text
    assert "method: sym_closed" in text
    assert "value: 44" in text
    assert "numerator: 264" in text
    assert "hypothesis (validated)" in text
    unval = report_to_text(ict_cyclic(10, 3))
    assert "hypothesis (unvalidated)" in unval


def test_report_text_without_contributions():
    from transversals.ict_formulas import IctReport

    bare = IctReport(value=1, method="oracle", gamma_order=1, numerator=1, contributions=())
    text = report_to_text(bare)
    assert "value: 1" in text
    assert report_from_json(report_to_json(bare)) == bare


def test_coset_representation_feeds_the_engines():
    # abstract input: sym(4) over a point stabilizer handed in as raw groups
    G = PermGroup.symmetric(4)
    pair = coset_representation(G, G.stabilizer_of_1())
    assert ict_theorem6(pair).value == 44
