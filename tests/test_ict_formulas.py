"""Counting engines: closed forms, the direct Burnside engine, cyclic
arithmetic, and the commuting-count building blocks.

The two `_by_definition` tests are the load-bearing ones: they verify
fixed-transversal counts straight from the definition of the conjugation
action (conjugate every member, compare member sets), with no orbit
factorization assumed, and then hold the engines to those numbers.
"""

import random
from math import factorial, gcd, prod

import pytest

from transversals.errors import CapExceeded, DisagreementError, HypothesisViolation
from transversals.groups import (
    PairGH,
    PermGroup,
    coset_representation,
    enumerate_transversals,
    make_alt,
    make_dihedral,
    make_pq,
    make_sym,
)
from transversals.ict_formulas import (
    all_even_centralizer,
    alt_commuting_count,
    cyclic_fixed_and_orbit_data,
    cyclic_gamma,
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
    _affine_elements,
)
from transversals.perm import Permutation, conjugate, identity, parse_cycles
from transversals.symclasses import class_representative


def _conjugated_members(T, x):
    return frozenset(conjugate(q, x) for q in T)


def _contribution_by_type(report):
    out = {}
    for c in report.contributions:
        key = c.representative.cycle_type()
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
    ident = by_type[identity(4).cycle_type()]
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
    transversals = [frozenset(T) for T in enumerate_transversals(pair)]
    assert len(transversals) == 216
    by_type = _contribution_by_type(ict_sym(4))
    total = 0
    for x in pair.stabilizer:
        fixed = sum(1 for T in transversals if _conjugated_members(T, x) == T)
        total += fixed
        assert fixed == by_type[x.cycle_type()].fix_count
    assert total == 6 * 44


def test_alt4_fixed_counts_by_definition():
    """Same sweep for the alternating pair; the acting elements come from the
    full symmetric stabilizer."""
    pair = make_alt(4)
    sym_stab = make_sym(4).stabilizer
    transversals = [frozenset(T) for T in enumerate_transversals(pair)]
    assert len(transversals) == 27
    by_type = _contribution_by_type(ict_alt(4))
    total = 0
    for x in sym_stab:
        fixed = sum(1 for T in transversals if _conjugated_members(T, x) == T)
        total += fixed
        assert fixed == by_type[x.cycle_type()].fix_count
    assert total == 6 * 7


def _fixed_count_from_scratch(pair, x):
    """Fixed transversals under conjugation by x, built member by member.

    Conjugation by x sends the member over coset i to a member over coset
    x(i), so a fixed transversal is one free choice per orbit of x on the
    non-identity cosets, subject to returning to itself after a full lap.
    Each candidate is assembled explicitly and re-checked as a set, so the
    count leans on nothing beyond the definition.
    """
    cosets = pair.cosets()
    n = pair.degree
    orbs = [o for o in x.orbits() if 1 not in o]
    per_orbit = []
    for orb in orbs:
        m = len(orb)
        good = [q for q in cosets[orb[0] - 1] if conjugate(q, x ** m) == q]
        per_orbit.append((orb, good))
    count = prod(len(good) for _, good in per_orbit)

    # spot-check actual witnesses, including that a bad choice really fails
    rng = random.Random(99)
    for _ in range(3):
        members = {identity(n)}
        for orb, good in per_orbit:
            q = rng.choice(good)
            for s in range(len(orb)):
                members.add(conjugate(q, x ** s))
        assert len(members) == n
        assert sorted(q(1) for q in members) == list(range(1, n + 1))
        assert _conjugated_members(members, x) == frozenset(members)
    orb, good = per_orbit[0]
    for bad in cosets[orb[0] - 1]:
        if bad not in good:
            members = {identity(n), bad}
            for s in range(1, len(orb)):
                members.add(conjugate(bad, x ** s))
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
    assert by_type[x.cycle_type()].fix_count == 72


def test_alt6_forced_class_fix_count():
    pair = make_alt(6)
    x = class_representative((3, 2), 5)
    assert _fixed_count_from_scratch(pair, x) == 18
    by_type = _contribution_by_type(ict_alt(6))
    assert by_type[x.cycle_type()].fix_count == 18


# ------------------------------------------------------- direct engine


def test_theorem6_matches_closed_forms_term_by_term():
    for n in range(3, 7):
        direct = _contribution_by_type(ict_theorem6(make_sym(n)))
        closed = _contribution_by_type(ict_sym(n))
        assert direct.keys() == closed.keys()
        for key, c in closed.items():
            d = direct[key]
            assert (d.class_size, d.fix_count) == (c.class_size, c.fix_count), key
            assert sorted(d.a_factors) == sorted(c.a_factors)
            assert sorted(d.orbit_factors) == sorted(c.orbit_factors)


def test_theorem6_matches_alt_closed_form_term_by_term():
    for n in range(4, 7):
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
    regular = PairGH(C3, PermGroup.trivial(3), name="cyclic(3) regular")
    assert ict_theorem6(regular).value == 1

    i = parse_cycles(8, "(1,2,5,6)(3,4,7,8)")
    j = parse_cycles(8, "(1,3,5,7)(2,8,6,4)")
    Q = PermGroup.from_generators([i, j], degree=8)
    quat = PairGH(Q, Q.stabilizer_of_1(), name="quaternion regular")
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
        ict_theorem6(pair, gamma=PermGroup.trivial(5))


def test_disagreement_error_values_default_to_empty_tuple():
    assert DisagreementError("engines differ").values == ()


def test_theorem6_respects_stabilizer_cap():
    with pytest.raises(CapExceeded):
        ict_theorem6(make_dihedral(5), cap=10)


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


def _standard(n):
    return Permutation(tuple(range(2, n + 1)) + (1,))


def test_gcd_data_matches_affine_orbit_structure():
    for n in range(1, 31):
        for j, g in _affine_elements(n, _standard(n)):
            k, t = cyclic_fixed_and_orbit_data(n, j)
            fixed, long_orbits = orbit_profile(g)
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
        assert all(g(1) == 1 for g in grp)


def test_cyclic_gamma_accepts_any_n_cycle():
    a = parse_cycles(7, "(1,3,5,7,2,4,6)")
    grp = cyclic_gamma(7, a)
    assert grp.order == 6
    assert all(conjugate(a, g) in {a ** m for m in range(1, 8)} for g in grp)
    with pytest.raises(ValueError):
        cyclic_gamma(6, parse_cycles(6, "(1,2)(3,4,5)"))


# ------------------------------------------------ commuting counts


def _brute_commuting(z, target, even_only=False):
    n = z.degree
    from itertools import permutations as itp

    count = 0
    for img in itp(range(1, n + 1)):
        q = Permutation(img)
        if q(1) != target:
            continue
        if even_only and q.parity() != 1:
            continue
        if q * z == z * q:
            count += 1
    return count


def test_sym_commuting_count_brute():
    cases = ["()", "(2,3)", "(2,3)(4,5)", "(2,3,4)", "(2,3,4,5)", "(2,3)(4,5,6)"]
    for text in cases:
        z = parse_cycles(6, text)
        counts = z.cycle_type().counts()
        expected = sym_commuting_count(counts)
        fixed = [i for i in range(1, 7) if z(i) == i]
        for i in fixed:
            assert _brute_commuting(z, i) == expected, (text, i)


def test_alt_commuting_count_brute():
    cases = ["()", "(2,3)", "(2,3)(4,5)", "(2,3,4)", "(2,3,4,5)", "(4,5,6)"]
    for text in cases:
        z = parse_cycles(6, text)
        counts = z.cycle_type().counts()
        expected = alt_commuting_count(counts)
        fixed = [i for i in range(2, 7) if z(i) == i]
        for i in fixed:
            assert _brute_commuting(z, i, even_only=True) == expected, (text, i)


def test_alt_commuting_count_zero_case():
    # centralizer of a lone 3-cycle on {3,4,5} is all-even once 1 and 2 are
    # pinned, so no even element can move 1 to 2
    z = parse_cycles(5, "(3,4,5)")
    assert alt_commuting_count(z.cycle_type().counts()) == 0
    assert _brute_commuting(z, 2, even_only=True) == 0


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
        assert power_cycle_counts(p.cycle_type().counts(), m) == (p ** m).cycle_type().counts()
    with pytest.raises(ValueError):
        power_cycle_counts({2: 1}, 0)


def test_all_even_centralizer_brute():
    """Check the parity rule against a direct scan of every fixed-point-free
    cycle type with at most 7 moved points."""
    from itertools import permutations as itp

    from transversals.symclasses import partitions

    for m in range(2, 8):
        for parts in partitions(m):
            if any(l < 2 for l in parts):
                continue
            rep = class_representative(parts, m)
            moved = [i for i in range(1, m + 2) if rep(i) != i]
            assert len(moved) == m
            all_even = True
            for img in itp(range(1, m + 2)):
                q = Permutation(img)
                if any(q(i) != i for i in range(1, m + 2) if i not in moved):
                    continue
                if q * rep == rep * q and q.parity() == -1:
                    all_even = False
                    break
            assert all_even_centralizer(parts) == all_even, parts


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
