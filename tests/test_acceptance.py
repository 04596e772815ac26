"""Acceptance gate: eleven exact-integer criteria, one test each.

Run with -v to get one pass/fail line per criterion.  Every comparison is
exact; the time budgets are generous on purpose and enforced with
perf_counter so a regression to brute force shows up as a failure here.
"""

import time
from itertools import permutations as itpermutations
from math import factorial, gcd

from transversals.groups import (
    PermGroup,
    PairGH,
    enumerate_transversals,
    generates,
    make_alt,
    make_dihedral,
    make_pq,
    make_sym,
    normalizer_in_stab,
)
from transversals.ict_formulas import (
    all_even_centralizer,
    ict_alt,
    ict_cyclic,
    ict_sym,
    ict_theorem6,
)
from transversals.oracle import (
    census_left_loops,
    classify_by_conjugation,
    classify_by_table_iso,
)
from transversals.perm import Permutation, parse_cycles
from transversals.symclasses import partitions

from oracles import (
    class_representative,
    compose,
    coset_representation_reference,
    elements,
    group_of,
    is_normal,
    left_right_agreement,
    order18_example,
    parity,
    subgroup_transversal_sets,
    subgroup_transversals,
)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def same_partition(labels_a, labels_b):
    if len(labels_a) != len(labels_b):
        return False
    fwd, bwd = {}, {}
    for a, b in zip(labels_a, labels_b):
        if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
            return False
    return True


def test_criterion_01_sym_closed_form():
    expected = {4: 44, 5: 14022, 6: 207392556, 7: 193491859167624}
    for n, value in expected.items():
        report, elapsed = timed(ict_sym, n)
        assert report.value == value, n
        assert elapsed < 1.0, (n, elapsed)


def test_criterion_02_alt_closed_form():
    for n, value in ((4, 7), (5, 897)):
        report, elapsed = timed(ict_alt, n)
        assert report.value == value, n
        assert elapsed < 1.0, (n, elapsed)


def test_criterion_03_cyclic_three_way_agreement():
    assert ict_cyclic(make_dihedral(3)).value == 3
    assert ict_cyclic(make_dihedral(4)).value == 6
    start = time.perf_counter()
    for n in range(3, 11):
        pair = make_dihedral(n)
        closed = ict_cyclic(pair).value
        direct = ict_theorem6(pair).value
        oracle = classify_by_conjugation(pair).class_count
        assert closed == direct == oracle, (n, closed, direct, oracle)
    assert time.perf_counter() - start < 60.0


def test_criterion_04_oracle_reproduction():
    result, elapsed = timed(classify_by_conjugation, make_sym(4))
    assert result.class_count == 44 and len(result.labels) == 216
    assert elapsed < 5.0

    result, elapsed = timed(classify_by_conjugation, make_alt(4))
    assert result.class_count == 7 and len(result.labels) == 27
    assert elapsed < 1.0

    result, elapsed = timed(classify_by_conjugation, make_alt(5))
    assert result.class_count == 897 and len(result.labels) == 20736
    assert elapsed < 300.0

    result, elapsed = timed(census_left_loops, 5)
    assert result.class_count == 14022 and len(result.labels) == 331776
    assert elapsed < 600.0


def test_criterion_05_conjugation_equals_table_isomorphism():
    pairs = [make_sym(4), make_alt(4), make_alt(5)]
    pairs += [make_dihedral(n) for n in range(3, 9)]
    for pair in pairs:
        conj = classify_by_conjugation(pair)
        tab = classify_by_table_iso(pair)
        assert conj.class_count == tab.class_count, pair.name
        assert same_partition(conj.labels, tab.labels), pair.name


def test_criterion_06_left_right_symmetry():
    for pair in (make_dihedral(3), make_dihedral(4), make_sym(4), make_alt(4)):
        assert left_right_agreement(pair), pair.name


def test_criterion_07_fact_sweep():
    fixtures = [(make_dihedral(n), ict_cyclic(make_dihedral(n)).value)
                for n in range(3, 11)]
    fixtures += [(make_pq(p, q), ict_cyclic(make_pq(p, q)).value)
                 for p, q in ((2, 3), (2, 5), (3, 7), (2, 7))]
    fixtures += [(make_sym(n), ict_sym(n).value) for n in range(2, 6)]
    fixtures += [(make_alt(n), ict_alt(n).value) for n in (4, 5)]
    C3 = group_of([parse_cycles(3, "(1,2,3)")])
    control = PairGH(C3, name="cyclic(3) regular")
    fixtures.append((control, ict_theorem6(control).value))

    normals = 0
    for pair, value in fixtures:
        normal = is_normal(pair.stabilizer, pair.group)
        assert (value == 1) == normal, (pair.name, value)  # Fact 1
        assert value not in (2, 4), (pair.name, value)  # Fact 2
        if pair.degree == 3 and not normal:
            assert value == 3, (pair.name, value)  # Fact 3
        normals += normal
    assert normals == 2  # the control and sym(2), whose stabilizer is trivial


def test_criterion_08_structural_checks():
    def phi(n):
        return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)

    for n in range(3, 11):
        assert normalizer_in_stab(make_dihedral(n)).order == phi(n), n

    for make in (make_sym, make_alt):
        for n in (4, 5):
            gamma = normalizer_in_stab(make(n))
            assert gamma.order == factorial(n - 1), (make.__name__, n)
            assert all(g(1) == 1 for g in elements(gamma))

    reports = [ict_sym(n) for n in range(2, 8)]
    reports += [ict_alt(n) for n in (4, 5, 6)]
    reports += [ict_cyclic(make_dihedral(n)) for n in range(3, 11)]
    reports += [ict_theorem6(make_dihedral(n)) for n in (5, 7)]
    for report in reports:
        assert report.numerator == report.value * report.gamma_order

    for n in range(3, 11):
        subs = subgroup_transversals(make_dihedral(n))
        assert len(subs) == (1 if n % 2 else 2), n


def test_criterion_09_centralizer_parity_rule():
    for m in range(2, 8):
        for parts in partitions(m):
            if any(l < 2 for l in parts):
                continue
            rep = class_representative(parts, m)
            moved = [i for i in range(1, m + 2) if rep(i) != i]
            all_even = True
            for img in itpermutations(range(1, m + 2)):
                q = Permutation(img)
                if any(q(i) != i for i in range(1, m + 2) if i not in moved):
                    continue
                if compose(q, rep) == compose(rep, q) and parity(q) == -1:
                    all_even = False
                    break
            assert all_even_centralizer(parts) == all_even, parts


def test_criterion_10_order18_no_transversal_generates():
    """Exhaustive scan of the abstract order-18 pair: every transversal of H
    in G fails to generate G.  The claim lives before the coset
    representation; the image pair is only checked for its shape (2 * 2
    transversals), since quotienting away the kernel restores generation."""
    G, H = order18_example()
    scanned = 0
    for T in subgroup_transversal_sets(G, H):
        assert group_of(T, degree=G.degree, cap=G.order + 1).order < G.order
        scanned += 1
    assert scanned == H.order ** 2  # index 3: two free cosets

    image = coset_representation_reference(G, H, name="order18 image")
    assert image.subgroup_order == 2 and image.degree == 3
    assert image.transversal_count() == 2 ** 2
    assert any(generates(image, T) for T in enumerate_transversals(image))


def test_criterion_11_table_iso_past_the_relabeling_cap():
    """dihedral(10) classified by canonical forms over all 9! identity-fixing
    relabelings, the default cap raised to let them in: the 512 tables fall
    into ict_cyclic's 140 classes within 2 s."""
    pair = make_dihedral(10)
    result, elapsed = timed(classify_by_table_iso, pair, relabel_cap=factorial(9))
    assert result.class_count == ict_cyclic(pair, cap=0).value == 140
    assert elapsed < 2.0
