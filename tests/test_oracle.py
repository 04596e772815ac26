"""Exhaustive classification oracle: the two classifiers must agree with
each other, with the counting engines, and with hand-checkable small cases.
"""

import random
from math import factorial

import pytest

from transversals.errors import CapExceeded
from transversals.groups import (
    PairGH,
    PermGroup,
    Transversal,
    coset_representation,
    enumerate_transversals,
    make_alt,
    make_dihedral,
    make_pq,
    make_sym,
    order18_example,
)
from transversals.ict_formulas import ict_alt, ict_sym, ict_theorem6
from transversals.oracle import (
    LoopTable,
    census_left_loops,
    classification_to_json,
    classify_by_conjugation,
    classify_by_table_iso,
    induced_table,
    left_right_agreement,
    render_classes_dump,
    subgroup_transversals,
)
from transversals.perm import Permutation, compose, conjugate, identity, parse_cycles


def same_partition(labels_a, labels_b):
    """Do two label sequences describe the same partition of the index set?"""
    if len(labels_a) != len(labels_b):
        return False
    fwd, bwd = {}, {}
    for a, b in zip(labels_a, labels_b):
        if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
            return False
    return True


def involution_pair():
    """The order-18 group over one of its non-normal involutions: degree 9,
    256 transversals, a pair where conjugation must fall back to the full
    relabeling sweep."""
    G, _ = order18_example()
    y = parse_cycles(6, "(2,3)(5,6)")
    H = PermGroup.from_generators([y], degree=6)
    return coset_representation(G, H, name="order18 over an involution")


def a4_pair():
    G = PermGroup.alternating(4)
    H = PermGroup.from_generators([parse_cycles(4, "(1,2)(3,4)")])
    return coset_representation(G, H, name="alt(4) over an involution")


# ----------------------------------------------------------- tables


def test_loop_table_validation():
    t = LoopTable(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
    assert t.members()[1] == parse_cycles(3, "(1,2,3)")
    with pytest.raises(ValueError):
        LoopTable(3, ((1, 3, 2), (2, 3, 1), (3, 1, 2)))  # bad identity row
    with pytest.raises(ValueError):
        LoopTable(3, ((1, 2, 3), (3, 2, 1), (2, 1, 3)))  # bad identity column
    with pytest.raises(ValueError):
        LoopTable(3, ((1, 2, 3), (2, 2, 1), (3, 1, 2)))  # row not a permutation
    with pytest.raises(ValueError):
        LoopTable(3, ((1, 2, 3), (2, 3, 1)))


def test_induced_table_is_the_member_rows():
    pair = make_sym(3)
    T = Transversal([identity(3), parse_cycles(3, "(1,2)"), parse_cycles(3, "(1,3,2)")])
    table = induced_table(pair, T)
    assert table.table == ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    assert table.members() == tuple(T)
    with pytest.raises(ValueError):
        induced_table(make_sym(4), T)


def test_induced_table_encodes_the_loop_operation():
    """Entry (i, j) must be the slot of the member carrying the composite of
    members i and j, i.e. its image of 1."""
    pair = make_dihedral(4)
    rng = random.Random(13)
    ts = list(enumerate_transversals(pair))
    for T in rng.sample(ts, 3):
        table = induced_table(pair, T)
        for i in range(1, 5):
            for j in range(1, 5):
                assert table.table[i - 1][j - 1] == compose(T[i - 1], T[j - 1])(1)


# ------------------------------------------------------ classifiers


def test_sym3_classes():
    result = classify_by_table_iso(make_sym(3))
    assert result.class_count == 3
    assert sorted(result.class_sizes) == [1, 1, 2]
    assert len(result.labels) == 4
    assert ict_sym(3).value == 3


def test_sym4_classes_both_ways():
    pair = make_sym(4)
    tab = classify_by_table_iso(pair)
    conj = classify_by_conjugation(pair)
    assert tab.class_count == conj.class_count == 44
    assert same_partition(tab.labels, conj.labels)
    dist = {}
    for s in tab.class_sizes:
        dist[s] = dist.get(s, 0) + 1
    assert dist == {1: 2, 2: 2, 3: 10, 6: 30}
    assert sum(tab.generating_flags) == 32


def test_alt4_classes_both_ways():
    pair = make_alt(4)
    tab = classify_by_table_iso(pair)
    conj = classify_by_conjugation(pair)
    assert tab.class_count == conj.class_count == 7 == ict_alt(4).value
    assert same_partition(tab.labels, conj.labels)
    assert len(tab.labels) == 27


def test_conjugation_walk_and_full_sweep_agree():
    for pair in (make_sym(4), make_alt(4)):
        walk = classify_by_conjugation(pair, sweep="auto")
        full = classify_by_conjugation(pair, sweep="all")
        assert walk.labels == full.labels
        assert walk.representatives == full.representatives


def test_conjugation_rejects_unknown_sweep():
    with pytest.raises(ValueError):
        classify_by_conjugation(make_sym(3), sweep="fast")


def test_dihedral_partitions_match():
    for n in range(3, 7):
        pair = make_dihedral(n)
        tab = classify_by_table_iso(pair)
        conj = classify_by_conjugation(pair)
        assert same_partition(tab.labels, conj.labels), n
        assert tab.class_count == ict_theorem6(pair).value


def test_pq_pair_classes():
    pair = make_pq(3, 7)
    conj = classify_by_conjugation(pair)
    assert conj.class_count == 130
    assert len(conj.labels) == 729


def test_involution_pair_all_engines():
    pair = involution_pair()
    assert pair.degree == 9 and pair.transversal_count() == 256
    conj = classify_by_conjugation(pair)
    tab = classify_by_table_iso(pair)
    assert conj.class_count == tab.class_count == 18
    assert same_partition(conj.labels, tab.labels)
    report = ict_theorem6(pair)
    assert report.value == 18
    assert report.gamma_order == 48


def test_a4_involution_pair_all_engines():
    pair = a4_pair()
    assert pair.degree == 6 and pair.transversal_count() == 32
    conj = classify_by_conjugation(pair)
    tab = classify_by_table_iso(pair)
    assert conj.class_count == tab.class_count == 5
    assert same_partition(conj.labels, tab.labels)
    assert ict_theorem6(pair).value == 5


def test_class_members_are_actually_equivalent():
    """Pick random same-class pairs for sym(4) and exhibit the relabeling."""
    pair = make_sym(4)
    result = classify_by_conjugation(pair)
    ts = list(enumerate_transversals(pair))
    buckets = {}
    for i, lab in enumerate(result.labels):
        buckets.setdefault(lab, []).append(i)
    alphas = [
        Permutation((1,) + tail)
        for tail in __import__("itertools").permutations(range(2, 5))
    ]
    rng = random.Random(8)
    for lab, idxs in rng.sample(sorted(buckets.items()), 10):
        i = idxs[0]
        j = rng.choice(idxs)
        src = frozenset(ts[i])
        dst = frozenset(ts[j])
        assert any(
            frozenset(conjugate(q, a) for q in src) == dst for a in alphas
        ), (i, j)


def test_classes_separate_inequivalent_transversals():
    """Transversals in different classes admit no linking relabeling."""
    pair = make_sym(4)
    result = classify_by_conjugation(pair)
    ts = list(enumerate_transversals(pair))
    alphas = [
        Permutation((1,) + tail)
        for tail in __import__("itertools").permutations(range(2, 5))
    ]
    rng = random.Random(21)
    checked = 0
    while checked < 10:
        i, j = rng.randrange(len(ts)), rng.randrange(len(ts))
        if result.labels[i] == result.labels[j]:
            continue
        src = frozenset(ts[i])
        dst = frozenset(ts[j])
        assert all(
            frozenset(conjugate(q, a) for q in src) != dst for a in alphas
        ), (i, j)
        checked += 1


def test_generating_flag_is_a_class_invariant():
    from transversals.groups import generates

    pair = make_alt(4)
    result = classify_by_conjugation(pair)
    ts = list(enumerate_transversals(pair))
    for i, lab in enumerate(result.labels):
        assert generates(pair, ts[i]) == result.generating_flags[lab]


def test_classifier_caps():
    with pytest.raises(CapExceeded) as exc:
        classify_by_conjugation(make_sym(5), cap=100)
    assert exc.value.cap_name == "transversals"
    with pytest.raises(CapExceeded) as exc:
        classify_by_table_iso(make_sym(5), relabel_cap=5)
    assert exc.value.cap_name == "relabelings"
    with pytest.raises(CapExceeded) as exc:
        classify_by_conjugation(make_dihedral(5), stab_cap=2)
    assert exc.value.cap_name == "stabilizer_enum"
    # the transversal cap is checked before the relabeling cap
    with pytest.raises(CapExceeded) as exc:
        classify_by_table_iso(make_sym(5), cap=100, relabel_cap=5)
    assert str(exc.value) == "cap 'transversals' exceeded: requires 331776, limit is 100"
    from transversals.oracle import _right_transversals

    with pytest.raises(CapExceeded) as exc:
        list(_right_transversals(make_sym(4), cap=10))
    assert str(exc.value) == "cap 'transversals' exceeded: requires 216, limit is 10"


def test_conjugation_cap_precedes_cosets(monkeypatch):
    """An over-cap pair fails on its transversal count alone."""
    def no_cosets(self):
        raise AssertionError("cosets built before the cap check")

    monkeypatch.setattr(PairGH, "cosets", no_cosets)
    with pytest.raises(CapExceeded) as exc:
        classify_by_conjugation(make_sym(5), cap=100)
    assert str(exc.value) == "cap 'transversals' exceeded: requires 331776, limit is 100"


# ----------------------------------------------------------- census


def test_census_tiny_orders():
    assert census_left_loops(1).class_count == 1
    assert census_left_loops(2).class_count == 1
    r3 = census_left_loops(3)
    assert r3.class_count == 3
    assert len(r3.labels) == 4
    with pytest.raises(ValueError):
        census_left_loops(0)


def test_census_order_4():
    result = census_left_loops(4)
    assert result.class_count == 44
    assert len(result.labels) == 216
    assert sum(result.generating_flags) == 32


def test_census_matches_symmetric_pair_classification():
    """Left-loop tables of order n and transversals of the point stabilizer
    in Sym(n) are the same objects enumerated in the same order."""
    for n in (3, 4):
        census = census_left_loops(n)
        tab = classify_by_table_iso(make_sym(n))
        assert census.labels == tab.labels
        assert census.class_sizes == tab.class_sizes
        assert census.generating_flags == tab.generating_flags
        assert census.representatives == tab.representatives


def test_census_representatives_are_valid_tables():
    result = census_left_loops(3)
    for rep in result.representatives:
        assert isinstance(rep, LoopTable)
        members = rep.members()
        assert members[0].is_identity()
    assert len({rep.table for rep in result.representatives}) == 3


def test_census_cap():
    with pytest.raises(CapExceeded):
        census_left_loops(6, cap=1000)


# ------------------------------------------------- subgroup structure


def test_subgroup_transversals_dihedral():
    # odd n: only the rotation subgroup; even n: rotations plus one more
    assert len(subgroup_transversals(make_dihedral(5))) == 1
    assert len(subgroup_transversals(make_dihedral(7))) == 1
    assert len(subgroup_transversals(make_dihedral(6))) == 2
    assert len(subgroup_transversals(make_dihedral(8))) == 2


def test_subgroup_transversals_are_subgroups():
    for pair in (make_dihedral(6), make_sym(4)):
        subs = subgroup_transversals(pair)
        for T in subs:
            members = set(T)
            assert identity(pair.degree) in members
            assert all(compose(p, q) in members for p in members for q in members)


def test_subgroup_transversals_sym4():
    subs = subgroup_transversals(make_sym(4))
    assert len(subs) == 4
    # the three cyclic C4 subgroups and the Klein four-group
    cyclic = [T for T in subs if any(len(p.orbits()) == 1 for p in T)]
    assert len(cyclic) == 3
    (klein,) = [T for T in subs if T not in cyclic]
    assert all(p.is_identity() or p.cycle_type().pairs == ((2, 2),) for p in klein)


# ------------------------------------------------------ left vs right


def test_left_right_agreement():
    for pair in (make_dihedral(3), make_dihedral(4), make_sym(4), make_alt(4)):
        assert left_right_agreement(pair), pair.name


def test_right_and_left_transversal_counts_coincide():
    from transversals.oracle import _right_transversals

    for pair in (make_dihedral(5), make_alt(4)):
        rights = list(_right_transversals(pair, cap=10 ** 6))
        assert len(rights) == pair.transversal_count()
        n = pair.degree
        for R in rights[: 20]:
            assert R[0].is_identity()
            assert [q.inverse()(1) for q in R] == list(range(1, n + 1))


# ----------------------------------------------------------- output


def test_render_classes_dump():
    result = classify_by_table_iso(make_sym(3))
    text = render_classes_dump(result, heading="pair: sym(3)")
    assert text.startswith("pair: sym(3)\n")
    assert "classes: 3" in text
    assert "transversals: 4" in text
    assert text.count("generates:") == 3
    assert "class 1: size" in text and "class 3: size" in text
    assert "members: (), (1,2,3), (1,3,2)" in text
    # deterministic
    assert text == render_classes_dump(result, heading="pair: sym(3)")
    # blocks follow the result's class order
    result = classify_by_table_iso(make_dihedral(6))
    blocks = render_classes_dump(result).split("\n\n")[1:]
    assert result.class_count == len(blocks) == 20
    for k, block in enumerate(blocks, start=1):
        assert block.startswith(f"class {k}: size")
        rows = block.split("table:\n")[1].splitlines()
        assert tuple(tuple(map(int, row.split())) for row in rows) == \
            result.representatives[k - 1].table


def test_classification_to_json():
    result = classify_by_conjugation(make_alt(4))
    data = classification_to_json(result)
    assert data["schema"] == "classification/1"
    assert data["class_count"] == 7
    assert sum(data["class_sizes"]) == 27
    assert len(data["representatives"]) == 7
    assert all(row[0] == i + 1 for rep in data["representatives"] for i, row in enumerate(rep))
    assert "labels" not in data
