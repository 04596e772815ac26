"""Exhaustive classification oracle: the two classifiers must agree with
each other, with the counting engines, and with hand-checkable small cases.

Both classifiers are also checked against reference copies of the
implementations they replaced: canonical forms as a lexicographic-minimum
sweep over every relabeling and as a refinement of every (table,
relabeling) pair, and conjugation classes as union-find over transversals
keyed by Python tuples.
"""

import json
import random
import time
from itertools import permutations
from math import factorial

import numpy as np
import pytest

import transversals.groups as groups
import transversals.oracle as oracle
from transversals.errors import CAP_STAB_ENUM, CapExceeded
from transversals.groups import (
    NORMALIZER_CHUNK,
    PairGH,
    PermGroup,
    _invert_rows,
    _normalizing,
    _perm_rows,
    _row_keys,
    enumerate_transversals,
    generates,
    make_alt,
    make_dihedral,
    make_pq,
    make_sym,
    normalizer_in_stab,
    pair_from_fixture,
    stabilizer_candidates,
)
from transversals.ict_formulas import ict_alt, ict_sym, ict_theorem6
from transversals.oracle import (
    _canonical_forms,
    census_left_loops,
    classification_to_json,
    classify_by_conjugation,
    classify_by_table_iso,
    render_classes_dump,
)
from transversals.perm import Permutation, parse_cycles

from oracles import (
    Classification,
    LoopTable,
    _right_transversals,
    candidate_relabelings_reference,
    check_candidate_relabelings,
    classification_tuples,
    compose,
    conjugate,
    coset_representation_reference,
    cycle_type,
    group_of,
    induced_table,
    inverse,
    left_right_agreement,
    members,
    normalizing_reference,
    order18_example,
    perms,
    relabel,
    subgroup_transversals,
    sweep_canonical_forms,
    theorem6_factors_reference,
)


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
    H = group_of([y], degree=6)
    return coset_representation_reference(G, H, name="order18 over an involution")


def a4_pair():
    G = PermGroup.alternating(4)
    H = group_of([parse_cycles(4, "(1,2)(3,4)")])
    return coset_representation_reference(G, H, name="alt(4) over an involution")


# ------------------------------------------------------- references


def ref_relabelings(n):
    """Every permutation of 1..n fixing 1, as sorted 0-based rows."""
    return np.array([(0, *tail) for tail in permutations(range(1, n))], dtype=np.uint8)


def ref_canonical_forms(tables, n):
    """The lexicographic minimum of each flattened table over every
    identity-fixing relabeling, one relabeling at a time."""
    N = tables.shape[0]
    flat_tables = np.ascontiguousarray(tables.reshape(N, n * n))
    F = ref_relabelings(n)
    Finv = _invert_rows(F).astype(np.int64)
    positions = (Finv[:, :, None] * n + Finv[:, None, :]).reshape(len(F), n * n)
    rows = np.arange(N)
    best = flat_tables.copy()
    for k in range(1, len(F)):
        flat = F[k][flat_tables[:, positions[k]]]
        neq = flat != best
        first = neq.argmax(axis=1)
        better = neq.any(axis=1) & (flat[rows, first] < best[rows, first])
        best[better] = flat[better]
    return best


class RefUnionFind:
    def __init__(self):
        self.parent = []

    def add(self):
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, i):
        while self.parent[i] != i:
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def ref_conjugate_key(key, a_img, a_inv, n):
    """Key of alpha T alpha^-1 from the key of T: its members beyond the
    identity as image tuples, in slot order."""
    slots = [None] * (n - 1)
    for images in key:
        q = tuple(a_img[images[a_inv[i] - 1] - 1] for i in range(n))
        slots[q[0] - 2] = q
    return tuple(slots)


def ref_candidate_relabelings(pair):
    """(images, inverse images) of every identity-fixing alpha that
    conjugates at least one member of each coset into G."""
    n = pair.degree
    A = ref_relabelings(n)
    Ainv = _invert_rows(A)
    useful = np.ones(len(A), dtype=bool)
    for coset in pair.cosets()[1:]:
        covered = np.zeros(len(A), dtype=bool)
        for qrow in coset:
            covered |= pair.group._locate(np.take_along_axis(A, qrow[Ainv], axis=1)) >= 0
        useful &= covered
    return [(tuple(int(v) + 1 for v in A[k]), tuple(int(v) + 1 for v in Ainv[k]))
            for k in np.nonzero(useful)[0]]


def relabeling_generators(n):
    """(2,3) and (2,3,...,n), which generate the identity-fixing relabelings."""
    if n < 3:
        return []
    return [Permutation.from_cycles(n, [(2, 3)]),
            Permutation.from_cycles(n, [tuple(range(2, n + 1))])]


def ref_classify_by_conjugation(pair, sweep="auto"):
    """Union-find over the transversals keyed by tuples: every candidate
    alpha applied to every transversal ("all"), or the two generators of
    the relabeling group ("walk") when they normalize G."""
    n = pair.degree
    rows = list(enumerate_transversals(pair))
    transversals = [perms(T) for T in rows]
    index, uf = {}, RefUnionFind()
    for T in transversals:
        index[tuple(p.images for p in T[1:])] = uf.add()
    gens = relabeling_generators(n)
    walk = sweep == "auto" and _normalizing(pair.group, _perm_rows(gens, n)).all()
    if walk:
        moves = [(g.images, inverse(g).images) for g in gens]
    else:
        moves = ref_candidate_relabelings(pair)
    for key, i in list(index.items()):
        for a_img, a_inv in moves:
            other = index.get(ref_conjugate_key(key, a_img, a_inv, n))
            if other is not None:
                uf.union(i, other)
    roots, labels = {}, []
    for i in range(len(transversals)):
        labels.append(roots.setdefault(uf.find(i), len(roots)))
    sizes, first = [0] * len(roots), {}
    for i, label in enumerate(labels):
        sizes[label] += 1
        first.setdefault(label, i)
    return Classification(
        class_count=len(roots),
        representatives=tuple(induced_table(pair, transversals[i]) for i in first.values()),
        class_sizes=tuple(sizes),
        generating_flags=tuple(generates(pair, rows[i]) for i in first.values()),
        labels=tuple(labels),
    )


def least_members(result):
    """The least index of each transversal's class, read off its labels:
    what the conjugation labelers compute."""
    first = {}
    return [first.setdefault(label, i) for i, label in enumerate(result.labels)]


# ----------------------------------------------------------- tables


def test_loop_table_validation():
    t = LoopTable(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
    assert members(t)[1] == parse_cycles(3, "(1,2,3)")
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
    T = (Permutation.identity(3), parse_cycles(3, "(1,2)"), parse_cycles(3, "(1,3,2)"))
    table = induced_table(pair, T)
    assert table.table == ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    assert members(table) == tuple(T)
    with pytest.raises(ValueError):
        induced_table(make_sym(4), T)


def test_induced_table_encodes_the_loop_operation():
    """Entry (i, j) must be the slot of the member carrying the composite of
    members i and j, i.e. its image of 1."""
    pair = make_dihedral(4)
    rng = random.Random(13)
    ts = [perms(T) for T in enumerate_transversals(pair)]
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
        gens = _perm_rows(relabeling_generators(pair.degree), pair.degree)
        walk = oracle._walk_labels(pair, gens)
        full = oracle._sweep_labels(pair, CAP_STAB_ENUM)
        assert walk.tolist() == full.tolist() == least_members(
            ref_classify_by_conjugation(pair))


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
    ts = [perms(T) for T in enumerate_transversals(pair)]
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
    ts = [perms(T) for T in enumerate_transversals(pair)]
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
    pair = make_alt(4)
    result = classify_by_conjugation(pair)
    ts = list(enumerate_transversals(pair))
    for i, lab in enumerate(result.labels):
        assert generates(pair, ts[i]) == result.generating_flags[lab]


def test_classifier_caps(monkeypatch):
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
    with pytest.raises(CapExceeded) as exc:
        list(_right_transversals(make_sym(4), cap=10))
    assert str(exc.value) == "cap 'transversals' exceeded: requires 216, limit is 10"

    # the relabeling cap is checked before any table is built
    def no_tables(*args):
        raise AssertionError("tables built before the relabeling cap check")

    monkeypatch.setattr(oracle, "_section_rows", no_tables)
    for classify in (lambda: classify_by_table_iso(make_dihedral(10)),
                     lambda: census_left_loops(4, relabel_cap=5)):
        with pytest.raises(CapExceeded) as exc:
            classify()
        assert exc.value.cap_name == "relabelings"


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
        assert np.array_equal(census.labels, tab.labels)
        assert np.array_equal(census.class_sizes, tab.class_sizes)
        assert np.array_equal(census.generating_flags, tab.generating_flags)
        assert np.array_equal(census.representatives, tab.representatives)


def test_census_representatives_are_valid_tables():
    representatives = classification_tuples(census_left_loops(3)).representatives
    for rep in representatives:
        assert isinstance(rep, LoopTable)
        assert members(rep)[0] == Permutation.identity(3)
    assert len({rep.table for rep in representatives}) == 3


def test_census_cap():
    with pytest.raises(CapExceeded):
        census_left_loops(6, cap=1000)


@pytest.mark.parametrize("n", [1000, 10**6, 10**30])
def test_census_refuses_any_order_cheaply(n):
    """The count ((n-1)!)^(n-1) is refused from bit lengths, never built."""
    start = time.process_time()
    with pytest.raises(CapExceeded) as exc:
        census_left_loops(n)
    assert time.process_time() - start < 0.5
    assert str(exc.value) == (f"cap 'transversals' exceeded: requires ({n - 1}!)^{n - 1}, "
                              f"limit is 10000000")


def test_census_refusal_prints_counts_of_printable_length():
    """A refused count of at most 4,300 digits, Python's default limit for
    converting an int to text, is stated in full; a longer one as its
    formula.  A cap above the count lets the census on to Sym(n)."""
    with pytest.raises(CapExceeded) as exc:
        census_left_loops(57)
    assert exc.value.required == factorial(56) ** 56  # 4,192 digits
    with pytest.raises(CapExceeded) as exc:
        census_left_loops(58)
    assert exc.value.required == "(57!)^57"  # 4,366 digits
    with pytest.raises(CapExceeded) as exc:
        census_left_loops(58, cap=10**5000)
    assert exc.value.cap_name == "group_order"


# A representative of each conjugacy class of transitive groups of degree 4
# and 5, by generators, with the classes of its transversals that generate it
STRATA = {
    4: {"C4": (["(1,2,3,4)"], 1),
        "V4": (["(1,2)(3,4)", "(1,3)(2,4)"], 1),
        "D4": (["(1,2,3,4)", "(1,3)"], 4),
        "A4": (["(1,2,3)", "(2,3,4)"], 6),
        "S4": (["(1,2)", "(1,2,3,4)"], 32)},
    5: {"C5": (["(1,2,3,4,5)"], 1),
        "D5": (["(1,2,3,4,5)", "(2,5)(3,4)"], 5),
        "F20": (["(1,2,3,4,5)", "(2,3,5,4)"], 64),
        "A5": (["(1,2,3)", "(1,2,3,4,5)"], 891),
        "S5": (["(1,2)", "(1,2,3,4,5)"], 13061)},
}


@pytest.mark.parametrize("n, total, even, alt_total", [
    (4, 44, ("V4", "A4"), 7),
    (5, 14022, ("C5", "D5", "A5"), 897),
])
def test_census_sums_the_transitive_strata(n, total, even, alt_total):
    """The rows of a left loop generate a transitive group, so the census of
    order n is the sum over the transitive groups G of degree n of the
    classes of G's transversals that generate G; the even groups sum to the
    count for Alt(n)."""
    counts = {}
    for name, (gens, _) in STRATA[n].items():
        G = group_of([parse_cycles(n, g) for g in gens])
        counts[name] = sum(classify_by_conjugation(PairGH(G)).generating_flags)
    assert counts == {name: want for name, (_, want) in STRATA[n].items()}
    assert sum(counts.values()) == total == ict_sym(n).value
    assert sum(counts[name] for name in even) == alt_total == ict_alt(n).value
    if n == 4:
        census = census_left_loops(4)
        assert census.class_count == total
        assert sum(census.generating_flags) == counts["S4"] == 32


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
            elements = set(T)
            assert Permutation.identity(pair.degree) in elements
            assert all(compose(p, q) in elements for p in elements for q in elements)


def test_subgroup_transversals_sym4():
    subs = subgroup_transversals(make_sym(4))
    assert len(subs) == 4
    # the three cyclic C4 subgroups and the Klein four-group
    cyclic = [T for T in subs if any(len(p.orbits()) == 1 for p in T)]
    assert len(cyclic) == 3
    (klein,) = [T for T in subs if T not in cyclic]
    assert all(p == Permutation.identity(4) or cycle_type(p) == (2, 2) for p in klein)


# ------------------------------------------------------ left vs right


def test_left_right_agreement():
    for pair in (make_dihedral(3), make_dihedral(4), make_sym(4), make_alt(4)):
        assert left_right_agreement(pair), pair.name


def test_right_and_left_transversal_counts_coincide():
    for pair in (make_dihedral(5), make_alt(4)):
        rights = list(_right_transversals(pair, cap=10 ** 6))
        assert len(rights) == pair.transversal_count()
        n = pair.degree
        for R in rights[: 20]:
            assert R[0] == Permutation.identity(n)
            assert [inverse(q)(1) for q in R] == list(range(1, n + 1))


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
        assert np.array_equal([list(map(int, row.split())) for row in rows],
                              result.representatives[k - 1] + 1)


def test_classification_to_json():
    result = classify_by_conjugation(make_alt(4))
    data = classification_to_json(result)
    assert data["schema"] == "classification/1"
    assert data["class_count"] == 7
    assert sum(data["class_sizes"]) == 27
    assert len(data["representatives"]) == 7
    assert all(row[0] == i + 1 for rep in data["representatives"] for i, row in enumerate(rep))
    assert "labels" not in data


def test_classification_result_is_arrays():
    """Both classifiers return arrays: 0-based (C, n, n) representatives,
    one size and one flag per class, one label per transversal.  The JSON
    dict holds Python values only, which json.dumps accepts."""
    pair = make_alt(4)
    for result in (classify_by_conjugation(pair), classify_by_table_iso(pair)):
        assert result.representatives.shape == (7, 4, 4)
        assert np.array_equal(result.representatives[:, :, 0], np.tile(np.arange(4), (7, 1)))
        assert result.class_sizes.shape == result.generating_flags.shape == (7,)
        assert result.generating_flags.dtype == bool
        assert result.labels.shape == (27,)
        assert type(result.class_count) is int
        data = classification_to_json(result)
        assert json.loads(json.dumps(data)) == data


# ------------------------------------------- against the references

# Every standard pair of tests/test_kernel.py's FIXTURES with at most
# 20,736 transversals (Sym(5) and up, Alt(6) and up have millions), and the
# two hand-built pairs above.
FAMILIES = {
    **{f"sym{n}": (lambda n=n: make_sym(n)) for n in (2, 3, 4)},
    **{f"alt{n}": (lambda n=n: make_alt(n)) for n in (4, 5)},
    **{f"dihedral{n}": (lambda n=n: make_dihedral(n)) for n in range(3, 9)},
    **{f"pq{p}_{q}": (lambda p=p, q=q: make_pq(p, q))
       for p, q in ((2, 3), (2, 5), (2, 7), (3, 7))},
    "order18": lambda: coset_representation_reference(*order18_example()),
    "order18_involution": involution_pair,
    "alt4_involution": a4_pair,
}

# degree 9: the reference sweeps 40,320 relabelings for seconds
SLOW_REFERENCE_TABLES = {"order18_involution"}


def transversal_tables(pair):
    """Induced tables of every transversal, 0-based, in enumeration order."""
    return np.stack(list(enumerate_transversals(pair)))


def ref_table_classes(pair):
    """classify_by_table_iso from the reference canonical forms."""
    tables = transversal_tables(pair)
    canon = ref_canonical_forms(tables, pair.degree)
    forms, first, labels, sizes = np.unique(
        canon, axis=0, return_index=True, return_inverse=True, return_counts=True)
    return Classification(
        class_count=len(forms),
        representatives=tuple(induced_table(pair, perms(tables[i])) for i in first),
        class_sizes=tuple(sizes.tolist()),
        generating_flags=tuple(generates(pair, tables[i]) for i in first),
        labels=tuple(labels.ravel().tolist()),
    )


def random_relabeling(rng, n):
    return Permutation((1, *rng.sample(range(2, n + 1), n - 1)))


@pytest.mark.parametrize("sweep", ["auto", "all"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_conjugation_matches_reference(name, sweep):
    """"auto" is classify_by_conjugation; "all" is its full-sweep labeler,
    also on the pairs where the classifier takes the walk."""
    pair = FAMILIES[name]()
    want = ref_classify_by_conjugation(pair, sweep)
    if sweep == "auto":
        assert classification_tuples(classify_by_conjugation(pair)) == want
    else:
        assert oracle._sweep_labels(pair, CAP_STAB_ENUM).tolist() == least_members(want)


@pytest.mark.parametrize("name", sorted(set(FAMILIES) - SLOW_REFERENCE_TABLES))
def test_table_classes_match_reference(name):
    pair = FAMILIES[name]()
    ref = ref_table_classes(pair)
    assert classification_tuples(classify_by_table_iso(pair)) == ref


# Tables the search must canonicalize as both references do: every family
# pair, the census tables of orders 1-4, a seeded relabeling of dihedral(8),
# and dihedral(9), where the sweep reads 40,320 relabelings per table.
CANONICAL_INPUTS = {
    **FAMILIES,
    **{f"census{n}": (lambda n=n: PairGH(PermGroup.symmetric(n))) for n in range(1, 5)},
    "dihedral8_relabeled": lambda: relabel(
        make_dihedral(8), random_relabeling(random.Random("dihedral8"), 8)),
    "dihedral9": lambda: make_dihedral(9),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_INPUTS))
def test_canonical_forms_match_references(name):
    """The search equals the sweep it replaced, in values and dtype, and
    the one-relabeling-at-a-time reference (about 4 s at degree 9)."""
    pair = CANONICAL_INPUTS[name]()
    tables = transversal_tables(pair)
    canon = _canonical_forms(tables, pair.degree)
    sweep = sweep_canonical_forms(tables, pair.degree)
    assert canon.dtype == sweep.dtype
    assert np.array_equal(canon, sweep)
    assert np.array_equal(canon, ref_canonical_forms(tables, pair.degree))


THEOREM6_INPUTS = {
    **FAMILIES,
    "psl25": lambda: pair_from_fixture("degree 6\ngen (1,2,3,4,5)\ngen (1,6)(2,5)\n"),
    "dihedral8_relabeled": CANONICAL_INPUTS["dihedral8_relabeled"],
    # rows whose factors are not all equal, so that their order shows:
    # (2,3)(4,5,6) has orbit factors 6, 12; in this order-288 group (4,5,8)
    # has fixed-symbol factors 9, 0, 9, 9
    "sym6": lambda: make_sym(6),
    "order288": lambda: pair_from_fixture("degree 8\ngen (4,5,8)\ngen (1,8,7,5)(2,3,6,4)\n"),
}


@pytest.mark.parametrize("name", sorted(THEOREM6_INPUTS))
def test_theorem6_factors_follow_the_orbits_in_order(name):
    """Each class row of theorem6 lists its factors as the reference does:
    symbol 1's 1, the fixed symbols ascending, then the long orbits by
    least member, not merely the same multiset."""
    pair = THEOREM6_INPUTS[name]()
    for c in ict_theorem6(pair).contributions:
        x = parse_cycles(pair.degree, c.representative)
        assert (c.a_factors, c.orbit_factors) == theorem6_factors_reference(pair, x), (
            c.representative)


# Every family pair, PSL(2,5), the seeded relabeling of dihedral(8), and
# the pair of degree 1, Sym(1) (sym2 is the degree-2 one).
NARROWING_INPUTS = {
    **FAMILIES,
    "psl25": THEOREM6_INPUTS["psl25"],
    "dihedral8_relabeled": CANONICAL_INPUTS["dihedral8_relabeled"],
    "census1": CANONICAL_INPUTS["census1"],
}


@pytest.mark.parametrize("name", sorted(NARROWING_INPUTS))
def test_narrowed_sweeps_match_full_width(name, monkeypatch):
    """The relabeling sweeps that test one coset, or one generator, at a
    time equal the full-width references in values, dtype and order, at
    the default batch size and at 24 candidates per batch, and so does
    the candidate set C, seeded or swept, with the seeds forced too.  The
    normalizer mask is also checked for the group whose generators are
    all of its rows, for every candidate that does not normalize G (none
    passes), and for the trivial group, which has no generator (all pass)."""
    pair = NARROWING_INPUTS[name]()
    n, want = pair.degree, candidate_relabelings_reference(pair)
    sizes = []
    conjugating_into = oracle._conjugating_into

    def counted(group, alphas, row_sets, index):
        kept = conjugating_into(group, alphas, row_sets, index)
        sizes.append(len(kept))
        return kept

    monkeypatch.setattr(oracle, "_conjugating_into", counted)
    for batch in (oracle.BATCH, 24 * pair.group.order):
        monkeypatch.setattr(oracle, "BATCH", batch)
        with monkeypatch.context() as patch:
            patch.setattr(groups, "SEED_COST_ROWS", factorial(12))  # the sweep
            got = oracle._candidate_relabelings(pair, CAP_STAB_ENUM)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    if -(-factorial(n - 1) // 24) > len(want):
        assert 0 in sizes  # more batches of 24 than survivors: one kept none
    check_candidate_relabelings(pair, monkeypatch)  # in batches of 24 seeds too

    alphas = np.concatenate(list(stabilizer_candidates(n, size=NORMALIZER_CHUNK)))
    trivial = PermGroup.from_generators(np.empty((0, n), dtype=alphas.dtype))
    for group in (pair.group, PermGroup(pair.group._rows), trivial):
        mask = _normalizing(group, alphas)
        ref = normalizing_reference(group, alphas)
        assert mask.dtype == ref.dtype and mask.shape == ref.shape
        assert np.array_equal(mask, ref)
    assert _normalizing(trivial, alphas).all()
    outside = alphas[~_normalizing(pair.group, alphas)]
    assert not _normalizing(pair.group, outside).any()
    assert np.array_equal(_normalizing(pair.group, outside),
                          normalizing_reference(pair.group, outside))


# |C| and |Gamma| of the pairs item 1's certificate |C| = |Gamma| is read
# on, and whether C comes from seeds; degree 11 with the stabilizer cap
# raised past 10!.
CERTIFICATES = {
    "psl25": (THEOREM6_INPUTS["psl25"], CAP_STAB_ENUM, 120, 20, False),
    "pgl25": (lambda: pair_from_fixture(
        "degree 6\ngen (1,2,3,4,5)\ngen (1,6)(2,5)\ngen (2,3,5,4)\n"),
        CAP_STAB_ENUM, 120, 20, False),
    "psl32": (lambda: pair_from_fixture("degree 7\ngen (1,2,3,4,5,6,7)\ngen (1,2)(3,6)\n"),
              CAP_STAB_ENUM, 216, 24, False),
    **{f"dihedral{n}": (lambda n=n: make_dihedral(n), CAP_STAB_ENUM, c, g, n > 6)
       for n, c, g in ((6, 6, 2), (7, 6, 6), (8, 8, 4), (9, 6, 6), (10, 20, 4))},
    "pq3_7": (lambda: make_pq(3, 7), CAP_STAB_ENUM, 6, 6, True),
    "pq2_7": (lambda: make_pq(2, 7), CAP_STAB_ENUM, 6, 6, True),
    "dihedral11": (lambda: make_dihedral(11), 10**7, 10, 10, True),
    "pq2_11": (lambda: make_pq(2, 11), 10**7, 10, 10, True),
    "pq5_11": (lambda: make_pq(5, 11), 10**7, 10, 10, True),
}


def test_candidate_sets_hold_the_normalizer():
    """|C| and |Gamma| as pinned, Gamma inside C as sets of rows, and C
    seeded exactly where the pin says; about a second in all."""
    for name, (make, cap, c_order, gamma_order, seeded) in CERTIFICATES.items():
        pair = make()
        n = pair.degree
        assert len(oracle._candidate_relabelings(pair, cap)) == c_order, name
        gamma = normalizer_in_stab(pair, cap)
        assert gamma.order == gamma_order, name
        h = pair.subgroup_order
        cosets = [range(i * h, (i + 1) * h) for i in range(1, n)]
        alphas = np.concatenate(list(groups._relabelings(pair.group, cosets, cap,
                                                         NORMALIZER_CHUNK)))
        assert (len(alphas) < factorial(n - 1)) == seeded, name
        c_rows = alphas[groups._conjugating_into(pair.group, alphas, pair.cosets()[1:])]
        assert len(c_rows) == c_order, name
        assert set(_row_keys(gamma._rows).tolist()) <= set(_row_keys(c_rows).tolist()), name


def test_narrowed_sweeps_locate_few_rows(monkeypatch):
    """Work count on dihedral(9), 8! candidates: the coset sweep tests slot
    2's h members on every candidate and the later slots only on the few
    that pass (the full-width sweep locates 8!·(n-1)·h rows), and the
    normalizer sweep conjugates the second generator only by the
    candidates that keep the first in G (full width: 2·8!).  Both sweeps
    are forced through groups.SEED_COST_ROWS."""
    pair, fresh = make_dihedral(9), make_dihedral(9)
    monkeypatch.setattr(groups, "SEED_COST_ROWS", factorial(12))
    h, located = pair.subgroup_order, []
    locate = PermGroup._locate

    def counted(self, rows):
        located.append(len(rows))
        return locate(self, rows)

    monkeypatch.setattr(PermGroup, "_locate", counted)
    oracle._candidate_relabelings(pair, CAP_STAB_ENUM)
    assert sum(located) <= 1.25 * factorial(8) * h
    located.clear()
    normalizer_in_stab(fresh)
    assert len(fresh.group.generators) == 2
    assert sum(located) <= 1.1 * factorial(8)


def test_sweeps_locate_each_conjugate_once(monkeypatch):
    """Every row the relabeling sweeps locate is located inside
    `_conjugating_into`: the survivors' conjugates are the ones its tests
    located, not gathered a second time.  Checked on the seeded candidates
    of dihedral(9) and of a seeded relabeling of dihedral(8), and on their
    coset sweeps, forced through groups.SEED_COST_ROWS, and on the
    union-find walk that classify_by_conjugation takes for alt(4)."""
    state = {"counting": False, "inside": False, "inside_rows": 0, "outside_rows": 0}
    locate, conjugating_into = PermGroup._locate, groups._conjugating_into

    def counted_locate(self, rows):
        if state["counting"]:
            state["inside_rows" if state["inside"] else "outside_rows"] += len(rows)
        return locate(self, rows)

    def counted_into(*args):
        state["inside"] = True
        try:
            return conjugating_into(*args)
        finally:
            state["inside"] = False

    def counted(fn):
        def run(*args):
            state.update(counting=True, inside_rows=0, outside_rows=0)
            try:
                return fn(*args)
            finally:
                state["counting"] = False
        return run

    monkeypatch.setattr(PermGroup, "_locate", counted_locate)
    monkeypatch.setattr(groups, "_conjugating_into", counted_into)
    monkeypatch.setattr(oracle, "_conjugating_into", counted_into)
    monkeypatch.setattr(oracle, "_walk_labels", counted(oracle._walk_labels))
    for pair in (make_dihedral(9), CANONICAL_INPUTS["dihedral8_relabeled"]()):
        for cost in (groups.SEED_COST_ROWS, factorial(12)):
            with monkeypatch.context() as patch:
                patch.setattr(groups, "SEED_COST_ROWS", cost)
                counted(oracle._candidate_relabelings)(pair, CAP_STAB_ENUM)
            assert state["inside_rows"] > 0
            assert state["outside_rows"] == 0
    state.update(inside_rows=0, outside_rows=0)
    classify_by_conjugation(make_alt(4))
    assert state["inside_rows"] > 0  # the walk ran
    assert state["outside_rows"] == 0


@pytest.mark.parametrize("n", [3, 4])
def test_census_matches_reference(n):
    """The order-n census is the table classification of Sym(n)'s pair."""
    assert classification_tuples(census_left_loops(n)) == ref_table_classes(make_sym(n))


@pytest.mark.parametrize("name", ["sym4", "alt4", "dihedral6", "dihedral7", "pq3_7",
                                  "alt4_involution"])
def test_classifiers_match_reference_on_relabelings(name, monkeypatch):
    """Seeded relabelings of the fixtures, with batches of a few rows, so
    that every batch loop crosses many boundaries."""
    rng = random.Random(name)
    pair = relabel(FAMILIES[name](), random_relabeling(rng, FAMILIES[name]().degree))
    monkeypatch.setattr(oracle, "BATCH", 5)
    assert classification_tuples(classify_by_conjugation(pair)) == \
        ref_classify_by_conjugation(pair)
    assert oracle._sweep_labels(pair, CAP_STAB_ENUM).tolist() == least_members(
        ref_classify_by_conjugation(pair, "all"))
    assert classification_tuples(classify_by_table_iso(pair)) == ref_table_classes(pair)


def table_with_automorphism(rng, n, d):
    """A random 0-based left-loop table fixed by relabeling with f, and f:
    f fixes 0 and moves the other symbols in d-cycles.  Row f(i) is
    f row_i f^-1, which is what relabeling row i by f gives."""
    others = rng.sample(range(1, n), n - 1)
    f = list(range(n))
    for c in range(0, n - 1, d):
        cycle = others[c:c + d]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            f[a] = b
    finv = [f.index(j) for j in range(n)]
    table = [list(range(n))] + [None] * (n - 1)
    for c in range(0, n - 1, d):
        i = others[c]
        row = [i] + rng.sample([v for v in range(n) if v != i], n - 1)
        for _ in range(d):
            table[i] = row
            row = [f[row[finv[j]]] for j in range(n)]
            i = f[i]
    return np.array(table, dtype=np.uint8), np.array(f)


def relabeled_table(table, g):
    """g[T[ginv[i], ginv[j]]] for a 0-based relabeling g."""
    ginv = np.argsort(g)
    return g[table[np.ix_(ginv, ginv)]].astype(table.dtype)


@pytest.mark.parametrize("batch", [1, 50, oracle.BATCH])
@pytest.mark.parametrize("n, d", [(5, 2), (5, 4), (7, 2), (7, 3), (7, 6)])
def test_canonical_forms_on_tables_with_automorphisms(n, d, batch, monkeypatch):
    """Tables with a nontrivial automorphism keep several relabelings tied
    to the last cell; each comes with relabeled copies, which must share its
    canonical form."""
    rng = random.Random(f"{n} {d}")
    tables = []
    for _ in range(6):
        table, f = table_with_automorphism(rng, n, d)
        assert np.array_equal(relabeled_table(table, f), table)
        tables.append(table)
        for _ in range(3):
            g = np.array([0] + rng.sample(range(1, n), n - 1))
            tables.append(relabeled_table(table, g))
    tables = np.array(tables)
    monkeypatch.setattr(oracle, "BATCH", batch)
    canon = _canonical_forms(tables, n)
    assert np.array_equal(canon, ref_canonical_forms(tables, n))
    assert all(np.array_equal(canon[4 * i], canon[4 * i + j])
               for i in range(6) for j in range(1, 4))
