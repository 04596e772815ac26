"""Group construction, normalized pairs, transversal enumeration, fixtures."""

import random
import time
from math import factorial
from types import SimpleNamespace

import numpy as np
import pytest

import transversals.groups as groups
from transversals.errors import CapExceeded
from transversals.groups import (
    NORMALIZER_CHUNK,
    PairGH,
    PermGroup,
    _all_rows,
    _perm_rows,
    _section_rows,
    closure,
    enumerate_transversals,
    generates,
    make_alt,
    make_dihedral,
    make_pq,
    make_sym,
    normalizer_in_stab,
    pair_from_fixture,
    parse_fixture,
    stabilizer_candidates,
)
from transversals.perm import Permutation, parse_cycles

from oracles import (
    _left_coset_blocks,
    compose,
    contains,
    coset_representation_reference,
    elements,
    format_fixture,
    generates_reference,
    group_of,
    is_abelian,
    is_normal,
    is_subgroup_of,
    is_transitive,
    normalizing_reference,
    order18_example,
    pair_isomorphic,
    perms,
    random_intransitive_generators,
    stabilizer_of_1,
    stabilizer_rows_reference,
    subgroup_transversal_sets,
    sweeps_spied,
)


def test_closure_of_a_single_cycle():
    elems = perms(closure(np.array([[1, 2, 3, 0]])))  # the row of (1,2,3,4)
    assert len(elems) == 4
    assert Permutation.identity(4) in elems
    assert elems == sorted(elems)
    assert elems == elements(group_of([parse_cycles(4, "(1,2,3,4)")]))


def test_closure_empty_generators():
    assert perms(closure(np.empty((0, 3), dtype=np.uint8))) == [Permutation.identity(3)]
    trivial = PermGroup.from_generators(np.empty((0, 3), dtype=np.uint8))
    assert elements(trivial) == [Permutation.identity(3)] and trivial.generators.shape == (0, 3)
    assert group_of([], degree=3) == trivial
    with pytest.raises(ValueError, match="degree required"):
        group_of([])


def test_from_generators_takes_rows_of_any_integer_type():
    """The degree is the rows' width; the generators are kept, in the image
    dtype of that degree, and the closure is capped."""
    G = PermGroup.from_generators(np.array([[1, 0, 2, 3], [1, 2, 3, 0]]))
    assert (G.degree, G.order) == (4, 24) and G == PermGroup.symmetric(4)
    assert G.generators.tolist() == [[1, 0, 2, 3], [1, 2, 3, 0]]
    assert G.generators.dtype == np.uint8
    wide = PermGroup.from_generators(np.roll(np.arange(300), 1)[None, :])
    assert (wide.order, wide.generators.dtype) == (300, np.uint32)
    with pytest.raises(CapExceeded) as exc:
        PermGroup.from_generators(G.generators, cap=23)
    assert exc.value.cap_name == "group_order"


def test_closure_mixed_degree_rejected():
    with pytest.raises(ValueError, match="generator degree 4 != 3"):
        group_of([Permutation.identity(3), Permutation.identity(4)])
    with pytest.raises(ValueError, match="generator degree 3 != 4"):
        group_of([Permutation.identity(3)], degree=4)


def test_closure_cap():
    gens = _perm_rows([parse_cycles(5, "(1,2)"), parse_cycles(5, "(1,2,3,4,5)")], 5)
    with pytest.raises(CapExceeded) as exc:
        closure(gens, cap=10)
    assert exc.value.cap_name == "group_order"
    assert len(closure(gens, cap=120)) == 120


def test_permgroup_basics():
    G = PermGroup.symmetric(4)
    assert G.order == 24 and G.degree == 4
    assert contains(G, parse_cycles(4, "(1,2)"))
    A = PermGroup.alternating(4)
    assert A.order == 12
    assert is_subgroup_of(A, G) and not is_subgroup_of(G, A)
    assert is_normal(A, G)
    assert not is_normal(stabilizer_of_1(G), G)
    assert PermGroup.from_generators(np.empty((0, 5), dtype=np.uint8)).order == 1


def test_abelian_and_transitive_flags():
    C4 = group_of([parse_cycles(4, "(1,2,3,4)")])
    assert is_abelian(C4) and is_transitive(C4)
    S3 = PermGroup.symmetric(3)
    assert not is_abelian(S3) and is_transitive(S3)
    V = group_of([parse_cycles(4, "(1,2)"), parse_cycles(4, "(3,4)")])
    assert is_abelian(V) and not is_transitive(V)


def test_conjugacy_classes_of_sym4():
    classes = PermGroup.symmetric(4).conjugacy_classes()
    assert len(classes) == 5
    assert sorted(size for _, size in classes) == [1, 3, 6, 6, 8]
    row, size = classes[0]
    assert (row.tolist(), size) == ([0, 1, 2, 3], 1)  # the identity
    assert sum(size for _, size in classes) == 24


def test_pair_validation():
    V = group_of([parse_cycles(4, "(1,2)"), parse_cycles(4, "(3,4)")])
    with pytest.raises(ValueError):
        PairGH(V)  # intransitive


def test_pair_arithmetic():
    pair = make_sym(4)
    assert pair.degree == 4
    assert pair.subgroup_order == 6
    assert pair.transversal_count() == 6 ** 3
    cosets = pair.cosets()
    assert [len(c) for c in cosets] == [6, 6, 6, 6]
    for i, coset in enumerate(cosets, 1):
        assert all(g(1) == i for g in perms(coset))


def test_pair_cosets_built_once_and_immutable(monkeypatch):
    splits = []
    split = PermGroup._blocks
    monkeypatch.setattr(PermGroup, "_blocks", lambda self: splits.append(self) or split(self))
    pair = make_dihedral(8)
    cosets = pair.cosets()
    assert pair.cosets() is cosets
    assert len(splits) == 1  # the transitivity check, H and the cosets share one split
    assert isinstance(cosets, tuple) and all(not c.flags.writeable for c in cosets)
    blocks = [perms(c) for c in cosets]
    assert all(b == sorted(b) for b in blocks)
    assert sorted(g for b in blocks for g in b) == elements(pair.group)


def test_enumerate_transversals_sym3():
    pair = make_sym(3)
    ts = list(enumerate_transversals(pair))
    assert len(ts) == pair.transversal_count() == 4
    assert len({t.tobytes() for t in ts}) == 4
    for t in ts:
        assert t.shape == (3, 3) and not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 1
        assert t[0].tolist() == [0, 1, 2]  # the identity row
        assert t[:, 0].tolist() == [0, 1, 2]  # row i maps 0 to i
    # the order is _section_rows order, the same on every call
    sections = _section_rows(pair.cosets()[1:], range(4), 3)
    assert np.array_equal(np.stack(ts), sections)
    assert np.array_equal(np.stack(list(enumerate_transversals(pair))), sections)


def test_enumerate_transversals_cap():
    with pytest.raises(CapExceeded) as exc:
        list(enumerate_transversals(make_sym(5), cap=100))
    assert exc.value.cap_name == "transversals"
    assert exc.value.required == 24 ** 4
    with pytest.raises(CapExceeded) as exc:
        list(subgroup_transversal_sets(*order18_example(), cap=1))
    assert str(exc.value) == "cap 'transversals' exceeded: requires 36, limit is 1"


def test_left_cosets_and_subgroup_transversals():
    G = PermGroup.symmetric(3)
    H = group_of([parse_cycles(3, "(1,2)")])
    cosets = [perms(block) for block in _left_coset_blocks(G, H)]
    assert len(cosets) == 3
    assert Permutation.identity(3) in cosets[0]
    seen = {g for c in cosets for g in c}
    assert seen == set(elements(G))
    ts = list(subgroup_transversal_sets(G, H))
    assert len(ts) == 4
    for t in ts:
        assert t[0] == Permutation.identity(3)
        assert len({min(compose(g, h).images for h in elements(H)) for g in t}) == 3


def test_coset_representation_quotients_the_kernel():
    G, H = order18_example()
    pair = coset_representation_reference(G, H)
    assert pair.degree == 3
    assert pair.group.order == 6
    assert pair.subgroup_order == 2
    assert pair_isomorphic(pair, make_sym(3))


def test_coset_representation_of_trivial_subgroup_is_regular():
    G = PermGroup.symmetric(3)
    trivial = group_of([], degree=3)
    pair = coset_representation_reference(G, trivial, name="regular sym(3)")
    assert pair.degree == 6
    assert pair.group.order == 6
    assert pair.subgroup_order == 1
    assert pair.name == "regular sym(3)"


def test_coset_representation_rejects_non_subgroup():
    with pytest.raises(ValueError):
        coset_representation_reference(PermGroup.alternating(4),
                                       stabilizer_of_1(PermGroup.symmetric(4)))


def _same_pair(pair, reference):
    assert np.array_equal(pair.group._rows, reference.group._rows)
    assert np.array_equal(pair.group.generators, reference.group.generators)
    assert pair.group.generators.dtype == reference.group.generators.dtype


def test_pair_from_fixture_matches_the_coset_reference():
    """The walk over the orbit of 1 numbers its points, and orders the image
    generators, as the action on the left cosets of G_1 that names every
    coset of G first: on seeded random intransitive fixtures of degree 3-12
    and order at most 720 (orbits of 1 from {1} to six points), a `gen ()`
    line, and degree 1; a transitive fixture keeps its own numbering and
    generators."""
    rng = random.Random(25)
    fixtures = [(1, [Permutation.identity(1)]),
                (4, [Permutation.identity(4), parse_cycles(4, "(2,3)")]),
                (5, [parse_cycles(5, "(1,2,3)"), Permutation.identity(5),
                     parse_cycles(5, "(1,2)(4,5)")])]
    while len(fixtures) < 100:
        n = rng.randint(3, 12)
        gens = random_intransitive_generators(rng, n)
        try:
            group_of(gens, cap=720)
        except CapExceeded:
            continue  # the reference gathers |G| |H| rows
        fixtures.append((n, gens))
    sizes = set()
    for n, gens in fixtures:
        G = group_of(gens, degree=n)
        pair = pair_from_fixture(format_fixture("", n, gens))
        reference = coset_representation_reference(G, stabilizer_of_1(G))
        _same_pair(pair, reference)
        assert pair.name == f"fixture(degree={n})"
        sizes.add(pair.degree)
    assert sizes == set(range(1, 7))
    # PSL(2,5) with a repeated generator, which a transitive fixture keeps
    transitive = [parse_cycles(6, "(1,2,3,4,5)"), parse_cycles(6, "(1,6)(2,5)"),
                  parse_cycles(6, "(1,2,3,4,5)")]
    pair = pair_from_fixture(format_fixture("psl25", 6, transitive))
    assert np.array_equal(pair.group.generators, _perm_rows(transitive, 6))
    assert pair.group == group_of(transitive) and pair.name == "psl25"


def test_intransitive_s5_by_s5_builds_its_pair_in_a_second():
    """S5 x S5 (order 14,400) acts on the orbit of 1 as Sym(5): only the
    generators are restricted to the orbit, and only Sym(5) is closed."""
    text = "degree 10\ngen (1,2)\ngen (1,2,3,4,5)\ngen (6,7)\ngen (6,7,8,9,10)\n"
    start = time.process_time()
    pair = pair_from_fixture(text)
    assert time.process_time() - start < 1.0
    assert (pair.degree, pair.group.order) == (5, 120)  # so G is Sym(5)


def test_fixture_cap_bounds_the_group_on_the_orbit_of_1():
    """An intransitive fixture closes only its action on the orbit of 1:
    S5 x S5 (order 14,400) fits a cap of 200, and S6^3 (order 720^3) the
    default cap, while Sym(5) itself is still refused past its cap."""
    text = "degree 10\ngen (1,2)\ngen (1,2,3,4,5)\ngen (6,7)\ngen (6,7,8,9,10)\n"
    assert pair_from_fixture(text, cap=200).group == PermGroup.symmetric(5)
    with pytest.raises(CapExceeded) as exc:
        pair_from_fixture(text, cap=119)
    assert (exc.value.cap_name, exc.value.required) == ("group_order", 120)
    cube = ("degree 18\ngen (1,2)\ngen (1,2,3,4,5,6)\ngen (7,8)\ngen (7,8,9,10,11,12)\n"
            "gen (13,14)\ngen (13,14,15,16,17,18)\n")
    assert pair_from_fixture(cube).group == PermGroup.symmetric(6)


def test_family_constructors():
    assert make_sym(4).group.order == 24
    assert make_alt(5).group.order == 60
    d = make_dihedral(6)
    assert d.group.order == 12 and d.degree == 6 and d.subgroup_order == 2
    pq = make_pq(3, 7)
    assert pq.group.order == 21 and pq.degree == 7 and pq.subgroup_order == 3
    assert not is_abelian(pq.group)
    # an order equal to the cap is built
    assert PermGroup.symmetric(5, cap=120).order == 120
    assert PermGroup.alternating(5, cap=60).order == 60


def test_family_constructor_errors():
    with pytest.raises(ValueError):
        make_sym(1)
    with pytest.raises(ValueError):
        make_alt(3)
    with pytest.raises(ValueError):
        make_dihedral(2)
    with pytest.raises(ValueError):
        make_pq(3, 5)  # 3 does not divide 5 - 1
    with pytest.raises(ValueError):
        make_pq(2, 4)
    with pytest.raises(ValueError):
        make_pq(5, 3)


@pytest.mark.parametrize("build, required", [
    (lambda: PermGroup.symmetric(5, cap=119), 120),
    (lambda: PermGroup.alternating(5, cap=59), 60),
    (lambda: make_sym(11), 39916800),
    (lambda: make_alt(11), 19958400),
    (lambda: PermGroup.symmetric(1558), factorial(1558)),  # 4,300 digits
    (lambda: PermGroup.alternating(1558), factorial(1558) // 2),  # 4,300 digits
    (lambda: PermGroup.symmetric(1559), "1559!"),  # 4,303 digits
    (lambda: PermGroup.alternating(1559), "1559!/2"),  # 4,303 digits
    (lambda: make_sym(60000), "60000!"),
    (lambda: make_alt(10**30), f"{10**30}!/2"),
    (lambda: make_dihedral(5_000_001), 10_000_002),
    (lambda: make_dihedral(10**30), 2 * 10**30),
    (lambda: make_pq(2, 1000000000039), 2000000000078),
], ids=["sym5", "alt5", "sym11", "alt11", "sym1558", "alt1558", "sym1559", "alt1559",
        "sym60000", "alt10**30", "dihedral5000001", "dihedral10**30", "pq2_1000000000039"])
def test_family_orders_are_capped_before_any_work(build, required):
    """A family group past its order cap is refused before it is built:
    n! is multiplied up only until it passes the cap, and p*q is capped
    before p and q are tested for primality.  An order of at most 4,300
    digits, Python's default limit for converting an int to text, is
    stated in full; a longer one as its formula."""
    start = time.process_time()
    with pytest.raises(CapExceeded) as exc:
        build()
    assert time.process_time() - start < 0.5
    assert exc.value.cap_name == "group_order"
    assert exc.value.required == required


def test_stabilizer_candidates():
    cands = np.concatenate(list(stabilizer_candidates(4, size=4)))
    assert cands.shape == (6, 4)
    assert (cands[:, 0] == 0).all()
    assert len(np.unique(cands, axis=0)) == 6
    with pytest.raises(CapExceeded):
        next(stabilizer_candidates(12, size=NORMALIZER_CHUNK))
    # the batch size is keyword-only: a cap passed second is not read as one
    with pytest.raises(TypeError):
        next(stabilizer_candidates(4, 100, 7))


@pytest.mark.parametrize("n", range(1, 9))
def test_stabilizer_batches_are_the_stabilizer_of_sym(n):
    """The batches, concatenated, are Sym(n)_1 as itertools lists it, in the
    same order and dtype, and every batch but the last is `size` rows long."""
    want = stabilizer_rows_reference(n)
    for size in (1, 7, NORMALIZER_CHUNK, factorial(n - 1) + 1):
        batches = list(stabilizer_candidates(n, size=size))
        assert all(len(b) == size for b in batches[:-1]) and 1 <= len(batches[-1]) <= size
        rows = np.concatenate(batches)
        assert rows.dtype == want.dtype and np.array_equal(rows, want)


@pytest.mark.parametrize("build, order", [(PermGroup.symmetric, 3628800),
                                          (PermGroup.alternating, 1814400)])
def test_degree_ten_family_groups_build_in_array_passes(build, order):
    """Sym(10) and Alt(10) are built by prefix, one array pass per first
    image, with the parity read off the prefixes: well under half a second,
    where one itertools tuple per row and an inversion count took seconds."""
    start = time.perf_counter()
    group = build(10)
    elapsed = time.perf_counter() - start
    assert group.order == order
    assert elapsed < 0.5, elapsed


def test_all_rows_of_degree_zero_is_one_empty_even_row():
    rows, odd = _all_rows(0)
    assert rows.shape == (1, 0) and rows.dtype == np.uint8
    assert odd.tolist() == [False]


def test_normalizer_in_stab():
    assert normalizer_in_stab(make_sym(4)).order == 6
    # dihedral(n): relabelings preserving the group are the unit group mod n
    assert normalizer_in_stab(make_dihedral(5)).order == 4
    assert normalizer_in_stab(make_dihedral(8)).order == 4


def _relabeled(pair, rng):
    """The pair conjugated by a seeded random relabeling sigma fixing 1:
    each generator row g becomes sigma g sigma^-1, i.e. sigma[g[sigma^-1]]."""
    n = pair.degree
    sigma = np.array([0, *rng.sample(range(1, n), n - 1)])
    inverse = np.argsort(sigma)
    gens = np.stack([sigma[g[inverse]] for g in pair.group.generators])
    return PairGH(PermGroup.from_generators(gens), name=f"{pair.name} relabeled")


def _order18_pair(involution):
    """The order-18 group over its order-6 subgroup (degree 3), or over one
    of its non-normal involutions (degree 9)."""
    G, H = order18_example()
    if involution:
        H = group_of([parse_cycles(6, "(2,3)(5,6)")], degree=6)
    return coset_representation_reference(G, H)


PSL25 = "degree 6\ngen (1,2,3,4,5)\ngen (1,6)(2,5)\n"

# Each pair and the path its normalizer takes: cycle matching ("seeds")
# where |G| and the least count of one generator's solutions are both below
# (n-1)! by more than groups.SEED_COST_ROWS, else the sweep
NORMALIZER_PATHS = {
    **{f"sym{n}": (lambda n=n: make_sym(n), "sweep") for n in range(3, 8)},
    **{f"alt{n}": (lambda n=n: make_alt(n), "sweep") for n in range(4, 8)},
    **{f"dihedral{n}": (lambda n=n: make_dihedral(n), "sweep" if n < 7 else "seeds")
       for n in range(3, 11)},
    **{f"pq{p}_{q}": (lambda p=p, q=q: make_pq(p, q), "sweep" if q < 7 else "seeds")
       for p, q in ((2, 3), (2, 5), (2, 7), (3, 7))},
    "psl25": (lambda: pair_from_fixture(PSL25), "sweep"),
    "pgl25": (lambda: pair_from_fixture(PSL25 + "gen (2,3,5,4)\n"), "sweep"),
    "psl32": (lambda: pair_from_fixture("degree 7\ngen (1,2,3,4,5,6,7)\ngen (1,2)(3,6)\n"),
              "seeds"),
    "order18": (lambda: _order18_pair(False), "sweep"),
    "order18_involution": (lambda: _order18_pair(True), "seeds"),
    **{f"dihedral{n}_relabeled{k}": (
        lambda n=n, k=k: _relabeled(make_dihedral(n), random.Random(f"{n}/{k}")), "seeds")
       for n in (9, 10) for k in range(2)},
}


@pytest.mark.parametrize("name", NORMALIZER_PATHS)
def test_normalizer_paths_match_the_full_width_reference(name, monkeypatch):
    """Gamma has the rows of the full-width reference (every generator of G
    conjugated by every row of Sym(n)_1), in the same order and dtype, on
    the path the pair's |G|, generators and n choose and on each path
    forced through groups.SEED_COST_ROWS: the seeds read no row of
    Sym(n)_1, the sweep reads them once."""
    build, path = NORMALIZER_PATHS[name]
    pair = build()
    alphas = np.concatenate(list(stabilizer_candidates(pair.degree, size=NORMALIZER_CHUNK)))
    want = alphas[normalizing_reference(pair.group, alphas)]
    for cost, seeded in ((groups.SEED_COST_ROWS, path == "seeds"),
                         (-factorial(12), True), (factorial(12), False)):
        with monkeypatch.context() as patch:
            patch.setattr(groups, "SEED_COST_ROWS", cost)
            sweeps = sweeps_spied(patch)
            got = normalizer_in_stab(build())._rows  # Gamma is kept on its pair
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert sweeps == ([] if seeded else [pair.degree])


@pytest.mark.parametrize("build", [
    lambda: make_sym(7), lambda: make_alt(7),
    lambda: _relabeled(make_sym(7), random.Random("sym7")),
    lambda: _relabeled(make_alt(7), random.Random("alt7")),
], ids=["sym7", "alt7", "sym7_relabeled", "alt7_relabeled"])
def test_normalizer_lays_out_no_element_of_a_large_group(build, monkeypatch):
    """Where |G| + SEED_COST_ROWS >= (n-1)!, as for Sym(7) and Alt(7) and
    relabelings of them (burnside's theorem6 fixtures), Gamma is swept
    without laying out one element of G: on Sym(7) the forced seeds take
    about 25 times as long as the sweep they would spare."""
    pair, layouts = build(), []
    assert pair.group.order + groups.SEED_COST_ROWS >= factorial(pair.degree - 1)
    slot_layout = groups._slot_layout
    monkeypatch.setattr(groups, "_slot_layout", lambda row: layouts.append(row) or slot_layout(row))
    sweeps = sweeps_spied(monkeypatch)
    assert normalizer_in_stab(pair).order == factorial(pair.degree - 1)
    assert (layouts, sweeps) == ([], [pair.degree])


@pytest.mark.parametrize("p, q", [(0, 5), (1, 3), (2, 1), (2, 9), (4, 13), (3, 49)])
def test_make_pq_refuses_a_non_prime(p, q):
    with pytest.raises(ValueError, match="must be prime"):
        make_pq(p, q)


def test_generates():
    pair = make_sym(3)
    e = Permutation.identity(3)
    t_gen = (e, parse_cycles(3, "(1,2)"), parse_cycles(3, "(1,3)"))
    t_cyc = (e, parse_cycles(3, "(1,2,3)"), parse_cycles(3, "(1,3,2)"))
    assert generates(pair, _perm_rows(t_gen, 3))
    assert not generates(pair, _perm_rows(t_cyc, 3))
    assert generates(pair, [[1, 0, 2], [2, 0, 1]])  # any (k, n) rows, any integer type


@pytest.mark.parametrize("rows", [
    [[257, 0, 2], [2, 0, 1]],  # 257 wraps to 1 in a byte: the transposition (1,2)
    [[1, 0, 2], [258, 0, 1]],
    [[1, 0, 2], [2, -256, 1]],
    [[1, 256, 2], [2, 0, 1]],
])
def test_generates_is_false_for_an_image_out_of_range(rows):
    good = [[1, 0, 2], [2, 0, 1]]
    pair = make_sym(3)
    assert generates(pair, good) and not generates(pair, rows)
    assert not generates_reference(pair.group, rows)
    assert generates(pair, [good, rows, good]).tolist() == [True, False, True]


def _all_transversals(pair):
    return _section_rows(pair.cosets()[1:], np.arange(pair.transversal_count()), pair.degree)


@pytest.mark.parametrize("build", [
    lambda: make_pq(2, 11), lambda: make_pq(3, 7), lambda: make_dihedral(9),
    lambda: make_sym(4), lambda: make_alt(4),
], ids=["pq(2,11)", "pq(3,7)", "dihedral(9)", "sym(4)", "alt(4)"])
def test_generates_stack_matches_the_per_item_search(build):
    pair = build()
    stack = _all_transversals(pair)
    flags = generates(pair, stack)
    assert flags.dtype == bool and flags.shape == (len(stack),)
    assert flags.tolist() == [generates_reference(pair.group, T) for T in stack]
    assert flags.any()
    # a generating item with one row swapped for the transposition (1,2),
    # which lies outside G except in sym(4)
    swapped = stack[flags.argmax()].copy()
    swapped[1] = [1, 0, *range(2, pair.degree)]
    mixed = np.stack([stack[-1], swapped, stack[0]])
    want = [generates_reference(pair.group, T) for T in mixed]
    assert generates(pair, mixed).tolist() == want
    assert pair.name == "sym(4)" or not want[1]


def test_generates_stack_on_the_order18_transversals():
    """None of the transversals of H in the order-18 group generate it.  G
    is intransitive on its 6 points, so no PairGH holds it; generates reads
    only a pair's group and degree."""
    G, H = order18_example()
    stack = _section_rows(_left_coset_blocks(G, H)[1:], np.arange(H.order ** 2), G.degree)
    flags = generates(SimpleNamespace(group=G, degree=G.degree), stack)
    assert flags.tolist() == [generates_reference(G, T) for T in stack] == [False] * 36


def test_generates_empty_stacks_and_items_of_no_rows():
    pair = make_sym(3)
    empty = generates(pair, np.zeros((0, 3, 3), dtype=np.uint8))
    assert empty.dtype == bool and empty.shape == (0,)
    assert not generates(pair, np.zeros((0, 3), dtype=np.uint8))
    assert generates(pair, np.zeros((4, 0, 3), dtype=np.uint8)).tolist() == [False] * 4
    assert not generates_reference(pair.group, np.zeros((0, 3)))
    # only the trivial group is generated by nothing
    trivial = pair_from_fixture("degree 1\ngen ()\n")
    assert trivial.group.order == 1
    assert generates(trivial, np.zeros((0, 1), dtype=np.uint8))
    assert generates(trivial, np.zeros((2, 0, 1), dtype=np.uint8)).tolist() == [True, True]
    assert generates_reference(trivial.group, np.zeros((0, 1)))
    assert generates(trivial, [[[0]], [[1]]]).tolist() == [True, False]


def test_psl25_nongenerating_transversals_close_to_five_groups_of_order_12():
    """ROADMAP item 1's cause: PSL(2,5) on 6 points has 100,000
    transversals, 99,840 of which generate it; each of the other 160 closes
    to a subgroup of order 12, and there are 5 such closures."""
    pair = pair_from_fixture("degree 6\ngen (1,2,3,4,5)\ngen (1,6)(2,5)\n")
    assert pair.group.order == 60
    stack = _all_transversals(pair)
    flags = generates(pair, stack)
    assert len(flags) == 100_000 and int(flags.sum()) == 99_840
    closures = [closure(T) for T in stack[~flags]]
    assert all(len(K) == 12 for K in closures)
    assert len({K.tobytes() for K in closures}) == 5


@pytest.mark.parametrize("rows", [np.zeros((2, 4), dtype=np.uint8), [[0, 1]], [0, 1, 2],
                                  np.zeros((0, 2), dtype=np.uint8),
                                  np.zeros((2, 2, 4), dtype=np.uint8),
                                  np.zeros((1, 1, 1, 3), dtype=np.uint8)])
def test_generates_rejects_rows_of_another_degree(rows):
    with pytest.raises(ValueError, match="not of degree 3"):
        generates(make_sym(3), rows)


def test_pair_isomorphic():
    assert pair_isomorphic(make_dihedral(3), make_pq(2, 3))
    assert pair_isomorphic(make_dihedral(4), make_dihedral(4))
    C6 = coset_representation_reference(
        group_of([parse_cycles(6, "(1,2,3,4,5,6)")]), group_of([], degree=6))
    S3reg = coset_representation_reference(PermGroup.symmetric(3), group_of([], degree=3))
    assert not pair_isomorphic(C6, S3reg)
    assert not pair_isomorphic(make_sym(3), make_sym(4))


def test_order18_example_shape():
    G, H = order18_example()
    assert G.order == 18 and H.order == 6
    assert is_subgroup_of(H, G)
    assert not is_transitive(G)
    assert not is_normal(H, G)


def test_fixture_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randrange(3, 7)
        gens = [Permutation(rng.sample(range(1, n + 1), n)) for _ in range(2)]
        text = format_fixture("sample", n, gens)
        name, degree, parsed = parse_fixture(text)
        assert (name, degree, parsed) == ("sample", n, gens)


def test_fixture_parse_errors():
    with pytest.raises(ValueError):
        parse_fixture("gen (1,2)\ndegree 3\n")  # generators before degree
    with pytest.raises(ValueError):
        parse_fixture("degree 3\n")  # no generators
    with pytest.raises(ValueError):
        parse_fixture("degree x\ngen (1,2)\n")
    with pytest.raises(ValueError):
        parse_fixture("order 6\ndegree 3\ngen (1,2)\n")
    with pytest.raises(ValueError):
        parse_fixture("")
    for degree in (0, -1):
        with pytest.raises(ValueError, match="line 1: degree must be at least 1"):
            parse_fixture(f"degree {degree}\ngen ()\n")
    with pytest.raises(ValueError, match="line 3: degree given twice"):
        parse_fixture("degree 3\ngen (1,2,3)\ndegree 3\n")
    # int() would read each of these; fixture integers are ASCII decimal
    for degree in ("1_2", "+3", "\uff13", " 3 3"):
        with pytest.raises(ValueError, match="line 1: bad degree"):
            parse_fixture(f"degree {degree}\ngen (1,2)\n")
    for cycle in ("(1,1_0)", "(1,+2)", "(1,\uff12)"):
        with pytest.raises(ValueError, match=r"line 2: malformed cycle notation"):
            parse_fixture(f"degree 12\ngen {cycle}\n")


def test_fixture_comments_and_blank_lines():
    text = "# dihedral of order 6\n\nname d3\ndegree 3\ngen (1,2,3)\ngen (2,3)\n"
    name, degree, gens = parse_fixture(text)
    assert name == "d3" and degree == 3 and len(gens) == 2


def test_pair_from_fixture_direct():
    text = "degree 3\ngen (1,2,3)\ngen (2,3)\n"
    pair = pair_from_fixture(text)
    assert pair.group.order == 6 and pair.degree == 3


def test_pair_from_fixture_applies_coset_representation():
    text = "name order18\ndegree 6\ngen (1,2,3)\ngen (4,5,6)\ngen (2,3)(5,6)\n"
    pair = pair_from_fixture(text)
    assert pair.degree == 3 and pair.group.order == 6  # the orbit of 1, not degree 6
    assert pair.name == "order18"


@pytest.mark.parametrize("text, renumbered, splits", [
    # PSL(2,5) on the projective line: transitive, so the pair's own split
    # is the transitivity check
    ("degree 6\ngen (1,2,3,4,5)\ngen (1,6)(2,5)\n", False, 1),
    # intransitive: only the pair on the orbit of 1 is split
    ("degree 6\ngen (1,2,3)\ngen (4,5,6)\ngen (2,3)(5,6)\n", True, 1),
], ids=["psl25", "intransitive"])
def test_pair_from_fixture_splits_g_once(monkeypatch, text, renumbered, splits):
    calls = []
    split = PermGroup._blocks
    monkeypatch.setattr(PermGroup, "_blocks", lambda self: calls.append(self) or split(self))
    assert (pair_from_fixture(text).degree < 6) == renumbered
    assert len(calls) == splits


def test_transversal_count_formula():
    for pair in (make_sym(3), make_sym(4), make_dihedral(5), make_pq(2, 5)):
        assert pair.transversal_count() == pair.subgroup_order ** (pair.degree - 1)
        assert pair.group.order == pair.degree * pair.subgroup_order
