"""Counting engines for isomorphism classes of transversals.

Everything here is Burnside counting for one action: a permutation x that
fixes symbol 1 and normalizes G acts on the transversals-with-identity of H
in G by conjugation, sending the member over coset i to the member over
coset x(i).  A transversal fixed by x is therefore assembled from one free
choice per orbit of x on coset numbers; walking an orbit of length m back to
its start forces the chosen member q to satisfy q x^m = x^m q.  The engines
differ only in where the per-orbit counts come from: a direct filter over
G's elements in ict_theorem6 (_orbit_counts), closed forms from cycle types
in ict_sym and ict_alt, and fixed-point gcd arithmetic in ict_cyclic, which
builds each relabeling's row as theorem6 does.

The resulting value is the number of conjugation orbits.  Whether that equals
the number of isomorphism classes depends on a hypothesis about the pair
(conjugation must capture every isomorphism); each report records the
justification claimed for it and whether it was machine-checked.
"""

from __future__ import annotations

import math
from itertools import chain
from math import factorial, gcd
from typing import TYPE_CHECKING, NamedTuple

from ._version import __version__
from .errors import (CAP_CLASSES, CAP_STAB_ENUM, CapExceeded, DisagreementError,
                     HypothesisViolation)
from .perm import _orbits, format_cycles
from .symclasses import partitions, partitions_exceed

# groups imports numpy; the engines that build or read a group import it
# when they run, so the closed forms and the renderers load without numpy
if TYPE_CHECKING:
    import numpy as np
    from .groups import PairGH

# Transversal sets larger than this are not swept for non-generators during
# cyclic hypothesis validation; the report notes the skip instead.
NONGENERATOR_SCAN_CAP = 100_000

REPORT_SCHEMA = "ict-report/1"

# Why an orbit count is ict when the acting group is all of Sym(n)_1.
WHOLE_STABILIZER = ("the acting group is the whole stabilizer of symbol 1, "
                    "which contains every relabeling that could link classes")


class ClassContribution(NamedTuple):
    """One conjugacy class of the acting group and its fixed-transversal count.

    representative is the class representative in canonical cycle notation,
    exactly as format_cycles prints it.  a_factors has one entry per fixed
    symbol of the representative (symbol 1 first, always 1); orbit_factors
    has one entry per orbit of length > 1.  fix_count is the product of both
    tuples.
    """

    representative: str
    class_size: int
    t: int
    k: int
    a_factors: tuple
    orbit_factors: tuple
    fix_count: int


class IctReport(NamedTuple):
    value: int
    method: str
    gamma_order: int
    numerator: int
    contributions: tuple
    pair_label: str = ""
    justification: str = ""
    validated: bool = True
    degree: int | None = None


def _assemble(method, degree, gamma_order, contributions, pair_label, justification,
              validated):
    numerator = sum(c.class_size * c.fix_count for c in contributions)
    value, rem = divmod(numerator, gamma_order)
    if rem:
        raise HypothesisViolation(
            f"Burnside numerator {numerator} is not divisible by the acting "
            f"group order {gamma_order}"
        )
    return IctReport(
        value=value,
        method=method,
        gamma_order=gamma_order,
        numerator=numerator,
        contributions=tuple(contributions),
        pair_label=pair_label,
        justification=justification,
        validated=validated,
        degree=degree,
    )


def _commuting_in_coset(coset: np.ndarray, z: np.ndarray) -> int:
    """Members q of the coset with q z = z q, all as 0-based image rows."""
    return int((coset[:, z] == z[coset]).all(axis=1).sum())


def _row_power(x: np.ndarray, m: int) -> np.ndarray:
    """x^m for a 0-based image row x and m >= 1: compose(x, y) is x[y]."""
    power = x
    for _ in range(m - 1):
        power = x[power]
    return power


def _orbit_counts(cosets: np.ndarray, x: np.ndarray) -> list:
    """(m, count) per orbit of the 0-based row x, which fixes 0, on symbols
    1..n-1, in _orbits order: m is the orbit's length and count the members
    q of its least member's coset with q x^m = x^m q.  A fixed symbol is an
    orbit of length 1; symbol 0's own orbit is left out, as the identity
    member of a transversal is pinned and contributes no choice.  x^m is
    built once per distinct length m."""
    orbits = _orbits(x.tolist(), 0)[1:]
    powers = {m: _row_power(x, m) for m in {len(orb) for orb in orbits}}
    return [(len(orb), _commuting_in_coset(cosets[orb[0]], powers[len(orb)]))
            for orb in orbits]


def _class_row(cosets: np.ndarray, x: np.ndarray, size: int) -> ClassContribution:
    """The row of a class of `size` members represented by the 0-based row
    x, which fixes 0: its factors are x's _orbit_counts, symbol 1's 1 first."""
    counts = _orbit_counts(cosets, x)
    a_factors = (1, *[f for m, f in counts if m == 1])
    orbit_factors = tuple(f for m, f in counts if m > 1)
    return ClassContribution(format_cycles((x + 1).tolist()), size, len(orbit_factors),
                             len(a_factors), a_factors, orbit_factors,
                             math.prod(a_factors) * math.prod(orbit_factors))


def ict_theorem6(pair: PairGH, *, cap: int = CAP_STAB_ENUM) -> IctReport:
    """Burnside count of gamma-conjugation orbits on the pair's transversals,
    for gamma the full normalizer of G inside the stabilizer of symbol 1,
    found exhaustively by normalizer_in_stab.  Per conjugacy class of gamma the fixed
    transversals are counted orbit by orbit with a direct filter over G's
    elements; no formula is assumed.  The quotient must come out exact,
    else HypothesisViolation.

    The report is validated only when gamma is all of Sym(n)_1: two
    transversals generating a proper subgroup of G may be linked only by a
    relabeling outside a smaller gamma, which then overcounts.
    """
    from .groups import normalizer_in_stab

    n = pair.degree
    gamma = normalizer_in_stab(pair, cap=cap)
    cosets = pair.cosets()
    contributions = [_class_row(cosets, x, size) for x, size in gamma.conjugacy_classes()]
    whole = gamma.order == factorial(n - 1)
    justification = WHOLE_STABILIZER if whole else (
        f"the acting group has order {gamma.order}, not (n-1)! = {factorial(n - 1)}; "
        "its orbit count can exceed ict when some transversal generates a proper subgroup")
    return _assemble("theorem6", n, gamma.order, contributions, pair.name,
                     justification, whole)


def all_even_centralizer(parts) -> bool:
    """Does the centralizer of a permutation of cycle type `parts`, taken in
    the symmetric group on its moved points, contain only even permutations?

    `parts` must be nonempty with every part > 1.  True exactly when all
    parts are odd and pairwise distinct: an even-length cycle is itself odd,
    and swapping two cycles of equal odd length l costs l transpositions.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("need at least one part")
    if any(l <= 1 for l in parts):
        raise ValueError("parts must all exceed 1")
    return all(l % 2 == 1 for l in parts) and len(set(parts)) == len(parts)


def _closed_form(n: int, label: str, method: str, even: bool) -> IctReport:
    """The class rows of Sym(n)_1, which acts as Sym(m) on symbols 2..n
    (m = n - 1), one per partition of m, with the commuting counts of G =
    Sym(n), or of G = Alt(n) when `even`.

    A count is what ict_theorem6 filters a coset for (_commuting_in_coset):
    the members of G that commute with x and send 1 to a fixed symbol i > 1.
    In Sym(n) the centralizer of x permutes its k fixed symbols
    transitively, so the count is its order over k: (k-1)! times the
    centralizer order on the moved symbols.  In Alt(n) the candidates form
    a coset, by the odd transposition (1, i), of the centralizer's
    stabilizer of 1, so the count is half the Sym count (exact: that
    stabilizer then holds an odd permutation, so its order is even) or 0
    when the stabilizer is all-even.  With k >= 3 it never is (it holds the
    transposition of two fixed symbols other than 1); with k = 2 it is the
    centralizer of x on its moved symbols, which all_even_centralizer
    decides.  Each fixed symbol i > 1 contributes the count of x, and each
    cycle of length l the count of x^l, which fixes symbol i of that cycle.

    Rows come in groups._class_order_key order: by moved count, then parts
    ascending.  reversed(partitions(m)) is ascending, and there the moved
    parts of a partition less its last part are the moved parts last seen
    at one depth (number of moved parts) less, so one preorder walk builds
    each row from that parent by one cycle; appended to the bucket of its
    moved count, each row lands in order.  x^l splits each cycle of x into
    cycles no longer and turns the l-cycles into fixed symbols, so its
    partition is lexicographically less than x's: the walk met its row
    first, and its count is looked up by type key.
    """
    m = n - 1
    if partitions_exceed(m, CAP_CLASSES):
        raise CapExceeded("classes", CAP_CLASSES, f"p({m})")
    fact = [1]
    for i in range(1, n):
        fact.append(fact[-1] * i)
    symbols = [str(s) for s in range(n + 1)]
    # a cycle type (length -> multiplicity, on all n symbols) is keyed by the
    # sum of mult << (b * l); b bits hold any multiplicity (at most n), so no
    # field carries.  unit[l] is what one more l-cycle, taking l fixed
    # symbols, adds to a key; adds[l][j] is what it adds to the key of the
    # j-th power, the gcd(l, j) cycles of length l / gcd(l, j) it splits into
    b = m.bit_length() + 1
    one = 1 << b
    unit = [(1 << (b * l)) - l * one for l in range(n)]
    adds = [None] + [[(gcd(l, j) << (b * (l // gcd(l, j)))) - l * one for j in range(n)]
                     for l in range(1, n)]
    # texts[start][l]: text of the cycle (start, start + 1, ..., start + l - 1)
    texts = [[None] * (n + 1) for _ in range(n + 1)]
    # the identity fixes all n symbols; halving (n - 1)! is exact for n >= 4
    f = fact[m] // 2 if even else fact[m]
    factors = {n * one: f}  # type key -> commuting count of the type
    # a row is (its moved lengths as (length, multiplicity) pairs, longest
    # first; for each, the type key of x^length; centralizer, the product
    # over l > 1 of mult! * l^mult; its type key; representative text; next
    # free symbol): representatives fill cycles longest-first on consecutive
    # symbols from 2, so each cycle's text is one run of symbols
    identity = ((), (), 1, n * one, "", 2)
    stack = [identity] * (m // 2 + 1)  # stack[d]: the last row with d cycles of length > 1
    new = tuple.__new__
    buckets = [[new(ClassContribution, ("()", 1, 0, n, (1,) + (f,) * m, (), f ** m))]]
    buckets += [[] for _ in range(m)]
    walk = reversed(partitions(m))
    next(walk)  # (1,) * m, the identity's row
    for parts in walk:
        d = len(parts) - parts.count(1)
        pairs, keys, centralizer, type_key, rep, a = stack[d - 1]
        l = parts[d - 1]
        if d > 1 and parts[d - 2] == l:
            mult = pairs[-1][1] + 1
            pairs = pairs[:-1] + ((l, mult),)
        else:  # a new length: the key of x^l over the parent's cycles
            mult = 1
            key = n * one
            for j, mj in pairs:
                key += mj * adds[j][l]
            keys = [*keys, key]
            pairs += ((l, 1),)
        centralizer *= l * mult
        type_key += unit[l]
        text = texts[a][l]
        if text is None:
            text = texts[a][l] = "(" + ",".join(symbols[a:a + l]) + ")"
        rep += text
        a += l
        k = n + 2 - a  # fixed symbols, symbol 1 among them
        count = fact[k - 1] * centralizer  # the Sym count when k > 1
        if k > 1:
            f = count
            if even:
                if k == 2 and all_even_centralizer(parts[:d]):
                    f = 0
                else:
                    f, rem = divmod(count, 2)
                    assert rem == 0
            factors[type_key] = f
            a_factors = (1,) + (f,) * (k - 1)
            fix = f ** (k - 1)
        else:
            a_factors = (1,)
            fix = 1
        # the new l-cycle joins each inherited key; one factor per cycle
        # length, repeated per cycle, longest first
        add = adds[l]
        child_keys = []
        orbit_factors = ()
        for (j, mj), key in zip(pairs, keys):
            key += add[j]
            child_keys.append(key)
            o = factors[key]
            orbit_factors += (o,) * mj
            fix *= o ** mj
        stack[d] = (pairs, child_keys, centralizer, type_key, rep, a)
        buckets[a - 2].append(new(ClassContribution, (rep, fact[m] // count, d, k, a_factors,
                                                       orbit_factors, fix)))
    return _assemble(method, n, fact[m], [c for bucket in buckets for c in bucket], label,
                     WHOLE_STABILIZER, True)


def ict_sym(n: int) -> IctReport:
    """Classes of transversals of the point stabilizer in Sym(n), closed form.

    Iterates cycle types of the acting stabilizer (one per partition of
    n - 1) and evaluates every per-orbit count from cycle types alone; the
    group is never enumerated.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return _closed_form(n, f"sym({n})", "sym_closed", False)


def ict_alt(n: int) -> IctReport:
    """Classes of transversals of the point stabilizer in Alt(n), closed form.

    Same class sweep as ict_sym; the per-orbit counts keep only even
    permutations, which halves each count or kills it outright when the
    relevant stabilizer is all-even.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    return _closed_form(n, f"alt({n})", "alt_closed", True)


def _affine_rows(a):
    """The affine relabelings x -> x * j^-1 (mod n), one per unit j mod n,
    transported into the numbering where the n-cycle with 0-based row `a`
    (a list or an array) plays x -> x + 1: with orbit[i] = a^i(0), the row
    for j maps orbit[i] to orbit[i * j^-1 mod n].  Returns (units, rows),
    units ascending and row k belonging to units[k]."""
    import numpy as np
    from .groups import _row_dtype

    n = len(a)
    orbit = np.zeros(n, dtype=np.intp)
    for i in range(1, n):
        orbit[i] = a[orbit[i - 1]]
    units = [j for j in range(1, n + 1) if gcd(j, n) == 1]
    inverses = np.array([pow(j, -1, n) for j in units])
    rows = np.empty((len(units), n), dtype=_row_dtype(n))
    rows[:, orbit] = orbit[np.arange(n) * inverses[:, None] % n]
    return units, rows


def cyclic_fixed_and_orbit_data(n: int, j: int):
    """(k, t) for the affine relabeling indexed by the unit j mod n.

    k is its number of fixed symbols, gcd(n, j - 1): x -> j^-i x fixes the x
    with (j^i - 1) x = 0 mod n, gcd(n, j^i - 1) of them.  t is its number of
    orbits of length > 1, the mean of those counts over one walk of j's powers
    to j^order = 1 (Burnside on the cyclic group it generates), less k.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if gcd(j, n) != 1:
        raise ValueError(f"j = {j} is not coprime to n = {n}")
    if n == 1:
        return 1, 0
    j %= n
    k = total = gcd(n, j - 1)
    order, power = 1, j
    while power != 1:
        power = power * j % n
        total += gcd(n, power - 1)
        order += 1
    orbit_total, rem = divmod(total, order)
    assert rem == 0
    return k, orbit_total - k


def _find_regular_normal_cycle(pair: PairGH) -> np.ndarray:
    """The least n-cycle a of G generating a normal subgroup, as a 0-based
    row: each generator g of G conjugates a to a power of a, i.e. g a g^-1
    commutes with a, whose centralizer in Sym(n) is the group it generates.
    In degree 1 the identity is the 1-cycle."""
    import numpy as np
    from .groups import _invert_rows

    gens = pair.group.generators
    inverses = _invert_rows(gens)
    for a in pair.group._rows:
        if len(_orbits(a.tolist(), 0)) == 1:
            conj = np.take_along_axis(gens, a[inverses], axis=1)  # g[a[g^-1]]
            if (conj[:, a] == a[conj]).all():  # compose(c, a) is c[a]
                return a
    raise HypothesisViolation(
        f"{pair.name or 'pair'}: no normal regular cyclic transversal found")


def _validate_cyclic_pair(pair: PairGH, cap: int):
    """Machine-check the structural hypotheses behind the cyclic closed form
    against a concrete pair: the affine family of the n-cycle generating the
    normal regular cyclic transversal is closed under composition,
    normalizes G and, when the cap allows normalizer_in_stab, is the
    normalizer it finds; the non-generating transversals are
    distinguishable subgroups.  Returns (units, rows, notes, validated):
    the family (see _affine_rows), what was checked, and whether both the
    normalizer check and the non-generator scan ran."""
    import numpy as np
    from itertools import islice
    from .groups import (SECTION_CHUNK, PermGroup, _normalizing, _row_keys, closure,
                         enumerate_transversals, generates, normalizer_in_stab)

    n = pair.degree
    a = _find_regular_normal_cycle(pair)
    notes = ["normal regular cyclic transversal generated by "
             + format_cycles((a + 1).tolist())]
    units, rows = _affine_rows(a)
    gamma = PermGroup(rows[np.argsort(_row_keys(rows))])
    # composing every pair of relabelings (compose(x, y) is x[y]) stays inside
    assert (gamma._locate(rows[:, rows].reshape(-1, n)) >= 0).all()
    # G lies in the holomorph x -> ux + b of its normal cycle, and x -> j^-1 x
    # conjugates that to x -> ux + j^-1 b, again in G
    if not _normalizing(pair.group, rows).all():
        raise HypothesisViolation("acting group must normalize the group")
    try:  # the (n-1)! cap is checked before any candidate is built
        brute = normalizer_in_stab(pair, cap=cap)
    except CapExceeded as refusal:
        brute_checked = False
        notes.append(f"normalizer equality not brute-checked ({refusal})")
    else:
        brute_checked = True
        if brute != gamma:
            raise HypothesisViolation(
                f"normalizer has order {brute.order}, affine family has "
                f"order {gamma.order}; they differ")
        notes.append("affine family equals the brute-force normalizer")

    count = pair.transversal_count()
    scanned = count <= NONGENERATOR_SCAN_CAP
    if scanned:
        transversals, nongen = enumerate_transversals(pair), []
        while stack := list(islice(transversals, SECTION_CHUNK)):
            nongen += [T for T, ok in zip(stack, generates(pair, np.stack(stack))) if not ok]
        # T holds the identity, so it is a subgroup exactly when its closure adds nothing
        if not all(len(closure(T)) == len(T) for T in nongen):
            raise HypothesisViolation("a non-generating transversal is not a subgroup")
        # element orders: the lcm of each member's orbit lengths
        profiles = [tuple(sorted(math.lcm(*map(len, _orbits(row, 0))) for row in T.tolist()))
                    for T in nongen]
        if len(set(profiles)) != len(profiles):
            raise HypothesisViolation(
                "two non-generating transversals share an element-order "
                "profile; cannot confirm they lie in distinct classes")
        notes.append(
            f"{len(nongen)} non-generating transversal(s), all subgroups, "
            "pairwise distinguishable")
    else:
        notes.append(
            f"non-generator scan skipped ({count} transversals exceed the cap)")
    return units, rows, notes, brute_checked and scanned


def ict_cyclic(pair: PairGH, *, cap: int = CAP_STAB_ENUM) -> IctReport:
    """Classes of transversals for a pair with a normal regular cyclic
    transversal, by fixed-point arithmetic: n is the pair's degree and h its
    subgroup order.

    Every per-orbit count for these pairs equals h (the whole coset commutes
    with the relevant power), so each unit j contributes h^(t + k - 1) and
    the average runs over the phi(n) affine relabelings.  The structural
    hypotheses are machine-checked against the pair, and each relabeling's
    row is built by _class_row, as in ict_theorem6: its (k, t) must be the
    gcd arithmetic's and its counts must all equal h; the report is flagged
    validated only when the brute normalizer check and the non-generator
    scan both ran.
    """
    n, h = pair.degree, pair.subgroup_order
    units, rows, notes, validated = _validate_cyclic_pair(pair, cap)
    cosets = pair.cosets()
    contributions = [_class_row(cosets, x, 1) for x in rows]
    for j, row in zip(units, contributions):
        k, t = cyclic_fixed_and_orbit_data(n, j)
        got = (row.k, row.t)
        if got != (k, t):
            raise DisagreementError(
                f"gcd arithmetic gives (k, t) = ({k}, {t}) but the affine "
                f"relabeling for j = {j} has {got}", values=((k, t), got))
        bad = [f for f in row.a_factors[1:] + row.orbit_factors if f != h]
        if bad:
            raise HypothesisViolation(f"a commuting count for {row.representative} is "
                                      f"{bad[0]}, not the subgroup order {h}")
    return _assemble("cyclic_closed", n, len(units), contributions, pair.name,
                     "; ".join(notes), validated)


class _Decimal(dict):
    """Decimal text of ints, each converted on first lookup."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


def report_to_text(report: IctReport) -> str:
    """Fixed-width table: one row per class with its representative, class
    size, fixed-symbol and long-orbit counts, the per-orbit factors, and the
    fixed-transversal count, followed by the Burnside totals."""
    flag = "validated" if report.validated else "unvalidated"
    head = (f"pair: {report.pair_label or '-'}\nmethod: {report.method}\n"
            f"gamma order: {report.gamma_order}\n")
    tail = (f"numerator: {report.numerator}\nvalue: {report.value}\n"
            f"hypothesis ({flag}): {report.justification or '-'}\n")
    if not report.contributions:
        return head + tail
    decimal = _Decimal()  # a factor, k or t repeats along a row and down the table
    cell = decimal.__getitem__
    reps, sizes, ts, ks, a_factors, orbit_factors, fixes = zip(*report.contributions)
    columns = [("representative", *reps), ("size", *map(str, sizes)), ("k", *map(cell, ks)),
               ("t", *map(cell, ts)), ("a_factors", *[",".join(map(cell, f)) for f in a_factors]),
               ("orbit_factors", *[",".join(map(cell, f)) or "-" for f in orbit_factors]),
               ("fix", *map(str, fixes))]
    widths = [max(map(len, column)) for column in columns]
    # the last column is left unpadded, so no row ends in spaces; head and
    # tail go in as cells, so the text is built once
    layout = "".join("%%-%ds  " % w for w in widths[:-1]) + "%s"
    table = "%s" + "\n".join([layout] * (len(reps) + 1)) + "\n%s"
    return table % (head, *chain.from_iterable(zip(*columns)), tail)


def report_to_json(report: IctReport) -> dict:
    """JSON-ready dict; deterministic for identical reports."""
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "pair": report.pair_label,
        "method": report.method,
        "degree": report.degree,
        "value": report.value,
        "gamma_order": report.gamma_order,
        "numerator": report.numerator,
        "validated": report.validated,
        "justification": report.justification,
        "contributions": [
            {
                "representative": c.representative,
                "class_size": c.class_size,
                "k": c.k,
                "t": c.t,
                "a_factors": list(c.a_factors),
                "orbit_factors": list(c.orbit_factors),
                "fix_count": c.fix_count,
            }
            for c in report.contributions
        ],
    }


def report_from_json(data: dict) -> IctReport:
    """The report report_to_json wrote, built from its stored fields as they
    are.  An object of another schema raises ValueError, and one that lacks
    a field raises KeyError."""
    if not isinstance(data, dict):
        raise ValueError(f"report is not a JSON object: {data!r}")
    if data.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"unknown report schema: {data.get('schema')!r}")
    return IctReport(
        value=data["value"],
        method=data["method"],
        gamma_order=data["gamma_order"],
        numerator=data["numerator"],
        contributions=tuple(
            ClassContribution(c["representative"], c["class_size"], c["t"], c["k"],
                              tuple(c["a_factors"]), tuple(c["orbit_factors"]),
                              c["fix_count"])
            for c in data["contributions"]),
        pair_label=data["pair"],
        justification=data["justification"],
        validated=data["validated"],
        degree=data["degree"],
    )
