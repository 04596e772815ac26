"""Counting engines for isomorphism classes of transversals.

Everything here is Burnside counting for one action: a permutation x that
fixes symbol 1 and normalizes G acts on the transversals-with-identity of H
in G by conjugation, sending the member over coset i to the member over
coset x(i).  A transversal fixed by x is therefore assembled from one free
choice per orbit of x on coset numbers; walking an orbit of length m back to
its start forces the chosen member q to satisfy q x^m = x^m q.  The engines
differ only in where the per-orbit counts come from: a direct filter over
G's elements in ict_theorem6, closed forms from cycle types in ict_sym and
ict_alt, and fixed-point gcd arithmetic in ict_cyclic.

The resulting value is the number of conjugation orbits.  Whether that equals
the number of isomorphism classes depends on a hypothesis about the pair
(conjugation must capture every isomorphism); each report records the
justification claimed for it and whether it was machine-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import factorial, gcd
from typing import TYPE_CHECKING

from ._version import __version__
from .errors import (CAP_CLASSES, CAP_STAB_ENUM, CapExceeded, DisagreementError,
                     HypothesisViolation)
from .perm import _orbits, format_cycles, parse_cycles
from .symclasses import (centralizer_order, class_size, multiplicities, partitions,
                         partitions_exceed)

# groups imports numpy; the engines that build or read a group import it
# when they run, so the closed forms and the renderers load without numpy
if TYPE_CHECKING:
    import numpy as np
    from .groups import PairGH, PermGroup

# Transversal sets larger than this are not swept for non-generators during
# cyclic hypothesis validation; the report notes the skip instead.
NONGENERATOR_SCAN_CAP = 100_000

REPORT_SCHEMA = "ict-report/1"

# Why an orbit count is ict when the acting group is all of Sym(n)_1.
WHOLE_STABILIZER = ("the acting group is the whole stabilizer of symbol 1, "
                    "which contains every relabeling that could link classes")


@dataclass(frozen=True)
class ClassContribution:
    """One conjugacy class of the acting group and its fixed-transversal count.

    representative is the class representative in canonical cycle notation,
    exactly as format_cycles prints it; parse_cycles(report.degree, ...)
    turns it back into a Permutation.  a_factors has one entry per fixed
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


@dataclass(frozen=True)
class IctReport:
    value: int
    method: str
    gamma_order: int
    numerator: int
    contributions: tuple
    pair_label: str = ""
    justification: str = ""
    validated: bool = True
    degree: int | None = None


def _contribution(rep: str, size: int, a_factors, orbit_factors) -> ClassContribution:
    a_factors = tuple(a_factors)
    orbit_factors = tuple(orbit_factors)
    fix = math.prod(a_factors) * math.prod(orbit_factors)
    return ClassContribution(
        representative=rep,
        class_size=size,
        t=len(orbit_factors),
        k=len(a_factors),
        a_factors=a_factors,
        orbit_factors=orbit_factors,
        fix_count=fix,
    )


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


def orbit_profile(row):
    """Fixed symbols beyond 0 and long orbits of a 0-based image row (a
    list or tuple) fixing 0; symbol j stands for coset j + 1.

    Returns (fixed, long) where fixed is a tuple of symbols j > 0 with
    row[j] = j and long is a tuple of (smallest member, length) pairs, one
    per orbit of length > 1.  Symbol 0's own orbit is omitted: the identity
    member of a transversal is pinned and contributes no choice.
    """
    if row[0] != 0:
        raise ValueError("expected a permutation fixing symbol 1")
    fixed = []
    long_orbits = []
    for orb in _orbits(row, 0):
        if len(orb) == 1:
            if orb[0] != 0:
                fixed.append(orb[0])
        else:
            long_orbits.append((orb[0], len(orb)))
    return tuple(fixed), tuple(long_orbits)


def _commuting_in_coset(coset: np.ndarray, z: np.ndarray) -> int:
    """Members q of the coset with q z = z q, all as 0-based image rows."""
    return int((coset[:, z] == z[coset]).all(axis=1).sum())


def _row_power(x: np.ndarray, m: int) -> np.ndarray:
    """x^m for a 0-based image row x and m >= 1: compose(x, y) is x[y]."""
    power = x
    for _ in range(m - 1):
        power = x[power]
    return power


def ict_theorem6(pair: PairGH, gamma: PermGroup | None = None,
                 cap: int = CAP_STAB_ENUM) -> IctReport:
    """Burnside count of gamma-conjugation orbits on the pair's transversals.

    gamma defaults to the full normalizer of G inside the stabilizer of
    symbol 1, found by brute sweep.  Per conjugacy class of gamma the fixed
    transversals are counted orbit by orbit with a direct filter over G's
    elements; no formula is assumed.  The quotient must come out exact, and
    a gamma passed in must have the pair's degree, fix 1 and normalize G,
    else HypothesisViolation; the default is built by that same test.

    The report is validated only when gamma is all of Sym(n)_1: two
    transversals generating a proper subgroup of G may be linked only by a
    relabeling outside a smaller gamma, which then overcounts.
    """
    from .groups import _normalizing, normalizer_in_stab

    n = pair.degree
    if gamma is None:
        gamma = normalizer_in_stab(pair, cap=cap)
    elif gamma.degree != n:
        raise HypothesisViolation(
            f"acting group degree {gamma.degree} does not match pair degree {n}")
    elif gamma._rows[:, 0].any():
        raise HypothesisViolation("acting group must fix symbol 1")
    elif not _normalizing(pair.group, gamma.generators).all():
        raise HypothesisViolation("acting group must normalize the group")

    cosets = pair.cosets()
    contributions = []
    for x, size in gamma.conjugacy_classes():
        fixed, long_orbits = orbit_profile(x.tolist())
        a_factors = [1]
        a_factors += [_commuting_in_coset(cosets[j], x) for j in fixed]
        orbit_factors = [_commuting_in_coset(cosets[i0], _row_power(x, m))
                         for (i0, m) in long_orbits]
        contributions.append(
            _contribution(format_cycles((x + 1).tolist()), size, a_factors, orbit_factors))
    whole = gamma.order == factorial(n - 1)
    justification = WHOLE_STABILIZER if whole else (
        f"the acting group has order {gamma.order}, not (n-1)! = {factorial(n - 1)}; "
        "its orbit count can exceed ict when some transversal generates a proper subgroup")
    return _assemble("theorem6", n, gamma.order, contributions, pair.name,
                     justification, whole)


def power_cycle_counts(cycle_counts: dict, m: int) -> dict:
    """Cycle type of x^m from the cycle type of x.

    Both types are maps length -> multiplicity with fixed points included
    under key 1.  A cycle of length l falls apart into gcd(l, m) cycles of
    length l // gcd(l, m).
    """
    if m < 1:
        raise ValueError("need m >= 1")
    out: dict = {}
    for l, mult in cycle_counts.items():
        g = gcd(l, m)
        out[l // g] = out.get(l // g, 0) + mult * g
    return out


def sym_commuting_count(cycle_counts: dict) -> int:
    """Permutations commuting with z that send 1 to a chosen fixed symbol of z.

    This is the per-orbit count that ict_theorem6 filters G's coset for
    (_commuting_in_coset), evaluated for G = Sym(n) from cycle types alone.
    cycle_counts is z's cycle type on the full domain (fixed points under
    key 1; symbol 1 itself must be fixed).  The centralizer of z permutes
    z's fixed symbols transitively, so the count is its order divided by the
    number f of fixed symbols: (f-1)! times centralizer_order.
    """
    f = cycle_counts.get(1, 0)
    if f < 1:
        raise ValueError("symbol 1 must be fixed")
    return factorial(f - 1) * centralizer_order(cycle_counts)


def alt_commuting_count(cycle_counts: dict) -> int:
    """Even permutations commuting with z that send 1 to a fixed symbol i > 1.

    This is the per-orbit count that ict_theorem6 filters G's coset for
    (_commuting_in_coset), evaluated for G = Alt(n) from cycle types alone.
    The candidates form a coset of the centralizer's stabilizer of 1 by the
    odd transposition (1, i), so the count is half of sym_commuting_count
    when that stabilizer contains an odd permutation and zero when it is
    all-even.  With f >= 3 fixed symbols it never is (it holds the odd
    transposition of two fixed symbols other than 1); with f = 2 it is the
    centralizer of z on its moved symbols, which all_even_centralizer
    decides.
    """
    f = cycle_counts.get(1, 0)
    if f < 2:
        raise ValueError("symbols 1 and i must both be fixed")
    if f < 3:
        moved = [l for l, mult in cycle_counts.items() if l > 1 for _ in range(mult)]
        # no moved symbols: the centralizer is trivial, so all-even
        if not moved or all_even_centralizer(moved):
            return 0
    half, rem = divmod(sym_commuting_count(cycle_counts), 2)
    assert rem == 0
    return half


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


def _closed_form(n: int, label: str, method: str, factor_fn) -> IctReport:
    m = n - 1
    if partitions_exceed(m, CAP_CLASSES):
        raise CapExceeded("classes", CAP_CLASSES, f"p({m})")
    contributions = []
    symbols = [str(s) for s in range(n + 1)]
    # groups._class_order_key order: representatives fill cycles longest-first
    # on consecutive symbols from 2, so per moved count images order is parts
    # order, and each cycle's text is one run of symbols
    for parts in sorted(partitions(m), key=lambda p: (m - p.count(1), p)):
        cycles = []
        a = 2
        for l in parts:
            if l == 1:
                break
            cycles.append("(" + ",".join(symbols[a:a + l]) + ")")
            a += l
        counts = multiplicities(parts)
        size = class_size(counts, m)
        counts[1] = counts.get(1, 0) + 1  # symbol 1 rides along as a fixed point
        k = counts[1]
        a_factors = [1]
        if k > 1:
            a_factors += [factor_fn(counts)] * (k - 1)
        # one factor per cycle length, repeated per cycle, longest first
        orbit_factors = [f for l, mult in counts.items() if l > 1
                         for f in [factor_fn(power_cycle_counts(counts, l))] * mult]
        contributions.append(
            _contribution("".join(cycles) or "()", size, a_factors, orbit_factors))
    return _assemble(method, n, factorial(m), contributions, label, WHOLE_STABILIZER, True)


def ict_sym(n: int) -> IctReport:
    """Classes of transversals of the point stabilizer in Sym(n), closed form.

    Iterates cycle types of the acting stabilizer (one per partition of
    n - 1) and evaluates every per-orbit count from cycle types alone; the
    group is never enumerated.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return _closed_form(n, f"sym({n})", "sym_closed", sym_commuting_count)


def ict_alt(n: int) -> IctReport:
    """Classes of transversals of the point stabilizer in Alt(n), closed form.

    Same class sweep as ict_sym; the per-orbit counts keep only even
    permutations, which halves each count or kills it outright when the
    relevant stabilizer is all-even.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    return _closed_form(n, f"alt({n})", "alt_closed", alt_commuting_count)


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

    k is its number of fixed symbols, gcd(n, j^-1 - 1); t is its number of
    orbits of length > 1, obtained by averaging fixed-symbol counts over the
    powers of j (Burnside on the cyclic group the relabeling generates).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if gcd(j, n) != 1:
        raise ValueError(f"j = {j} is not coprime to n = {n}")
    if n == 1:
        return 1, 0
    j %= n

    def fixed_count(power: int) -> int:
        pinv = pow(power, -1, n)
        return gcd(n, (pinv - 1) % n)

    k = fixed_count(j)
    order = 1
    val = j
    while val != 1:
        val = val * j % n
        order += 1
    total = 0
    val = j
    for _ in range(order):
        total += fixed_count(val)
        val = val * j % n
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


def _validate_cyclic_pair(pair: PairGH, n: int, h: int, cap: int):
    """Machine-check the structural hypotheses behind the cyclic closed form
    against a concrete pair.  Returns (units, rows, gamma, notes): the
    affine family (see _affine_rows) of the n-cycle generating the normal
    regular cyclic transversal, the group it forms, and what was checked."""
    import numpy as np
    from .groups import (PermGroup, _row_keys, closure, enumerate_transversals, generates,
                         normalizer_in_stab)

    notes = []
    if pair.degree != n or pair.subgroup_order != h:
        raise HypothesisViolation(
            f"pair is degree {pair.degree} with subgroup order "
            f"{pair.subgroup_order}, not ({n}, {h})")
    a = _find_regular_normal_cycle(pair)
    notes.append("normal regular cyclic transversal generated by "
                 + format_cycles((a + 1).tolist()))
    units, rows = _affine_rows(a)
    gamma = PermGroup(rows[np.argsort(_row_keys(rows))])
    # composing every pair of relabelings (compose(x, y) is x[y]) stays inside
    assert (gamma._locate(rows[:, rows].reshape(-1, n)) >= 0).all()
    # G lies in the holomorph x -> ux + b of its normal cycle, and x -> j^-1 x
    # conjugates that to x -> ux + j^-1 b, again in G; ict_theorem6 checks it
    if factorial(n - 1) <= cap:
        brute = normalizer_in_stab(pair, cap=cap)
        if brute != gamma:
            raise HypothesisViolation(
                f"normalizer has order {brute.order}, affine family has "
                f"order {gamma.order}; they differ")
        notes.append("affine family equals the brute-force normalizer")
    else:
        notes.append("normalizer equality not brute-checked (degree too large)")

    count = pair.transversal_count()
    if count <= NONGENERATOR_SCAN_CAP:
        nongen = [T for T in enumerate_transversals(pair) if not generates(pair, T)]
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
    return units, rows, gamma, notes


def ict_cyclic(n: int, h: int, pair: PairGH | None = None,
               cap: int = CAP_STAB_ENUM) -> IctReport:
    """Classes of transversals for a pair with a normal regular cyclic
    transversal of order n and subgroup order h, by fixed-point arithmetic.

    Every per-orbit count for these pairs equals h (the whole coset commutes
    with the relevant power), so each unit j contributes h^(t + k - 1) and
    the average runs over the phi(n) affine relabelings.  Given a concrete
    pair the structural hypotheses are machine-checked and the value is
    cross-checked against the direct engine; without one the report is
    flagged unvalidated.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if h < 1:
        raise ValueError("need h >= 1")
    if pair is None:
        units, rows = _affine_rows([*range(1, n), 0])
        label = f"cyclic(n={n}, h={h})"
        justification = ("formula-only: structural hypotheses not checked "
                         "against a concrete pair")
        validated = False
        gamma = None
    else:
        units, rows, gamma, notes = _validate_cyclic_pair(pair, n, h, cap)
        label = pair.name
        justification = "; ".join(notes)
        validated = True

    contributions = []
    for j, row, images in zip(units, rows.tolist(), (rows + 1).tolist()):
        k, t = cyclic_fixed_and_orbit_data(n, j)
        fixed, long_orbits = orbit_profile(row)
        if len(fixed) + 1 != k or len(long_orbits) != t:
            raise DisagreementError(
                f"gcd arithmetic gives (k, t) = ({k}, {t}) but the affine "
                f"relabeling for j = {j} has ({len(fixed) + 1}, {len(long_orbits)})",
                values=((k, t), (len(fixed) + 1, len(long_orbits))))
        contributions.append(
            _contribution(format_cycles(images), 1, [1] + [h] * (k - 1), [h] * t))
    report = _assemble("cyclic_closed", n, len(units), contributions, label,
                       justification, validated)

    if pair is not None:
        direct = ict_theorem6(pair, gamma=gamma)
        for c in direct.contributions:
            bad = [f for f in c.a_factors[1:] if f != h]
            bad += [f for f in c.orbit_factors if f != h]
            if bad:
                raise HypothesisViolation(
                    f"a commuting count for {c.representative} "
                    f"is {bad[0]}, not the subgroup order {h}")
        if direct.value != report.value:
            raise DisagreementError(
                "closed form and direct engine disagree",
                values=(report.value, direct.value))
    return report


def report_to_text(report: IctReport) -> str:
    """Fixed-width table: one row per class with its representative, class
    size, fixed-symbol and long-orbit counts, the per-orbit factors, and the
    fixed-transversal count, followed by the Burnside totals."""
    lines = [
        f"pair: {report.pair_label or '-'}",
        f"method: {report.method}",
        f"gamma order: {report.gamma_order}",
    ]
    if report.contributions:
        rows = [("representative", "size", "k", "t", "a_factors", "orbit_factors", "fix")]
        for c in report.contributions:
            rows.append((
                c.representative,
                str(c.class_size),
                str(c.k),
                str(c.t),
                ",".join(map(str, c.a_factors)),
                ",".join(map(str, c.orbit_factors)) or "-",
                str(c.fix_count),
            ))
        layout = "  ".join(f"{{:<{max(map(len, column))}}}" for column in zip(*rows))
        lines += [layout.format(*r).rstrip() for r in rows]
    lines.append(f"numerator: {report.numerator}")
    lines.append(f"value: {report.value}")
    flag = "validated" if report.validated else "unvalidated"
    lines.append(f"hypothesis ({flag}): {report.justification or '-'}")
    return "\n".join(lines) + "\n"


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
    if not isinstance(data, dict):
        raise ValueError(f"report is not a JSON object: {data!r}")
    if data.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"unknown report schema: {data.get('schema')!r}")
    degree = data.get("degree")
    contributions = tuple(
        ClassContribution(
            representative=format_cycles(parse_cycles(degree, c["representative"])),
            class_size=c["class_size"],
            t=c["t"],
            k=c["k"],
            a_factors=tuple(c["a_factors"]),
            orbit_factors=tuple(c["orbit_factors"]),
            fix_count=c["fix_count"],
        )
        for c in data["contributions"]
    )
    return IctReport(
        value=data["value"],
        method=data["method"],
        gamma_order=data["gamma_order"],
        numerator=data["numerator"],
        contributions=contributions,
        pair_label=data["pair"],
        justification=data["justification"],
        validated=data["validated"],
        degree=degree if contributions else None,
    )
