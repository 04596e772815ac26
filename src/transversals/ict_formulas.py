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

from ._version import __version__
from .errors import CAP_STAB_ENUM, DisagreementError, HypothesisViolation
from .groups import (
    PairGH,
    PermGroup,
    _class_order_key,
    _is_subgroup,
    _normalizers,
    enumerate_transversals,
    generates,
    normalizer_in_stab,
)
from .perm import Permutation, compose, conjugate, format_cycles, parse_cycles
from .symclasses import class_representative, class_size, multiplicities, partitions

# Transversal sets larger than this are not swept for non-generators during
# cyclic hypothesis validation; the report notes the skip instead.
NONGENERATOR_SCAN_CAP = 100_000

REPORT_SCHEMA = "ict-report/1"


@dataclass(frozen=True)
class ClassContribution:
    """One conjugacy class of the acting group and its fixed-transversal count.

    a_factors has one entry per fixed symbol of the representative (symbol 1
    first, always 1); orbit_factors has one entry per orbit of length > 1.
    fix_count is the product of both tuples.
    """

    representative: Permutation
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


def _contribution(rep: Permutation, size: int, a_factors, orbit_factors) -> ClassContribution:
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


def _assemble(method, gamma_order, contributions, pair_label, justification, validated):
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
    )


def orbit_profile(x: Permutation):
    """Fixed symbols beyond 1 and long orbits of x, which must fix symbol 1.

    Returns (fixed, long) where fixed is a tuple of symbols j > 1 with
    x(j) = j and long is a tuple of (smallest member, length) pairs, one per
    orbit of length > 1.  Symbol 1's own orbit is omitted: the identity
    member of a transversal is pinned and contributes no choice.
    """
    if x(1) != 1:
        raise ValueError("expected a permutation fixing symbol 1")
    fixed = []
    long_orbits = []
    for orb in x.orbits():
        if len(orb) == 1:
            if orb[0] != 1:
                fixed.append(orb[0])
        else:
            long_orbits.append((orb[0], len(orb)))
    return tuple(fixed), tuple(long_orbits)


def _commuting_in_coset(coset, z: Permutation) -> int:
    return sum(1 for q in coset if compose(q, z) == compose(z, q))


def ict_theorem6(pair: PairGH, gamma: PermGroup | None = None, justification: str = "",
                 cap: int = CAP_STAB_ENUM) -> IctReport:
    """Burnside count of gamma-conjugation orbits on the pair's transversals.

    gamma defaults to the full normalizer of G inside the stabilizer of
    symbol 1, found by brute sweep.  Per conjugacy class of gamma the fixed
    transversals are counted orbit by orbit with a direct filter over G's
    elements; no formula is assumed.  The quotient must come out exact, and
    gamma itself must fix 1 and normalize G, else HypothesisViolation.
    """
    n = pair.degree
    if gamma is None:
        gamma = normalizer_in_stab(pair, cap=cap)
    if gamma.degree != n:
        raise HypothesisViolation(
            f"acting group degree {gamma.degree} does not match pair degree {n}")
    if any(g(1) != 1 for g in gamma):
        raise HypothesisViolation("acting group must fix symbol 1")
    gamma_gens = gamma.generators or tuple(gamma)
    if len(_normalizers(pair.group, gamma_gens)) != len(gamma_gens):
        raise HypothesisViolation("acting group must normalize the group")

    cosets = pair.cosets()
    contributions = []
    for cls in gamma.conjugacy_classes():
        x = cls[0]
        fixed, long_orbits = orbit_profile(x)
        a_factors = [1]
        a_factors += [_commuting_in_coset(cosets[j - 1], x) for j in fixed]
        orbit_factors = [
            _commuting_in_coset(cosets[i0 - 1], x ** m) for (i0, m) in long_orbits
        ]
        contributions.append(_contribution(x, len(cls), a_factors, orbit_factors))
    return _assemble("theorem6", gamma.order, contributions, pair.name,
                     justification, True)


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

    cycle_counts is z's cycle type on the full domain (fixed points under
    key 1; symbol 1 itself must be fixed).  The centralizer of z permutes
    z's fixed symbols transitively, so the count is its order divided by the
    number of fixed symbols: (f-1)! times prod over l > 1 of mult! * l^mult.
    """
    f = cycle_counts.get(1, 0)
    if f < 1:
        raise ValueError("symbol 1 must be fixed")
    out = factorial(f - 1)
    for l, mult in cycle_counts.items():
        if l > 1:
            out *= factorial(mult) * l ** mult
    return out


def alt_commuting_count(cycle_counts: dict) -> int:
    """Even permutations commuting with z that send 1 to a fixed symbol i > 1.

    The candidates form a coset of the centralizer's stabilizer of 1 by the
    odd transposition (1, i), so the count is half of sym_commuting_count
    when that stabilizer contains an odd permutation and zero when it is
    all-even.  An odd element exists exactly when there are at least two
    fixed symbols besides 1, or a cycle of even length, or a repeated odd
    length > 1.
    """
    f = cycle_counts.get(1, 0)
    if f < 2:
        raise ValueError("symbols 1 and i must both be fixed")
    total = sym_commuting_count(cycle_counts)
    has_odd = f >= 3
    if not has_odd:
        for l, mult in cycle_counts.items():
            if l > 1 and mult >= 1 and l % 2 == 0:
                has_odd = True
                break
            if l > 1 and mult >= 2 and l % 2 == 1:
                has_odd = True
                break
    if not has_odd:
        return 0
    half, rem = divmod(total, 2)
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
    contributions = []
    for parts in partitions(m):
        counts = dict(multiplicities(parts))
        counts[1] = counts.get(1, 0) + 1  # symbol 1 rides along as a fixed point
        k = counts[1]
        a_factors = [1]
        if k > 1:
            a_factors += [factor_fn(counts)] * (k - 1)
        orbit_factors = [
            factor_fn(power_cycle_counts(counts, l)) for l in parts if l > 1
        ]
        contributions.append(
            _contribution(class_representative(parts, m), class_size(parts, m),
                          a_factors, orbit_factors)
        )
    contributions.sort(key=lambda c: _class_order_key(c.representative))
    justification = ("the acting group is the whole stabilizer of symbol 1, "
                     "which contains every relabeling that could link classes")
    return _assemble(method, factorial(m), contributions, label, justification, True)


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


def _standard_cycle(n: int) -> Permutation:
    return Permutation(tuple(range(2, n + 1)) + (1,))


def _affine_elements(n: int, a: Permutation):
    """The affine relabelings x -> (x-1)*j^-1 + 1 (mod n), one per unit j,
    transported into the numbering where a plays the standard n-cycle.
    Returns a list of (j, permutation) with j ascending."""
    if a.degree != n:
        raise ValueError(f"expected degree {n}, got {a.degree}")
    if len(a.orbits()) != 1:
        raise ValueError("a must be a single n-cycle")
    if n == 1:
        return [(1, Permutation((1,)))]
    # sigma renumbers so that a becomes (1, 2, ..., n)
    imgs = [1]
    p = 1
    for _ in range(n - 1):
        p = a(p)
        imgs.append(p)
    sigma = Permutation(imgs)
    out = []
    for j in range(1, n + 1):
        if gcd(j, n) != 1:
            continue
        jinv = pow(j, -1, n)
        std = Permutation(tuple((x - 1) * jinv % n + 1 for x in range(1, n + 1)))
        out.append((j, conjugate(std, sigma)))
    return out


def cyclic_gamma(n: int, a: Permutation | None = None) -> PermGroup:
    """The abelian group of affine relabelings normalizing a regular cyclic
    transversal generated by the n-cycle a (default (1, 2, ..., n)); its
    order is phi(n) and every element fixes symbol 1."""
    if a is None:
        a = _standard_cycle(n)
    elems = [g for _, g in _affine_elements(n, a)]
    grp = PermGroup.from_generators(elems, degree=n)
    assert grp.order == len(elems), "affine family failed to close"
    assert grp.is_abelian()
    assert all(g(1) == 1 for g in elems)
    return grp


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


def _find_regular_normal_cycle(pair: PairGH) -> Permutation:
    n = pair.degree
    gens = pair.group.generators or tuple(pair.group.elements)
    for x in sorted(pair.group.elements):
        if len(x.orbits()) != 1:
            continue
        powers = set()
        acc = x
        while acc not in powers:
            powers.add(acc)
            acc = compose(x, acc)
        if all(conjugate(x, g) in powers for g in gens):
            return x
    raise HypothesisViolation(
        f"{pair.name or 'pair'}: no normal regular cyclic transversal found")


def _perm_order(p: Permutation) -> int:
    return math.lcm(*[len(o) for o in p.orbits()])


def _validate_cyclic_pair(pair: PairGH, n: int, h: int, cap: int):
    """Machine-check the structural hypotheses behind the cyclic closed form
    against a concrete pair.  Returns (a, gamma, notes): the n-cycle
    generating the normal regular cyclic transversal, the affine group it
    determines, and what was checked."""
    notes = []
    if pair.degree != n or pair.subgroup_order != h:
        raise HypothesisViolation(
            f"pair is degree {pair.degree} with subgroup order "
            f"{pair.subgroup_order}, not ({n}, {h})")
    a = _find_regular_normal_cycle(pair)
    notes.append(f"normal regular cyclic transversal generated by {format_cycles(a)}")
    gamma = cyclic_gamma(n, a)
    if len(_normalizers(pair.group, gamma)) != gamma.order:
        raise HypothesisViolation("affine relabelings do not normalize the group")
    if factorial(n - 1) <= cap:
        brute = normalizer_in_stab(pair, cap=cap)
        if brute.elements != gamma.elements:
            raise HypothesisViolation(
                f"normalizer has order {brute.order}, affine family has "
                f"order {gamma.order}; they differ")
        notes.append("affine family equals the brute-force normalizer")
    else:
        notes.append("normalizer equality not brute-checked (degree too large)")

    count = pair.transversal_count()
    if count <= NONGENERATOR_SCAN_CAP:
        nongen = [T for T in enumerate_transversals(pair) if not generates(pair, T)]
        if not all(_is_subgroup(T) for T in nongen):
            raise HypothesisViolation("a non-generating transversal is not a subgroup")
        profiles = [tuple(sorted(_perm_order(p) for p in T)) for T in nongen]
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
    return a, gamma, notes


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
        a = _standard_cycle(n)
        label = f"cyclic(n={n}, h={h})"
        justification = ("formula-only: structural hypotheses not checked "
                         "against a concrete pair")
        validated = False
        gamma = None
    else:
        a, gamma, notes = _validate_cyclic_pair(pair, n, h, cap)
        label = pair.name
        justification = "; ".join(notes)
        validated = True

    affine = _affine_elements(n, a)
    contributions = []
    for j, g in affine:
        k, t = cyclic_fixed_and_orbit_data(n, j)
        fixed, long_orbits = orbit_profile(g)
        if len(fixed) + 1 != k or len(long_orbits) != t:
            raise DisagreementError(
                f"gcd arithmetic gives (k, t) = ({k}, {t}) but the affine "
                f"relabeling for j = {j} has ({len(fixed) + 1}, {len(long_orbits)})",
                values=((k, t), (len(fixed) + 1, len(long_orbits))))
        contributions.append(_contribution(g, 1, [1] + [h] * (k - 1), [h] * t))
    report = _assemble("cyclic_closed", len(affine), contributions, label,
                       justification, validated)

    if pair is not None:
        direct = ict_theorem6(pair, gamma=gamma, justification=report.justification)
        for c in direct.contributions:
            bad = [f for f in c.a_factors[1:] if f != h]
            bad += [f for f in c.orbit_factors if f != h]
            if bad:
                raise HypothesisViolation(
                    f"a commuting count for {format_cycles(c.representative)} "
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
                format_cycles(c.representative),
                str(c.class_size),
                str(c.k),
                str(c.t),
                ",".join(map(str, c.a_factors)),
                ",".join(map(str, c.orbit_factors)) or "-",
                str(c.fix_count),
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(7)]
        for r in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    lines.append(f"numerator: {report.numerator}")
    lines.append(f"value: {report.value}")
    flag = "validated" if report.validated else "unvalidated"
    lines.append(f"hypothesis ({flag}): {report.justification or '-'}")
    return "\n".join(lines) + "\n"


def report_to_json(report: IctReport) -> dict:
    """JSON-ready dict; deterministic for identical reports."""
    degree = report.contributions[0].representative.degree if report.contributions else None
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "pair": report.pair_label,
        "method": report.method,
        "degree": degree,
        "value": report.value,
        "gamma_order": report.gamma_order,
        "numerator": report.numerator,
        "validated": report.validated,
        "justification": report.justification,
        "contributions": [
            {
                "representative": format_cycles(c.representative),
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
    if data.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"unknown report schema: {data.get('schema')!r}")
    degree = data.get("degree")
    contributions = tuple(
        ClassContribution(
            representative=parse_cycles(degree, c["representative"]),
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
    )
