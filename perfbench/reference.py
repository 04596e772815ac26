"""Expected class counts for the benchmark, each from a named source.

Every integer the benchmark checks a command against is stored in
`expected.json` next to this file, keyed by the pair it belongs to, with one
entry per source that produced it:

- ``frozen``: the values pinned by the acceptance criteria (Sym(4..7),
  Alt(4..5) and the order-4 and order-5 left-loop censuses).
- ``reference``: the cycle-type Burnside sum for Sym(n) and Alt(n) below.  It
  is written here, apart from the package, and checked against the frozen
  values before anything is stored.  It is not an independent method: it
  re-derives the same Burnside formula the package's closed form uses (the
  same partition sweep, commuting counts and power-cycle rule), so an error
  in that formula would be shared.
- ``closed``, ``cyclic``, ``theorem6``, ``oracle``: the package's own
  engines, run once when the table is written.  theorem6 counts orbits by a
  direct filter over the group's elements, not by the formula, and is run on
  Sym(n) and Alt(n) up to n = 9.

A pair is stored only when at least two sources agree on it, and a command is
checked against a source other than the engine the command itself runs, so no
expected value comes from re-running the command under test.  For Sym(n) and
Alt(n) with n >= 10 (every closed-form command of the burnside workload) the
second source is ``reference`` alone: there the check pins the closed form
against a re-derivation of itself, a regression check rather than an
independent one.

Regenerate the table (takes a few minutes; needs ``src/`` importable):

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
from math import factorial, gcd
from pathlib import Path

TABLE = Path(__file__).resolve().with_name("expected.json")

FROZEN = {
    "sym:4": 44,
    "sym:5": 14022,
    "sym:6": 207392556,
    "sym:7": 193491859167624,
    "alt:4": 7,
    "alt:5": 897,
    "census:4": 44,
    "census:5": 14022,
}
CENSUS_TABLES = {4: 216, 5: 331776}

# Pairs the workloads use, and the package engines that can reach each one.
SYM_RANGE = range(2, 29)
ALT_RANGE = range(4, 29)
DIHEDRAL_RANGE = range(3, 11)
PQ_PAIRS = ((2, 3), (2, 5), (2, 7), (3, 7), (2, 11), (5, 11))


# ------------------------------------------------------------ reference engine

def _partitions(m: int, largest: int | None = None):
    """Partitions of m as non-increasing tuples, parts at most `largest`."""
    if largest is None:
        largest = m
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def _cycle_counts(parts) -> dict:
    counts: dict = {}
    for length in parts:
        counts[length] = counts.get(length, 0) + 1
    return counts


def _power(counts: dict, m: int) -> dict:
    """Cycle counts of z^m given those of z: an l-cycle splits into
    gcd(l, m) cycles of length l / gcd(l, m)."""
    out: dict = {}
    for length, mult in counts.items():
        g = gcd(length, m)
        out[length // g] = out.get(length // g, 0) + mult * g
    return out


def _commuting_sym(counts: dict) -> int:
    """Elements of Sym commuting with z and sending 1 to a given fixed point
    of z: |C(z)| divided by the number of fixed points of z."""
    out = factorial(counts[1] - 1)
    for length, mult in counts.items():
        if length > 1:
            out *= factorial(mult) * length ** mult
    return out


def _commuting_alt(counts: dict) -> int:
    """Even elements among those counted by _commuting_sym.  They form a coset
    of the centralizer's point stabilizer by an odd transposition, so half
    are even when that stabilizer holds an odd element, and none otherwise."""
    fixed = counts[1]
    odd_inside = fixed >= 3 or any(
        length > 1 and (length % 2 == 0 or mult >= 2)
        for length, mult in counts.items()
    )
    return _commuting_sym(counts) // 2 if odd_inside else 0


def reference_count(family: str, n: int) -> int:
    """ict of Sym(n) or Alt(n) over the stabilizer of 1, by Burnside over the
    cycle types of the acting group Sym(n-1) (it normalizes both)."""
    commuting = _commuting_sym if family == "sym" else _commuting_alt
    m = n - 1
    total = 0
    for parts in _partitions(m):
        counts = _cycle_counts(parts)
        counts[1] = counts.get(1, 0) + 1  # symbol 1 is always fixed
        fix = commuting(counts) ** (counts[1] - 1)
        for length in parts:
            if length > 1:
                fix *= commuting(_power(counts, length))
        denom = 1
        for length, mult in _cycle_counts(parts).items():
            denom *= length ** mult * factorial(mult)
        total += factorial(m) // denom * fix
    value, rem = divmod(total, factorial(m))
    if rem:
        raise ArithmeticError(f"{family}({n}): Burnside sum not divisible")
    return value


# ------------------------------------------------------------ table building

def _engine_values(key: str) -> dict:
    """Values from the package's own engines for one pair key."""
    from transversals import groups, ict_formulas, oracle

    family, *params = key.split(":")
    params = [int(p) for p in params]
    big_cap = factorial(10)
    if family in ("sym", "alt"):
        n = params[0]
        closed = ict_formulas.ict_sym if family == "sym" else ict_formulas.ict_alt
        out = {"closed": closed(n).value}
        if n <= 9:
            pair = groups.make_sym(n) if family == "sym" else groups.make_alt(n)
            out["theorem6"] = ict_formulas.ict_theorem6(pair).value
            if n <= (5 if family == "alt" else 4):
                out["oracle"] = oracle.classify_by_conjugation(pair).class_count
        return out
    if family == "dihedral":
        (n,) = params
        pair = groups.make_dihedral(n)
        return {
            "cyclic": ict_formulas.ict_cyclic(n, 2, pair=pair).value,
            "theorem6": ict_formulas.ict_theorem6(pair).value,
            "oracle": oracle.classify_by_conjugation(pair).class_count,
        }
    p, q = params
    pair = groups.make_pq(p, q)
    out = {
        "cyclic": ict_formulas.ict_cyclic(q, p, pair=pair).value,
        "theorem6": ict_formulas.ict_theorem6(pair, cap=big_cap).value,
    }
    if pair.transversal_count() <= 10_000:
        out["oracle"] = oracle.classify_by_conjugation(
            pair, stab_cap=big_cap).class_count
    return out


def build_table() -> dict:
    for key, value in FROZEN.items():
        family, n = key.split(":")
        if family in ("sym", "alt") and reference_count(family, int(n)) != value:
            raise AssertionError(f"reference engine misses frozen {key} = {value}")
    keys = [f"sym:{n}" for n in SYM_RANGE] + [f"alt:{n}" for n in ALT_RANGE]
    keys += [f"dihedral:{n}" for n in DIHEDRAL_RANGE]
    keys += [f"pq:{p}:{q}" for p, q in PQ_PAIRS]
    table = {}
    for key in keys:
        family, *params = key.split(":")
        sources = {}
        if key in FROZEN:
            sources["frozen"] = FROZEN[key]
        if family in ("sym", "alt"):
            sources["reference"] = reference_count(family, int(params[0]))
        sources.update(_engine_values(key))
        if len(sources) < 2 or len(set(sources.values())) != 1:
            raise AssertionError(f"{key}: sources {sources} do not agree")
        table[key] = sources
        print(f"{key}: {sorted(sources)}", file=sys.stderr)
    for order, tables in CENSUS_TABLES.items():
        table[f"census:{order}"] = {"frozen": FROZEN[f"census:{order}"],
                                    "tables": tables}
    return table


def load_table() -> dict:
    """The stored table, each pair's sources checked to agree."""
    table = json.loads(TABLE.read_text())
    for key, sources in table.items():
        values = {v for s, v in sources.items() if s != "tables"}
        if len(values) != 1:
            raise ValueError(f"expected.json: sources for {key} disagree")
    return table


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    TABLE.write_text(json.dumps(build_table(), indent=1, sort_keys=True) + "\n")
