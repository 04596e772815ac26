"""The benchmark's workloads: seeded `ict` command lists and their checks.

Each workload is a list of CLI commands; run.py issues it in rounds.  On
`cli_cache` a round issues every key cold against a fresh `--cache-dir` and
then warm against the same directory, so cold issues miss and warm issues
hit.  Every other workload passes `--no-cache`: each issue computes, and
these workloads are the control for anything the cache changes.

The seed draws the relabeling sigma (a permutation fixing symbol 1) for each
fixture and the command order.  ict does not change under such a relabeling,
so the expected values hold for every seed.  Expected values come from
`expected.json` (see reference.py), never from the command under test.

Every command takes well under a second of CPU, so a run issues each one
six to ten times and keeps its least time (see run.py).  That rules out the
longer instances of ROADMAP item 1's list: `--dihedral 10` (2 s), theorem6 on
dihedral(10) (1.6 s), `crosscheck --alt 5` (2 s), `classes --alt 5` (1 s),
`classes --dihedral 9` (6 s) and `census 5` (25 s).  Their least time over
the few issues a run has room for moved by 10-50% with the load other
tenants put on the machine.  Smaller instances of the same code paths stand
in for them.

Why these workloads (ROADMAP item 1, grouped by the layer doing the work):

- burnside: the counting engines.  The (n-1)! sweep in normalizer_in_stab
  (dihedral 8 and 9, theorem6 fixtures), the conjugacy-class sweep (theorem6
  on Sym(7), Alt(7)), the partition loop of the closed forms (Sym/Alt 20..28)
  and the non-generator scan (`--pq 2 11`, 1,024 generating tests) do nearly
  all the work; the oracle classifiers never run.
- oracle: the exhaustive classifiers.  Enumeration, union-find and
  canonical forms in the crosschecks (pq(3,7) has 729 transversals), the
  130-class dump of `classes --pq 3 7`, and the left-loop census of order 4
  (216 tables, also run inside `crosscheck --sym 4`).  The normalizer sweep
  is cheap at degree <= 8.  The relabeled dihedral(8) fixture takes the full
  relabeling sweep, not the walk.
- cli_cache: over 100 distinct cheap keys against one cache directory, so
  cache load/store and rendering dominate and misses write while hits read.

Predicted effects of the ROADMAP items: the array permutation kernel moves
cpu_s on burnside and oracle (perm.permutations_built, groups.closure_*)
and leaves cli_cache flat; a normalizer found through automorphisms moves
burnside (groups.normalizer_*) and leaves oracle and cli_cache flat; a
per-key cache moves the cmd_* metrics on cli_cache (cli.self_s,
cli.cache_bytes) and leaves the other workloads flat.

Measured while the benchmark was defined, on a 2-core VM shared with other
tenants (Python 3.11, numpy 2.4): one round took about 2.2 s of CPU on
burnside, 1.5 s on oracle and 2.5 s on cli_cache (cold and warm).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Preference among stored sources when choosing what to check a command
# against; the command's own engine is always skipped.
SOURCES = ("frozen", "reference", "oracle", "theorem6", "cyclic", "closed")

# Seconds one round took when the benchmark was defined, with some margin;
# run.py sizes a run's round count from these.
ROUND_SECONDS = {"burnside": 2.5, "oracle": 2, "cli_cache": 3}

# Per-layer metrics a workload is predicted to make nonzero in the traced run.
# The traced run fails when one of them reads zero, so a renamed function
# cannot silently zero a metric.
WORKS_IN = {
    "burnside": (
        "perm.permutations_built", "groups.closure_calls", "groups.generates_calls",
        "groups.normalizer_candidates", "groups.conjugacy_classes",
        "groups.pair_build_s", "groups.transversals_enumerated",
        "symclasses.partitions", "ict_formulas.closed_form_self_s",
        "ict_formulas.theorem6_self_s", "ict_formulas.commuting_tests",
        "ict_formulas.cyclic_self_s", "ict_formulas.render_s", "cli.self_s",
    ),
    "oracle": (
        "perm.permutations_built", "groups.closure_calls", "groups.generates_calls",
        "groups.pair_build_s", "groups.transversals_enumerated",
        "oracle.conjugation_self_s", "oracle.unions", "oracle.table_iso_self_s",
        "oracle.relabelings_applied", "oracle.render_classes_s",
        "oracle.census_self_s", "oracle.tables_classified", "cli.self_s",
    ),
    "cli_cache": (
        "perm.permutations_built", "symclasses.partitions",
        "ict_formulas.render_s", "cli.self_s", "cli.cache_hit_ratio",
        "cli.cache_entries", "cli.cache_bytes",
    ),
}


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: Callable[[str], str | None]  # output -> problem, or None if right


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    uses_cache: bool


# ------------------------------------------------------------ expected values

def expected(table: dict, key: str, engine: str = "") -> int:
    """A stored value for the pair from a source other than `engine`."""
    sources = table[key]
    for source in SOURCES:
        if source != engine and source in sources:
            return sources[source]
    raise KeyError(f"no source for {key} besides {engine}")


def _ict_check(want: int, fmt: str):
    def check(out: str):
        if fmt == "json":
            got = json.loads(out)["value"]
        else:
            lines = [ln for ln in out.splitlines() if ln.startswith("value: ")]
            if len(lines) != 1:
                return "no value line"
            got = int(lines[0][len("value: "):])
        return None if got == want else f"value {got}, expected {want}"
    return check


def _crosscheck_check(want: int):
    def check(out: str):
        lines = out.splitlines()
        if not lines or lines[-1] != "agreement: yes":
            return "engines do not agree"
        values = [int(ln.split()[-1]) for ln in lines[1:-1]]
        if len(values) < 2:
            return "fewer than two engines ran"
        wrong = [v for v in values if v != want]
        return f"value {wrong[0]}, expected {want}" if wrong else None
    return check


def _counted_check(fields: dict, fmt: str):
    """Human `name: value` lines or JSON keys carrying exact integers."""
    def check(out: str):
        if fmt == "json":
            data = json.loads(out)
            got = {k: data.get(k) for k in fields}
        else:
            got = {}
            for ln in out.splitlines():
                name, _, value = ln.partition(": ")
                if name in fields and name not in got:
                    got[name] = int(value)
        bad = [k for k, v in fields.items() if got.get(k) != v]
        return f"{bad[0]} {got.get(bad[0])}, expected {fields[bad[0]]}" if bad else None
    return check


# ------------------------------------------------------------ fixtures

def _cycle(n: int, *symbols) -> list:
    img = list(range(1, n + 1))
    for a, b in zip(symbols, symbols[1:] + symbols[:1]):
        img[a - 1] = b
    return img


def base_generators(family: str, *params) -> tuple[int, list]:
    """Degree and generators (image lists) of a standard pair."""
    if family == "dihedral":
        (n,) = params
        return n, [_cycle(n, *range(1, n + 1)), [(1 - i) % n + 1 for i in range(1, n + 1)]]
    if family == "sym":
        (n,) = params
        return n, [_cycle(n, 1, 2), _cycle(n, *range(1, n + 1))]
    if family == "alt":
        (n,) = params
        long = range(1, n + 1) if n % 2 else range(2, n + 1)
        return n, [_cycle(n, 1, 2, 3), _cycle(n, *long)]
    p, q = params
    r = next(r for r in range(2, q) if pow(r, p, q) == 1)
    return q, [_cycle(q, *range(1, q + 1)), [r * (i - 1) % q + 1 for i in range(1, q + 1)]]


def _format_cycles(img: list) -> str:
    seen, parts = set(), []
    for start in range(1, len(img) + 1):
        if start in seen or img[start - 1] == start:
            continue
        orbit, s = [], start
        while s not in seen:
            seen.add(s)
            orbit.append(s)
            s = img[s - 1]
        parts.append("(" + ",".join(map(str, orbit)) + ")")
    return "".join(parts) or "()"


def relabeled_fixture(rng: random.Random, label: str, family: str, *params) -> str:
    """Fixture text for the pair conjugated by a random sigma fixing 1."""
    n, gens = base_generators(family, *params)
    tail = list(range(2, n + 1))
    rng.shuffle(tail)
    sigma = [1] + tail
    lines = [f"name {label}", f"degree {n}"]
    for g in gens:
        conj = [0] * n
        for i in range(n):  # sigma g sigma^-1 sends sigma(i) to sigma(g(i))
            conj[sigma[i] - 1] = sigma[g[i] - 1]
        lines.append(f"gen {_format_cycles(conj)}")
    return "\n".join(lines) + "\n"


class _Fixtures:
    """Writes relabeled fixtures, each with a text (and so a cache key) of
    its own: a repeated draw of sigma is drawn again."""

    def __init__(self, rng: random.Random, directory: Path):
        self.rng = rng
        self.directory = directory
        self.texts = set()

    def __call__(self, family: str, *params) -> str:
        label = f"{family}({','.join(map(str, params))}) relabeled"
        text = relabeled_fixture(self.rng, label, family, *params)
        while text in self.texts:
            text = relabeled_fixture(self.rng, label, family, *params)
        self.texts.add(text)
        path = self.directory / f"fixture{len(self.texts):03d}.txt"
        path.write_text(text)
        return str(path)


# ------------------------------------------------------------ workloads

def _pair_flags(family: str, params) -> list:
    return [f"--{family}", *map(str, params)]


def _ict(table: dict, key: str, flags: list, engine: str, method: str = "auto",
         fmt: str = "human") -> Command:
    argv = ["ict", *flags]
    if method != "auto":
        argv += ["--method", method]
    if fmt != "human":
        argv += ["--format", fmt]
    return Command(tuple(argv), _ict_check(expected(table, key, engine), fmt))


def _auto_engine(family: str) -> str:
    return {"sym": "closed", "alt": "closed", "dihedral": "cyclic",
            "pq": "cyclic", "fixture": "theorem6"}[family]


def burnside(rng: random.Random, table: dict, fixture) -> list:
    cmds = [_ict(table, f"dihedral:{n}", ["--dihedral", str(n)], "cyclic")
            for n in (8, 9)]
    for family, n in (("dihedral", 9), ("sym", 7), ("alt", 7)):
        cmds.append(_ict(table, f"{family}:{n}", ["--fixture", fixture(family, n)],
                         "theorem6", method="theorem6"))
    cmds.append(_ict(table, "pq:2:11", ["--pq", "2", "11"], "cyclic"))
    for family in ("sym", "alt"):
        cmds += [_ict(table, f"{family}:{n}", [f"--{family}", str(n)], "closed")
                 for n in range(20, 29, 2)]
    rng.shuffle(cmds)
    return cmds


def oracle(rng: random.Random, table: dict, fixture) -> list:
    cmds = [Command(("crosscheck", *flags), _crosscheck_check(expected(table, key)))
            for key, flags in (
                ("pq:3:7", ["--pq", "3", "7"]),
                ("pq:2:7", ["--pq", "2", "7"]),
                ("sym:4", ["--sym", "4"]),
                ("alt:4", ["--alt", "4"]),
                ("dihedral:7", ["--dihedral", "7"]),
                ("dihedral:8", ["--fixture", fixture("dihedral", 8)]),
            )]
    cmds += [
        Command(("classes", "--pq", "3", "7"),
                _counted_check({"classes": expected(table, "pq:3:7", "oracle"),
                                "transversals": 3 ** 6}, "human")),
        Command(("census", "4"),
                _counted_check({"classes": table["census:4"]["frozen"],
                                "tables": table["census:4"]["tables"]}, "human")),
    ]
    rng.shuffle(cmds)
    return cmds


LARGE_REPORT_DEGREE = 11


def cli_cache(rng: random.Random, table: dict, fixture) -> list:
    """Distinct cheap cache keys (pair identity and resolved method)."""
    specs = []  # (expected key, pair flags, method)
    for n in range(2, 15):
        specs.append((f"sym:{n}", _pair_flags("sym", [n]), "auto"))
    for n in range(4, 15):
        specs.append((f"alt:{n}", _pair_flags("alt", [n]), "auto"))
    for n in range(3, 9):
        specs.append((f"dihedral:{n}", _pair_flags("dihedral", [n]), "auto"))
    pqs = ((2, 3), (2, 5), (2, 7))
    for p, q in pqs + ((5, 11),):
        specs.append((f"pq:{p}:{q}", _pair_flags("pq", [p, q]), "auto"))
    theorem6 = [("sym", (n,)) for n in range(2, 7)] + [("alt", (n,)) for n in range(4, 7)]
    theorem6 += [("dihedral", (n,)) for n in range(3, 9)] + [("pq", pq) for pq in pqs]
    oracle_pairs = [("sym", (n,)) for n in range(2, 5)] + [("alt", (4,))]
    oracle_pairs += [("dihedral", (n,)) for n in range(3, 9)] + [("pq", pq) for pq in pqs]
    for method, pairs in (("theorem6", theorem6), ("oracle", oracle_pairs)):
        for family, params in pairs:
            specs.append((f"{family}:{':'.join(map(str, params))}",
                          _pair_flags(family, params), method))
    relabeled = [("dihedral", (n,), "auto") for n in range(3, 9) for _ in range(2)]
    relabeled += [("dihedral", (n,), "auto") for n in range(4, 9)]
    relabeled += [("dihedral", (n,), "oracle") for n in range(4, 7)]
    relabeled += [("dihedral", (n,), "theorem6") for n in range(4, 9)]
    relabeled += [("sym", (4,), "auto"), ("sym", (4,), "oracle"),
                  ("alt", (4,), "auto"), ("alt", (4,), "oracle"),
                  ("sym", (5,), "auto"), ("sym", (5,), "theorem6"),
                  ("alt", (5,), "auto"), ("alt", (6,), "auto"),
                  ("pq", (2, 3), "auto"), ("pq", (2, 5), "auto"), ("pq", (2, 7), "auto"),
                  ("pq", (2, 5), "oracle"), ("pq", (2, 7), "oracle")]
    for family, params, method in relabeled:
        specs.append((f"{family}:{':'.join(map(str, params))}",
                      ["--fixture", fixture(family, *params)], method))
    large, rest = [], []
    for i, (key, flags, method) in enumerate(specs):
        family = "fixture" if flags[0] == "--fixture" else flags[0][2:]
        engine = _auto_engine(family) if method == "auto" else method
        cmd = _ict(table, key, flags, engine, method=method,
                   fmt="json" if i % 2 else "human")
        big = family in ("sym", "alt") and int(flags[1]) >= LARGE_REPORT_DEGREE
        (large if big else rest).append(cmd)
    # Each miss rewrites the whole cache file, so its cost follows the file's
    # size.  Reports grow fast with n (Sym(14) is 34 KB, 10% of the file);
    # issuing the large ones first keeps that profile the same for every seed.
    rng.shuffle(large)
    rng.shuffle(rest)
    return large + rest


BUILDERS = {"burnside": burnside, "oracle": oracle, "cli_cache": cli_cache}


def build(name: str, seed: int, table: dict, fixture_dir: Path) -> Workload:
    """The workload's commands in seeded order, fixtures written to disk."""
    rng = random.Random(f"{name}:{seed}")
    commands = BUILDERS[name](rng, table, _Fixtures(rng, fixture_dir))
    return Workload(name, tuple(commands), uses_cache=name == "cli_cache")
