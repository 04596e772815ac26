"""Command line front end: compute class counts, cross-check engines against
the oracle, census left loops, sweep structural facts, and dump class
representatives.  Results for the compute command are cached on disk keyed by
pair, method, and tool version; all output is deterministic for a given
invocation and version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from math import factorial
from pathlib import Path
from types import SimpleNamespace

from ._version import __version__
from .errors import (
    CAP_RELABELINGS,
    CAP_STAB_ENUM,
    CAP_TRANSVERSALS,
    CapExceeded,
    DisagreementError,
    HypothesisViolation,
)
from .groups import make_alt, make_dihedral, make_pq, make_sym, pair_from_fixture
from .ict_formulas import (
    IctReport,
    ict_alt,
    ict_cyclic,
    ict_sym,
    ict_theorem6,
    report_from_json,
    report_to_json,
    report_to_text,
)
from .oracle import (
    census_left_loops,
    classification_to_json,
    classify_by_conjugation,
    classify_by_table_iso,
    render_classes_dump,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_HYPOTHESIS = 3
EXIT_DISAGREEMENT = 4

METHOD_CHOICES = ("auto", "theorem6", "sym", "alt", "cyclic", "oracle")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this tool reserves 2 for cap
    overruns, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _add_pair_options(sub):
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--sym", type=int, metavar="N",
                     help="pair Sym(N) over the stabilizer of 1")
    grp.add_argument("--alt", type=int, metavar="N",
                     help="pair Alt(N) over the stabilizer of 1")
    grp.add_argument("--dihedral", type=int, metavar="N",
                     help="dihedral group of order 2N over a reflection")
    grp.add_argument("--pq", nargs=2, type=int, metavar=("P", "Q"),
                     help="non-abelian group of order P*Q over a Sylow P")
    grp.add_argument("--fixture", metavar="PATH",
                     help="group fixture file (degree/gen lines)")


def _add_common_options(sub):
    sub.add_argument("--format", choices=("human", "json"), default="human")
    sub.add_argument("--output", metavar="PATH",
                     help="write the report here instead of stdout")
    sub.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                     help="worker bound for parallel classification")
    sub.add_argument("--cap-transversals", type=int, default=CAP_TRANSVERSALS)
    sub.add_argument("--cap-stab-enum", type=int, default=CAP_STAB_ENUM)
    sub.add_argument("--cap-relabelings", type=int, default=CAP_RELABELINGS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ict",
        description="Count isomorphism classes of subgroup transversals.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_ict = subs.add_parser("ict", help="compute the class count for one pair")
    _add_pair_options(p_ict)
    p_ict.add_argument("--method", choices=METHOD_CHOICES, default="auto")
    p_ict.add_argument("--cache-dir", metavar="DIR",
                       default=os.environ.get("ICT_CACHE_DIR"),
                       help="cache directory (default $ICT_CACHE_DIR or "
                            "~/.cache/ict)")
    p_ict.add_argument("--no-cache", action="store_true")
    _add_common_options(p_ict)

    p_census = subs.add_parser("census", help="classify all left loops of an order")
    p_census.add_argument("order", type=int)
    _add_common_options(p_census)

    p_cross = subs.add_parser("crosscheck",
                              help="run every applicable engine and compare")
    _add_pair_options(p_cross)
    _add_common_options(p_cross)

    p_sweep = subs.add_parser("sweep", help="scan fixtures for structural facts")
    p_sweep.add_argument("--dihedral", metavar="A..B",
                         help="sweep only dihedral pairs in this range")
    _add_common_options(p_sweep)

    p_classes = subs.add_parser("classes", help="dump class representatives")
    _add_pair_options(p_classes)
    _add_common_options(p_classes)

    return parser


def _caps(args) -> SimpleNamespace:
    return SimpleNamespace(
        transversals=args.cap_transversals,
        stab=args.cap_stab_enum,
        relabel=args.cap_relabelings,
    )


def _pair_source(args):
    """(family, identity, params, build) for the selected pair flags."""
    if args.sym is not None:
        n = args.sym
        return "sym", f"sym:{n}", SimpleNamespace(n=n), lambda: make_sym(n)
    if args.alt is not None:
        n = args.alt
        return "alt", f"alt:{n}", SimpleNamespace(n=n), lambda: make_alt(n)
    if args.dihedral is not None:
        n = args.dihedral
        return ("dihedral", f"dihedral:{n}", SimpleNamespace(n=n),
                lambda: make_dihedral(n))
    if args.pq is not None:
        p, q = args.pq
        return ("pq", f"pq:{p}:{q}", SimpleNamespace(p=p, q=q, n=q),
                lambda: make_pq(p, q))
    text = Path(args.fixture).read_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    return ("fixture", f"fixture:{digest}", SimpleNamespace(text=text),
            lambda: pair_from_fixture(text)[0])


def _emit(content: str, args) -> int:
    if args.output:
        Path(args.output).write_text(content)
    else:
        sys.stdout.write(content)
    return EXIT_OK


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------- caching

def _cache_file(args) -> Path | None:
    if args.no_cache:
        return None
    base = args.cache_dir or os.path.join(
        os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache")), "ict")
    return Path(base) / "cache.json"


def _cache_load(path: Path) -> dict:
    """Entries for the current tool version; corrupt or stale files degrade
    to an empty cache (with a warning for corruption)."""
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    except (json.JSONDecodeError, OSError, UnicodeDecodeError):
        sys.stderr.write(f"warning: unreadable cache at {path}, recomputing\n")
        return {}
    if not isinstance(payload, dict) or payload.get("tool") != __version__:
        return {}
    entries = payload.get("entries")
    return entries if isinstance(entries, dict) else {}


def _cache_store(path: Path, entries: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(_dump_json({"tool": __version__, "entries": entries}))
    os.replace(tmp, path)


# ---------------------------------------------------------------- commands

def _resolve_method(family: str, requested: str, params, caps) -> str:
    if requested == "auto":
        if family == "sym":
            return "sym"
        if family == "alt":
            return "alt" if params.n >= 4 else "theorem6"
        if family in ("dihedral", "pq"):
            return "cyclic"
        return "theorem6"
    if requested == "sym" and family != "sym":
        raise ValueError("--method sym needs a --sym pair")
    if requested == "alt" and family != "alt":
        raise ValueError("--method alt needs an --alt pair")
    if requested == "cyclic" and family not in ("dihedral", "pq"):
        raise ValueError("--method cyclic needs a --dihedral or --pq pair")
    return requested


def _oracle_report(pair, caps) -> IctReport:
    result = classify_by_conjugation(pair, cap=caps.transversals,
                                     stab_cap=caps.stab)
    return IctReport(
        value=result.class_count,
        method="oracle",
        gamma_order=1,
        numerator=result.class_count,
        contributions=(),
        pair_label=pair.name,
        justification=(f"exhaustive classification of "
                       f"{sum(result.class_sizes)} transversals by "
                       f"conjugation sweep"),
        validated=True,
    )


def _compute_report(family, method, params, build, caps) -> IctReport:
    if method == "sym":
        return ict_sym(params.n)
    if method == "alt":
        return ict_alt(params.n)
    if method == "cyclic":
        if family == "dihedral":
            return ict_cyclic(params.n, 2, pair=build(), cap=caps.stab)
        return ict_cyclic(params.q, params.p, pair=build(), cap=caps.stab)
    if method == "theorem6":
        return ict_theorem6(build(), cap=caps.stab)
    return _oracle_report(build(), caps)


def cmd_ict(args) -> int:
    caps = _caps(args)
    family, identity, params, build = _pair_source(args)
    method = _resolve_method(family, args.method, params, caps)

    cache_path = _cache_file(args)
    key = f"{identity}|{method}"
    entries = _cache_load(cache_path) if cache_path else {}
    if key in entries:
        try:
            report = report_from_json(entries[key])
        except (ValueError, KeyError, TypeError):
            sys.stderr.write("warning: malformed cache entry, recomputing\n")
            report = None
    else:
        report = None

    if report is None:
        report = _compute_report(family, method, params, build, caps)
        if cache_path:
            entries[key] = report_to_json(report)
            _cache_store(cache_path, entries)

    if args.format == "json":
        return _emit(_dump_json(report_to_json(report)), args)
    return _emit(report_to_text(report), args)


def _crosscheck_rows(family, params, build, caps, jobs):
    """(label, value) for every engine applicable to the pair."""
    pair = build()
    n = pair.degree
    rows = []
    # auto picks the family's closed form, or theorem6 (its own row below)
    method = _resolve_method(family, "auto", params, caps)
    if method != "theorem6":
        value = _compute_report(family, method, params, lambda: pair, caps).value
        rows.append((f"{method}_closed", value))
    if factorial(n - 1) <= caps.stab:
        rows.append(("theorem6", ict_theorem6(pair, cap=caps.stab).value))
    conj = classify_by_conjugation(pair, cap=caps.transversals,
                                   stab_cap=caps.stab)
    rows.append(("oracle_conjugation", conj.class_count))
    if factorial(n - 1) <= caps.relabel:
        tab = classify_by_table_iso(pair, jobs=jobs, cap=caps.transversals,
                                    relabel_cap=caps.relabel)
        rows.append(("oracle_table_iso", tab.class_count))
    if family == "sym" and factorial(n - 1) ** (n - 1) <= caps.transversals:
        rows.append(("census", census_left_loops(n, jobs=jobs,
                                                 cap=caps.transversals).class_count))
    return pair, rows


def cmd_crosscheck(args) -> int:
    caps = _caps(args)
    family, _, params, build = _pair_source(args)
    pair, rows = _crosscheck_rows(family, params, build, caps, args.jobs)
    agreement = len({v for _, v in rows}) == 1

    if args.format == "json":
        content = _dump_json({
            "schema": "crosscheck/1",
            "version": __version__,
            "pair": pair.name,
            "results": [{"method": m, "value": v} for m, v in rows],
            "agreement": agreement,
        })
    else:
        width = max(len(m) for m, _ in rows)
        lines = [f"pair: {pair.name}"]
        lines += [f"{m.ljust(width)}  {v}" for m, v in rows]
        lines.append(f"agreement: {'yes' if agreement else 'no'}")
        content = "\n".join(lines) + "\n"
    code = _emit(content, args)
    if not agreement:
        detail = ", ".join(f"{m}={v}" for m, v in rows)
        raise DisagreementError(f"engines disagree on {pair.name}: {detail}",
                                values=tuple(v for _, v in rows))
    return code


def _normal_control():
    from .groups import PairGH, PermGroup
    from .perm import parse_cycles

    G = PermGroup.from_generators([parse_cycles(3, "(1,2,3)")])
    return PairGH(G, G.stabilizer_of_1(), name="cyclic(3) regular")


def _sweep_fixtures(args):
    """(label, report builder) rows for the sweep set."""
    specs = []
    if args.dihedral:
        lo, _, hi = args.dihedral.partition("..")
        try:
            lo, hi = int(lo), int(hi or lo)
        except ValueError:
            raise ValueError(f"bad range {args.dihedral!r}, expected A..B") from None
        if lo > hi:
            raise ValueError(f"bad range {args.dihedral!r}, expected A..B with A <= B")
        ns = range(lo, hi + 1)
    else:
        ns = range(3, 11)
    for n in ns:
        specs.append(("dihedral", SimpleNamespace(n=n), lambda n=n: make_dihedral(n)))
    if not args.dihedral:
        for p, q in ((2, 3), (2, 5), (3, 7), (2, 7)):
            specs.append(("pq", SimpleNamespace(p=p, q=q, n=q),
                          lambda p=p, q=q: make_pq(p, q)))
        for n in range(2, 6):
            specs.append(("sym", SimpleNamespace(n=n), lambda n=n: make_sym(n)))
        for n in range(4, 6):
            specs.append(("alt", SimpleNamespace(n=n), lambda n=n: make_alt(n)))
        # normal-subgroup control: a regular cyclic action has H = {e},
        # which is normal, so the class count must land exactly on 1
        specs.append(("fixture", SimpleNamespace(n=3), _normal_control))
    return specs


def cmd_sweep(args) -> int:
    caps = _caps(args)
    rows = []
    violations = []
    for family, params, build in _sweep_fixtures(args):
        pair = build()
        method = _resolve_method(family, "auto", params, caps)
        value = _compute_report(family, method, params, lambda: pair, caps).value
        normal = pair.stabilizer.is_normal_in(pair.group)
        index = pair.degree
        rows.append((pair.name, value, normal, index))
        if (value == 1) != normal:
            violations.append((pair.name, f"value {value} with normal={normal}"))
        if value in (2, 4):
            violations.append((pair.name, f"value {value} should never occur"))
        if index == 3 and not normal and value != 3:
            violations.append((pair.name, f"index 3 non-normal pair gave {value}"))

    if args.format == "json":
        content = _dump_json({
            "schema": "sweep/1",
            "version": __version__,
            "rows": [
                {"pair": name, "value": value, "normal": normal, "index": index}
                for name, value, normal, index in rows
            ],
            "facts_hold": not violations,
        })
    else:
        name_w = max(4, max(len(r[0]) for r in rows))
        val_w = max(3, max(len(str(r[1])) for r in rows))
        lines = [f"{'pair'.ljust(name_w)}  {'ict'.rjust(val_w)}  normal  index"]
        for name, value, normal, index in rows:
            lines.append(f"{name.ljust(name_w)}  {str(value).rjust(val_w)}  "
                         f"{('yes' if normal else 'no').ljust(6)}  {index}")
        lines.append(f"facts hold: {'yes' if not violations else 'no'}")
        content = "\n".join(lines) + "\n"
    code = _emit(content, args)
    if violations:
        name, why = violations[0]
        raise HypothesisViolation(f"structural fact failed on {name}: {why}")
    return code


def cmd_census(args) -> int:
    caps = _caps(args)
    result = census_left_loops(args.order, jobs=args.jobs,
                               cap=caps.transversals)
    total = len(result.labels)
    generating = sum(1 for f in result.generating_flags if f)
    distribution = {}
    for size in result.class_sizes:
        distribution[size] = distribution.get(size, 0) + 1

    if args.format == "json":
        payload = classification_to_json(result)
        payload.update({
            "schema": "census/1",
            "order": args.order,
            "tables": total,
            "generating_classes": generating,
            "size_distribution": {str(k): v for k, v in sorted(distribution.items())},
        })
        content = _dump_json(payload)
    else:
        lines = [
            f"order: {args.order}",
            f"tables: {total}",
            f"classes: {result.class_count}",
            f"generating classes: {generating}",
            "class size distribution:",
        ]
        lines += [f"  size {size}: {count} classes"
                  for size, count in sorted(distribution.items())]
        content = "\n".join(lines) + "\n"
    return _emit(content, args)


def cmd_classes(args) -> int:
    caps = _caps(args)
    _, _, _, build = _pair_source(args)
    pair = build()
    result = classify_by_table_iso(pair, jobs=args.jobs, cap=caps.transversals,
                                   relabel_cap=caps.relabel)
    if args.format == "json":
        payload = classification_to_json(result)
        payload["pair"] = pair.name
        content = _dump_json(payload)
    else:
        content = render_classes_dump(result, heading=f"pair: {pair.name}")
    return _emit(content, args)


COMMANDS = {
    "ict": cmd_ict,
    "census": cmd_census,
    "crosscheck": cmd_crosscheck,
    "sweep": cmd_sweep,
    "classes": cmd_classes,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("--version", "-h", "--help"):
        argv.insert(0, "ict")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except HypothesisViolation as exc:
        sys.stderr.write(f"hypothesis violation: {exc}\n")
        return EXIT_HYPOTHESIS
    except DisagreementError as exc:
        sys.stderr.write(f"disagreement: {exc}\n")
        return EXIT_DISAGREEMENT
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
