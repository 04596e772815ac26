"""Command line front end: compute class counts, cross-check engines against
the oracle, census left loops, sweep structural facts, and dump class
representatives.  Reports of the engines that build a group are cached on
disk keyed by pair, method, and the package's source digest, plus a
non-default --cap-stab-enum; a hit must match its entry's digest, and closed
forms are never cached.  All output is deterministic for a given invocation.

Every choice changes what runs: a subcommand offers only the --cap-* flags
its engines read, and --method is auto (the family's closed form, else
theorem6), theorem6 or oracle.

`main(argv)` may be called any number of times in one process.  The first
call builds the parser and later calls reuse it; the cache directory is
resolved on every call, so a changed $ICT_CACHE_DIR or $XDG_CACHE_HOME is
honoured by the next call.  The groups and oracle layers, and with them
numpy, are imported by the first command that builds a group (see
_build_pair): --help, --version, the Sym/Alt closed forms and cache hits run
without them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from collections import Counter
from pathlib import Path

from ._version import __version__
from .errors import (
    CAP_RELABELINGS,
    CAP_STAB_ENUM,
    CAP_TRANSVERSALS,
    CapExceeded,
    DisagreementError,
    HypothesisViolation,
)
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

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_HYPOTHESIS = 3
EXIT_DISAGREEMENT = 4

METHOD_CHOICES = ("auto", "theorem6", "oracle")

# The engine `auto` runs for each pair family: its closed form, else theorem6
AUTO_METHODS = {"sym": "sym", "alt": "alt", "dihedral": "cyclic", "pq": "cyclic",
                "fixture": "theorem6"}

# Each cap flag's default; a subcommand offers only the caps its engines read
CAP_DEFAULTS = {"transversals": CAP_TRANSVERSALS, "stab-enum": CAP_STAB_ENUM,
                "relabelings": CAP_RELABELINGS}


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


def _at_least(least: int):
    """argparse type: an integer no less than `least`."""
    def parse(text: str) -> int:
        if (value := int(text)) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # a non-integer keeps argparse's "invalid int value"
    return parse


def _add_common_options(sub, *caps):
    sub.add_argument("--format", choices=("human", "json"), default="human")
    sub.add_argument("--output", metavar="PATH",
                     help="write the report here instead of stdout")
    for cap in caps:
        sub.add_argument(f"--cap-{cap}", type=_at_least(0), default=CAP_DEFAULTS[cap])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ict` parser, built by the first `main` call and reused by every
    later one.  It holds nothing that can change between calls: the cache
    directory's environment fallbacks are read by `_cache_file`."""
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
                       help="cache directory (default $ICT_CACHE_DIR, else "
                            "$XDG_CACHE_HOME/ict, else ~/.cache/ict)")
    p_ict.add_argument("--no-cache", action="store_true")
    _add_common_options(p_ict, "transversals", "stab-enum")

    p_census = subs.add_parser("census", help="classify all left loops of an order")
    p_census.add_argument("order", type=int)
    _add_common_options(p_census, "transversals", "relabelings")

    p_cross = subs.add_parser("crosscheck",
                              help="run every applicable engine and compare")
    _add_pair_options(p_cross)
    _add_common_options(p_cross, "transversals", "stab-enum", "relabelings")

    p_sweep = subs.add_parser("sweep", help="scan fixtures for structural facts")
    p_sweep.add_argument("--dihedral", metavar="A..B",
                         help="sweep only dihedral pairs in this range")
    _add_common_options(p_sweep, "stab-enum")

    p_classes = subs.add_parser("classes", help="dump class representatives")
    _add_pair_options(p_classes)
    _add_common_options(p_classes, "transversals", "relabelings")

    return parser


def _pair_spec(args):
    """(family, params) for the selected pair flags; a fixture's params
    are its text alone."""
    for family in ("sym", "alt", "dihedral", "pq"):
        if (value := getattr(args, family)) is not None:
            return family, tuple(value) if family == "pq" else (value,)
    try:
        text = Path(args.fixture).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        why = (exc.strerror or exc) if isinstance(exc, OSError) else "not UTF-8 text"
        raise ValueError(f"cannot read fixture {args.fixture}: {why}") from None
    return "fixture", (text,)


def _build_pair(family, params):
    """The spec's pair: groups.make_<family>(*params), or the fixture's."""
    # groups and oracle import numpy, about 150 ms of CPU for a fresh process,
    # more than a closed form or a cache hit costs; so they load here, both at
    # once (perfbench's tracer wraps every layer module), not at module level
    from . import groups, oracle
    if family == "fixture":
        return groups.pair_from_fixture(*params)
    return getattr(groups, f"make_{family}")(*params)


def _emit(content: str, args) -> int:
    if args.output:
        try:
            Path(args.output).write_text(content)
        except OSError as exc:
            raise ValueError(f"cannot write output {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(content)
    return EXIT_OK


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _render(report: IctReport, args) -> str:
    if args.format == "json":
        return _dump_json(report_to_json(report))
    return report_to_text(report)


# ---------------------------------------------------------------- caching

@functools.cache
def _source_digest() -> str:
    """sha256 over the package's own *.py files, read on the first cache
    access: an entry is served only to the code that wrote it."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _cache_file(args, key: str) -> Path | None:
    """The file that holds `key`'s report for this source: one file per
    (source digest, key), so a hit reads and a miss writes only its own entry.
    The directory is resolved per call: --cache-dir, else $ICT_CACHE_DIR,
    else $XDG_CACHE_HOME/ict, else ~/.cache/ict; an empty --cache-dir or
    $ICT_CACHE_DIR falls through to the XDG choice."""
    if args.no_cache:
        return None
    base = ((os.environ.get("ICT_CACHE_DIR") if args.cache_dir is None else args.cache_dir)
            or os.path.join(os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache")),
                            "ict"))
    digest = hashlib.sha256(f"{_source_digest()}|{key}".encode()).hexdigest()
    return Path(base) / f"{digest}.json"


def _cache_load(path: Path, key: str) -> dict | None:
    """The stored entry for `key`; None when absent or stale, and after a
    warning when the file is corrupt."""
    try:
        payload = json.loads(path.read_text())
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (json.JSONDecodeError, OSError, UnicodeDecodeError):
        sys.stderr.write(f"warning: unreadable cache at {path}, recomputing\n")
        return None
    if (not isinstance(payload, dict) or payload.get("tool") != _source_digest()
            or payload.get("key") != key):
        return None
    return payload


def _report_digest(report) -> str:
    """sha256 of a report's canonical bytes, which are the bytes of the
    report object inside its cache file."""
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _cache_store(path: Path, key: str, report: dict):
    """Write one entry through a temp file unique to this process, renamed
    over the entry's file, so concurrent writers never lose or tear one.
    A location that cannot be written costs a warning, not the report."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(json.dumps({"tool": _source_digest(), "key": key,
                                       "report_sha256": _report_digest(report),
                                       "report": report}, sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError:
        sys.stderr.write(f"warning: cannot write cache at {path}\n")


# ---------------------------------------------------------------- commands

def _oracle_report(pair, args) -> IctReport:
    from . import oracle
    result = oracle.classify_by_conjugation(pair, cap=args.cap_transversals,
                                            stab_cap=args.cap_stab_enum)
    return IctReport(
        value=result.class_count,
        method="oracle",
        gamma_order=1,
        numerator=result.class_count,
        contributions=(),
        pair_label=pair.name,
        justification=(f"exhaustive classification of "
                       f"{len(result.labels)} transversals by "
                       f"conjugation sweep"),
        validated=True,
    )


def _compute_report(method, family, params, args, pair=None) -> IctReport:
    """`method`'s report on the spec's pair, built here unless given."""
    if method == "sym":
        return ict_sym(*params)
    if method == "alt":
        return ict_alt(*params)
    pair = pair or _build_pair(family, params)
    if method == "cyclic":
        return ict_cyclic(pair, cap=args.cap_stab_enum)
    if method == "theorem6":
        return ict_theorem6(pair, cap=args.cap_stab_enum)
    return _oracle_report(pair, args)


def cmd_ict(args) -> int:
    family, params = _pair_spec(args)
    method = AUTO_METHODS[family] if args.method == "auto" else args.method

    # the pair's identity (sym:4, pq:2:5), a fixture's by its text's sha256
    ident = (hashlib.sha256(params[0].encode()).hexdigest(),) if family == "fixture" else params
    key = ":".join(map(str, (family, *ident))) + f"|{method}"
    if args.cap_stab_enum != CAP_STAB_ENUM:  # the cyclic justification reads it
        key += f"|cap-stab-enum:{args.cap_stab_enum}"
    # a closed form is recomputed: below degree 10 that beats a hit, and at
    # degree 14 a hit saves only about a tenth (README, Caching)
    cache_path = None if method in ("sym", "alt") else _cache_file(args, key)
    stored = _cache_load(cache_path, key) if cache_path else None
    content = None
    if stored is not None:
        try:  # corrupt: fails its digest, lacks a field or will not render
            if stored.get("report_sha256") == _report_digest(stored.get("report")):
                content = _render(report_from_json(stored["report"]), args)
        except (ValueError, KeyError, TypeError):
            pass
        if content is None:
            sys.stderr.write("warning: malformed cache entry, recomputing\n")

    if content is None:
        report = _compute_report(method, family, params, args)
        if cache_path:
            _cache_store(cache_path, key, report_to_json(report))
        content = _render(report, args)
    return _emit(content, args)


def _crosscheck_rows(family, params, pair, args):
    """(label, value) for every engine applicable to the pair: theorem6 and
    the table-iso oracle drop out when they refuse their (n-1)! sweep."""
    from . import oracle
    rows = []
    # auto picks the family's closed form, or theorem6 (its own row below)
    method = AUTO_METHODS[family]
    if method != "theorem6":
        value = _compute_report(method, family, params, args, pair).value
        rows.append((f"{method}_closed", value))
    try:
        rows.append(("theorem6", ict_theorem6(pair, cap=args.cap_stab_enum).value))
    except CapExceeded as exc:
        if exc.cap_name != "stabilizer_enum":
            raise
    conj = oracle.classify_by_conjugation(pair, cap=args.cap_transversals,
                                          stab_cap=args.cap_stab_enum)
    rows.append(("oracle_conjugation", conj.class_count))
    try:
        tab = oracle.classify_by_table_iso(pair, cap=args.cap_transversals,
                                           relabel_cap=args.cap_relabelings)
    except CapExceeded as exc:
        if exc.cap_name != "relabelings":
            raise
        return rows
    rows.append(("oracle_table_iso", tab.class_count))
    # the order-n census is this classification of Sym(n)'s pair
    if family == "sym":
        rows.append(("census", tab.class_count))
    return rows


def cmd_crosscheck(args) -> int:
    family, params = _pair_spec(args)
    pair = _build_pair(family, params)
    rows = _crosscheck_rows(family, params, pair, args)
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


def _sweep_specs(args):
    """The (family, params) spec of every pair in the sweep set."""
    if not args.dihedral:
        return ([("dihedral", (n,)) for n in range(3, 11)]
                + [("pq", pq) for pq in ((2, 3), (2, 5), (3, 7), (2, 7))]
                + [("sym", (n,)) for n in range(2, 6)] + [("alt", (n,)) for n in range(4, 6)]
                # normal-subgroup control: a regular cyclic action has H = {e},
                # which is normal, so the class count must land exactly on 1
                + [("fixture", ("name cyclic(3) regular\ndegree 3\ngen (1,2,3)\n",))])
    lo, _, hi = args.dihedral.partition("..")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise ValueError(f"bad range {args.dihedral!r}, expected A..B") from None
    if lo > hi:
        raise ValueError(f"bad range {args.dihedral!r}, expected A..B with A <= B")
    return [("dihedral", (n,)) for n in range(lo, hi + 1)]


def cmd_sweep(args) -> int:
    rows = []
    violations = []
    for family, params in _sweep_specs(args):
        pair = _build_pair(family, params)
        value = _compute_report(AUTO_METHODS[family], family, params, args, pair).value
        # H is core-free in every pair, so it is normal exactly when trivial
        normal = pair.subgroup_order == 1
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
    from . import oracle
    result = oracle.census_left_loops(args.order, cap=args.cap_transversals,
                                      relabel_cap=args.cap_relabelings)
    total = len(result.labels)
    generating = int(result.generating_flags.sum())
    distribution = Counter(result.class_sizes.tolist())

    if args.format == "json":
        payload = oracle.classification_to_json(result)
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
    pair = _build_pair(*_pair_spec(args))
    from . import oracle
    result = oracle.classify_by_table_iso(pair, cap=args.cap_transversals,
                                          relabel_cap=args.cap_relabelings)
    if args.format == "json":
        payload = oracle.classification_to_json(result)
        payload["pair"] = pair.name
        content = _dump_json(payload)
    else:
        content = oracle.render_classes_dump(result, heading=f"pair: {pair.name}")
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
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values print at any length
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
    except MemoryError:  # numpy's _ArrayMemoryError included
        sys.stderr.write("error: this input needs more memory than is available\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
