"""Command line behavior: subcommands, formats, caching, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import transversals
import transversals.cli as cli
import transversals.oracle as oracle
from transversals import __version__
from transversals.cli import (
    EXIT_CAP,
    EXIT_DISAGREEMENT,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from transversals.errors import CAP_STAB_ENUM, CAP_TRANSVERSALS, HypothesisViolation
from transversals.groups import make_dihedral, make_pq
from transversals.ict_formulas import (ClassContribution, IctReport, ict_alt, ict_cyclic,
                                       ict_sym, ict_theorem6, report_to_text)

from oracles import is_normal, report_to_text_reference, sweeps_spied


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------ ict command


def test_ict_sym_human(capsys):
    code, out, err = run(capsys, "ict", "--sym", "4", "--no-cache")
    assert code == EXIT_OK
    assert "value: 44" in out
    assert "method: sym_closed" in out
    assert err == ""


def test_default_subcommand_injection(capsys):
    """A leading option means the ict subcommand was elided."""
    code, out, _ = run(capsys, "--sym", "4", "--no-cache")
    assert code == EXIT_OK
    assert "value: 44" in out


def test_ict_json(capsys):
    code, out, _ = run(capsys, "--sym", "5", "--format", "json", "--no-cache")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["schema"] == "ict-report/1"
    assert data["value"] == 14022
    assert data["method"] == "sym_closed"
    assert data["pair"] == "sym(5)"
    assert data["version"] == __version__


def test_ict_method_auto_dispatch(tmp_path, capsys):
    """auto runs the family's closed form, and theorem6 on a fixture."""
    fixture = tmp_path / "d4.group"
    fixture.write_text("degree 4\ngen (1,2,3,4)\ngen (2,4)\n")
    cases = [
        (["--sym", "4"], 44, "sym_closed"),
        (["--alt", "4"], 7, "alt_closed"),
        (["--dihedral", "5"], 6, "cyclic_closed"),
        (["--pq", "3", "7"], 130, "cyclic_closed"),
        (["--fixture", str(fixture)], 6, "theorem6"),
    ]
    for flags, value, method in cases:
        code, out, _ = run(capsys, *flags, "--format", "json", "--no-cache")
        assert code == EXIT_OK
        data = json.loads(out)
        assert (data["value"], data["method"]) == (value, method)


def test_ict_method_oracle(capsys):
    code, out, _ = run(capsys, "--sym", "3", "--method", "oracle",
                       "--format", "json", "--no-cache")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["value"] == 3
    assert data["method"] == "oracle"
    assert "exhaustive classification of 4 transversals" in data["justification"]


def test_ict_method_theorem6(capsys):
    code, out, _ = run(capsys, "--dihedral", "6", "--method", "theorem6",
                       "--format", "json", "--no-cache")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == 20


@pytest.mark.parametrize("method", ["sym", "alt", "cyclic"])
def test_ict_method_offers_no_family_engine(capsys, method):
    """A family's closed form is what auto runs; --method does not name it."""
    with pytest.raises(SystemExit) as exc:
        main(["ict", "--sym", "4", "--method", method, "--no-cache"])
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --method: invalid choice" in err


def test_ict_fixture(tmp_path, capsys):
    path = tmp_path / "d4.group"
    path.write_text("name square\ndegree 4\ngen (1,2,3,4)\ngen (2,4)\n")
    code, out, _ = run(capsys, "--fixture", str(path), "--format", "json", "--no-cache")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["pair"] == "square"
    assert data["method"] == "theorem6"
    assert data["value"] == 6


def test_intransitive_s5_by_s5_fixture(tmp_path, capsys):
    """S5 x S5 acts on the orbit of 1 as Sym(5): theorem6 prints Sym(5)'s
    count, and every crosscheck engine agrees with it."""
    path = tmp_path / "s5xs5.group"
    path.write_text("degree 10\ngen (1,2)\ngen (1,2,3,4,5)\ngen (6,7)\ngen (6,7,8,9,10)\n")
    code, out, err = run(capsys, "--fixture", str(path), "--no-cache")
    assert (code, err) == (EXIT_OK, "")
    assert "value: 14022\n" in out
    code, out, err = run(capsys, "crosscheck", "--fixture", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert out.endswith("agreement: yes\n") and "14022" in out


def test_psl32_theorem6_prints_its_orbit_count_unvalidated(tmp_path, capsys):
    """PSL(3,2) on the 7 points of the Fano plane, order 168.  Its
    normalizer in Sym(7)_1 has order 24, and theorem6 prints that group's
    orbit count, 7,962,816, flagged unvalidated.  The class count is
    7,962,697 by two independent prototypes (ROADMAP, item 1), so making
    the default path exact changes this value on purpose."""
    path = tmp_path / "psl32.group"
    path.write_text("degree 7\ngen (1,2,3,4,5,6,7)\ngen (1,2)(3,6)\n")
    code, out, err = run(capsys, "ict", "--fixture", str(path), "--no-cache")
    assert (code, err) == (EXIT_OK, "")
    assert "gamma order: 24\n" in out
    assert "value: 7962816\n" in out
    assert "hypothesis (unvalidated)" in out


def test_intransitive_s6_cubed_fixture_in_a_second(tmp_path, capsys):
    """S6^3 (order 720^3, past the group-order cap) acts on the orbit of 1
    as Sym(6), the only group built: theorem6 prints Sym(6)'s count."""
    path = tmp_path / "s6cubed.group"
    path.write_text("degree 18\ngen (1,2)\ngen (1,2,3,4,5,6)\ngen (7,8)\ngen (7,8,9,10,11,12)\n"
                    "gen (13,14)\ngen (13,14,15,16,17,18)\n")
    start = time.process_time()
    code, out, err = run(capsys, "--fixture", str(path), "--no-cache")
    assert time.process_time() - start < 1.0
    assert (code, err) == (EXIT_OK, "")
    assert "value: 207392556\n" in out


def test_ict_fixture_missing_file(capsys):
    code, out, err = run(capsys, "--fixture", "/nonexistent/x.group", "--no-cache")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == ("error: cannot read fixture /nonexistent/x.group: "
                   "No such file or directory\n")


def test_ict_fixture_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.group"
    path.write_bytes("name caf\u00e9\ndegree 3\ngen (1,2,3)\n".encode("latin-1"))
    code, out, err = run(capsys, "--fixture", str(path), "--no-cache")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: cannot read fixture {path}: not UTF-8 text\n"


def test_ict_fixture_second_degree_line(tmp_path, capsys):
    path = tmp_path / "twice.group"
    path.write_text("degree 4\ndegree 3\ngen (1,2,3)\n")
    code, out, err = run(capsys, "--fixture", str(path), "--no-cache")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: line 2: degree given twice\n"


@pytest.mark.parametrize("text, message", [
    ("degree 10\ngen (1,1_0)\n", "line 2: malformed cycle notation: '(1,1_0)'"),
    ("degree 3\ngen (1,+2)\n", "line 2: malformed cycle notation: '(1,+2)'"),
    ("degree 3\ngen (1,\uff12)\n", "line 2: malformed cycle notation: '(1,\uff12)'"),
    ("degree 1_2\ngen (1,2)\n", "line 1: bad degree '1_2'"),
    ("degree +3\ngen (1,2)\n", "line 1: bad degree '+3'"),
], ids=["underscore", "plus", "fullwidth", "degree-underscore", "degree-plus"])
def test_ict_fixture_integers_are_ascii_decimal(tmp_path, capsys, text, message):
    """int() reads each of these; the fixture grammar does not."""
    path = tmp_path / "bad.group"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "--fixture", str(path), "--no-cache")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


def test_ict_output_file(tmp_path, capsys):
    dest = tmp_path / "report.txt"
    code, out, _ = run(capsys, "--sym", "4", "--output", str(dest), "--no-cache")
    assert code == EXIT_OK
    assert out == ""
    assert "value: 44" in dest.read_text()


def test_ict_output_unwritable(tmp_path, capsys):
    missing = tmp_path / "nonexistent" / "x"
    for dest, why in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
        code, out, err = run(capsys, "--sym", "3", "--output", str(dest), "--no-cache")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: cannot write output {dest}: {why}\n"


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_report_bytes_match_golden(capsys, monkeypatch, name):
    """Stdout, stderr and exit code of one command per report path, and of
    help, version and a usage error, byte for byte at an 80-column
    terminal: tests/golden/<name>.out holds the stdout, <name>.err the
    stderr when there is any, commands.json the argv and exit code."""
    monkeypatch.setenv("COLUMNS", "80")
    case = GOLDEN_COMMANDS[name]
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:  # help, version and usage errors exit in argparse
        code = exc.code
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert out == (GOLDEN / f"{name}.out").read_text()
    err_file = GOLDEN / f"{name}.err"
    assert err == (err_file.read_text() if err_file.exists() else "")


# sha256 of the stdout of the largest closed-form reports (4.3 MB and 1.7 MB),
# whose files would be too big to keep under tests/golden/.
LARGE_REPORTS = {
    "sym28": (("--sym", "28"),
              "fe3f071758979b79ba8afdec2344a75b97a75b0c02b69ef3629ea1f360b8a5b2"),
    "alt28": (("--alt", "28"),
              "b6be435f28f4ab3d7bdfeb6cfd32f3025e9ce2f5a9bb0d4db2e0d6959f7ac263"),
    "alt28_json": (("--alt", "28", "--format", "json"),
                   "0a834b542660d5885e0d9dcdfcf70b05db73ae426cb0785d8362351e3ad379b1"),
}


@pytest.mark.parametrize("name", sorted(LARGE_REPORTS))
def test_large_closed_form_bytes_match_digest(capsys, name):
    flags, digest = LARGE_REPORTS[name]
    code, out, _ = run(capsys, "ict", *flags, "--no-cache")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------------- values of any length

HUGE = 10 ** 5000  # 5,001 digits, over Python's default str() limit of 4,300
HUGE_TEXT = "1" + "0" * 5000


def _digit_limit(limit):
    """Run with Python's int/str conversion limit set to `limit`."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    yield
    sys.set_int_max_str_digits(old)


@pytest.fixture
def default_digit_limit():
    """Python's default int/str conversion limit, which main must lift."""
    yield from _digit_limit(4300)


@pytest.fixture
def no_digit_limit():
    """No int/str conversion limit, as main leaves it."""
    yield from _digit_limit(0)


def huge_report(n):
    """A report for `--sym N` whose value has 5,001 digits."""
    return IctReport(
        value=HUGE, method="sym_closed", gamma_order=1, numerator=HUGE,
        contributions=(ClassContribution(
            representative="()", class_size=1, t=0, k=2,
            a_factors=(1, HUGE), orbit_factors=(), fix_count=HUGE),),
        pair_label=f"sym({n})", justification="synthetic", degree=2)


@pytest.fixture
def huge_sym(monkeypatch):
    """`--sym N` computes a report whose value has 5,001 digits; returns the
    list of degrees it was computed for."""
    calls = []

    def fake(n):
        calls.append(n)
        return huge_report(n)

    monkeypatch.setattr("transversals.cli.ict_sym", fake)
    return calls


def test_huge_value_human(capsys, default_digit_limit, huge_sym):
    code, out, err = run(capsys, "ict", "--sym", "2", "--no-cache")
    assert (code, err) == (EXIT_OK, "")
    assert f"value: {HUGE_TEXT}\n" in out
    assert f"numerator: {HUGE_TEXT}\n" in out
    row = next(line for line in out.splitlines() if line.startswith("()"))
    assert row.split() == ["()", "1", "2", "0", f"1,{HUGE_TEXT}", "-", HUGE_TEXT]


def test_huge_value_json(capsys, default_digit_limit, huge_sym):
    code, out, err = run(capsys, "ict", "--sym", "2", "--no-cache", "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    assert f'"value": {HUGE_TEXT},' in out
    data = json.loads(out)
    assert data["numerator"] == data["contributions"][0]["fix_count"] == HUGE


def test_huge_value_cache_round_trip(tmp_path, capsys, default_digit_limit, huge_sym):
    """A closed form is recomputed under --cache-dir: both runs compute the
    same bytes, and the cache directory is never made."""
    cache = tmp_path / "cache"
    args = ("ict", "--sym", "2", "--format", "json", "--cache-dir", str(cache))
    code, cold, err = run(capsys, *args)
    assert (code, err) == (EXIT_OK, "")
    assert f'"value": {HUGE_TEXT},' in cold
    code, warm, err = run(capsys, *args)
    assert (code, err) == (EXIT_OK, "")
    assert warm == cold
    assert huge_sym == [2, 2]
    assert not cache.exists()


def test_report_text_matches_the_reference_renderer(no_digit_limit):
    """report_to_text equals the cell-by-cell str.format renderer on the
    closed forms, theorem6 and cyclic reports, an oracle report with no
    rows, and the huge-value report."""
    reports = [ict_sym(n) for n in range(2, 31)] + [ict_alt(n) for n in range(4, 31)]
    for pair in (make_dihedral(7), make_pq(2, 7)):
        reports += [ict_theorem6(pair), ict_cyclic(pair)]
    caps = SimpleNamespace(cap_transversals=CAP_TRANSVERSALS, cap_stab_enum=CAP_STAB_ENUM)
    reports += [cli._oracle_report(make_dihedral(4), caps), huge_report(2)]
    assert reports[-2].contributions == ()
    for report in reports:
        assert report_to_text(report) == report_to_text_reference(report), report.pair_label


# ---------------------------------------------------------------- caching


def entry_file(cache: Path, key: str) -> Path:
    """The cache file that records `key`, found by content, not by name."""
    found = [f for f in cache.glob("*.json")
             if json.loads(f.read_text()).get("key") == key]
    assert len(found) == 1, f"{len(found)} files record {key!r}"
    return found[0]


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("--dihedral", "4", "--format", "json", "--cache-dir", str(cache))
    code, cold, err = run(capsys, *args)
    assert code == EXIT_OK and err == ""
    stored = json.loads(entry_file(cache, "dihedral:4|cyclic").read_text())
    assert stored["tool"] == cli._source_digest()
    assert json.loads(cold) == stored["report"]
    code, warm, err = run(capsys, *args)
    assert code == EXIT_OK and err == ""
    assert warm == cold


def test_cache_corruption_recovers(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("--dihedral", "3", "--cache-dir", str(cache))
    run(capsys, *args)
    path = entry_file(cache, "dihedral:3|cyclic")
    path.write_text("{not json")
    code, out, err = run(capsys, *args)
    assert code == EXIT_OK
    assert "value: 3" in out
    assert f"unreadable cache at {path}" in err
    # the rewritten file is valid again
    assert json.loads(path.read_text())["tool"] == cli._source_digest()


def test_cache_version_mismatch_recomputes_silently(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("--dihedral", "3", "--format", "json", "--cache-dir", str(cache))
    _, cold, _ = run(capsys, *args)
    path = entry_file(cache, "dihedral:3|cyclic")
    stale = json.loads(path.read_text())
    stale["tool"] = "0.0.0-old"
    stale["report"]["value"] = 999
    path.write_text(json.dumps(stale))
    code, out, err = run(capsys, *args)
    assert code == EXIT_OK
    assert out == cold
    assert err == ""
    assert json.loads(path.read_text())["tool"] == cli._source_digest()


def test_cache_entry_of_other_source_is_recomputed(tmp_path, capsys, monkeypatch):
    """An entry written by other code under the same __version__ (before an
    engine fix, say) is never served: entries are named and stamped by a
    digest of the package's source files."""
    cache = tmp_path / "cache"
    args = ("--dihedral", "3", "--format", "json", "--cache-dir", str(cache))
    _, cold, _ = run(capsys, *args, "--no-cache")
    current = cli._source_digest()
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    run(capsys, *args)
    path = entry_file(cache, "dihedral:3|cyclic")
    stale = json.loads(path.read_text())
    assert stale["tool"] == "0" * 64
    stale["report"]["value"] = 999
    path.write_text(json.dumps(stale))
    monkeypatch.undo()
    code, out, err = run(capsys, *args)
    assert code == EXIT_OK and err == "" and out == cold
    assert sorted(json.loads(f.read_text())["tool"] for f in cache.glob("*.json")) == [
        "0" * 64, current]
    assert json.loads(path.read_text()) == stale  # left alone, not overwritten


def test_cache_entry_under_another_keys_name_is_recomputed(tmp_path, capsys):
    """A file holding one key's entry, found under another key's file name,
    is never served for that other key: the second key is recomputed,
    prints its own bytes and is stored again under its own key."""
    cache = tmp_path / "cache"
    where = ("--format", "json", "--cache-dir", str(cache))
    run(capsys, "--dihedral", "3", *where)
    own = run(capsys, "--dihedral", "4", "--format", "json", "--no-cache")
    args = cli.build_parser().parse_args(["ict", "--dihedral", "4", *where])
    target = cli._cache_file(args, "dihedral:4|cyclic")
    shutil.copyfile(entry_file(cache, "dihedral:3|cyclic"), target)
    assert run(capsys, "--dihedral", "4", *where) == own
    stored = json.loads(target.read_text())
    assert stored["key"] == "dihedral:4|cyclic"
    assert stored["report"] == json.loads(own[1])


def test_editing_the_source_retires_its_cache_entries(tmp_path):
    """A copy of the package whose groups.py gains a comment line neither
    serves nor overwrites the entry the unedited copy wrote.  The digest is
    read on the first cache access, not at import."""
    package = tmp_path / "src" / "transversals"
    shutil.copytree(Path(cli.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache = tmp_path / "cache"
    script = ("import sys, transversals.cli as cli; "
              "assert cli._source_digest.cache_info().currsize == 0; "
              "sys.exit(cli.main(sys.argv[1:]))")

    def ict():
        proc = subprocess.run(
            [sys.executable, "-c", script, "--dihedral", "3", "--cache-dir", str(cache)],
            capture_output=True, text=True, env={**ENV, "PYTHONPATH": str(package.parent)})
        assert proc.returncode == EXIT_OK and proc.stderr == ""
        return proc.stdout, sorted(f.name for f in cache.glob("*.json"))

    out, entries = ict()
    assert "value: 3" in out and len(entries) == 1
    assert ict() == (out, entries)  # a hit
    with (package / "groups.py").open("a") as f:
        f.write("# edited\n")
    edited, after = ict()
    assert edited == out and len(after) == 2 and set(entries) < set(after)


def test_cache_malformed_entry_recomputes(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("--dihedral", "3", "--cache-dir", str(cache))
    run(capsys, *args)
    path = entry_file(cache, "dihedral:3|cyclic")
    stored = json.loads(path.read_text())
    stored["report"] = {"schema": "ict-report/1", "value": 3}
    path.write_text(json.dumps(stored))
    code, out, err = run(capsys, *args)
    assert code == EXIT_OK
    assert "value: 3" in out
    assert "malformed cache entry" in err


@pytest.mark.parametrize("report", [5, None, "sym", [1, 2]])
def test_cache_non_object_report_recomputes(tmp_path, capsys, report):
    cache = tmp_path / "cache"
    args = ("--dihedral", "3", "--cache-dir", str(cache))
    _, cold, _ = run(capsys, *args)
    path = entry_file(cache, "dihedral:3|cyclic")
    stored = json.loads(path.read_text())
    stored["report"] = report
    path.write_text(json.dumps(stored))
    code, out, err = run(capsys, *args)
    assert code == EXIT_OK
    assert out == cold
    assert err == "warning: malformed cache entry, recomputing\n"



@pytest.mark.parametrize("argv, key, tamper", [
    (("--dihedral", "5"), "dihedral:5|cyclic", "value"),
    (("--dihedral", "5"), "dihedral:5|cyclic", "fix_count"),
    (("--dihedral", "5"), "dihedral:5|cyclic", "t"),
    (("--sym", "3", "--method", "oracle"), "sym:3|oracle", "numerator"),
])
def test_cache_entry_disagreeing_with_its_factors_recomputes(tmp_path, capsys, argv, key,
                                                             tamper):
    """An entry whose value, a class's fix_count or t, or an oracle report's
    numerator was edited no longer matches its digest: it is recomputed
    with a warning, never printed."""
    cache = tmp_path / "cache"
    args = (*argv, "--cache-dir", str(cache))
    _, cold, _ = run(capsys, *args)
    path = entry_file(cache, key)
    stored = json.loads(path.read_text())
    if tamper in ("value", "numerator"):
        stored["report"][tamper] = 12345
    else:
        stored["report"]["contributions"][-1][tamper] += 1
    path.write_text(json.dumps(stored))
    code, out, err = run(capsys, *args)
    assert code == EXIT_OK
    assert out == cold
    assert err == "warning: malformed cache entry, recomputing\n"
    assert run(capsys, *args) == (EXIT_OK, cold, "")  # the entry was rewritten


def _floats(report):
    report["gamma_order"] = 4.0
    report["contributions"][0]["class_size"] = 1.0
    contribution = report["contributions"][1]
    contribution["a_factors"] = [float(f) for f in contribution["a_factors"]]


def _zero_gamma(report):
    report.update(gamma_order=0, numerator=0, value=999)


def _without_contributions(report):
    del report["contributions"]
    return True  # the entry is given the edited report's digest


def _nested_factor(report):
    report["contributions"][0]["a_factors"] = [[1]]
    return True  # the entry is given the edited report's digest


@pytest.mark.parametrize("argv, key, tamper", [
    (("--dihedral", "5"), "dihedral:5|cyclic", _floats),
    (("--dihedral", "5"), "dihedral:5|cyclic",
     lambda report: report["contributions"][0].update(class_size=True)),
    (("--dihedral", "5"), "dihedral:5|cyclic", lambda report: report.update(validated=1)),
    (("--dihedral", "5"), "dihedral:5|cyclic", lambda report: report.update(degree=5.0)),
    (("--dihedral", "5"), "dihedral:5|cyclic", lambda report: report.update(pair=5)),
    (("--dihedral", "5"), "dihedral:5|cyclic",
     lambda report: report["contributions"][0].update(representative=None)),
    (("--sym", "3", "--method", "oracle"), "sym:3|oracle", _zero_gamma),
    (("--dihedral", "5"), "dihedral:5|cyclic",
     lambda report: report["contributions"][1].update(representative="(2,3)")),
    (("--dihedral", "5"), "dihedral:5|cyclic", lambda report: report.update(pair="sym(99)")),
    (("--dihedral", "5"), "dihedral:5|cyclic",
     lambda report: report.update(justification="tampered")),
    (("--dihedral", "5"), "dihedral:5|cyclic", _without_contributions),
    (("--dihedral", "5"), "dihedral:5|cyclic", _nested_factor),
], ids=["float counts", "bool count", "int validated", "float degree", "number pair",
        "null representative", "gamma order 0", "other representative", "other pair",
        "other justification", "no contributions, new digest", "nested factor, new digest"])
def test_cache_entry_of_the_wrong_types_recomputes(tmp_path, capsys, argv, key, tamper):
    """A stored report must match the digest stored beside it: a count equal
    in value but of another type, such as 4.0 for 4 or true for 1, a gamma
    order of 0, and a representative, pair or justification edited to other
    valid text are each recomputed with a warning, never printed.  An entry
    given its edited report's digest (a tamper that returns True) but
    lacking contributions, or holding a factor that cannot be rendered,
    still gets the warning, not a traceback."""
    cache = tmp_path / "cache"
    args = (*argv, "--cache-dir", str(cache))
    _, cold, _ = run(capsys, *args)
    path = entry_file(cache, key)
    stored = json.loads(path.read_text())
    if tamper(stored["report"]):
        stored["report_sha256"] = cli._report_digest(stored["report"])
    path.write_text(json.dumps(stored))
    code, out, err = run(capsys, *args)
    assert (code, out, err) == (EXIT_OK, cold, "warning: malformed cache entry, recomputing\n")
    assert run(capsys, *args) == (EXIT_OK, cold, "")  # the entry was rewritten


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ICT_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "--dihedral", "4")
    assert code == EXIT_OK
    assert entry_file(tmp_path / "envcache", "dihedral:4|cyclic").exists()


def test_cache_xdg_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ICT_CACHE_DIR", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    code, _, _ = run(capsys, "--dihedral", "3")
    assert code == EXIT_OK
    assert entry_file(tmp_path / "xdg" / "ict", "dihedral:3|cyclic").exists()


@pytest.mark.parametrize("via", ["--cache-dir", "XDG_CACHE_HOME"])
def test_unwritable_cache_still_emits_the_report(tmp_path, capsys, monkeypatch, via):
    """A cache location under a regular file costs one warning, not the
    report: stdout matches --no-cache and the exit code is 0."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = ["--dihedral", "4"]
    if via == "--cache-dir":
        args += ["--cache-dir", str(blocker / "sub")]
    else:
        monkeypatch.delenv("ICT_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    _, plain, _ = run(capsys, "--dihedral", "4", "--no-cache")
    code, out, err = run(capsys, *args)
    assert code == EXIT_OK
    assert out == plain
    assert err.startswith(f"warning: cannot write cache at {blocker}{os.sep}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_no_cache_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ICT_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "--dihedral", "3", "--no-cache")
    assert code == EXIT_OK
    assert not (tmp_path / "envcache").exists()


@pytest.mark.parametrize("via", ["--cache-dir", "ICT_CACHE_DIR"])
def test_closed_forms_never_touch_the_cache(tmp_path, capsys, monkeypatch, via):
    """--sym and --alt recompute, which is faster than a hit: under a cache
    directory they print their --no-cache bytes and leave it absent, while
    a pair engine in the same directory stores one entry and hits it."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    where = ["--cache-dir", str(cache)] if via == "--cache-dir" else []
    monkeypatch.setenv("ICT_CACHE_DIR", str(tmp_path / ("env" if where else "cache")))
    for family in ("--sym", "--alt"):
        for fmt in ("human", "json"):
            argv = (family, "5", "--format", fmt)
            plain = run(capsys, *argv, "--no-cache")
            assert plain[0] == EXIT_OK and plain[2] == ""
            assert run(capsys, *argv, *where) == plain
    assert not cache.exists() and not list(tmp_path.iterdir())
    cold = run(capsys, "--dihedral", "5", *where)
    assert cold[0] == EXIT_OK and cold[2] == ""
    assert [json.loads(f.read_text())["key"] for f in cache.iterdir()] == ["dihedral:5|cyclic"]
    monkeypatch.setattr(cli, "_compute_report", lambda *a: pytest.fail("recomputed"))
    assert run(capsys, "--dihedral", "5", *where) == cold


def test_cache_separates_methods(tmp_path, capsys):
    cache = tmp_path / "cache"
    run(capsys, "--dihedral", "3", "--cache-dir", str(cache))
    run(capsys, "--dihedral", "3", "--method", "oracle", "--cache-dir", str(cache))
    keys = {json.loads(f.read_text())["key"] for f in cache.iterdir()}
    assert keys == {"dihedral:3|cyclic", "dihedral:3|oracle"}
    assert entry_file(cache, "dihedral:3|cyclic") != entry_file(cache, "dihedral:3|oracle")


def test_cache_separates_stabilizer_caps(tmp_path, capsys):
    """Under a lowered --cap-stab-enum the cyclic engine skips its brute
    normalizer check; a later run at the default cap must not be served
    that report."""
    cache = tmp_path / "cache"
    args = ("--pq", "2", "5", "--cache-dir", str(cache))
    code, low, _ = run(capsys, *args, "--cap-stab-enum", "0")
    assert code == EXIT_OK and "not brute-checked" in low
    code, out, err = run(capsys, *args)
    assert code == EXIT_OK and err == ""
    assert out == run(capsys, "--pq", "2", "5", "--no-cache")[1]
    assert "affine family equals the brute-force normalizer" in out
    keys = {json.loads(f.read_text())["key"] for f in cache.iterdir()}
    assert keys == {"pq:2:5|cyclic", "pq:2:5|cyclic|cap-stab-enum:0"}



def test_cache_keys_a_fixture_by_its_text(tmp_path, capsys):
    text = "name d4\ndegree 4\ngen (1,2,3,4)\ngen (2,4)\n"
    fixture = tmp_path / "d4.txt"
    fixture.write_text(text)
    cache = tmp_path / "cache"
    code, _, _ = run(capsys, "--fixture", str(fixture), "--cache-dir", str(cache))
    assert code == EXIT_OK
    keys = {json.loads(f.read_text())["key"] for f in cache.iterdir()}
    assert keys == {f"fixture:{hashlib.sha256(text.encode()).hexdigest()}|theorem6"}

def test_cache_ignores_legacy_file(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    legacy = json.dumps({"tool": __version__,
                         "entries": {"dihedral:3|cyclic": {"schema": "ict-report/1"}}})
    (cache / "cache.json").write_text(legacy)
    code, out, err = run(capsys, "--dihedral", "3", "--cache-dir", str(cache))
    assert code == EXIT_OK and err == ""
    assert "value: 3" in out
    assert (cache / "cache.json").read_text() == legacy
    assert entry_file(cache, "dihedral:3|cyclic") != cache / "cache.json"


# ------------------------------------------------------- parser reuse


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    """main builds the parser on its first call and reuses it: 20 calls,
    usage errors among them, make the 6 parsers of one build (the top
    level and 5 subcommands)."""
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser.cache_clear()
    argvs = (["--sym", "4", "--no-cache"], ["census", "3"], ["classes", "--sym", "3"],
             ["sweep", "--dihedral", "3..3"], ["ict", "--sym", "3", "--alt", "4"])
    try:
        for i in range(20):
            try:
                main(argvs[i % len(argvs)])
            except SystemExit as exc:
                assert exc.code == EXIT_USAGE
            capsys.readouterr()
    finally:
        cli.build_parser.cache_clear()  # later tests build one without the spy
    assert len(built) == 6


def test_cache_directory_is_resolved_per_call(tmp_path, capsys, monkeypatch):
    """$XDG_CACHE_HOME and $ICT_CACHE_DIR set after a first call are read
    by the next one."""
    monkeypatch.delenv("ICT_CACHE_DIR", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg1"))
    assert run(capsys, "--dihedral", "3")[0] == EXIT_OK
    assert entry_file(tmp_path / "xdg1" / "ict", "dihedral:3|cyclic").exists()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg2"))
    assert run(capsys, "--dihedral", "3")[0] == EXIT_OK
    assert entry_file(tmp_path / "xdg2" / "ict", "dihedral:3|cyclic").exists()
    monkeypatch.setenv("ICT_CACHE_DIR", str(tmp_path / "env"))
    assert run(capsys, "--dihedral", "3")[0] == EXIT_OK
    assert entry_file(tmp_path / "env", "dihedral:3|cyclic").exists()


@pytest.mark.parametrize("flag, env", [("", "env"), (None, "")],
                         ids=["empty-cache-dir", "empty-env"])
def test_empty_cache_dir_falls_through_to_xdg(tmp_path, capsys, monkeypatch, flag, env):
    """An empty --cache-dir skips $ICT_CACHE_DIR, and an empty
    $ICT_CACHE_DIR is skipped, for $XDG_CACHE_HOME/ict."""
    if env:
        env = str(tmp_path / env)
    monkeypatch.setenv("ICT_CACHE_DIR", env)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    argv = ["--dihedral", "3"] + ([] if flag is None else ["--cache-dir", flag])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert "value: 3" in out
    assert entry_file(tmp_path / "xdg" / "ict", "dihedral:3|cyclic").exists()
    assert not (tmp_path / "env").exists()


def test_no_option_leaks_into_the_next_call(tmp_path, capsys, monkeypatch):
    """Options of one call do not carry over to the next: a bare call after
    --format json --cap-stab-enum 5 --output prints the human report to
    stdout and caches it under the default key."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("ICT_CACHE_DIR", str(cache))
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "ict", "--dihedral", "4", "--format", "json",
                       "--cap-stab-enum", "5", "--output", str(dest))
    assert (code, out) == (EXIT_OK, "")
    assert json.loads(dest.read_text())["value"] == 6
    code, out, err = run(capsys, "ict", "--dihedral", "4")
    assert (code, err) == (EXIT_OK, "")
    assert out == run(capsys, "ict", "--dihedral", "4", "--no-cache")[1]
    assert out.startswith("pair: dihedral(4)\n")
    keys = {json.loads(f.read_text())["key"] for f in cache.iterdir()}
    assert keys == {"dihedral:4|cyclic|cap-stab-enum:5", "dihedral:4|cyclic"}


# ---------------------------------------------------------------- census


def test_census_human(capsys):
    code, out, _ = run(capsys, "census", "4")
    assert code == EXIT_OK
    assert "order: 4" in out
    assert "tables: 216" in out
    assert "classes: 44" in out
    assert "generating classes: 32" in out
    assert "size 6: 30 classes" in out


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "3", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["schema"] == "census/1"
    assert data["order"] == 3
    assert data["tables"] == 4
    assert data["class_count"] == 3
    assert data["size_distribution"] == {"1": 2, "2": 1}


def test_census_order_one(capsys):
    code, out, _ = run(capsys, "census", "1")
    assert code == EXIT_OK
    assert "classes: 1" in out


THEOREM6_HYPOTHESIS = ("hypothesis (validated): the acting group is the whole stabilizer of "
                       "symbol 1, which contains every relabeling that could link classes\n")


@pytest.mark.parametrize("argv, want", [
    (["census", "1"], "order: 1\ntables: 1\nclasses: 1\ngenerating classes: 1\n"
                      "class size distribution:\n  size 1: 1 classes\n"),
    (["ict", "--fixture", "<degree 1>", "--no-cache"],
     "pair: fixture(degree=1)\nmethod: theorem6\ngamma order: 1\n"
     "representative  size  k  t  a_factors  orbit_factors  fix\n"
     "()              1     1  0  1          -              1\n"
     "numerator: 1\nvalue: 1\n" + THEOREM6_HYPOTHESIS),
    (["ict", "--sym", "2", "--method", "theorem6", "--no-cache"],
     "pair: sym(2)\nmethod: theorem6\ngamma order: 1\n"
     "representative  size  k  t  a_factors  orbit_factors  fix\n"
     "()              1     2  0  1,1        -              1\n"
     "numerator: 1\nvalue: 1\n" + THEOREM6_HYPOTHESIS),
])
def test_degree_one_and_two_outputs(tmp_path, capsys, argv, want):
    """Sym(0) and Sym(1), the stabilizers of 1 at degrees 1 and 2, are one
    row each: census 1, a degree-1 fixture and theorem6 on sym(2) print
    these bytes."""
    fixture = tmp_path / "one.group"
    fixture.write_text("degree 1\ngen ()\n")
    argv = [str(fixture) if arg == "<degree 1>" else arg for arg in argv]
    assert run(capsys, *argv) == (EXIT_OK, want, "")


def test_census_invalid_order(capsys):
    code, _, err = run(capsys, "census", "0")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_census_cap_exit(capsys):
    code, _, err = run(capsys, "census", "6")
    assert code == EXIT_CAP
    assert "cap exceeded" in err
    assert "transversals" in err


def test_census_relabeling_cap_exit(capsys):
    code, out, err = run(capsys, "census", "4", "--cap-relabelings", "1")
    assert code == EXIT_CAP
    assert out == ""
    assert "cap 'relabelings' exceeded: requires 6, limit is 1" in err


def test_classes_relabeling_cap_refuses_before_building_tables(capsys, monkeypatch):
    """dihedral(9) needs 8! = 40,320 relabelings; one fewer is refused by
    name before any table is built."""
    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(oracle, "_section_rows", no_tables)
    code, out, err = run(capsys, "classes", "--dihedral", "9", "--cap-relabelings", "40319")
    assert code == EXIT_CAP
    assert out == ""
    assert "cap 'relabelings' exceeded: requires 40320, limit is 40319" in err


def test_crosscheck_skips_census_over_the_relabeling_cap(capsys):
    code, out, _ = run(capsys, "crosscheck", "--sym", "3", "--cap-relabelings", "1")
    assert code == EXIT_OK
    assert "census" not in out and "oracle_table_iso" not in out


def test_crosscheck_skips_theorem6_over_the_stabilizer_cap(capsys):
    """Sym(4)'s theorem6 needs 3! = 6 stabilizer candidates; a cap of 5
    drops its row, and the four rows left agree."""
    code, out, err = run(capsys, "crosscheck", "--sym", "4", "--cap-stab-enum", "5")
    assert (code, err) == (EXIT_OK, "")
    assert "theorem6" not in out
    assert out.count("  44\n") == 4
    assert out.endswith("agreement: yes\n")


def test_crosscheck_skips_table_iso_over_the_relabeling_cap(capsys):
    """dihedral(9)'s table-iso oracle needs 8! = 40,320 relabelings; one
    fewer drops its row, and the engines left agree on 52."""
    code, out, err = run(capsys, "crosscheck", "--dihedral", "9",
                         "--cap-relabelings", "40319")
    assert (code, err) == (EXIT_OK, "")
    assert "oracle_table_iso" not in out
    assert "oracle_conjugation  52\n" in out
    assert out.endswith("agreement: yes\n")


# ------------------------------------------------------------ crosscheck


def test_crosscheck_sym_classifies_tables_once(capsys, monkeypatch):
    """The census row reuses the Sym(n) table classification."""
    canonical_forms = oracle._canonical_forms
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return canonical_forms(*args, **kwargs)

    monkeypatch.setattr(oracle, "_canonical_forms", counted)
    code, out, _ = run(capsys, "crosscheck", "--sym", "4")
    assert code == EXIT_OK
    assert "oracle_table_iso    44" in out and "census              44" in out
    assert len(calls) == 1


def test_crosscheck_sym3(capsys):
    code, out, _ = run(capsys, "crosscheck", "--sym", "3")
    assert code == EXIT_OK
    for label in ("sym_closed", "theorem6", "oracle_conjugation",
                  "oracle_table_iso", "census"):
        assert label in out
    assert "agreement: yes" in out


@pytest.mark.parametrize("pair, closed, value", [
    (["--dihedral", "4"], "cyclic_closed", 6),
    (["--alt", "4"], "alt_closed", 7),
    (["--pq", "2", "5"], "cyclic_closed", 6),
], ids=["dihedral4", "alt4", "pq2_5"])
def test_crosscheck_json(capsys, pair, closed, value):
    code, out, _ = run(capsys, "crosscheck", *pair, "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["agreement"] is True
    methods = [r["method"] for r in data["results"]]
    assert methods == [closed, "theorem6", "oracle_conjugation",
                       "oracle_table_iso"]
    assert {r["value"] for r in data["results"]} == {value}


def _crosscheck_normalizer_builds(capsys, monkeypatch, n):
    """Run `crosscheck --dihedral n` and return, per normalizer it builds,
    the candidates read and the degrees of the (n-1)! sweeps started.
    groups._relabelings is spied through its groups binding, which only
    normalizer_in_stab reads (oracle imports its own binding), and the
    sweeps of either pass sweeps_spied."""
    import transversals.groups as groups

    builds, relabelings = [], groups._relabelings
    sweeps = sweeps_spied(monkeypatch)

    def spied(*args):
        start, read = len(sweeps), 0
        for alphas in relabelings(*args):
            read += len(alphas)
            yield alphas
        builds.append((read, sweeps[start:]))

    monkeypatch.setattr(groups, "_relabelings", spied)
    code, out, _ = run(capsys, "crosscheck", "--dihedral", str(n))
    assert code == EXIT_OK
    assert "cyclic_closed" in out and "theorem6" in out
    return builds


def test_crosscheck_sweeps_the_normalizer_once(capsys, monkeypatch):
    """The cyclic row's normalizer check and the theorem6 row share one
    sweep of the 3! rows of Sym(4)_1, where |G| > 3!: dihedral(4) has order
    8."""
    assert _crosscheck_normalizer_builds(capsys, monkeypatch, 4) == [(6, [4])]


def test_crosscheck_builds_the_normalizer_by_cycle_matching_once(capsys, monkeypatch):
    """Where |G| is well below (n-1)!, the two rows share one normalizer
    built from the 4 relabelings that match the cycles of dihedral(8)'s
    generators, and no row of Sym(8)_1 is swept."""
    assert _crosscheck_normalizer_builds(capsys, monkeypatch, 8) == [(4, [])]


def test_crosscheck_disagreement_exit(capsys, monkeypatch):
    monkeypatch.setattr("transversals.cli.ict_sym",
                        lambda n: SimpleNamespace(value=999))
    code, out, err = run(capsys, "crosscheck", "--sym", "3")
    assert code == EXIT_DISAGREEMENT
    assert "agreement: no" in out  # the matrix still gets printed
    assert "disagreement: engines disagree on sym(3)" in err
    assert "sym_closed=999" in err


# ----------------------------------------------------------------- sweep


def test_sweep_dihedral_range(capsys):
    code, out, _ = run(capsys, "sweep", "--dihedral", "3..6")
    assert code == EXIT_OK
    assert "facts hold: yes" in out
    assert "dihedral(3)" in out and "dihedral(6)" in out
    assert "dihedral(7)" not in out


def test_sweep_default_set_json(capsys):
    code, out, _ = run(capsys, "sweep", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["facts_hold"] is True
    names = [r["pair"] for r in data["rows"]]
    assert "dihedral(3)" in names and "dihedral(10)" in names
    assert "pq(3,7)" in names
    assert "sym(5)" in names and "alt(5)" in names
    assert "cyclic(3) regular" in names
    control = next(r for r in data["rows"] if r["pair"] == "cyclic(3) regular")
    assert control["normal"] is True and control["value"] == 1
    index3 = [r for r in data["rows"] if r["index"] == 3 and not r["normal"]]
    assert index3 and all(r["value"] == 3 for r in index3)



def test_sweep_normal_is_the_reference_normality(capsys):
    """The sweep reads H's normality off |H| = 1 (every pair's H is
    core-free); on each default pair that equals the reference test."""
    code, out, _ = run(capsys, "sweep", "--format", "json")
    assert code == EXIT_OK
    normal = {r["pair"]: r["normal"] for r in json.loads(out)["rows"]}
    specs = cli._sweep_specs(cli.build_parser().parse_args(["sweep"]))
    pairs = [cli._build_pair(*spec) for spec in specs]
    assert [pair.name for pair in pairs] == list(normal)
    assert [normal[pair.name] for pair in pairs] == [
        is_normal(pair.stabilizer, pair.group) for pair in pairs]
    assert sum(normal.values()) == 2  # sym(2) and the regular control

def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--dihedral", "3-6")
    assert code == EXIT_USAGE
    assert "bad range" in err
    code, out, err = run(capsys, "sweep", "--dihedral", "5..3")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: bad range '5..3', expected A..B with A <= B\n"


def test_sweep_violation_exit(capsys, monkeypatch):
    """A fact violation still prints the table, then exits 3."""
    monkeypatch.setattr(
        "transversals.cli.ict_cyclic",
        lambda pair, cap=None: SimpleNamespace(value=4),
    )
    code, out, err = run(capsys, "sweep", "--dihedral", "3..4")
    assert code == EXIT_HYPOTHESIS
    assert "facts hold: no" in out
    assert "hypothesis violation" in err
    assert "should never occur" in err


def test_hypothesis_violation_from_engine(capsys, monkeypatch):
    def boom(pair, cap=None):
        raise HypothesisViolation("no normal regular cyclic transversal found")

    monkeypatch.setattr("transversals.cli.ict_cyclic", boom)
    code, _, err = run(capsys, "--dihedral", "5", "--no-cache")
    assert code == EXIT_HYPOTHESIS
    assert "hypothesis violation" in err


# ---------------------------------------------------------------- classes


def test_classes_dump(capsys):
    code, out, _ = run(capsys, "classes", "--sym", "3")
    assert code == EXIT_OK
    assert out.startswith("pair: sym(3)\n")
    assert "classes: 3" in out
    assert out.count("table:") == 3


def test_classes_json(capsys):
    code, out, _ = run(capsys, "classes", "--alt", "4", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["schema"] == "classification/1"
    assert data["pair"] == "alt(4)"
    assert data["class_count"] == 7


# ------------------------------------------------------- usage and exits


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_usage_errors_exit_one(capsys):
    for argv in ([], ["frobnicate"], ["ict"], ["ict", "--sym", "3", "--alt", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE, argv
        capsys.readouterr()


# The --cap-* flags each subcommand offers: only the caps its engines read
CAP_FLAGS = {
    "ict": ("--cap-transversals", "--cap-stab-enum"),
    "census": ("--cap-transversals", "--cap-relabelings"),
    "crosscheck": ("--cap-transversals", "--cap-stab-enum", "--cap-relabelings"),
    "sweep": ("--cap-stab-enum",),
    "classes": ("--cap-transversals", "--cap-relabelings"),
}
OUT_OF_RANGE = [("--jobs", "-3", 1), ("--jobs", "0", 1), ("--cap-transversals", "-5", 0),
                ("--cap-stab-enum", "-1", 0), ("--cap-relabelings", "-2", 0)]
# What each subcommand needs to run besides its options
PAIR_ARGS = {"census": ["3"], "sweep": []}


@pytest.mark.parametrize("command, flag, value, least", [
    (command, flag, value, least)
    for command in ("ict", "census", "crosscheck", "classes", "sweep")
    for flag, value, least in OUT_OF_RANGE
    if flag == "--jobs" or flag in CAP_FLAGS[command]])
def test_out_of_range_counts_are_usage_errors(capsys, command, flag, value, least):
    pair = PAIR_ARGS.get(command, ["--sym", "3"])
    with pytest.raises(SystemExit) as exc:
        main([command, *pair, flag, value])
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    if flag == "--jobs":  # not an option at all: rejected before any range check
        assert err.endswith(f"error: unrecognized arguments: --jobs {value}\n")
        return
    assert err.startswith(f"usage: ict {command} ")
    assert err.endswith(f"error: argument {flag}: must be at least {least}, got {value}\n")


@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command, offered in CAP_FLAGS.items()
    for flag in ("--cap-transversals", "--cap-stab-enum", "--cap-relabelings")
    if flag not in offered])
def test_caps_a_subcommand_does_not_read_are_not_options(capsys, command, flag):
    """A cap no engine of the subcommand reads is no option of it: a value
    in range is refused like any unknown option."""
    pair = PAIR_ARGS.get(command, ["--sym", "3"])
    with pytest.raises(SystemExit) as exc:
        main([command, *pair, flag, "5"])
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: unrecognized arguments: {flag} 5\n")


def test_out_of_range_jobs_exits_one_in_a_child_process():
    proc = subprocess.run(
        [sys.executable, "-m", "transversals.cli", "classes", "--sym", "3", "--jobs", "-3"],
        capture_output=True, text=True, env=ENV)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr.endswith("error: unrecognized arguments: --jobs -3\n")
    assert "Traceback" not in proc.stderr


def test_jobs_and_zero_caps_still_accepted(capsys):
    plain = run(capsys, "classes", "--sym", "3")
    assert plain[0] == EXIT_OK
    # --jobs is rejected whatever its value
    for value in ("2", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["classes", "--sym", "3", "--jobs", value])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.endswith(f"error: unrecognized arguments: --jobs {value}\n")
        assert "Traceback" not in err
    code, out, err = run(capsys, "classes", "--sym", "3", "--cap-transversals", "0")
    assert code == EXIT_CAP and out == ""
    assert err == "cap exceeded: cap 'transversals' exceeded: requires 4, limit is 0\n"


@pytest.mark.parametrize("command", ["ict", "crosscheck"])
def test_alt_below_four_is_an_input_error(capsys, command):
    argv = [command, "--alt", "3"] + (["--no-cache"] if command == "ict" else [])
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "n >= 4" in err
    assert "Traceback" not in err


class _ArrayMemoryError(MemoryError):
    """A MemoryError subclass, as numpy's own allocation error is."""


@pytest.mark.parametrize("error", [MemoryError, _ArrayMemoryError])
def test_out_of_memory_is_one_error_line(capsys, monkeypatch, error):
    """An input whose arrays do not fit in memory exits 1 with one stderr
    line, not a traceback; the builder raises without allocating."""
    import transversals.groups as groups

    def exhausted(*params):
        raise error()

    monkeypatch.setattr(groups, "make_dihedral", exhausted)
    code, out, err = run(capsys, "--dihedral", "7", "--no-cache")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: this input needs more memory than is available\n"
    assert "Traceback" not in err


def test_oracle_cap_exit(capsys):
    code, _, err = run(capsys, "--sym", "9", "--method", "oracle", "--no-cache")
    assert code == EXIT_CAP
    assert "cap exceeded" in err


HUGE_ORDER = str(10**30)


@pytest.mark.parametrize("argv, required", [
    (["classes", "--sym", HUGE_ORDER], f"{HUGE_ORDER}!"),
    (["classes", "--alt", HUGE_ORDER], f"{HUGE_ORDER}!/2"),
    (["crosscheck", "--alt", HUGE_ORDER], f"{HUGE_ORDER}!/2"),
    (["crosscheck", "--sym", "60000"], "60000!"),
    (["ict", "--dihedral", HUGE_ORDER, "--no-cache"], str(2 * 10**30)),
    (["ict", "--pq", "2", "1000000000039", "--no-cache"], "2000000000078"),
    (["crosscheck", "--sym", "11"], "39916800"),
], ids=["classes-sym", "classes-alt", "crosscheck-alt", "crosscheck-sym60000",
        "dihedral", "pq", "crosscheck-sym11"])
def test_group_order_refusals_are_one_short_line(capsys, argv, required):
    """A family pair past the group-order cap exits 2 at once, in one line
    that states an order of more than 4,300 digits as its formula."""
    start = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - start < 0.5
    assert (code, out) == (EXIT_CAP, "")
    assert err == (f"cap exceeded: cap 'group_order' exceeded: requires {required}, "
                   f"limit is 10000000\n")


# the regular cyclic group of degree 1,600, whose 1599! relabelings have 4,431 digits
CYCLE_1600 = "degree 1600\ngen (" + ",".join(map(str, range(1, 1601))) + ")\n"
STAB_ENUM_1599 = "cap 'stabilizer_enum' exceeded: requires 1599!, limit is 362880"


@pytest.mark.parametrize("argv, message", [
    (["--fixture", "F", "--no-cache"], STAB_ENUM_1599),
    (["--fixture", "F", "--method", "oracle", "--no-cache"], STAB_ENUM_1599),
    (["crosscheck", "--fixture", "F"], STAB_ENUM_1599),
    (["classes", "--fixture", "F"],
     "cap 'relabelings' exceeded: requires 1599!, limit is 100000"),
    (["--dihedral", "11", "--method", "theorem6", "--no-cache"],
     "cap 'stabilizer_enum' exceeded: requires 3628800, limit is 362880"),
], ids=["ict", "oracle", "crosscheck", "classes", "dihedral11"])
def test_relabeling_refusals_are_one_short_line(tmp_path, capsys, argv, message):
    """A pair past the cap on Sym(n)_1 exits 2 with nothing on stdout, and
    states an (n-1)! of more than 4,300 digits as its formula; a shorter
    one is printed in full."""
    fixture = tmp_path / "cycle1600.group"
    fixture.write_text(CYCLE_1600)
    code, out, err = run(capsys, *[str(fixture) if arg == "F" else arg for arg in argv])
    assert (code, out) == (EXIT_CAP, "")
    assert err == f"cap exceeded: {message}\n"


@pytest.mark.parametrize("argv, m", [
    (["--sym", "300"], 299),
    (["--alt", HUGE_ORDER, "--format", "json"], 10**30 - 1),
    (["--sym", "43"], 42),
], ids=["sym300", "alt10**30", "sym43"])
def test_closed_form_class_refusals_are_one_short_line(capsys, argv, m):
    """A closed form with more than 50,000 classes, p(n - 1), exits 2 at
    once: the partitions are counted only until they pass the cap."""
    start = time.process_time()
    code, out, err = run(capsys, *argv, "--no-cache")
    assert time.process_time() - start < 0.5
    assert (code, out) == (EXIT_CAP, "")
    assert err == f"cap exceeded: cap 'classes' exceeded: requires p({m}), limit is 50000\n"


def test_cap_override_flag(capsys):
    code, _, err = run(capsys, "--dihedral", "5", "--method", "oracle",
                       "--cap-transversals", "3", "--no-cache")
    assert code == EXIT_CAP
    assert "requires 16" in err


# ------------------------------------------------------------- subprocess

# the child interpreter imports the same package as this test run
SRC = str(Path(transversals.__file__).resolve().parent.parent)
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "transversals.cli", "--sym", "4", "--no-cache"],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 0
    assert "value: 44" in proc.stdout


def _main_in_fresh_process(argv, block=(), then=""):
    """Run main(argv) in a new interpreter, with the import of each module
    named in `block` failing, and then the statements `then`."""
    script = "\n".join([
        "import sys",
        *(f"sys.modules[{name!r}] = None" for name in block),
        "from transversals.cli import main",
        "try:",
        f"    code = main({list(argv)!r})",
        "except SystemExit as exc:",
        "    code = exc.code",
        then,
        "raise SystemExit(code)",
    ])
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=ENV)


def test_closed_forms_help_version_and_cache_hits_start_without_numpy(tmp_path):
    """Only a command that builds a group imports numpy, with groups and
    oracle: the others run, byte for byte, where numpy cannot be imported.
    They import no dataclasses either (the reports are NamedTuples), so
    they also run where dataclasses cannot be imported."""
    cache = ["--cache-dir", str(tmp_path / "cache")]
    for argv in (["--sym", "12", "--no-cache"],
                 ["--alt", "20", "--format", "json", "--no-cache"],
                 ["--version"], ["--help"],
                 ["--dihedral", "5", *cache]):  # stored by the first run, hit by the others
        unblocked = _main_in_fresh_process(argv)
        for block in (["numpy"], ["dataclasses"]):
            blocked = _main_in_fresh_process(argv, block=block)
            assert unblocked.returncode == blocked.returncode == 0, (argv, block, blocked.stderr)
            assert blocked.stdout == unblocked.stdout, (argv, block)
    layers = ("perm", "symclasses", "groups", "ict_formulas", "oracle", "cli")
    built = _main_in_fresh_process(
        ["--dihedral", "5", "--no-cache"],
        then=f"assert all('transversals.' + m in sys.modules for m in {layers!r})\n"
             "import transversals\n"
             "for name in transversals.__all__: getattr(transversals, name)")
    assert built.returncode == 0, built.stderr


def test_module_entry_point_json_determinism(tmp_path):
    cmd = [sys.executable, "-m", "transversals.cli", "crosscheck",
           "--dihedral", "3", "--format", "json"]
    a = subprocess.run(cmd, capture_output=True, text=True, env=ENV)
    b = subprocess.run(cmd, capture_output=True, text=True, env=ENV)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    data = json.loads(a.stdout)
    assert data["agreement"] is True


def test_module_entry_point_cap_exit():
    proc = subprocess.run(
        [sys.executable, "-m", "transversals.cli", "census", "6"],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 2
    assert "cap exceeded" in proc.stderr


def test_degree_zero_fixture_is_an_input_error(tmp_path):
    path = tmp_path / "empty.group"
    path.write_text("degree 0\ngen ()\n")
    for argv in (["ict", "--no-cache"], ["classes"], ["crosscheck"]):
        proc = subprocess.run(
            [sys.executable, "-m", "transversals.cli", *argv, "--fixture", str(path)],
            capture_output=True, text=True, env=ENV)
        assert proc.returncode == EXIT_USAGE, argv
        assert proc.stderr == "error: line 1: degree must be at least 1\n", argv
        assert "Traceback" not in proc.stderr


def test_concurrent_writers_keep_every_entry(tmp_path, capsys):
    cache = tmp_path / "cache"
    sizes = range(3, 11)  # eight processes, no more
    procs = [subprocess.Popen([sys.executable, "-m", "transversals.cli", "--dihedral",
                               str(n), "--cache-dir", str(cache)], env=ENV,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
             for n in sizes]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0 and err == ""
    assert not list(cache.glob("*.tmp"))
    for n in sizes:
        stored = json.loads(entry_file(cache, f"dihedral:{n}|cyclic").read_text())
        assert stored["tool"] == cli._source_digest()
        warm = run(capsys, "--dihedral", str(n), "--cache-dir", str(cache))
        assert warm == run(capsys, "--dihedral", str(n), "--no-cache")
        assert warm[0] == EXIT_OK and warm[2] == ""
