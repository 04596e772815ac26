"""Command line behavior: subcommands, formats, caching, exit codes."""

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from transversals import __version__
from transversals.cli import (
    EXIT_CAP,
    EXIT_DISAGREEMENT,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from transversals.errors import HypothesisViolation


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


def test_ict_method_auto_dispatch(capsys):
    cases = [
        (["--alt", "4"], 7, "alt_closed"),
        (["--dihedral", "5"], 6, "cyclic_closed"),
        (["--pq", "3", "7"], 130, "cyclic_closed"),
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


def test_ict_method_family_mismatch(capsys):
    code, _, err = run(capsys, "--dihedral", "5", "--method", "sym", "--no-cache")
    assert code == EXIT_USAGE
    assert "error: --method sym needs a --sym pair" in err


def test_ict_fixture(tmp_path, capsys):
    path = tmp_path / "d4.group"
    path.write_text("name square\ndegree 4\ngen (1,2,3,4)\ngen (2,4)\n")
    code, out, _ = run(capsys, "--fixture", str(path), "--format", "json", "--no-cache")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["pair"] == "square"
    assert data["method"] == "theorem6"
    assert data["value"] == 6


def test_ict_fixture_missing_file(capsys):
    code, _, err = run(capsys, "--fixture", "/nonexistent/x.group", "--no-cache")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_ict_output_file(tmp_path, capsys):
    dest = tmp_path / "report.txt"
    code, out, _ = run(capsys, "--sym", "4", "--output", str(dest), "--no-cache")
    assert code == EXIT_OK
    assert out == ""
    assert "value: 44" in dest.read_text()


# ---------------------------------------------------------------- caching


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("--sym", "4", "--format", "json", "--cache-dir", str(cache))
    code, cold, err = run(capsys, *args)
    assert code == EXIT_OK and err == ""
    stored = json.loads((cache / "cache.json").read_text())
    assert stored["tool"] == __version__
    assert "sym:4|sym" in stored["entries"]
    code, warm, err = run(capsys, *args)
    assert code == EXIT_OK and err == ""
    assert warm == cold


def test_cache_corruption_recovers(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("--sym", "3", "--cache-dir", str(cache))
    run(capsys, *args)
    (cache / "cache.json").write_text("{not json")
    code, out, err = run(capsys, *args)
    assert code == EXIT_OK
    assert "value: 3" in out
    assert "unreadable cache" in err
    # the rewritten file is valid again
    assert json.loads((cache / "cache.json").read_text())["tool"] == __version__


def test_cache_version_mismatch_recomputes_silently(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("--sym", "3", "--format", "json", "--cache-dir", str(cache))
    _, cold, _ = run(capsys, *args)
    stale = json.loads((cache / "cache.json").read_text())
    stale["tool"] = "0.0.0-old"
    (cache / "cache.json").write_text(json.dumps(stale))
    code, out, err = run(capsys, *args)
    assert code == EXIT_OK
    assert out == cold
    assert err == ""


def test_cache_malformed_entry_recomputes(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("--sym", "3", "--cache-dir", str(cache))
    run(capsys, *args)
    stored = json.loads((cache / "cache.json").read_text())
    stored["entries"]["sym:3|sym"] = {"schema": "ict-report/1", "value": 3}
    (cache / "cache.json").write_text(json.dumps(stored))
    code, out, err = run(capsys, *args)
    assert code == EXIT_OK
    assert "value: 3" in out
    assert "malformed cache entry" in err


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ICT_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "--dihedral", "4")
    assert code == EXIT_OK
    assert (tmp_path / "envcache" / "cache.json").exists()


def test_no_cache_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ICT_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "--sym", "3", "--no-cache")
    assert code == EXIT_OK
    assert not (tmp_path / "envcache").exists()


def test_cache_separates_methods(tmp_path, capsys):
    cache = tmp_path / "cache"
    run(capsys, "--sym", "3", "--cache-dir", str(cache))
    run(capsys, "--sym", "3", "--method", "oracle", "--cache-dir", str(cache))
    entries = json.loads((cache / "cache.json").read_text())["entries"]
    assert set(entries) == {"sym:3|sym", "sym:3|oracle"}


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


def test_census_invalid_order(capsys):
    code, _, err = run(capsys, "census", "0")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_census_cap_exit(capsys):
    code, _, err = run(capsys, "census", "6")
    assert code == EXIT_CAP
    assert "cap exceeded" in err
    assert "transversals" in err


# ------------------------------------------------------------ crosscheck


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
        lambda n, h, pair=None, cap=None: SimpleNamespace(value=4),
    )
    code, out, err = run(capsys, "sweep", "--dihedral", "3..4")
    assert code == EXIT_HYPOTHESIS
    assert "facts hold: no" in out
    assert "hypothesis violation" in err
    assert "should never occur" in err


def test_hypothesis_violation_from_engine(capsys, monkeypatch):
    def boom(n, h, pair=None, cap=None):
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


def test_oracle_cap_exit(capsys):
    code, _, err = run(capsys, "--sym", "9", "--method", "oracle", "--no-cache")
    assert code == EXIT_CAP
    assert "cap exceeded" in err


def test_cap_override_flag(capsys):
    code, _, err = run(capsys, "--dihedral", "5", "--method", "oracle",
                       "--cap-transversals", "3", "--no-cache")
    assert code == EXIT_CAP
    assert "requires 16" in err


# ------------------------------------------------------------- subprocess


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "transversals.cli", "--sym", "4", "--no-cache"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "value: 44" in proc.stdout


def test_module_entry_point_json_determinism(tmp_path):
    cmd = [sys.executable, "-m", "transversals.cli", "crosscheck",
           "--dihedral", "3", "--format", "json"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    data = json.loads(a.stdout)
    assert data["agreement"] is True


def test_module_entry_point_cap_exit():
    proc = subprocess.run(
        [sys.executable, "-m", "transversals.cli", "census", "6"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "cap exceeded" in proc.stderr
