"""Benchmark of the `ict` command line, driven in-process through
`transversals.cli.main(argv)`.

    python3 perfbench/run.py --workload burnside --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One client issues the workload's commands one after another (a closed loop)
in this single process.  A run makes as many rounds as fit in `--seconds`
at the round length each workload had when the benchmark was defined
(workloads.ROUND_SECONDS), at least one.  The count does not depend on how
fast this build or this machine is, so every build is compared over the same
number of rounds.  On `cli_cache` a round issues every
key cold against a fresh `--cache-dir`, then again warm against the same
directory.  The other workloads pass `--no-cache`, so a round issues each
command once and every issue computes its answer: there the warm
percentiles are taken over the same issues as the cold ones, the bypass side
of any change to the cache.  Every output is checked against an expected
integer, and each output must be byte-identical to the first output of the
same command.

Times are CPU seconds of this process (all its threads), not wall-clock
seconds.  On a machine shared with other tenants the wall clock of the same
command moved by up to 2x within minutes, while its CPU time moved far less.
Each command's latency is its least CPU time over the run's rounds: other
load only ever adds to it, and each round is one more chance to see the
command undisturbed.  So the workloads are made of commands that take well
under a second, each issued six to ten times in a run.

CPU time still moved by up to 40% between runs minutes apart, all commands
together, when the machine as a whole was slower.  So a run also times a
fixed calibration kernel, pure Python of the package's kind, a few times per
round between commands, and scales every reported time by
REFERENCE_KERNEL_MS over the kernel's least time in the run.  Reported
times are CPU time on a machine where that kernel takes REFERENCE_KERNEL_MS;
the kernel is the same for every build, so the scaling cancels machine speed
and not changes to the package.  The unscaled figures are printed beside.

`--trace 0` prints the end-to-end metrics:

- cpu_s: the workload's cost, the sum over its command issues of each
  one's least CPU time over the rounds (cold and warm issues counted
  apart).  The wall clock of the fastest whole round is printed beside it.
- setup_s: median, over several fresh interpreters, of the CPU time to
  import `transversals.cli` and generate the seeded inputs.  It is scaled
  like the others.
- peak_rss_mb: peak resident memory of this process.
- cmd_{cold,warm}_{p50,p90}_cpu_ms: percentiles of the command latencies.

`--trace 1` runs one round untraced, then one traced round, and prints the
per-layer metrics of the traced round (see tracer.py).  trace.overhead_ratio
compares the two rounds' CPU time; span times are wall-clock.  The cache
metrics describe the cache directory after it.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines above it repeat the metrics
for people, with sample counts.  The exit code is 0 only when every command
was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
CALIBRATIONS_PER_ROUND = 4
REFERENCE_KERNEL_MS = 40.0  # the calibration kernel's least CPU time that times are scaled to

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from reference import load_table  # noqa: E402
from tracer import Tracer  # noqa: E402

END_TO_END_UNITS = {
    "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "cmd_cold_p50_cpu_ms": "ms", "cmd_cold_p90_cpu_ms": "ms",
    "cmd_warm_p50_cpu_ms": "ms", "cmd_warm_p90_cpu_ms": "ms",
}


def _import_cli():
    """transversals.cli from this checkout's src/, or None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import transversals.cli as cli
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import transversals from {src}: {exc}\n")
        return None
    if src not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"perfbench: transversals imported from {cli.__file__}, "
                         f"not from {src}\n")
        return None
    return cli


def _calibration_kernel() -> None:
    """Fixed pure-Python work of the package's kind, tuples as dict keys,
    about as long as a typical command (40 ms) in a small heap."""
    for _ in range(10):
        table = {}
        for i in range(20_000):
            key = (i, i * 3 % 17)
            table[key] = table.get(key, 0) + 1


class Runner:
    """Issues commands and records latencies, failures and output digests."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.latency = {"cold": {}, "warm": {}}  # issue -> argv -> ms samples
        self.attempted = 0
        self.calibration = []  # CPU ms of each calibration kernel run
        self.failures = []
        self.digest = {}  # argv -> sha256 of its first output
        self.cache_dir = None  # the last round's

    def issue(self, cmd, issue: str, cache_dir: str) -> None:
        argv = list(cmd.argv)
        if argv[0] == "ict":
            argv += ["--cache-dir", cache_dir] if self.workload.uses_cache else ["--no-cache"]
        out, err = io.StringIO(), io.StringIO()
        problem = None
        # Start every issue from the same collector state, so that a full
        # collection owed to earlier commands is not charged to this one.
        gc.collect()
        t0 = time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a leaked error is a failed command, not a crash
            code, problem = None, f"raised {exc!r}"
        elapsed = time.process_time() - t0
        self.attempted += 1
        self.latency[issue].setdefault(cmd.argv, []).append(elapsed * 1e3)
        text = out.getvalue()
        if problem is None and code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()[:200]}"
        if problem is None:
            try:
                problem = cmd.check(text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.digest.setdefault(cmd.argv, digest)
        if problem is None and digest != first:
            problem = "output differs from the command's first output"
        if problem is not None:
            self.failures.append(f"{issue} {' '.join(cmd.argv)}: {problem}")

    def calibrate(self) -> None:
        c0 = time.process_time()
        _calibration_kernel()
        self.calibration.append((time.process_time() - c0) * 1e3)

    def run_round(self, work: Path) -> tuple:
        """One round against a fresh cache directory; returns its CPU and
        wall-clock seconds."""
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work)
        issues = [(cmd, issue)
                  for issue in (("cold", "warm") if self.workload.uses_cache else ("cold",))
                  for cmd in self.workload.commands]
        every = -(-len(issues) // CALIBRATIONS_PER_ROUND)
        cpu = wall = 0.0
        for i, (cmd, issue) in enumerate(issues):
            if i % every == 0:
                self.calibrate()
            c0, t0 = time.process_time(), time.perf_counter()
            self.issue(cmd, issue, cache_dir)
            cpu += time.process_time() - c0
            wall += time.perf_counter() - t0
        self.cache_dir = Path(cache_dir)
        return cpu, wall


def _percentile(samples, pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _measure_setup(workload: str, seed: int) -> list:
    """CPU seconds for fresh interpreters to import the package and build the
    workload's inputs, one interpreter at a time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        c0 = _children_cpu()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(_children_cpu() - c0)
    return times


def _cache_state(cache_dir: Path) -> tuple:
    """(entries, bytes) of a cache directory, whatever its layout."""
    files = [p for p in cache_dir.rglob("*") if p.is_file()]
    size = sum(p.stat().st_size for p in files)
    try:
        entries = len(json.loads((cache_dir / "cache.json").read_text())["entries"])
    except (OSError, ValueError, KeyError, TypeError):
        entries = len(files)
    return entries, size


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def end_to_end(runner, rounds: list, setup_times) -> dict:
    best = {issue: [min(v) for v in per_command.values()]
            for issue, per_command in runner.latency.items() if per_command}
    wall = min(wall for _, wall in rounds)
    kernel = min(runner.calibration)
    scale = REFERENCE_KERNEL_MS / kernel
    cpu = sum(map(sum, best.values())) / 1e3
    setup = statistics.median(setup_times)
    values = {
        "cpu_s": (cpu * scale,
                  f"commands: {sum(map(len, best.values()))}, best of {len(rounds)} "
                  f"rounds; unscaled {cpu:.4f} s; fastest round {wall:.3f} s wall clock"),
        "setup_s": (setup * scale,
                    f"interpreters: {len(setup_times)}; unscaled {setup:.4f} s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, ""),
    }
    for issue in ("cold", "warm"):
        latencies = best.get(issue, best["cold"])
        note = f"commands: {len(latencies)}, best of {len(rounds)} rounds"
        for pct in (50, 90):
            values[f"cmd_{issue}_p{pct}_cpu_ms"] = (_percentile(latencies, pct) * scale, note)
    print(f"calibration kernel: least {kernel:.4f} ms of {len(runner.calibration)} runs; "
          f"times scaled by {scale:.4f}")
    return {name: (value, END_TO_END_UNITS[name], note)
            for name, (value, note) in values.items()}


def per_layer(tracer, overhead, cache_dir) -> dict:
    calls, total, self_time = tracer.calls, tracer.total, tracer.self_time
    observed = tracer.observed

    def consumed(generator, consumers=None):
        return sum(count for (gen, consumer), count in tracer.items.items()
                   if gen == generator and (consumers is None or consumer in consumers))

    def ratio(num, den):
        return num / den if den else 0.0

    candidates = consumed("groups.stabilizer_candidates", {"groups.normalizer_in_stab"})
    entries, size = _cache_state(cache_dir)
    cli_self = sum(v for k, v in self_time.items() if k.startswith("cli."))
    metrics = {
        "perm.permutations_built": (calls["perm.Permutation.__init__"], "count"),
        "groups.closure_calls": (calls["groups.closure"], "count"),
        "groups.closure_s": (total["groups.closure"], "s"),
        "groups.generates_calls": (calls["groups.generates"], "count"),
        "groups.generates_s": (total["groups.generates"], "s"),
        "groups.normalizer_s": (total["groups.normalizer_in_stab"], "s"),
        "groups.normalizer_candidates": (candidates, "count"),
        "groups.conjugacy_classes_s": (total["groups.PermGroup.conjugacy_classes"], "s"),
        "groups.conjugacy_classes": (observed["conjugacy_classes"], "count"),
        "groups.pair_build_s": (sum(total[f"groups.{f}"] for f in (
            "make_sym", "make_alt", "make_dihedral", "make_pq", "pair_from_fixture")), "s"),
        "groups.enumerate_s": (total["groups.enumerate_transversals"], "s"),
        "groups.transversals_enumerated": (consumed("groups.enumerate_transversals"),
                                           "count"),
        "symclasses.partitions": (observed["partitions"], "count"),
        "ict_formulas.closed_form_self_s": (self_time["ict_formulas.ict_sym"]
                                            + self_time["ict_formulas.ict_alt"], "s"),
        "ict_formulas.theorem6_self_s": (self_time["ict_formulas.ict_theorem6"], "s"),
        "ict_formulas.commuting_tests": (observed["commuting_tests"], "count"),
        "ict_formulas.cyclic_self_s": (self_time["ict_formulas.ict_cyclic"], "s"),
        "ict_formulas.render_s": (total["ict_formulas.report_to_text"]
                                  + total["ict_formulas.report_to_json"], "s"),
        "oracle.conjugation_self_s": (self_time["oracle.classify_by_conjugation"], "s"),
        "oracle.unions": (calls["oracle.UnionFind.union"], "count"),
        "oracle.table_iso_self_s": (self_time["oracle.classify_by_table_iso"], "s"),
        "oracle.relabelings_applied": (observed["relabelings_applied"], "count"),
        "oracle.render_classes_s": (total["oracle.render_classes_dump"], "s"),
        "oracle.census_self_s": (self_time["oracle.census_left_loops"], "s"),
        "oracle.tables_classified": (observed["tables_classified"], "count"),
        "cli.self_s": (cli_self, "s"),
        "groups.normalizer_yield": (ratio(observed["normalizer_found"], candidates), "ratio"),
        "oracle.union_merge_ratio": (ratio(observed["union_merges"],
                                           calls["oracle.UnionFind.union"]), "ratio"),
        "cli.cache_hit_ratio": (ratio(calls["ict_formulas.report_from_json"],
                                      calls["cli.cmd_ict"]), "ratio"),
        "cli.cache_entries": (entries, "count"),
        "cli.cache_bytes": (size, "bytes"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "src.lines": (_src_lines(), "lines"),
    }
    return {name: (value, unit, "") for name, (value, unit) in metrics.items()}


def _report(metrics: dict, runner) -> str:
    attempted, failed = runner.attempted, len(runner.failures)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:34s} {value:16.6g} {unit:6s} {note}")
    print(f"{'failed_ratio':34s} {failed / attempted:16.6g}        "
          f"failed {failed} of {attempted} commands")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # The program must see only the generated argv: no cache location leaks in.
    os.environ.pop("ICT_CACHE_DIR", None)
    os.environ.pop("XDG_CACHE_HOME", None)
    cli = _import_cli()
    if cli is None:
        return 2
    table = load_table()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        fixtures = work / "fixtures"
        fixtures.mkdir()
        workload = workloads.build(args.workload, args.seed, table, fixtures)
        if args.setup_only:
            return 0
        runner = Runner(cli, workload)
        if args.trace:
            metrics = _traced(runner, work)
            missing = [m for m in workloads.WORKS_IN[args.workload] if not metrics[m][0]]
            runner.failures += [f"traced layer metric {m} is zero" for m in missing]
        else:
            setup_times = _measure_setup(args.workload, args.seed)
            rounds = _rounds(runner, work, args.seconds)
            metrics = end_to_end(runner, rounds, setup_times)
        for failure in runner.failures[:20]:
            sys.stderr.write(f"perfbench: FAILED {failure}\n")
        print(_report(metrics, runner))
        return 0 if not runner.failures else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _rounds(runner, work: Path, seconds: float) -> list:
    count = max(1, int(seconds // workloads.ROUND_SECONDS[runner.workload.name]))
    return [runner.run_round(work) for _ in range(count)]


def _traced(runner, work: Path) -> dict:
    untraced, _ = runner.run_round(work)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = runner.run_round(work)
    finally:
        tracer.uninstall()
    return per_layer(tracer, traced / untraced, runner.cache_dir)


if __name__ == "__main__":
    sys.exit(main())
