"""Run the same fixture and closed-form commands against two source trees
and report every difference in stdout, stderr or exit code.

    python tests/compare_cli_outputs.py OLD_SRC NEW_SRC [--count 60] [--seed 25]

OLD_SRC and NEW_SRC are directories holding a `transversals` package, for
instance the `src/` of a `git archive` of the parent commit and this tree's
`src/`.  Each tree runs in one process of its own, every command in process
through transversals.cli.main.  The fixtures are `--count` seeded random
intransitive ones (oracles.random_intransitive_generators, order at most
720) and fixed edge cases: degree 1, `gen ()`, an orbit of 1 that is {1},
the order-18 group, S5 x S5 and PSL(2,5).  Each fixture runs `ict` (human,
JSON and `--method oracle`, all `--no-cache`), `ict --cache-dir` twice, a
miss that stores the report and then a hit that serves it, `crosscheck`,
and `classes` (human and JSON).  The closed forms run as `ict --sym N` and
`ict --alt N` for N = 2..30 (human and JSON; `--alt` below 4 is an input
error), `ict --sym 42`, the largest under the class cap, and `ict --sym
43`, refused by it.  The family commands build their groups through the
family builders and the normalizer sweep: `ict --sym N` and `--alt N`
(`--no-cache`) with `--method theorem6` up to N = 8 and `--method oracle`
up to N = 5, `crosscheck` and `classes` on Sym and Alt up to degree 5,
`census 1` to `census 4`, `ict --dihedral N` for N = 3..10 (auto and
theorem6, whose normalizer sweeps reach 9! candidates), `ict --pq` on
(2, 3), (2, 5), (3, 7), (2, 7) and (2, 11), and the default `sweep`.
Each tree has a cache directory of its own, so neither
reads what the other stored.  Outputs are compared by their SHA-256, so the
157 MB of `--sym 42` is never held.  Exits 1 when any command differs.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from oracles import format_fixture, group_of, random_intransitive_generators  # noqa: E402
from transversals.errors import CapExceeded  # noqa: E402

EDGE_CASES = [
    "degree 1\ngen ()\n",
    "degree 4\ngen ()\n",
    "degree 4\ngen ()\ngen (2,3)\n",
    "name order18\ndegree 6\ngen (1,2,3)\ngen (4,5,6)\ngen (2,3)(5,6)\n",
    "degree 10\ngen (1,2)\ngen (1,2,3,4,5)\ngen (6,7)\ngen (6,7,8,9,10)\n",
    "name psl25\ndegree 6\ngen (1,2,3,4,5)\ngen (1,6)(2,5)\n",
]

# stands for the tree's own cache directory in an argv
CACHE = "<cache>"

COMMANDS = [["ict", "--no-cache"], ["ict", "--no-cache", "--format", "json"],
            ["ict", "--no-cache", "--method", "oracle"],
            ["ict", "--cache-dir", CACHE], ["ict", "--cache-dir", CACHE],
            ["crosscheck"], ["classes"], ["classes", "--format", "json"]]

CLOSED_FORMS = [["ict", f"--{family}", str(n), "--no-cache", *fmt]
                for family in ("sym", "alt") for n in range(2, 31)
                for fmt in ([], ["--format", "json"])]
CLOSED_FORMS += [["ict", "--sym", "42", "--no-cache"], ["ict", "--sym", "43", "--no-cache"]]

# family pairs built from the family builders, not from fixtures
FAMILIES = [["ict", f"--{family}", str(n), "--no-cache", "--method", method]
            for method, top in (("theorem6", 8), ("oracle", 5))
            for family, low in (("sym", 2), ("alt", 4)) for n in range(low, top + 1)]
FAMILIES += [[command, f"--{family}", str(n)] for command in ("crosscheck", "classes")
             for family, low in (("sym", 2), ("alt", 4)) for n in range(low, 6)]
FAMILIES += [["census", str(n)] for n in range(1, 5)]
FAMILIES += [["ict", "--dihedral", str(n), "--no-cache", "--method", method]
             for n in range(3, 11) for method in ("auto", "theorem6")]
FAMILIES += [["ict", "--pq", p, q, "--no-cache"]
             for p, q in (("2", "3"), ("2", "5"), ("3", "7"), ("2", "7"), ("2", "11"))]
FAMILIES += [["sweep"]]

CHILD = """
import contextlib, hashlib, json, sys
from transversals.cli import main

class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
    def write(self, text):
        self.sha.update(text.encode())
        return len(text)
    def flush(self):
        pass

results = []
for argv in json.load(sys.stdin):
    out, err = Digest(), Digest()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([out.sha.hexdigest(), err.sha.hexdigest(), code])
json.dump(results, sys.stdout)
"""


def fixtures(count: int, seed: int) -> list:
    rng = random.Random(seed)
    texts = list(EDGE_CASES)
    while len(texts) < len(EDGE_CASES) + count:
        n = rng.randint(3, 12)
        gens = random_intransitive_generators(rng, n)
        try:
            group_of(gens, cap=720)
        except CapExceeded:
            continue
        texts.append(format_fixture("", n, gens))
    return texts


def run_tree(src: str, argvs: list) -> list:
    with tempfile.TemporaryDirectory() as cache:
        argvs = [[cache if arg == CACHE else arg for arg in argv] for argv in argvs]
        done = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs),
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--count", type=int, default=60)
    parser.add_argument("--seed", type=int, default=25)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        argvs = []
        for i, text in enumerate(fixtures(args.count, args.seed)):
            path = Path(tmp) / f"f{i}.group"
            path.write_text(text)
            argvs += [[cmd[0], "--fixture", str(path), *cmd[1:]] for cmd in COMMANDS]
        fixture_count = len(argvs) // len(COMMANDS)
        argvs += CLOSED_FORMS + FAMILIES
        old, new = run_tree(args.old_src, argvs), run_tree(args.new_src, argvs)
    differ = [argv for argv, a, b in zip(argvs, old, new) if a != b]
    for argv in differ:
        print("differs:", " ".join(argv))
    codes = sorted({code for _, _, code in new})
    print(f"{len(argvs)} commands, {fixture_count} fixtures, {len(CLOSED_FORMS)} closed forms, "
          f"{len(FAMILIES)} family commands, {len(differ)} differ; exit codes seen: {codes}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
