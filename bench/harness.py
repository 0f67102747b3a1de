"""The before/after measurement rules shared by the scripts under bench/.

Each script compares the src tree given by --before, normally the parent
commit's, with this checkout's src.  Every measurement is a fresh
interpreter with one tree first on PYTHONPATH; the sides alternate, so that
a drift of the machine does not fall on one side only; the values every run
must share are checked; and the record names the commit, whether the
measured checkout differed from it, the Python version, the machine and its
CPU count.  Run the scripts from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def child(src: str, code: str, *argv, tests: bool = False, **env):
    """The JSON value that `python -c code argv...` prints, with src, then tests/
    if asked, first on PYTHONPATH and env added to the environment; a failing
    child stops the program with the tail of its stderr."""
    path = [os.path.abspath(src)] + ([os.path.abspath("tests")] if tests else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **{k: str(v) for k, v in env.items()})
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)], env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"a child on {src} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def alternate(trees: dict, repeat: int, run) -> dict:
    """{side: [run(src) for each round]} over the trees {side: src}, the sides
    taken in the order of trees on even rounds and reversed on odd ones."""
    runs = {side: [] for side in trees}
    for k in range(repeat):
        for side in list(trees)[:: -1 if k % 2 else 1]:
            runs[side].append(run(trees[side]))
    return runs


def agreed(where: str, runs: dict, keys) -> dict:
    """{key: value} for the keys on which every run of every side must agree;
    stops the program naming where and the first key they disagree on."""
    every = [run for side in runs.values() for run in side]
    shared = {key: every[0][key] for key in keys}
    for key, value in shared.items():
        for run in every:
            if run[key] != value:
                raise SystemExit(f"{where}: the runs disagree on {key}: {value!r} and {run[key]!r}")
    return shared


def quartiles(values, digits: int = 5) -> dict:
    """{"median", "q1", "q3"} of values, inclusive quartiles, rounded to digits."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(q2, digits), "q1": round(q1, digits), "q3": round(q3, digits)}


def write(out: str, what: str, command: str, **fields) -> None:
    """Write the record: what, command, commit (HEAD) and dirty (whether a
    tracked file differs from HEAD, so that the tree measured as "after" is
    not that commit), Python, machine and CPUs, then fields."""
    def git(*argv):
        return subprocess.run(["git", *argv], capture_output=True, text=True, check=False)

    record = {"what": what, "command": command,
              "commit": git("rev-parse", "HEAD").stdout.strip(),
              "dirty": git("diff", "--quiet", "HEAD", "--").returncode != 0,
              "python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count(), **fields}
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def arguments(doc: str, before: bool = True) -> tuple[dict, str]:
    """The trees {"before": --before, "after": "src"}, without "before" unless
    before is true, and --out; doc's first line describes the program."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    if before:
        ap.add_argument("--before", required=True, help="src directory of the parent commit")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    return {"before": args.before, "after": "src"} if before else {"after": "src"}, args.out


def main(doc: str, what: str, command: str, rows, before: bool = True, **extra) -> None:
    """Print each row of rows(trees) as it comes, for the trees of the
    arguments, and write the record with extra and the rows to --out."""
    trees, out = arguments(doc, before)
    made = []
    for row in rows(trees):
        print(json.dumps(row), flush=True)
        made.append(row)
    write(out, what, command, **extra, rows=made)
