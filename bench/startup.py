"""Time the fixed cost of a wcell call before and after a change.

Two figures, each for the --before source tree and for this checkout's src:

- import: seconds of `import wcell.cli` in a fresh interpreter.  Each tree
  gets one untimed import first, then IMPORT_RUNS timed ones, the two trees
  alternating.  The PYTHONDONTWRITEBYTECODE setting is recorded, since
  without bytecode files every import also compiles the sources.
- per run: seconds of one in-process cli.run for `build --shape S --out F`
  and for `verify --in F --hecke`, for each shape S in CALLS.  Each child
  is a fresh interpreter that makes CALLS[S] build + verify pairs in a row; the
  first pair (which builds the argument parser) is reported on its own and
  the median is taken over the rest.  ROUNDS children per tree, alternating.

Every build must exit 0 and write the same bytes in both trees, and every
verify must exit 0 and print the same report in both trees; otherwise the
program exits 1.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/startup.py --before /tmp/parent/src --out BENCH_startup.json
"""

from __future__ import annotations

import json
import os

import harness

IMPORT_RUNS = 9
# build + verify pairs per child, for each shape
CALLS = {(9,): 101, (3, 3, 2, 1): 11}
ROUNDS = 3
IMPORT_CHILD = (
    "import time; t = time.perf_counter(); import wcell.cli; "
    "print(time.perf_counter() - t)"
)
RUN_CHILD = """
import contextlib, hashlib, io, json, os, sys, tempfile, time
from wcell import cli

def timed(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.run(argv)
        seconds = time.perf_counter() - start
    if code != 0:
        sys.exit(f"wcell {' '.join(argv)} exited {code}")
    return seconds, out.getvalue()

shape, calls = sys.argv[1], int(sys.argv[2])
build, verify, digests, reports = [], [], set(), set()
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "g.json")
    for _ in range(calls):
        seconds, _ = timed(["build", "--shape", shape, "--out", path])
        build.append(seconds)
        with open(path, "rb") as fh:
            digests.add(hashlib.sha256(fh.read()).hexdigest())
        seconds, report = timed(["verify", "--in", path, "--hecke"])
        verify.append(seconds)
        reports.add(report)
if len(digests) != 1 or len(reports) != 1:
    sys.exit("repeated calls disagree")
print(json.dumps({"build_s": build, "verify_s": verify,
                  "digest": digests.pop(), "report": reports.pop()}))
"""


def _import_row(trees: dict) -> dict:
    for src in trees.values():
        harness.child(src, IMPORT_CHILD)
    runs = harness.alternate(
        trees, IMPORT_RUNS, lambda src: round(harness.child(src, IMPORT_CHILD), 5)
    )
    row = {side: {"runs": values, **harness.quartiles(values)} for side, values in runs.items()}
    row["speedup"] = round(row["before"]["median"] / row["after"]["median"], 2)
    return row


def _run_row(trees: dict, lam) -> dict:
    shape = ",".join(map(str, lam))
    runs = harness.alternate(
        trees, ROUNDS, lambda src: harness.child(src, RUN_CHILD, shape, CALLS[lam])
    )
    row = {"shape": list(lam), "calls": CALLS[lam]}
    row.update(harness.agreed(str(lam), runs, ("digest", "report")))
    for side, results in runs.items():
        row[side] = {}
        for key in ("build_s", "verify_s"):
            row[side][f"first_{key}"] = [round(r[key][0], 5) for r in results]
            row[side][key] = harness.quartiles([s for r in results for s in r[key][1:]])
    for key in ("build_s", "verify_s"):
        row[f"{key[:-2]}_speedup"] = round(
            row["before"][key]["median"] / row["after"][key]["median"], 2
        )
    return row


if __name__ == "__main__":
    trees, out = harness.arguments(__doc__)
    imports = _import_row(trees)
    print(json.dumps({"import_s": imports}), flush=True)
    rows = []
    for lam in CALLS:
        rows.append(_run_row(trees, lam))
        print(json.dumps(rows[-1]), flush=True)
    harness.write(
        out,
        "seconds of `import wcell.cli` in a fresh interpreter (import_s), and seconds "
        "of one in-process cli.run of `build` and of `verify --hecke` after the first "
        "such pair (runs), for the parent's src (before) and this checkout's src "
        "(after), run alternately; both write the same bytes and print the same reports",
        "python3 bench/startup.py --before <parent>/src --out BENCH_startup.json",
        PYTHONDONTWRITEBYTECODE=os.environ.get("PYTHONDONTWRITEBYTECODE"),
        import_runs=IMPORT_RUNS,
        rounds=ROUNDS,
        import_s=imports,
        runs=rows,
    )
