"""Time the Hecke check before and after its column-at-a-time evaluation.

For each shape and each side, a fresh interpreter builds the cell graph
once (not timed), then runs the check REPEAT times and reports the best
time, the peak RSS (ru_maxrss) after the build and after the checks, and
the report.  "before" is verify_hecke_relations_composed of
tests/helpers.py, which composes whole product matrices as the package
did before; "after" is wcell.hecke.verify_hecke_relations.  The program
exits 1 unless both reports pass and are equal on every shape.

Run from the repository root:
    PYTHONPATH=src:tests python3 bench/hecke.py --out BENCH_hecke.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

SHAPES = ((4, 3, 2, 1), (4, 3, 2, 1, 1), (4, 3, 2, 1, 1, 1))
REPEAT = 3
CHILD = """
import json, resource, sys, time
import helpers
from wcell import builder, hecke

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

side, lam = sys.argv[1], tuple(map(int, sys.argv[2].split(",")))
check = {"before": helpers.verify_hecke_relations_composed,
         "after": hecke.verify_hecke_relations}[side]
g = builder.build_cell_graph(lam)
build_rss = rss_mb()
times = []
for _ in range(int(sys.argv[3])):
    start = time.perf_counter()
    report = check(g)
    times.append(time.perf_counter() - start)
print(json.dumps({
    "vertices": g.num_vertices, "weights": len(g.mu), "best_s": min(times),
    "peak_rss_mb": {"build": build_rss, "check": rss_mb()},
    "report": [report.rule, report.ok, [list(w) for w in report.violations]],
}))
"""


def _run(side: str, lam) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, side, ",".join(map(str, lam)), str(REPEAT)],
        capture_output=True, text=True, check=True,
    )
    run = json.loads(out.stdout)
    run["best_s"] = round(run["best_s"], 3)
    run["peak_rss_mb"] = {k: round(v, 1) for k, v in run["peak_rss_mb"].items()}
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    rows = []
    failed = False
    for lam in SHAPES:
        runs = {side: _run(side, lam) for side in ("before", "after")}
        reports = [run.pop("report") for run in runs.values()]
        row = {
            "shape": list(lam),
            "vertices": runs["after"].pop("vertices"),
            "weights": runs["after"].pop("weights"),
            "report": reports[1],
            **{side: {k: v for k, v in run.items() if k not in ("vertices", "weights")}
               for side, run in runs.items()},
        }
        row["speedup"] = round(row["before"]["best_s"] / row["after"]["best_s"], 2)
        rows.append(row)
        print(json.dumps(row), flush=True)
        if reports[0] != reports[1] or not reports[1][1]:
            print(f"{lam}: reports differ or fail: {reports}", file=sys.stderr)
            failed = True
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    record = {
        "what": "best of `repeat` seconds of the Hecke check before "
                "(tests/helpers.py verify_hecke_relations_composed, the former package code) "
                "and after (wcell.hecke.verify_hecke_relations) on the same built graph, and "
                "peak RSS (ru_maxrss) after the build and after the checks, each side in a "
                "fresh interpreter; both reports pass and are equal",
        "command": "PYTHONPATH=src:tests python3 bench/hecke.py --out BENCH_hecke.json",
        "commit": commit,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeat": REPEAT,
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
