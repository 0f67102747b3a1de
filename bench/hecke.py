"""Time the Hecke check of a parent source tree and of this checkout.

For each shape and each side, a fresh interpreter builds the cell graph
once (not timed), then runs that tree's verify_hecke_relations REPEAT
times and reports the best time, the peak RSS (ru_maxrss) after the build
and after the checks, and the report.  "before" is the tree given by
--before, "after" is this checkout's src.  The "after" interpreter then
runs verify_hecke_relations_composed of tests/helpers.py, which composes
whole product matrices, once on the same graph (after its RSS is read).
The program exits 1 unless, on every shape, all three reports pass and
are equal.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/hecke.py --before /tmp/parent/src --out BENCH_hecke.json
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
from wcell import builder, hecke

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

def listed(report):
    return [report.rule, report.ok, [list(w) for w in report.violations]]

lam, repeat, composed = tuple(map(int, sys.argv[1].split(","))), int(sys.argv[2]), sys.argv[3] == "1"
g = builder.build_cell_graph(lam)
build_rss = rss_mb()
times = []
for _ in range(repeat):
    start = time.perf_counter()
    report = hecke.verify_hecke_relations(g)
    times.append(time.perf_counter() - start)
out = {
    "vertices": g.num_vertices, "weights": len(g.mu), "best_s": min(times),
    "peak_rss_mb": {"build": build_rss, "check": rss_mb()}, "report": listed(report),
}
if composed:
    import helpers
    out["composed"] = listed(helpers.verify_hecke_relations_composed(g))
print(json.dumps(out))
"""


def _run(src: str, lam, composed: bool) -> dict:
    tests = os.path.abspath("tests")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.abspath(src), tests]))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, ",".join(map(str, lam)), str(REPEAT), str(int(composed))],
        env=env, capture_output=True, text=True, check=True,
    )
    run = json.loads(out.stdout)
    run["best_s"] = round(run["best_s"], 3)
    run["peak_rss_mb"] = {k: round(v, 1) for k, v in run["peak_rss_mb"].items()}
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the parent commit")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    rows = []
    failed = False
    for lam in SHAPES:
        runs = {"before": _run(args.before, lam, False), "after": _run("src", lam, True)}
        reports = [runs["after"].pop("composed")] + [run.pop("report") for run in runs.values()]
        row = {
            "shape": list(lam),
            "vertices": runs["after"]["vertices"],
            "weights": runs["after"]["weights"],
            "report": reports[2],
            **{side: {k: v for k, v in run.items() if k not in ("vertices", "weights")}
               for side, run in runs.items()},
        }
        row["speedup"] = round(row["before"]["best_s"] / row["after"]["best_s"], 2)
        rows.append(row)
        print(json.dumps(row), flush=True)
        if any(r != reports[0] for r in reports) or not reports[0][1]:
            print(f"{lam}: reports differ or fail: {reports}", file=sys.stderr)
            failed = True
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    record = {
        "what": "best of `repeat` seconds of hecke.verify_hecke_relations on the same built "
                "graph for the parent's src (before) and this checkout's src (after), and peak "
                "RSS (ru_maxrss) after the build and after the checks, each side in a fresh "
                "interpreter; both reports pass and equal tests/helpers.py "
                "verify_hecke_relations_composed",
        "command": "python3 bench/hecke.py --before <parent>/src --out BENCH_hecke.json",
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
