"""Time the Hecke check of a parent source tree and of this checkout.

For each shape and each side, a fresh interpreter builds the cell graph
once (not timed), then runs that tree's verify_hecke_relations REPEAT
times and reports the best time, the peak RSS (ru_maxrss) after the build
and after the checks, and the report.  "before" is the tree given by
--before, "after" is this checkout's src.  The "after" interpreter then
runs verify_hecke_relations_composed of tests/helpers.py, which composes
whole product matrices, once on the same graph (after its RSS is read).
The program stops with exit status 1, and writes no record, at the first
shape whose three reports do not all pass and agree.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/hecke.py --before /tmp/parent/src --out BENCH_hecke.json
"""

from __future__ import annotations

import harness

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
    "vertices": g.num_vertices, "weights": len(g.mu), "best_s": round(min(times), 3),
    "peak_rss_mb": {"build": round(build_rss, 1), "check": round(rss_mb(), 1)},
    "report": listed(report),
}
if composed:
    import helpers
    out["composed"] = listed(helpers.verify_hecke_relations_composed(g))
print(json.dumps(out))
"""


def rows(trees):
    for lam in SHAPES:
        shape = ",".join(map(str, lam))
        runs = {
            side: harness.child(src, CHILD, shape, REPEAT, int(side == "after"), tests=True)
            for side, src in trees.items()
        }
        reports = [runs["after"].pop("composed")] + [run.pop("report") for run in runs.values()]
        if any(r != reports[0] for r in reports) or not reports[0][1]:
            raise SystemExit(f"{lam}: reports differ or fail: {reports}")
        row = {
            "shape": list(lam),
            "vertices": runs["after"]["vertices"],
            "weights": runs["after"]["weights"],
            "report": reports[2],
            **{side: {k: v for k, v in run.items() if k not in ("vertices", "weights")}
               for side, run in runs.items()},
        }
        row["speedup"] = round(row["before"]["best_s"] / row["after"]["best_s"], 2)
        yield row


if __name__ == "__main__":
    harness.main(
        __doc__,
        "best of `repeat` seconds of hecke.verify_hecke_relations on the same built "
        "graph for the parent's src (before) and this checkout's src (after), and peak "
        "RSS (ru_maxrss) after the build and after the checks, each side in a fresh "
        "interpreter; both reports pass and equal tests/helpers.py "
        "verify_hecke_relations_composed",
        "python3 bench/hecke.py --before <parent>/src --out BENCH_hecke.json",
        rows,
        repeat=REPEAT,
    )
