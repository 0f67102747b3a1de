"""Time the polygon rule of a parent source tree and of this checkout.

For each case, runs ROUNDS rounds of one child on the --before source tree
and one on this checkout's src, the sides alternating which goes first.
A case is one built cell, or every shape of n = 9.  Every child is a fresh
interpreter that builds its graphs once (not timed), then runs that
tree's check_polygon for r = 2 and for r = 3 REPEAT times on each graph
and reports, for each r, the best time summed over the graphs, and the
reports.  Each side's row keeps every round's best time with their median
and quartiles; speedup is the ratio of the two medians, so read it against
the quartiles.  The program stops with exit status 1, and writes no
record, at the first case whose reports do not all pass and agree.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/polygon.py --before /tmp/parent/src --out BENCH_polygon.json
"""

from __future__ import annotations

import harness

CASES = ("4,3,2,1", "4,3,2,1,1", "4,3,2,1,1,1", "n=9")
ROUNDS = 5
REPEAT = 3
CHILD = """
import json, sys, time
from wcell import builder, tableaux as tb, wgraph as wg

case = sys.argv[1]
shapes = tb.partitions_of(9) if case == "n=9" else [tuple(map(int, case.split(",")))]
graphs = [builder.build_cell_graph(lam) for lam in shapes]
best, reports = {2: 0.0, 3: 0.0}, []
for g in graphs:
    for r in (2, 3):
        times = []
        for _ in range(int(sys.argv[2])):
            start = time.perf_counter()
            report = wg.check_polygon(g, r)
            times.append(time.perf_counter() - start)
        best[r] += min(times)
        reports.append([report.rule, report.ok, [list(w) for w in report.violations]])
print(json.dumps({
    "graphs": len(graphs), "vertices": sum(g.num_vertices for g in graphs),
    "weights": sum(len(g.mu) for g in graphs),
    "r2_s": round(best[2], 5), "r3_s": round(best[3], 5), "reports": reports,
}))
"""


def rows(trees):
    for case in CASES:
        runs = harness.alternate(trees, ROUNDS, lambda src: harness.child(src, CHILD, case, REPEAT))
        shared = harness.agreed(case, runs, ("graphs", "vertices", "weights", "reports"))
        reports = shared.pop("reports")
        if not all(ok for _, ok, _ in reports):
            raise SystemExit(f"{case}: a report fails: {reports}")
        row = {"case": case, **shared, "reports_passed": len(reports)}
        for key in ("r2_s", "r3_s"):
            row[key] = {side: {"best": [r[key] for r in results],
                               **harness.quartiles([r[key] for r in results])}
                        for side, results in runs.items()}
            row[key]["speedup"] = round(
                row[key]["before"]["median"] / row[key]["after"]["median"], 2
            )
        yield row


if __name__ == "__main__":
    harness.main(
        __doc__,
        "best of `repeat` seconds of wgraph.check_polygon for r = 2 and for r = 3 on "
        "the same built graphs, summed over the graphs of the case (one shape, or all "
        "30 of n = 9), in each of `rounds` rounds, for the parent's src (before) and "
        "this checkout's src (after), the sides alternating, each run in a fresh "
        "interpreter; every round's best with their median and quartiles, and speedup, "
        "the ratio of the medians; every report passes and both sides agree",
        "python3 bench/polygon.py --before <parent>/src --out BENCH_polygon.json",
        rows,
        rounds=ROUNDS,
        repeat=REPEAT,
    )
