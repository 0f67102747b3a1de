"""Time the Hecke check of a parent source tree and of this checkout.

For each shape, runs ROUNDS rounds of one child on the --before source
tree and one on this checkout's src, the sides alternating which goes
first.  Every child is a fresh interpreter that builds the cell graph once
(not timed), then runs that tree's verify_hecke_relations REPEAT times and
reports the best time, the peak RSS (ru_maxrss) after the build and after
the checks, and the report.  Each side's row keeps the best time of every
round with their median and quartiles; speedup is the ratio of the two
medians, so read it against the quartiles.  One more
child on this checkout's src runs verify_hecke_relations_composed of
tests/helpers.py, which composes whole product matrices, once on the same
graph.  The program stops with exit status 1, and writes no record, at the
first shape whose reports do not all pass and agree.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/hecke.py --before /tmp/parent/src --out BENCH_hecke.json
"""

from __future__ import annotations

import harness

SHAPES = ((4, 3, 2, 1), (4, 3, 2, 1, 1), (4, 3, 2, 1, 1, 1))
ROUNDS = 5
REPEAT = 3
BUILD = """
import json, resource, sys, time
from wcell import builder, hecke

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

def listed(report):
    return [report.rule, report.ok, [list(w) for w in report.violations]]

g = builder.build_cell_graph(tuple(map(int, sys.argv[1].split(","))))
"""
CHILD = BUILD + """
build_rss = rss_mb()
times = []
for _ in range(int(sys.argv[2])):
    start = time.perf_counter()
    report = hecke.verify_hecke_relations(g)
    times.append(time.perf_counter() - start)
print(json.dumps({
    "vertices": g.num_vertices, "weights": len(g.mu), "best_s": round(min(times), 4),
    "peak_rss_mb": {"build": round(build_rss, 1), "check": round(rss_mb(), 1)},
    "report": listed(report),
}))
"""
COMPOSED = BUILD + """
import helpers
print(json.dumps(listed(helpers.verify_hecke_relations_composed(g))))
"""


def rows(trees):
    for lam in SHAPES:
        shape = ",".join(map(str, lam))
        runs = harness.alternate(trees, ROUNDS, lambda src: harness.child(src, CHILD, shape, REPEAT))
        row = {"shape": list(lam), **harness.agreed(str(lam), runs, ("vertices", "weights", "report"))}
        composed = harness.child(trees["after"], COMPOSED, shape, tests=True)
        if composed != row["report"] or not composed[1]:
            raise SystemExit(f"{lam}: reports differ or fail: {[row['report'], composed]}")
        for side, results in runs.items():
            best = [r["best_s"] for r in results]
            row[side] = {
                "best_s": {"runs": best, **harness.quartiles(best, 4)},
                "peak_rss_mb": {stage: [r["peak_rss_mb"][stage] for r in results]
                                for stage in ("build", "check")},
            }
        row["speedup"] = round(row["before"]["best_s"]["median"] / row["after"]["best_s"]["median"], 2)
        yield row


if __name__ == "__main__":
    harness.main(
        __doc__,
        "best of `repeat` seconds of hecke.verify_hecke_relations on the same built "
        "graph in each of `rounds` rounds, for the parent's src (before) and this "
        "checkout's src (after), the sides alternating, each run in a fresh interpreter; "
        "their median and quartiles, and speedup, the ratio of the medians; peak RSS "
        "(ru_maxrss) after the build and after the checks; every report passes and equals "
        "tests/helpers.py verify_hecke_relations_composed",
        "python3 bench/hecke.py --before <parent>/src --out BENCH_hecke.json",
        rows,
        rounds=ROUNDS,
        repeat=REPEAT,
    )
