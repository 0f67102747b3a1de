"""Time the per-pair phase of build_cell_graph before and after a change.

For each shape, runs one child on the --before source tree and one on this
checkout's src, alternately, REPEAT times each.  Every child is a fresh
interpreter that builds the cell once with build_cell_graph (seconds, peak
RSS and the SHA-256 of to_json_str), then runs the phases one at a time:
enumerate_std, cell_index, probable_pairs and the mu_probable loop, which
evaluates the pairs build_cell_graph evaluates, those of opposite parity.
Each side's row keeps every run's seconds of each phase with their median
and quartiles; build_speedup is the ratio of the two medians of the whole
build, so read it against the quartiles.  Both trees must give the same
digest, probable pairs and nonzero weights, and the digests of the two
large shapes must equal PINNED.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/per_pair.py --before /tmp/parent/src --out BENCH_pairs.json
"""

from __future__ import annotations

import harness

SHAPES = ((4, 3, 2, 1, 1), (4, 3, 2, 1, 1, 1), (5, 3, 2, 1, 1, 1))
REPEAT = 3
# SHA-256 of to_json_str, taken before the bipartite cut: both trees must give it
PINNED = {
    (4, 3, 2, 1, 1, 1): "37a2898aae669b964a04c156a0765ed8f99ca47992cd861e144e9a8da380500f",
    (5, 3, 2, 1, 1, 1): "29bfe7e1097f2b3ee276516426b9e08ad1a5300fd3da90f62c5e1db56567b8b7",
}
CHILD = """
import hashlib, json, resource, sys, time
from wcell import builder, tableaux as tb, wgraph as wg
lam = tuple(map(int, sys.argv[1].split(",")))
start = time.perf_counter()
g = builder.build_cell_graph(lam)
build_s = time.perf_counter() - start
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
digest = hashlib.sha256(wg.to_json_str(g).encode()).hexdigest()
del g
marks = [time.perf_counter()]
tabs = tuple(tb.enumerate_std(lam))
marks.append(time.perf_counter())
cell = builder.cell_index(tabs)
marks.append(time.perf_counter())
pairs = builder.probable_pairs(cell)
marks.append(time.perf_counter())
parity = cell.parity
evaluated = nonzero = 0
for iu, it in pairs:
    if parity[iu] != parity[it]:
        evaluated += 1
        w = builder.mu_probable(iu, it, cell)
        if w:
            nonzero += 1
            cell.cols[it][iu] = w
marks.append(time.perf_counter())
phases = [round(b - a, 3) for a, b in zip(marks, marks[1:])]
print(json.dumps({
    "seconds": dict(zip(("enumerate_std", "cell_index", "probable_pairs", "mu_probable"), phases),
                    build_cell_graph=round(build_s, 3)),
    "probable_pairs": len(pairs), "evaluated": evaluated, "nonzero": nonzero,
    "peak_rss_mb": round(rss_kb / 1024, 1), "digest": digest,
}))
"""


def rows(trees):
    for lam in SHAPES:
        shape = ",".join(map(str, lam))
        runs = harness.alternate(trees, REPEAT, lambda src: harness.child(src, CHILD, shape))
        row = {
            "shape": list(lam),
            **harness.agreed(str(lam), runs, ("digest", "probable_pairs", "nonzero")),
        }
        if row["digest"] != PINNED.get(lam, row["digest"]):
            raise SystemExit(f"{lam}: digest {row['digest']} differs from the pinned one")
        for side, results in runs.items():
            seconds = {}
            for phase in results[0]["seconds"]:
                times = [r["seconds"][phase] for r in results]
                seconds[phase] = {"runs": times, **harness.quartiles(times, 4)}
            row[side] = {
                "evaluated": results[0]["evaluated"],
                "seconds": seconds,
                "peak_rss_mb": [r["peak_rss_mb"] for r in results],
            }
        row["build_speedup"] = round(
            row["before"]["seconds"]["build_cell_graph"]["median"]
            / row["after"]["seconds"]["build_cell_graph"]["median"],
            2,
        )
        yield row


if __name__ == "__main__":
    harness.main(
        __doc__,
        "seconds of each phase and of the whole build_cell_graph, probable pairs, pairs "
        "evaluated, nonzero weights and peak RSS (ru_maxrss after the build, in a fresh "
        "interpreter), for the parent's src (before) and this checkout's src (after), "
        "run alternately; every run with the median and quartiles of each side, and "
        "build_speedup, the ratio of the medians of the whole build",
        "python3 bench/per_pair.py --before <parent>/src --out BENCH_pairs.json",
        rows,
        repeat=REPEAT,
    )
