"""Time writing and reading graph documents before and after a change.

For each case, runs one child on the --before source tree and one on this
checkout's src, alternately, REPEAT times each.  A case is one shape, or
every partition of n (the documents `wcell build` writes in a sweep of n).
Every child is a fresh interpreter that, for each shape of the case, builds
the cell with build_cell_graph (not timed), then streams wgraph.json_chunks
to a file the way `wcell build` does (write seconds), reads the file back
with wgraph.from_json_str (read seconds); it reports the seconds summed over
the shapes, one SHA-256 over the written byte streams in turn, and the peak
RSS (ru_maxrss) after the last build, write and read.  Each side's row keeps
every run's seconds with their median and quartiles; a speedup is the ratio
of the two medians, so read it against the quartiles.  Both trees must write
the same bytes, the reloaded graph must write them again, and the digests
must equal PINNED.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/io.py --before /tmp/parent/src --out BENCH_io.json
"""

from __future__ import annotations

import harness

CASES = ((4, 3, 2, 1, 1), (4, 3, 2, 1, 1, 1), 9)  # a shape, or n for every partition of n
REPEAT = 5
# SHA-256 of to_json_str, the figures bench/per_pair.py pins for the two
# shapes; for n = 9, of the 30 documents in the order of partitions_of(9)
PINNED = {
    (4, 3, 2, 1, 1): "b3221f9697242b2afcc07b9bd6573af62bfe0c4f0afeb963053b5f9a545dd94a",
    (4, 3, 2, 1, 1, 1): "37a2898aae669b964a04c156a0765ed8f99ca47992cd861e144e9a8da380500f",
    9: "41fe6b6b979e6e5a416e0177761112c283b314dc46fff013a621313d4481874f",
}
CHILD = """
import hashlib, json, os, resource, sys, tempfile, time
from wcell import builder, tableaux as tb, wgraph as wg

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

case = sys.argv[1]
shapes = tb.partitions_of(int(case)) if "," not in case else [tuple(map(int, case.split(",")))]
digest, write_s, read_s, size, weights = hashlib.sha256(), 0.0, 0.0, 0, 0
for lam in shapes:
    g = builder.build_cell_graph(lam)
    rss = [rss_mb()]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        start = time.perf_counter()
        with open(path, "w") as fh:
            fh.writelines(wg.json_chunks(g))
        write_s += time.perf_counter() - start
        rss.append(rss_mb())
        with open(path) as fh:
            text = fh.read()
    del g
    start = time.perf_counter()
    h = wg.from_json_str(text)
    read_s += time.perf_counter() - start
    rss.append(rss_mb())
    assert wg.to_json_str(h) == text, "the reloaded graph writes other bytes"
    digest.update(text.encode())
    size, weights = size + len(text), weights + len(h.mu)
    del h
print(json.dumps({
    "write_s": round(write_s, 4), "read_s": round(read_s, 4),
    "bytes": size, "weights": weights,
    "peak_rss_mb": {stage: round(mb, 1) for stage, mb in zip(("build", "write", "read"), rss)},
    "digest": digest.hexdigest(),
}))
"""


def rows(trees):
    for case in CASES:
        arg = str(case) if isinstance(case, int) else ",".join(map(str, case))
        runs = harness.alternate(trees, REPEAT, lambda src: harness.child(src, CHILD, arg))
        where = {"n": case} if isinstance(case, int) else {"shape": list(case)}
        row = {**where, **harness.agreed(str(case), runs, ("digest", "bytes", "weights"))}
        if row["digest"] != PINNED[case]:
            raise SystemExit(f"{case}: digest {row['digest']} differs from the pinned one")
        for side, results in runs.items():
            row[side] = {}
            for key in ("write_s", "read_s"):
                times = [r[key] for r in results]
                row[side][key] = {"runs": times, **harness.quartiles(times, 4)}
            row[side]["peak_rss_mb"] = {
                stage: [r["peak_rss_mb"][stage] for r in results]
                for stage in ("build", "write", "read")
            }
        for key in ("write_s", "read_s"):
            row[f"{key[:-2]}_speedup"] = round(
                row["before"][key]["median"] / row["after"][key]["median"], 2
            )
        yield row


if __name__ == "__main__":
    harness.main(
        __doc__,
        "seconds to stream wgraph.json_chunks to a file and to load it with "
        "wgraph.from_json_str, summed over the shapes of a case (one shape, or every "
        "partition of n), and peak RSS (ru_maxrss) after the last build, write and "
        "read, in a fresh interpreter, for the parent's src (before) and this "
        "checkout's src (after), run alternately; every run with the median and quartiles "
        "of each side, and speedups, the ratios of the medians; both write the same bytes",
        "python3 bench/io.py --before <parent>/src --out BENCH_io.json",
        rows,
        repeat=REPEAT,
    )
