"""Time writing and reading graph documents before and after a change.

For each shape, runs one child on the --before source tree and one on this
checkout's src, alternately, REPEAT times each.  Every child is a fresh
interpreter that builds the cell once with build_cell_graph (not timed),
then streams wgraph.json_chunks to a file the way `wcell build` does
(write seconds), reads the file back with wgraph.from_json_str (read
seconds) and reports the SHA-256 of the written bytes and the peak RSS
(ru_maxrss) after the build, the write and the read.  Each side's row keeps
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

SHAPES = ((4, 3, 2, 1, 1), (4, 3, 2, 1, 1, 1))
REPEAT = 5
# SHA-256 of to_json_str, the figures bench/per_pair.py pins for these shapes
PINNED = {
    (4, 3, 2, 1, 1): "b3221f9697242b2afcc07b9bd6573af62bfe0c4f0afeb963053b5f9a545dd94a",
    (4, 3, 2, 1, 1, 1): "37a2898aae669b964a04c156a0765ed8f99ca47992cd861e144e9a8da380500f",
}
CHILD = """
import hashlib, json, os, resource, sys, tempfile, time
from wcell import builder, wgraph as wg

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

lam = tuple(map(int, sys.argv[1].split(",")))
g = builder.build_cell_graph(lam)
rss = [rss_mb()]
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "g.json")
    start = time.perf_counter()
    with open(path, "w") as fh:
        fh.writelines(wg.json_chunks(g))
    write_s = time.perf_counter() - start
    rss.append(rss_mb())
    with open(path) as fh:
        text = fh.read()
del g
start = time.perf_counter()
h = wg.from_json_str(text)
read_s = time.perf_counter() - start
rss.append(rss_mb())
assert wg.to_json_str(h) == text, "the reloaded graph writes other bytes"
print(json.dumps({
    "write_s": round(write_s, 4), "read_s": round(read_s, 4),
    "bytes": len(text), "weights": len(h.mu),
    "peak_rss_mb": {stage: round(mb, 1) for stage, mb in zip(("build", "write", "read"), rss)},
    "digest": hashlib.sha256(text.encode()).hexdigest(),
}))
"""


def rows(trees):
    for lam in SHAPES:
        shape = ",".join(map(str, lam))
        runs = harness.alternate(trees, REPEAT, lambda src: harness.child(src, CHILD, shape))
        row = {"shape": list(lam), **harness.agreed(str(lam), runs, ("digest", "bytes", "weights"))}
        if row["digest"] != PINNED[lam]:
            raise SystemExit(f"{lam}: digest {row['digest']} differs from the pinned one")
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
        "wgraph.from_json_str, and peak RSS (ru_maxrss) after the build, the write and "
        "the read, in a fresh interpreter, for the parent's src (before) and this "
        "checkout's src (after), run alternately; every run with the median and quartiles "
        "of each side, and speedups, the ratios of the medians; both write the same bytes",
        "python3 bench/io.py --before <parent>/src --out BENCH_io.json",
        rows,
        repeat=REPEAT,
    )
