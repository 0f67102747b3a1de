"""Time writing and reading graph documents before and after a change.

For each shape, runs one child on the --before source tree and one on this
checkout's src, alternately, REPEAT times each.  Every child is a fresh
interpreter that builds the cell once with build_cell_graph (not timed),
then streams wgraph.json_chunks to a file the way `wcell build` does
(write seconds), reads the file back with wgraph.from_json_str (read
seconds) and reports the SHA-256 of the written bytes and the peak RSS
(ru_maxrss) after the build, the write and the read.  Both trees must write
the same bytes, the reloaded graph must write them again, and the digests
must equal PINNED.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/io.py --before /tmp/parent/src --out BENCH_io.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

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
    "write_s": write_s, "read_s": read_s, "bytes": len(text),
    "weights": len(h.mu), "peak_rss_mb": dict(zip(("build", "write", "read"), rss)),
    "digest": hashlib.sha256(text.encode()).hexdigest(),
}))
"""


def _run(src: str, lam) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, ",".join(map(str, lam))],
        env=env, capture_output=True, text=True, check=True,
    )
    run = json.loads(out.stdout)
    for key in ("write_s", "read_s"):
        run[key] = round(run[key], 4)
    run["peak_rss_mb"] = {k: round(v, 1) for k, v in run["peak_rss_mb"].items()}
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the parent commit")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    trees = {"before": args.before, "after": "src"}
    rows = []
    for lam in SHAPES:
        runs = {side: [] for side in trees}
        for k in range(REPEAT):
            # alternate which tree runs first
            for side in sorted(trees, reverse=k % 2 == 1):
                runs[side].append(_run(trees[side], lam))
        fixed = {
            key: {r[key] for side in runs.values() for r in side}
            for key in ("digest", "bytes", "weights")
        }
        for key, values in fixed.items():
            if len(values) != 1:
                raise SystemExit(f"{lam}: the trees disagree on {key}: {values}")
        row = {"shape": list(lam), **{key: values.pop() for key, values in fixed.items()}}
        if row["digest"] != PINNED[lam]:
            raise SystemExit(f"{lam}: digest {row['digest']} differs from the pinned one")
        for side, results in runs.items():
            row[side] = {
                key: [r[key] for r in results] for key in ("write_s", "read_s")
            }
            row[side].update(
                {f"median_{key}": statistics.median(row[side][key]) for key in ("write_s", "read_s")}
            )
            row[side]["peak_rss_mb"] = {
                stage: [r["peak_rss_mb"][stage] for r in results]
                for stage in ("build", "write", "read")
            }
        for key in ("write_s", "read_s"):
            row[f"{key[:-2]}_speedup"] = round(
                row["before"][f"median_{key}"] / row["after"][f"median_{key}"], 2
            )
        rows.append(row)
        print(json.dumps(row), flush=True)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    record = {
        "what": "seconds to stream wgraph.json_chunks to a file and to load it with "
                "wgraph.from_json_str, and peak RSS (ru_maxrss) after the build, the write and "
                "the read, in a fresh interpreter, for the parent's src (before) and this "
                "checkout's src (after), run alternately; both write the same bytes",
        "command": "python3 bench/io.py --before <parent>/src --out BENCH_io.json",
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
