"""Time the KL oracle on every shape of n, and its peak RSS, before and after a change.

For n = 6, 7 and 8, runs kl_left_cell_graph(lam) for every partition lam of
n, on the --before source tree and on this checkout's src, alternately,
REPEAT times each.  Every run is a fresh interpreter that reports its own
seconds, ru_maxrss, the KL columns it made (calls of _Columns.__missing__)
and a digest of the graphs; both trees must give the same digest.  As
`wcell oracle` does, the run shares one column store, kl_columns(n, ()),
across the shapes; on a tree whose kl_left_cell_graph takes no store it
calls kl_left_cell_graph(lam) alone, with a fresh store for each shape.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/oracle.py --before /tmp/parent/src --out BENCH_oracle.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIZES = (6, 7, 8)
REPEAT = 3
CHILD = """
import hashlib, inspect, resource, sys, time
from wcell import hecke, tableaux as tb
n = int(sys.argv[1])
made = 0
make = hecke._Columns.__missing__

def counted(self, w):
    global made
    made += 1
    return make(self, w)

hecke._Columns.__missing__ = counted
shapes = tb.partitions_of(n)
shared = "columns" in inspect.signature(hecke.kl_left_cell_graph).parameters
start = time.perf_counter()
if shared:
    columns = hecke.kl_columns(n, ())
    graphs = [hecke.kl_left_cell_graph(lam, columns) for lam in shapes]
else:
    graphs = [hecke.kl_left_cell_graph(lam) for lam in shapes]
seconds = time.perf_counter() - start
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
digest = hashlib.sha256(repr([(g.tau, sorted(g.mu.items())) for g in graphs]).encode()).hexdigest()
print(seconds, rss_kb, made, int(shared), digest[:16])
"""


def _run(src: str, n: int):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), WCELL_ORACLE_MAX=str(n))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(n)], env=env, capture_output=True, text=True, check=True
    )
    seconds, rss_kb, made, shared, digest = out.stdout.split()
    return round(float(seconds), 3), round(int(rss_kb) / 1024, 1), int(made), shared == "1", digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the parent commit")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    rows = []
    for n in SIZES:
        trees = {"before": args.before, "after": "src"}
        runs = {side: [] for side in trees}
        for _ in range(REPEAT):
            for side, src in trees.items():
                runs[side].append(_run(src, n))
        digests = {d for side in runs.values() for *_rest, d in side}
        if len(digests) != 1:
            raise SystemExit(f"n={n}: the runs disagree on the graphs {digests}")
        row = {"n": n, "graphs_sha256_16": digests.pop()}
        for side, results in runs.items():
            row[side] = {
                "seconds": [s for s, *_rest in results],
                "median_s": statistics.median(s for s, *_rest in results),
                "peak_rss_mb": [r for _s, r, *_rest in results],
                "columns_made": results[0][2],
                "one_store_for_all_shapes": results[0][3],
            }
        rows.append(row)
        print(json.dumps(row), flush=True)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    record = {
        "what": "seconds and peak RSS (ru_maxrss of a fresh interpreter) of "
                "hecke.kl_left_cell_graph on every partition of n, and the KL columns made "
                "(with one store for all shapes where the tree takes one), for the parent's src "
                "(before) and this checkout's src (after), run alternately",
        "command": "python3 bench/oracle.py --before <parent>/src --out BENCH_oracle.json",
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
