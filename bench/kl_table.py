"""Time kl_table(n) and its peak RSS before and after a change.

For n = 6 and 7, runs kl_table(n) on the --before source tree and on this
checkout's src, alternately, REPEAT times each.  Every run is a fresh
interpreter that reports its own seconds, ru_maxrss and number of table
entries; both trees must give the same number of entries.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/kl_table.py --before /tmp/parent/src --out BENCH_kl.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIZES = (6, 7)
REPEAT = 3
CHILD = """
import resource, sys, time
from wcell import hecke
start = time.perf_counter()
table = hecke.kl_table(int(sys.argv[1]))
seconds = time.perf_counter() - start
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
columns = getattr(table, "h", table)  # KLTable.h on trees that still have KLTable
print(seconds, rss_kb, sum(len(column) for column in columns.values()))
"""


def _run(src: str, n: int):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), WCELL_ORACLE_MAX=str(n))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(n)], env=env, capture_output=True, text=True, check=True
    )
    seconds, rss_kb, entries = out.stdout.split()
    return round(float(seconds), 3), round(int(rss_kb) / 1024, 1), int(entries)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the parent commit")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    trees = {"before": args.before, "after": "src"}
    rows = []
    for n in SIZES:
        runs = {side: [] for side in trees}
        for _ in range(REPEAT):
            for side, src in trees.items():
                runs[side].append(_run(src, n))
        entries = {e for side in runs.values() for _s, _r, e in side}
        if len(entries) != 1:
            raise SystemExit(f"n={n}: the trees disagree on the number of entries {entries}")
        row = {"n": n, "h_entries": entries.pop()}
        for side, results in runs.items():
            row[side] = {
                "seconds": [s for s, _r, _e in results],
                "median_s": statistics.median(s for s, _r, _e in results),
                "peak_rss_mb": [r for _s, r, _e in results],
            }
        rows.append(row)
        print(json.dumps(row), flush=True)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    record = {
        "what": "seconds and peak RSS (ru_maxrss of a fresh interpreter) of hecke.kl_table(n), "
                "for the parent's src (before) and this checkout's src (after), run alternately",
        "command": "python3 bench/kl_table.py --before <parent>/src --out BENCH_kl.json",
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
