"""Time the polygon rule against the Hecke check on large built cells.

For each shape, builds the cell graph once and times, in this process:
- check_polygon r = 2 plus r = 3 of wcell.wgraph,
- the same rule in tests/helpers.py, which walks whole alternating_sums
  tables (two per generator pair, from every vertex) as the package did
  before the one-pass checker,
- verify_hecke_relations.
Every check must pass.  Each time is the smallest of three runs, except
the slow reference, which runs once.

Run from the repository root:
    PYTHONPATH=src:tests python3 bench/polygon.py --out BENCH_polygon.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import helpers
from wcell import builder, hecke
from wcell import wgraph as wg

SHAPES = ((4, 3, 2, 1), (4, 3, 2, 1, 1), (4, 3, 2, 1, 1, 1))
REPEAT = 3


def _seconds(check, g, repeat):
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        reports = check(g)
        elapsed = time.perf_counter() - start
        if not all(reports):
            raise SystemExit(f"check failed: {[r.summary() for r in reports]}")
        best = elapsed if best is None else min(best, elapsed)
    return round(best, 3)


def _polygon(check):
    return lambda g: [check(g, 2), check(g, 3)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    rows = []
    for lam in SHAPES:
        g = builder.build_cell_graph(lam)
        row = {
            "shape": list(lam),
            "vertices": g.num_vertices,
            "weights": len(g.mu),
            "polygon_r2_r3_s": {
                "before": _seconds(_polygon(helpers.check_polygon), g, 1),
                "after": _seconds(_polygon(wg.check_polygon), g, REPEAT),
            },
            "verify_hecke_relations_s": _seconds(
                lambda h: [hecke.verify_hecke_relations(h)], g, REPEAT
            ),
        }
        row["polygon_over_hecke"] = round(
            row["polygon_r2_r3_s"]["after"] / row["verify_hecke_relations_s"], 2
        )
        rows.append(row)
        print(json.dumps(row), flush=True)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    record = {
        "what": "seconds of check_polygon r2 + r3 before (tests/helpers.py reference, "
                "the former package code) and after (wcell.wgraph), and of "
                "verify_hecke_relations, on the same built graph; best of `repeat` runs "
                "(the reference runs once)",
        "command": "PYTHONPATH=src:tests python3 bench/polygon.py --out BENCH_polygon.json",
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
