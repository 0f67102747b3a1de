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

import time

import harness
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


def rows(_trees):
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
        yield row


if __name__ == "__main__":
    harness.main(
        __doc__,
        "seconds of check_polygon r2 + r3 before (tests/helpers.py reference, "
        "the former package code) and after (wcell.wgraph), and of "
        "verify_hecke_relations, on the same built graph; best of `repeat` runs "
        "(the reference runs once)",
        "PYTHONPATH=src:tests python3 bench/polygon.py --out BENCH_polygon.json",
        rows,
        before=False,
        repeat=REPEAT,
    )
