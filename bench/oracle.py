"""Time the KL oracle on every shape of n, and its peak RSS, before and after a change.

For n = 6, 7 and 8, runs kl_left_cell_graph(lam, columns) for every
partition lam of n, on the --before source tree and on this checkout's src,
ROUNDS rounds, the sides alternating which goes first.  As `wcell oracle`
does, the run makes one column store, columns = kl_columns(n, ()), which
checks the oracle bound, and shares it across the shapes.  Every run is a
fresh interpreter that reports its own seconds, ru_maxrss, the KL columns
it made (calls of _Columns.__missing__) and a digest of the graphs; every
run of both trees must give the same digest and column count.  Each side's
row keeps every run's seconds and peak RSS with their median and quartiles.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/oracle.py --before /tmp/parent/src --out BENCH_oracle.json
"""

from __future__ import annotations

import harness

SIZES = (6, 7, 8)
ROUNDS = 5
CHILD = """
import hashlib, json, resource, sys, time
from wcell import hecke, tableaux as tb
n = int(sys.argv[1])
made = 0
make = hecke._Columns.__missing__

def counted(self, w):
    global made
    made += 1
    return make(self, w)

hecke._Columns.__missing__ = counted
start = time.perf_counter()
columns = hecke.kl_columns(n, ())
graphs = [hecke.kl_left_cell_graph(lam, columns) for lam in tb.partitions_of(n)]
seconds = time.perf_counter() - start
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
digest = hashlib.sha256(repr([(g.tau, sorted(g.mu.items())) for g in graphs]).encode()).hexdigest()
print(json.dumps({"seconds": round(seconds, 3), "peak_rss_mb": round(rss_kb / 1024, 1),
                  "columns_made": made, "graphs_sha256_16": digest[:16]}))
"""


def rows(trees):
    for n in SIZES:
        runs = harness.alternate(
            trees, ROUNDS, lambda src: harness.child(src, CHILD, n, WCELL_ORACLE_MAX=n)
        )
        row = {"n": n, **harness.agreed(f"n={n}", runs, ("graphs_sha256_16", "columns_made"))}
        for key in ("seconds", "peak_rss_mb"):
            row[key] = {side: {"runs": [r[key] for r in results],
                               **harness.quartiles([r[key] for r in results], 3)}
                        for side, results in runs.items()}
        yield row


if __name__ == "__main__":
    harness.main(
        __doc__,
        "seconds and peak RSS (ru_maxrss of a fresh interpreter) of hecke.kl_left_cell_graph "
        "on every partition of n, with the KL columns made in one store shared by the shapes, "
        "for the parent's src (before) and this checkout's src (after), in each of `rounds` "
        "rounds, the sides alternating; every run with the median and quartiles of each side; "
        "the graph digest and the columns made agree on both sides",
        "python3 bench/oracle.py --before <parent>/src --out BENCH_oracle.json",
        rows,
        rounds=ROUNDS,
    )
