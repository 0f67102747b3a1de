"""Time kl_table(n) and its peak RSS before and after a change.

For n = 6 and 7, runs kl_table(n) on the --before source tree and on this
checkout's src, alternately, REPEAT times each.  Every run is a fresh
interpreter that reports its own seconds, ru_maxrss, number of table
entries and a SHA-256 over the sorted nonzero (y, w, mu(y, w)), read with
hecke._mu and the table's lengths after the timing and the RSS reading;
both trees must give the same number of entries and the same digest.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/kl_table.py --before /tmp/parent/src --out BENCH_kl.json
"""

from __future__ import annotations

import statistics

import harness

SIZES = (6, 7)
REPEAT = 3
CHILD = """
import hashlib, json, resource, sys, time
from wcell import hecke
start = time.perf_counter()
table = hecke.kl_table(int(sys.argv[1]))
seconds = time.perf_counter() - start
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
lengths = table.lengths
mus = sorted((y, w, m) for w, column in table.items() for y, p in column.items()
             if (m := hecke._mu(p, lengths[w] - lengths[y])))
print(json.dumps({"seconds": round(seconds, 3), "peak_rss_mb": round(rss_kb / 1024, 1),
                  "h_entries": sum(len(column) for column in table.values()),
                  "mu_sha256_16": hashlib.sha256(repr(mus).encode()).hexdigest()[:16]}))
"""


def rows(trees):
    for n in SIZES:
        runs = harness.alternate(
            trees, REPEAT, lambda src: harness.child(src, CHILD, n, WCELL_ORACLE_MAX=n)
        )
        row = {"n": n, **harness.agreed(f"n={n}", runs, ("h_entries", "mu_sha256_16"))}
        for side, results in runs.items():
            row[side] = {
                "seconds": [r["seconds"] for r in results],
                "median_s": statistics.median(r["seconds"] for r in results),
                "peak_rss_mb": [r["peak_rss_mb"] for r in results],
            }
        yield row


if __name__ == "__main__":
    harness.main(
        __doc__,
        "seconds and peak RSS (ru_maxrss of a fresh interpreter) of hecke.kl_table(n), "
        "for the parent's src (before) and this checkout's src (after), run alternately; "
        "the entry count and the digest of the nonzero mu agree on both sides",
        "python3 bench/kl_table.py --before <parent>/src --out BENCH_kl.json",
        rows,
        repeat=REPEAT,
    )
