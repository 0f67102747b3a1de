"""Time the rule checkers of a parent source tree and of this checkout.

For each case, runs ROUNDS rounds of one child on the --before source tree
and one on this checkout's src, the sides alternating which goes first.
A case is one built cell, or every shape of n = 9.  Every child is a fresh
interpreter that builds its graphs once (not timed), then times
wgraph.run_checks on each graph for every rule alone, for the five local
rules together ("local", the rules of a `cell-large` verify) and for every
rule ("all"), each the best of the case's repetitions.  Each timed call
makes, inside the timer, a new graph from the built graph's weight dict,
its labels and one new colour frozenset a vertex, made outside the timer
as the document loader makes them.  The graph keeps the weight dict it is
handed, so the timed construction pays only for the colour masks and the
scan for zero weights, as `wcell verify` pays them after reading a
document.  The child also checks, untimed, a corrupted copy of each graph,
one of its simple-edge weights doubled, and reports both graphs' reports.
Each side's row keeps every round's best time with their median and
quartiles; speedup is the ratio of the two medians, so read it
against the quartiles.  The program stops with exit status 1, and writes
no record, at the first case where the built graphs' reports do not all
pass or the two sides' reports differ.

Run from the repository root, with the parent commit's tree unpacked
somewhere, for example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/rules.py --before /tmp/parent/src --out BENCH_rules.json
"""

from __future__ import annotations

import harness

# (case, repetitions a round): (5,4,2,1,1), 21450 vertices, is timed once
CASES = (("4,3,2,1", 3), ("4,3,2,1,1", 3), ("4,3,2,1,1,1", 3), ("n=9", 3), ("5,4,2,1,1", 1))
ROUNDS = 5
LOCAL = ("admissible", "compatibility", "simplicity", "bonding", "ordered")
CHILD = """
import json, sys, time
from wcell import builder, tableaux as tb, wgraph as wg

case, repeat = sys.argv[1], int(sys.argv[2])
shapes = tb.partitions_of(9) if case == "n=9" else [tuple(map(int, case.split(",")))]
graphs = [builder.build_cell_graph(lam) for lam in shapes]
timed = [(rule, (rule,)) for rule in wg.ALL_RULES]
timed += [("local", tuple(sys.argv[3].split(","))), ("all", wg.ALL_RULES)]
best = dict.fromkeys([name for name, _ in timed], 0.0)


def text(reports):
    return [[r.rule, r.ok, [list(map(str, w)) for w in r.violations]] for r in reports]


reports, failing = [], []
for g in graphs:
    for name, rules in timed:
        times = []
        for _ in range(repeat):
            tau = [frozenset(sorted(s)) for s in g.tau]
            start = time.perf_counter()
            out = wg.run_checks(wg.SColoredGraph(g.n, tau, g.mu, g.labels), rules)
            times.append(time.perf_counter() - start)
        best[name] += min(times)
    reports += text(out)
    mu = dict(g.mu)
    edge = min((key for key in mu if key[::-1] in mu), default=None)
    if edge is not None:
        mu[edge] = 2
        failing += text(wg.run_checks(wg.SColoredGraph(g.n, g.tau, mu, g.labels)))
print(json.dumps({
    "graphs": len(graphs), "vertices": sum(g.num_vertices for g in graphs),
    "weights": sum(len(g.mu) for g in graphs),
    "seconds": {name: round(s, 5) for name, s in best.items()},
    "reports": reports, "failing": failing,
}))
"""


def rows(trees):
    for case, repeat in CASES:
        runs = harness.alternate(
            trees, ROUNDS, lambda src: harness.child(src, CHILD, case, repeat, ",".join(LOCAL))
        )
        shared = harness.agreed(case, runs, ("graphs", "vertices", "weights", "reports", "failing"))
        reports, failing = shared.pop("reports"), shared.pop("failing")
        if not all(ok for _, ok, _ in reports):
            raise SystemExit(f"{case}: a report fails: {reports}")
        row = {"case": case, "repeat": repeat, **shared, "reports_passed": len(reports),
               "corrupted_reports_failed": sum(not ok for _, ok, _ in failing)}
        for name in runs["after"][0]["seconds"]:
            times = {side: [r["seconds"][name] for r in results] for side, results in runs.items()}
            row[name] = {side: {"best": t, **harness.quartiles(t)} for side, t in times.items()}
            row[name]["speedup"] = round(
                row[name]["before"]["median"] / row[name]["after"]["median"], 2
            )
        yield row


if __name__ == "__main__":
    harness.main(
        __doc__,
        "best of `repeat` seconds of wgraph.run_checks(g, rules) for each rule alone, "
        "for the five local rules together (local) and for every rule (all), each timed "
        "call including the construction of a new graph from the built graph's weight "
        "dict and one new colour frozenset a vertex, made outside the timer as the "
        "document loader makes them, which pays only for the colour masks and the scan "
        "for zero weights, summed over the "
        "graphs of the case (one shape, or all 30 of n = 9), in each of `rounds` rounds, "
        "for the parent's src (before) and this checkout's src (after), the sides "
        "alternating, each run in a fresh interpreter; every round's best with their "
        "median and quartiles, and speedup, the ratio of the medians; every built graph's "
        "reports pass, and both sides give the same reports, also on a copy of each graph "
        "with one simple-edge weight doubled",
        "python3 bench/rules.py --before <parent>/src --out BENCH_rules.json",
        rows,
        rounds=ROUNDS,
        local=list(LOCAL),
    )
