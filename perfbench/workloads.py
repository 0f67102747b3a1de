"""Workloads of the wcell benchmark and the checks on their outputs.

An op is one CLI call, ``wcell.cli.run(argv)``; a workload is the list of
ops that make up one pass.  Every op is checked after its pass, against the
digests and counts pinned in ``pins.json`` from the seed commit.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

# Dense check_polygon is O(nv^3) in time and O(nv^2) in memory, out of reach
# at the 2310 vertices of (4,3,2,1,1), so cell-large leaves it out.
CELL_LARGE_RULES = ("admissible", "compatibility", "simplicity", "bonding", "ordered")
ALL_RULES = ("admissible", "compatibility", "simplicity", "bonding", "polygon", "ordered")

# Names of the reports `wcell verify` prints for each rule.
_REPORTS = {"polygon": ("polygon-r2", "polygon-r3")}
_REPORT_LINE = re.compile(r"^(\S+): (\S+)")

# Counts pinned per shape that the traced run can observe, keyed by the
# tracer counter that measures them.
TRACED_PINS = {
    "builder.probable_pairs.pairs": "probable_pairs",
    "builder.mu_probable.nonzero": "nonzero",
}


@dataclass(frozen=True)
class Op:
    kind: str  # "build", "verify" or "oracle": the CLI command
    argv: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]  # the shapes whose graphs the op builds or reads
    graph: str = ""  # the graph file the op writes or reads
    reports: tuple[str, ...] = ()  # the reports a verify op must print


@lru_cache(maxsize=None)
def pins() -> dict:
    return json.loads(Path(__file__).with_name("pins.json").read_text())


def shape_text(lam) -> str:
    return ",".join(map(str, lam))


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n as weakly decreasing tuples, largest first part first."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part, *rest)

    return list(rec(n, n))


def _build(lam, workdir) -> Op:
    path = str(Path(workdir) / f"{shape_text(lam)}.json")
    return Op("build", ("build", "--shape", shape_text(lam), "--out", path), (lam,), path)


def _verify(lam, workdir, rules) -> Op:
    path = str(Path(workdir) / f"{shape_text(lam)}.json")
    argv = ("verify", "--in", path, "--rules", ",".join(rules), "--hecke")
    reports = tuple(r for rule in rules for r in _REPORTS.get(rule, (rule,)))
    return Op("verify", argv, (lam,), path, reports + ("hecke-relations",))


def cell_large(seed: int, workdir) -> list[Op]:
    lam = (4, 3, 2, 1, 1)
    return [_build(lam, workdir), _verify(lam, workdir, CELL_LARGE_RULES)]


def sweep(n: int):
    """Build every partition of n, then verify each with all rules and --hecke.

    The seed only shuffles the order of the shapes.
    """

    def ops(seed: int, workdir) -> list[Op]:
        shapes = partitions(n)
        random.Random(seed).shuffle(shapes)
        return [_build(lam, workdir) for lam in shapes] + [
            _verify(lam, workdir, ALL_RULES) for lam in shapes
        ]

    return ops


def oracle(n: int):
    def ops(seed: int, workdir) -> list[Op]:
        return [Op("oracle", ("oracle", "--n", str(n)), tuple(partitions(n)))]

    return ops


WORKLOADS = {
    "cell-large": cell_large,
    "sweep-n9": sweep(9),
    "oracle-n6": oracle(6),
    # Tiny sizes for the benchmark's own tests.
    "sweep-n5": sweep(5),
    "oracle-n4": oracle(4),
}


def graph_digest(obj: dict) -> str:
    """SHA-256 over n, colours, sorted weights and labels of a graph document.

    Computed from the parsed JSON, not its bytes, so a change that only
    reformats the file keeps the digest.
    """
    rows = sorted(obj["vertices"], key=lambda r: r["id"])
    canon = {
        "n": obj["n"],
        "tau": [sorted(r["tau"]) for r in rows],
        "labels": [
            None if r.get("label") is None else [r["label"]["molecule"], r["label"]["tableau"]]
            for r in rows
        ],
        "mu": sorted([e["from"], e["to"], e["w"]] for e in obj["mu"]),
    }
    return hashlib.sha256(json.dumps(canon, separators=(",", ":")).encode()).hexdigest()


def graph_counts(path) -> dict:
    """Vertices, weights and digest of a graph file written by `wcell build`."""
    obj = json.loads(Path(path).read_text())
    return {"vertices": len(obj["vertices"]), "weights": len(obj["mu"]), "digest": graph_digest(obj)}


def check_op(op: Op, rc, stdout: str, stderr: str, error, counts=None):
    """Why the op failed, or None if its outputs are correct.

    ``counts`` holds the tracer counters the op moved, in the traced run.
    """
    if error is not None:
        return "exception: " + error.strip().splitlines()[-1]
    if rc != 0:
        return f"exit code {rc}: {(stderr or stdout).strip()[:200]}"
    if op.kind == "build":
        reason = _check_graph(op)
    elif op.kind == "verify":
        reason = _check_reports(op, stdout)
    else:
        reason = _check_oracle(op, stdout)
    if reason is None and counts is not None and op.kind != "verify":
        for counter, key in TRACED_PINS.items():
            if counter in counts:
                want = sum(pins()[shape_text(lam)][key] for lam in op.shapes)
                if counts[counter] != want:
                    return f"{counter} {counts[counter]} != pinned {want}"
    return reason


def _check_graph(op: Op):
    pinned = pins()[shape_text(op.shapes[0])]
    try:
        got = graph_counts(op.graph)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable graph {op.graph}: {exc!r}"
    for key, value in got.items():
        if value != pinned[key]:
            return f"{key} {value} != pinned {pinned[key]}"
    return None


def _check_reports(op: Op, stdout: str):
    states = {}
    for line in stdout.splitlines():
        m = _REPORT_LINE.match(line)
        if m:
            states[m.group(1)] = m.group(2)
    if sorted(states) != sorted(op.reports):
        return f"reports {sorted(states)} != expected {sorted(op.reports)}"
    failed = [name for name, state in states.items() if state != "pass"]
    return f"reports not pass: {failed}" if failed else None


def _check_oracle(op: Op, stdout: str):
    lines = set(stdout.splitlines())
    want = {f"shape {shape_text(lam)}: EQUAL" for lam in op.shapes}
    if lines != want:
        return f"oracle printed {sorted(lines - want)} and missed {sorted(want - lines)}"
    return None
