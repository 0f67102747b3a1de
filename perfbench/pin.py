"""Write pins.json: the digest and counts of the graph built for each shape.

The benchmark fails any op whose output differs from these pins.  They were
written at the seed commit, whose graphs equal the KL oracle for n <= 6 and
pass every rule and the Hecke relations; rewrite them only for a change
that is meant to alter the built graphs:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402
from workloads import TRACED_PINS, graph_counts, partitions, shape_text  # noqa: E402

from wcell import cli  # noqa: E402

SHAPES = [(4, 3, 2, 1, 1)] + [lam for n in (9, 6, 5, 4) for lam in partitions(n)]


def main() -> int:
    tracer = Tracer()
    out = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as workdir:
        for lam in SHAPES:
            path = str(Path(workdir) / "g.json")
            tracer.install()
            try:
                rc = cli.run(["build", "--shape", shape_text(lam), "--out", path])
            finally:
                tracer.uninstall()
            if rc != 0:
                raise SystemExit(f"build of {lam} exited {rc}")
            counts = graph_counts(path)
            for counter, key in TRACED_PINS.items():
                counts[key] = tracer.counts[counter]
            out[shape_text(lam)] = counts
    (HERE / "pins.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
