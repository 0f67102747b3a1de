"""The reference loop that measures how fast the machine runs right now.

On a 2-vCPU virtual machine shared with other tenants, the speed of the
same Python code changes by up to 2x, in phases from one second to a minute
long.  The benchmark therefore times this fixed pure-Python loop next to the
program and divides the program's times by the loop's.  Imports only
``time``, so that timing ``import wcell.cli`` after it stays fair.
"""

import time

# setup_s is given in seconds of a machine on which reference_loop takes this long.
NOMINAL_LOOP_S = 0.001
ITERATIONS = 1500


def reference_loop() -> int:
    """Dict, tuple and integer operations like wcell's, about 1 ms."""
    table = {}
    acc = 0
    for i in range(ITERATIONS):
        key = (i & 1023, i % 7)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key) + len(table)
    return acc


def loop_s(repeats: int = 5) -> float:
    """Median time of ``repeats`` runs of the reference loop."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[repeats // 2]
