"""A fixed reference computation that gauges how fast the host runs now.

On a shared host the speed of a core swings by a quarter or more for
minutes at a time, and CPU time swings with it. Each child runs
`reference()` once before it imports diffkit and once after the
invocation it times, and `run.py` divides every time by the mean of the
two. The computation uses
nothing from diffkit, so no change to the program can move it. It mixes
the kinds of work the program does: interpreter arithmetic, building and
reading many small objects, and numpy arrays of 256 KB. It allocates
nothing that outlives it, and little enough that it does not raise the
peak resident set size of any invocation (see README.md).
"""

import gc
import time

import numpy as np

# CPU seconds `reference()` took on the idle machine named in README.md.
# Times are reported in seconds at that speed: CPU time x REF_S / reference.
REF_S = 0.044


def reference() -> float:
    """CPU seconds that the fixed computation takes now."""
    enabled = gc.isenabled()
    gc.disable()  # a collection would walk whatever the program left alive
    c0 = time.process_time()
    acc = 0
    d = {}
    for i in range(40_000):
        acc = (acc * 31 + i) % 1_000_003
        d[i & 1023] = acc
    for j in range(4):
        rows = [(i, i * 3, str(i)) for i in range(j, 5_000 + j)]
        index = {r[0]: r for r in rows}
        acc += sum(index[k][1] for k in range(j, 5_000 + j, 3))
    a = np.arange(1 << 15, dtype=np.int64)
    for k in range(96):
        a = a + ((a * (k + 3) + acc) % 25 != 3)
    c1 = time.process_time()
    del rows, index, a
    if enabled:
        gc.enable()
    return c1 - c0
