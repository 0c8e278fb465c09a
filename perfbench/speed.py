"""CPU speed gauges, so that times are reported at a fixed reference speed.

The shared hosts this benchmark runs on change the speed of each core by up
to 1.7x within seconds, which no median over one run can hide.  So the
benchmark runs a fixed gauge between timed calls and divides each call's time
by the host's slowdown, the gauge's time over its time on the reference CPU
(a 2.1 GHz Xeon core with nothing else running), averaged over the gauge runs
just before and just after the call.  The result is the time the call would
take on the reference CPU.

Contention slows different kinds of work by different amounts, so there are
two gauges, and each workload uses the one that resembles it:

- ``loop``: a pure-Python two-pointer scan over sorted floats, the inner loop
  of the Euler gap DP.  It needs no imports, so it can also run in a fresh
  interpreter before anything is imported.
- ``numpy``: Philox generators built from a key, with a few draws sorted and
  turned into floats: the per-trial setup that dominates small-n censuses.
"""
from __future__ import annotations

from time import perf_counter

# 2000 well-spread points from the golden-ratio sequence.
_POINTS = sorted((i * 0.6180339887498949) % 1.0 for i in range(2000))


def loop_seconds() -> float:
    xs = _POINTS
    n = len(xs)
    start = perf_counter()
    for _ in range(18):
        e = 0
        for i in range(n):
            if e < i + 1:
                e = i + 1
            while e < n and xs[e] - xs[i] <= 0.01:
                e += 1
    return perf_counter() - start


def numpy_seconds() -> float:
    import numpy as np  # not at the top: the set-up probe times numpy's import

    start = perf_counter()
    for i in range(60):
        rng = np.random.Generator(np.random.Philox(key=np.array([1, i], dtype=np.uint64)))
        [float(x) for x in np.sort(rng.random(20))]
    return perf_counter() - start


# gauge name -> (gauge, its seconds on the reference CPU)
GAUGES = {"loop": (loop_seconds, 0.003), "numpy": (numpy_seconds, 0.0008)}


def slowdown(gauge: str) -> float:
    """How many times slower than the reference CPU the host runs the named gauge now."""
    seconds, reference = GAUGES[gauge]
    return seconds() / reference
