"""Machine speed, measured with a fixed pure-Python loop.

On a shared machine the speed of the cores swings by a third for tens
of seconds at a time, with the process on the CPU throughout, so wall
and CPU time both follow it.  The benchmark times this loop next to the
work and multiplies each measured time by ``scale()``, the median over a
pass: the time the work would have taken had the loop run at the
reference speed.  The loop allocates no containers, so it never triggers
a garbage collection and does not depend on what the program keeps
alive.
"""

from __future__ import annotations

import time

# About what the loop takes on the 2-core machine the benchmark was
# defined on, at its faster speed; only the scale of the reported times
# depends on it.
REFERENCE_LOOP_S = 0.7e-3


def _loop() -> int:
    s = 0
    for i in range(10_000):
        s += i * i % 7
    return s


def loop_time() -> float:
    """The fastest of three runs of the loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def scale() -> float:
    """Factor turning a time measured now into reference-speed time."""
    return REFERENCE_LOOP_S / loop_time()
