"""The machine-speed reference that the end-to-end times are scaled by.

A shared host's speed drifts.  On a 2-core Xeon VM with Python 3.11, the
wall_s of six 30-s runs of hilbert_singular a few minutes apart ranged
over 45% of their median; with each job time divided by the time of
loop() measured around it, over 16%.  On toric_cli the range fell from
25% to 8% of the median.

The worker times loop() after every job and after set-up.  run.py divides
each time by the median loop time of the jobs around it (WINDOW on either
side) and multiplies by NOMINAL_MS, so a time reads as it would on a
machine where loop() takes NOMINAL_MS.  loop() does what the package's
inner loops do (dot products of small integer tuples, gcd, frozensets,
sets) in code of its own, so no change to the package changes it.
"""

import math
import time
from statistics import median

NOMINAL_MS = 2.5  # about loop()'s time on that Xeon VM in a quiet minute
WINDOW = 10
SETUP_REPEATS = 5
ROWS = tuple(tuple((i * 7 + j * 13) % 11 - 5 for j in range(4)) for i in range(24))


def loop():
    seen = set()
    total = 0
    for a in ROWS:
        for b in ROWS:
            d = sum(x * y for x, y in zip(a, b))
            vec = tuple(d * x - y for x, y in zip(a, b))
            g = math.gcd(*vec)
            if g > 1:
                vec = tuple(x // g for x in vec)
            key = frozenset(i for i, x in enumerate(vec) if x > 0)
            seen.add((key, vec))
            total += len(key)
    return total, len(seen)


def measure_ms(repeats=1):
    """Median time of `repeats` runs of loop(), in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        loop()
        times.append((time.perf_counter() - start) * 1000.0)
    return median(times)


def scale_factors(refs):
    """For each loop time in `refs` (in run order), NOMINAL_MS over the
    median of the loop times within WINDOW places of it."""
    return [NOMINAL_MS / median(refs[max(i - WINDOW, 0):i + WINDOW + 1])
            for i in range(len(refs))]
