"""Order statistics and host-speed normalisation for the reported timings."""

from __future__ import annotations

import statistics
import time

TAIL_BEYOND = 10  # samples a reported tail must have beyond it

# Nominal time of speed_probe(); timings are reported at this host speed.
PROBE_REF_S = 0.010


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work that
    does not touch walktest.

    Shared hosts change speed by tens of percent over seconds; the same
    work timed in one 20 s window can read 1.4x another.  An op's time
    divided by the probe times taken just before and after it changes
    far less, so timings are reported as seconds * PROBE_REF_S / probe."""
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(12345, spawn_key=(1,)))
    x = rng.random(200_000)
    np.sort(x)
    s = 0
    d = {}
    for i in range(30_000):
        s += i * i
        d[i & 1023] = s
    tuple(sorted(set(int(v) for v in x[:20_000] * 1000)))
    return time.perf_counter() - t0


def normalised(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * PROBE_REF_S / (0.5 * (probe_before + probe_after))


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that has at
    least TAIL_BEYOND samples beyond it.

    With n samples that is the nearest-rank percentile 100 * (n - 10) / n:
    the value with exactly ten larger ranks above it.  Below 2 * TAIL_BEYOND
    samples that percentile would fall under the median, so the median is
    reported as the tail.  The rule is continuous in n: at n = 20 both give
    the 10th of 20 ranks."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * TAIL_BEYOND:
        return median(xs), 50.0, n
    return float(xs[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n, n
