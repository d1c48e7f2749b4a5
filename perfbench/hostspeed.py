"""Pairing each timing with a fixed reference loop, to cancel host speed.

The benchmark runs on a small virtual machine whose cores other tenants
share, and the host's speed is not constant: the loop in ``probe`` takes
about 1.2 ms at one moment and 2.4 ms a fraction of a second later, and
the share of slow moments drifts over minutes.  A timing of the
translation DP taken alone moves with it.  Over six 30-second runs of
``table2`` on a 2-vCPU Xeon host, the median latency's interquartile
range was 25% of the median and the 95th percentile's 30%.

So each timed call (a translation, a served request, a set-up) is
paired with ``probe``, run just before it while the program is idle,
and the call's time is scaled by ``REFERENCE_S`` over the probe's time:
the time the call would take on a host that runs the probe in
``REFERENCE_S``.  On the same six runs the
paired median's interquartile range was 4% and the 95th percentile's 3%.
Scaling a whole run by the median of its probes does not work (36%):
the ratio holds only for a probe and a call taken at the same moment.

The probe is fixed code that calls nothing in the program, so a change
to the program moves the paired times as it moves the wall times.  Any
change to ``probe`` or ``REFERENCE_S`` rescales every paired metric and
redefines the benchmark.
"""

from __future__ import annotations

import time

# The probe's time when the host runs at full speed: the fastest probes
# on a 2.1 GHz Xeon vCPU took 1.15-1.24 ms.
REFERENCE_S = 0.0012


def probe() -> float:
    """Run the reference loop once and return its wall time in seconds."""
    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    total = 0
    for i in range(4000):
        key = "k%d" % (i % 97)
        counts[key] = counts.get(key, 0) + i
        total += len(key) * i % 13
    return time.perf_counter() - t0


def paired(seconds: float, probe_s: float) -> float:
    """``seconds`` measured right after a probe that took ``probe_s``,
    scaled to the reference host."""
    return seconds * REFERENCE_S / probe_s
