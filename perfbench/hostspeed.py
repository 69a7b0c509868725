"""How fast the host runs while a timed section runs.

The benchmark's host is a share of a machine whose speed drifts by tens
of percent over seconds to minutes (the same pure-Python loop takes 1 ms
or 2 ms depending on the neighbours).  A `Sampler` runs a fixed probe
every `INTERVAL_S` on a timer signal, inside the timed section, so the
probes see the same host as the code between them.  `normalised` turns
the section's time into seconds on a host where the probe takes
`NOMINAL_PROBE_S`: the section's time without the probes, times
`NOMINAL_PROBE_S` over the mean probe time.  The probe uses nothing from
the library, so a faster or slower library shows in full.

Only the standard library is imported here, so a fresh interpreter can
start sampling before it imports anything else.
"""

from __future__ import annotations

import random
import signal
import time

INTERVAL_S = 0.1
NOMINAL_PROBE_S = 1e-3

# A pattern table the size of a depth-15 psi table (a few MB), read in a
# fixed shuffled order so the probe also feels contention for the caches.
_rnd = random.Random(0x5EED)
_TABLE = {format(i * 40503 & 0x7FFF, "015b").translate(str.maketrans("01", "ab")) + str(i): float(i)
          for i in range(1 << 15)}
_READS = _rnd.sample(sorted(_TABLE), 3000)


def probe() -> float:
    """A fixed dictionary-and-arithmetic loop plus scattered reads of a
    large table: the kind of work the library's dynamic programmes do
    between numpy calls."""
    d: dict = {}
    s = 0.0
    for i in range(4000):
        k = i & 255
        d[k] = d.get(k, 0.0) + i * 0.5
        s += (k * 3 + 1) % 7
    for key in _READS:
        s += _TABLE[key]
    return s


def _timed_probe() -> tuple:
    """(start, end) of one probe, in perf_counter seconds."""
    t0 = time.perf_counter()
    probe()
    return t0, time.perf_counter()


class Sampler:
    """Context manager: probes taken on SIGALRM while the block runs
    (`probes[1:-1]`, whose time is not the block's own) between one probe
    just before and one just after it; each is a (start, end) pair."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.probes: list = []

    def _tick(self, signum, frame):
        self.probes.append(_timed_probe())

    def __enter__(self):
        self.probes = [_timed_probe()]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.probes.append(_timed_probe())
        return False

    def inside_seconds(self) -> float:
        return sum(end - start for start, end in self.probes[1:-1])

    def mean_probe(self) -> float:
        """Probe time averaged over the block's own time: between two
        consecutive probes the host is as fast as the mean of their times.  A
        long numpy call delays the next probe, and the gap's weight
        counts it in full."""
        total = weight = 0.0
        for (s0, e0), (s1, e1) in zip(self.probes, self.probes[1:]):
            gap = s1 - e0
            total += gap * ((e0 - s0) + (e1 - s1)) / 2
            weight += gap
        return total / weight

    def normalised(self, seconds: float) -> float:
        """`seconds`, measured around the block, without the probes inside
        it and rescaled to a host where the probe takes NOMINAL_PROBE_S."""
        return (seconds - self.inside_seconds()) * NOMINAL_PROBE_S / self.mean_probe()
