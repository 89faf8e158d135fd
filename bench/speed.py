"""The machine's speed, sampled while a round runs.

The benchmark's machine is a few cores of a shared host, and its speed
swings by up to 1.5x between periods a few seconds long.  A reference loop
timed once before and after a round cannot follow that.  So a probe runs a
small, fixed unit of pure-Python work (breadth-first searches of a fixed
random graph, the benchmark's own code) from a SIGPROF handler, every
``INTERVAL_S`` of the round's CPU time.  The units are then spread evenly
over the round, and their mean time is the round's mean slowness.

``clock()`` is ``time.perf_counter`` minus the time spent in the probe, so
the round's phases and operations are timed without it.  ``scale()`` turns
such a time into seconds at the reference speed, the speed at which one
unit takes ``REF_UNIT_S``.
"""

from __future__ import annotations

import random
import signal
import time

INTERVAL_S = 0.04
REF_UNIT_S = 0.003
STEP = 12

_rng = random.Random(20041101)
_N = 300
ADJ = [[] for _ in range(_N)]
for _ in range(900):
    _u, _v = _rng.randrange(_N), _rng.randrange(_N)
    if _u != _v:
        ADJ[_u].append(_v)
        ADJ[_v].append(_u)


def unit() -> int:
    """One unit of reference work: breadth-first searches from every
    STEP-th vertex, each with its distances sorted.  About 3 ms on a
    2-core virtual machine in a fast period."""
    total = 0
    for s in range(0, _N, STEP):
        dist = {s: 0}
        queue = [s]
        for x in queue:
            dx = dist[x] + 1
            for y in ADJ[x]:
                if y not in dist:
                    dist[y] = dx
                    queue.append(y)
        total += sum(sorted(dist.values()))
    return total


class Probe:
    def __init__(self):
        self.units: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        unit()
        dt = time.perf_counter() - t0
        self.units.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        if not self.units:
            self._sample()

    def clock(self) -> float:
        """perf_counter minus the probe's own time so far.  A sample taken
        between the two reads changes ``spent``; then read again."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def scale(self, seconds: float) -> float:
        """``seconds`` of this round at the reference speed."""
        return seconds * REF_UNIT_S * len(self.units) / sum(self.units)
