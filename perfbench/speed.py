"""Machine-speed probes, so pass times can be rescaled to a reference speed.

Single passes on a shared virtual machine drift by about ±20% within
minutes, and process CPU time drifts with wall time, so the drift is the
machine running slower, not the process waiting.  A probe times a fixed walk
of matrix mutations on nested tuples.  It is written here, independently of
``quiverperm``, so no change to the program can change it, and its mix of
small tuples, generator expressions and dict inserts slows with the machine
the way the workloads do (more closely than a plain arithmetic loop, which
misses part of the drift).  ``ProbeTimer`` runs one every ``INTERVAL_S`` of
wall time from a ``SIGALRM`` handler while a pass runs, so the probes
interleave with the pass's own bytecode.  A time rescaled by ``rescale`` is
what the pass would take with the probe running at ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

N = 5
B0 = tuple(tuple(1 if j == i + 1 else -1 if j == i - 1 else 0
                 for j in range(N)) for i in range(N))
C0 = tuple(tuple(int(i == j) for j in range(N)) for i in range(N))
WALK = tuple((7 * i + 3) % N for i in range(120))
# the probe's time on the reference machine described in NOTES.md, when
# uncontended
REFERENCE_PROBE_S = 0.0012
INTERVAL_S = 0.05


def _mutate(b, c, k):
    new_b, new_c = [], []
    for i in range(N):
        bik = b[i][k]
        if i == k:
            new_b.append(tuple(-x for x in b[i]))
            new_c.append(tuple(-x for x in c[i]))
        elif bik == 0:
            new_b.append(b[i])
            new_c.append(c[i])
        else:
            s = 1 if bik > 0 else -1
            new_b.append(tuple(-x if j == k else x + s * max(bik * b[k][j], 0)
                               for j, x in enumerate(b[i])))
            new_c.append(tuple(x + s * max(bik * c[k][j], 0)
                               for j, x in enumerate(c[i])))
    return tuple(new_b), tuple(new_c)


def probe() -> float:
    """Seconds taken by one run of the fixed mutation walk.

    The garbage collector is paused, so that a collection of the pass's own
    heap, which the probe's allocations could trigger, is not timed as
    machine speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        b, c = B0, C0
        seen = {}
        for k in WALK:
            b, c = _mutate(b, c, k)
            seen[c] = b
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probe_mean() -> float:
    """Mean of five probes."""
    return statistics.fmean(probe() for _ in range(5))


def rescale(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_PROBE_S / probe_s


class ProbeTimer:
    """Probes before, during (every ``INTERVAL_S``) and after a block.

    ``probe_s`` is the mean probe time; ``probe_total_s`` the time the
    probes inside the block took, which the caller subtracts from the
    block's duration.
    """

    def __enter__(self) -> "ProbeTimer":
        self.samples = [probe()]
        self.probe_total_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.probe_total_s += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    @property
    def probe_s(self) -> float:
        return statistics.fmean(self.samples)
