"""A fixed pure-Python routine that measures how fast the host runs now.

The hosts this benchmark runs on are shared, and their speed drifts
within seconds: over one minute, a routine's median time per two-second
window ranged from 0.55 to 1.03 times its nominal time, and between the
start and the end of one 2-second operation it can double.  The
end-to-end times of a run are therefore scaled to a nominal host.
While a timed operation runs, :class:`Sampler` runs the routine from a
timer signal every :data:`INTERVAL_S`; the operation's wall time, less
the samples' own time, is divided by the samples' trimmed mean over
:data:`NOMINAL_S`.  ``setup_s`` is divided by the mean of a
:func:`sample` right before its interpreter starts and one right after
set-up.  ``README.md`` gives the spreads between runs with and without
this scaling.  The routine does the kind of work the library does —
dictionaries, tuples, a heap, small objects with slots, a keyed sort —
and none of the library's code, so a change to the program never moves
it.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from typing import Dict, List, Tuple

#: The routine's time on the host the bounds were set on; scaled
#: results read as if measured there.
NOMINAL_S = 0.00082
#: Seconds between two samples while an operation runs; one sample
#: takes about 3 % of it.
INTERVAL_S = 0.05

_NODES = 300
_rng = random.Random(0)
_GRAPH: Dict[int, List[Tuple[int, float]]] = {
    node: [(_rng.randrange(_NODES), _rng.random()) for _ in range(4)]
    for node in range(_NODES)
}


class _Node:
    __slots__ = ("name", "dist", "prev")

    def __init__(self, name: int) -> None:
        self.name = name
        self.dist = float("inf")
        self.prev = None


def run_once() -> float:
    """Shortest paths over a fixed random graph; its wall time in s."""
    started = time.perf_counter()
    nodes = {name: _Node(name) for name in _GRAPH}
    nodes[0].dist = 0.0
    heap = [(0.0, 0)]
    done = set()
    while heap:
        dist, name = heapq.heappop(heap)
        if name in done:
            continue
        done.add(name)
        for succ, weight in _GRAPH[name]:
            candidate = dist + weight
            if candidate < nodes[succ].dist:
                nodes[succ].dist = candidate
                nodes[succ].prev = name
                heapq.heappush(heap, (candidate, succ))
    sorted(nodes.values(), key=lambda node: (node.dist, node.name))
    return time.perf_counter() - started


def sample(runs: int = 25) -> float:
    """The host's slowdown now: the median of ``runs`` routine times."""
    return statistics.median(run_once() for _ in range(runs)) / NOMINAL_S


class Sampler:
    """The host's slowdown over the code run inside ``with``.

    A timer signal runs the routine every :data:`INTERVAL_S`, with the
    garbage collector off so that a collection of the code's garbage is
    not charged to the sample; ``spent`` is the samples' own time,
    which the caller takes off its wall time.  Samples are taken right
    before and right after, too, so that short code has some.
    """

    def __enter__(self) -> "Sampler":
        self.times = [run_once()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.times.append(run_once())

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            # The code just run has evicted the routine's data; a first
            # run brings it back, so that the timed one does not depend
            # on how much memory that code touches.
            run_once()
            self.times.append(run_once())
        finally:
            if enabled:
                gc.enable()
        self.spent += time.perf_counter() - started

    def slowdown(self) -> float:
        """The samples' mean over nominal, a tenth cut from each end."""
        times = sorted(self.times)
        cut = len(times) // 10
        return statistics.mean(times[cut:len(times) - cut]) / NOMINAL_S
