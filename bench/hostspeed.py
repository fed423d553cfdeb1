"""How fast the host runs pure Python right now, gauged between operations.

The host the benchmark was built on is shared: another tenant's load slows
every operation by up to 1.9x, switching on and off within milliseconds,
in a mix that drifts over minutes.  Wall times alone then say as much about
the neighbours as about the program.

``Gauge`` runs a fixed piece of pure-Python work (``reference_rep``, the
same kind of dict, set and tuple work as the program's inner loops) between
operations, for a fixed share of the time the operations took, so its
samples are spread over the same stretch of time as the operations.  The
mean time of one rep over a stretch, against ``REFERENCE_REP_S``, is the
slowdown the host imposed on that stretch.  Dividing an operation's wall
time by the slowdown around it gives its time on the reference host with a
core to itself.

The gauge never calls the program, so a change to the program cannot move
it; it runs with the garbage collector off, so the size of the program's
heap cannot move it either.
"""

from __future__ import annotations

import bisect
import gc
import time

# One rep on an idle core of the reference host: the fastest of 3000 reps
# on a shared 2-vCPU Intel Xeon, Python 3.11.7, was 499 us.
REFERENCE_REP_S = 0.0005
_EDGES = 80


def reference_rep() -> int:
    """Greedy edge coloring of a fixed bipartite graph with 80 edges."""
    adj: dict[int, set[int]] = {}
    for i in range(_EDGES):
        u, v = i % 13, (i * 7 + 3) % 17 + 13
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    color: dict[tuple[int, int], int] = {}
    for u in sorted(adj):
        for w in sorted(adj[u]):
            e = (u, w) if u < w else (w, u)
            if e in color:
                continue
            taken = {color.get((min(u, x), max(u, x))) for x in adj[u]}
            taken |= {color.get((min(w, x), max(w, x))) for x in adj[w]}
            c = 1
            while c in taken:
                c += 1
            color[e] = c
    return max(color.values())


class Gauge:
    """Reps of the reference work, kept to ``share`` of the busy time.

    Each rep is kept with the time it ended, so that an operation can be
    divided by the slowdown of the reps around it, not only by the mean
    over a whole pass: the host's slowdown drifts within seconds.
    """

    def __init__(self, share: float):
        self.share = share
        self.reset()

    def reset(self) -> None:
        self.reps = 0
        self.seconds = 0.0
        self._ends: list[float] = []     # perf_counter() when each rep ended
        self._sums = [0.0]               # running sum of rep times

    def keep_up(self, busy_s: float) -> None:
        """Run reps until they add up to ``share`` of ``busy_s`` (at least one)."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            while self.reps == 0 or self.seconds < self.share * busy_s:
                t0 = time.perf_counter()
                reference_rep()
                t1 = time.perf_counter()
                self.seconds += t1 - t0
                self.reps += 1
                self._ends.append(t1)
                self._sums.append(self.seconds)
        finally:
            if was_enabled:
                gc.enable()

    def slowdown(self) -> float:
        """Mean rep time since the last reset, over the reference rep time."""
        return self.seconds / self.reps / REFERENCE_REP_S

    def slowdown_around(self, start: float, end: float, margin: float) -> float:
        """Slowdown of the reps that ended within ``margin`` s of [start, end].

        Falls back to ``slowdown()`` when no rep ended there.
        """
        lo = bisect.bisect_left(self._ends, start - margin)
        hi = bisect.bisect_right(self._ends, end + margin)
        if hi == lo:
            return self.slowdown()
        return (self._sums[hi] - self._sums[lo]) / (hi - lo) / REFERENCE_REP_S
