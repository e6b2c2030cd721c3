"""Host speed, measured by a fixed kernel run around every timed sample.

The benchmark runs on a shared host whose speed drifts by up to 2x over
minutes: one Figure 6 point, repeated unchanged for five minutes, took
3.5 to 5.3 s.  A timed sample is therefore bracketed by runs of a
kernel that never changes (an event loop over a heap and a sorted free
list, in pure Python, like the simulator's hot path) and scaled by how
much slower than ``REF_S`` the kernel ran around it.  Over ten seeds of
``fig6_tpsc``, scaled pass times spread 5.5% where raw ones spread
13.5%, and their median moved 2% between two sets whose kernel runs
took 177 and 244 ms (median).

A scaled time is in seconds on a host where the kernel takes ``REF_S``.
The kernel is benchmark code: a change to ``src/`` cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import random
import time

_perf = time.perf_counter

#: The kernel's time in calm stretches of the host the noise record was
#: taken on (2-vCPU Intel Xeon VM, Python 3.11.7); only a scale factor.
REF_S = 0.16


class _Event:
    __slots__ = ("at", "kind", "owner")

    def __init__(self, at: float, kind: int, owner: int) -> None:
        self.at = at
        self.kind = kind
        self.owner = owner


def kernel(steps: int = 60_000) -> int:
    """A seeded event loop: owners take and return blocks of a free list."""
    rng = random.Random(5)
    heap: list = []
    free = list(range(0, 1 << 20, 64))
    owned: dict[int, list[int]] = {}
    seq = 0
    for owner in range(2000):
        heapq.heappush(heap, (rng.random(), seq, _Event(0.0, owner % 3, owner)))
        seq += 1
    total = 0
    for _ in range(steps):
        at, _, event = heapq.heappop(heap)
        blocks = owned.setdefault(event.owner, [])
        if event.kind == 0 and free:
            index = min(bisect.bisect_left(free, rng.randrange(1 << 20)), len(free) - 1)
            blocks.append(free.pop(index))
        elif event.kind == 1 and blocks:
            bisect.insort(free, blocks.pop())
        else:
            total += sum(blocks)
        following = _Event(at + rng.random(), rng.randrange(3), event.owner)
        heapq.heappush(heap, (following.at, seq, following))
        seq += 1
    return total


def reference_s() -> float:
    """Seconds the kernel takes now.

    The collector is paused so that the kernel does not collect the
    program's garbage; the kernel itself leaves none.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = _perf()
        kernel()
        return _perf() - start
    finally:
        if enabled:
            gc.enable()


class ScaledTimer:
    """Times work in segments, each scaled by the kernel runs around it.

    ``start`` runs the kernel and opens a segment.  ``split`` closes the
    open segment, runs the kernel and opens the next, so kernel time is
    in no segment.  ``resume`` opens a segment without a kernel run, for
    work after untimed steps; the last kernel run stands for its start.
    Every kernel time is kept in ``refs``.
    """

    def __init__(self) -> None:
        self.refs: list[float] = []
        self._ref = 0.0
        self._opened = 0.0

    def start(self) -> None:
        self._ref = reference_s()
        self.refs.append(self._ref)
        self._opened = _perf()

    def resume(self) -> None:
        self._opened = _perf()

    def elapsed(self) -> float:
        """Seconds since the open segment began."""
        return _perf() - self._opened

    def split(self) -> tuple[float, float]:
        """Close the open segment: its raw and scaled seconds."""
        seconds = _perf() - self._opened
        ref = reference_s()
        self.refs.append(ref)
        scaled = seconds * REF_S * 2.0 / (self._ref + ref)
        self._ref = ref
        self._opened = _perf()
        return seconds, scaled
