"""Discrete-event simulation substrate.

Public surface:

* :class:`Simulator`, :class:`Process`, :class:`Waitable` — the engine;
  :func:`join` / :class:`AllOf` wait for several waitables at once.
* :class:`RandomStream` — named, seeded distribution streams.
* :class:`ThroughputMeter` — interval throughput + stabilization rule.
* :class:`Tally` — the statistics accumulator.
"""

from .engine import AllOf, Process, Simulator, Waitable, join
from .meters import (
    DEFAULT_INTERVAL_MS,
    DEFAULT_TOLERANCE,
    DEFAULT_WINDOW,
    ThroughputMeter,
)
from .rng import RandomStream
from .stats import Tally

__all__ = [
    "AllOf",
    "join",
    "Simulator",
    "Process",
    "Waitable",
    "RandomStream",
    "ThroughputMeter",
    "DEFAULT_INTERVAL_MS",
    "DEFAULT_TOLERANCE",
    "DEFAULT_WINDOW",
    "Tally",
]
