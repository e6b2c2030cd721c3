"""Discrete-event simulation substrate.

Public surface:

* :class:`Simulator`, :class:`Process`, :class:`Waitable` — the engine.
* :class:`RandomStream` — named, seeded distribution streams.
* :class:`ThroughputMeter` — interval throughput + stabilization rule.
* :class:`Tally` — the statistics accumulator.
"""

from .engine import AllOf, Process, Simulator, Waitable
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
