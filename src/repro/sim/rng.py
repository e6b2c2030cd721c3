"""Seeded random streams for the stochastic workload model.

The paper's workloads are stochastic: file sizes are uniform around a mean,
request sizes are normal, think times are exponential, extent sizes are
normal with a 10 % deviation.  This module provides named, independently
seeded streams of those distribution families so that every experiment is
exactly reproducible from ``(seed, stream name)`` and two components never
share a stream (adding events to one subsystem cannot perturb another).
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from typing import Sequence, TypeVar

from ..errors import ConfigurationError

T = TypeVar("T")


class StreamLedger:
    """Registry of every stream constructed while installed (audit hook).

    The invariant auditor installs one per experiment
    (:func:`install_ledger`) so it can sweep per-stream draw counts and
    fingerprint each stream's internal state.  Registration keys are
    ``name#n`` — the stream name plus a registration ordinal — so two
    streams that legitimately share a name stay distinguishable.
    """

    def __init__(self) -> None:
        self._streams: dict[str, RandomStream] = {}
        self._by_name: dict[str, int] = {}

    def register(self, stream: "RandomStream") -> None:
        ordinal = self._by_name.get(stream.name, 0)
        self._by_name[stream.name] = ordinal + 1
        self._streams[f"{stream.name}#{ordinal}"] = stream

    def items(self):
        """``(key, stream)`` pairs in registration order."""
        return self._streams.items()

    def __len__(self) -> int:
        return len(self._streams)


#: Module-level ledger slot.  ``None`` (the default) is the
#: zero-overhead path: stream construction checks one global, sampling
#: never does.  Installed/uninstalled per experiment — both the inline
#: runner and pool workers execute one experiment at a time, so a
#: module global cannot cross-contaminate concurrent points.
_LEDGER: StreamLedger | None = None


def install_ledger(ledger: StreamLedger) -> None:
    """Register subsequently-constructed streams with ``ledger``."""
    global _LEDGER
    _LEDGER = ledger


def uninstall_ledger() -> None:
    """Stop registering streams (always pair with :func:`install_ledger`)."""
    global _LEDGER
    _LEDGER = None


class PreparedWeights:
    """Pre-validated cumulative weights for repeated weighted draws.

    Validation (equal lengths, no negative weight, a positive total) and
    the running sums happen once, at construction; hot loops that draw
    from the same distribution millions of times (the workload driver's
    operation mix) then pay one uniform draw and one bisect per pick in
    :meth:`RandomStream.weighted_choice_prepared`.  The cumulative sums
    are left-to-right float additions of the weights, in order.
    """

    __slots__ = ("items", "cumulative", "total")

    def __init__(self, items: Sequence[T], weights: Sequence[float]) -> None:
        if len(items) != len(weights):
            raise ConfigurationError("items and weights differ in length")
        for weight in weights:
            if weight < 0:
                raise ConfigurationError(f"negative weight: {weight}")
        total = float(sum(weights))
        if total <= 0:
            raise ConfigurationError("weights must sum to a positive value")
        cumulative: list[float] = []
        running = 0.0
        for weight in weights:
            running += weight
            cumulative.append(running)
        self.items = tuple(items)
        self.cumulative = cumulative
        self.total = total


def _derive_seed(seed: int, name: str) -> int:
    """Derive a child seed from a parent seed and a stream name.

    Uses SHA-256 so unrelated names give statistically independent seeds
    and the derivation is stable across Python versions and processes
    (unlike ``hash``).
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """A named random stream with the distribution families the model uses.

    Wraps :class:`random.Random` (Mersenne Twister) with clamped/validated
    variants of the distributions the paper's workload description calls
    for.  Fork substreams with :meth:`fork` rather than sharing a stream.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._random = random.Random(_derive_seed(seed, name))
        #: Samples drawn through this stream's public methods; the audit
        #: ledger asserts this only ever grows.
        self.draws = 0
        if _LEDGER is not None:
            _LEDGER.register(self)

    def fork(self, name: str) -> "RandomStream":
        """Create an independent child stream identified by ``name``."""
        return RandomStream(self.seed, f"{self.name}/{name}")

    def state_digest(self) -> str:
        """sha256 of the underlying generator state (fingerprint hook).

        ``random.Random.getstate`` is a pure function of seed and draw
        history, so the digest is identical across processes and engine
        variants whenever the draw sequences are.
        """
        return hashlib.sha256(repr(self._random.getstate()).encode()).hexdigest()

    # -- distribution families ---------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        """Uniform value in ``[low, high]``."""
        if high < low:
            raise ConfigurationError(f"uniform range inverted: [{low}, {high}]")
        self.draws += 1
        return self._random.uniform(low, high)

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        if high < low:
            raise ConfigurationError(f"uniform range inverted: [{low}, {high}]")
        self.draws += 1
        return self._random.randint(low, high)

    def uniform_around(self, mean: float, deviation: float) -> float:
        """Uniform in ``[mean - deviation, mean + deviation]``, floored at 0.

        This is the paper's initialization distribution: "a size is selected
        from a uniform distribution with mean equal to initial size and
        deviation of initial deviation".
        """
        self.draws += 1
        return max(0.0, self._random.uniform(mean - deviation, mean + deviation))

    def normal(self, mean: float, deviation: float, minimum: float = 0.0) -> float:
        """Normal sample clamped below at ``minimum``.

        Request and extent sizes are normal; a raw normal can go negative,
        which has no physical meaning for a size, so the sample is clamped.
        """
        if deviation < 0:
            raise ConfigurationError(f"negative deviation: {deviation}")
        self.draws += 1
        return max(minimum, self._random.gauss(mean, deviation))

    def exponential(self, mean: float) -> float:
        """Exponential sample with the given mean (paper's think time)."""
        if mean < 0:
            raise ConfigurationError(f"negative exponential mean: {mean}")
        if mean == 0:
            return 0.0
        self.draws += 1
        return self._random.expovariate(1.0 / mean)

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        if not items:
            raise ConfigurationError("choice from an empty sequence")
        self.draws += 1
        return self._random.choice(items)

    def choice_index(self, n: int) -> int:
        """Uniform index in ``[0, n)``, draw-compatible with :meth:`choice`.

        ``random.Random.choice(seq)`` is ``seq[_randbelow(len(seq))]`` and
        ``randrange(n)`` consumes the same single ``_randbelow(n)`` draw,
        so ``items[stream.choice_index(len(items))]`` selects the exact
        item ``stream.choice(items)`` would while also exposing the index
        (which lets callers delete by position instead of scanning).
        """
        if n <= 0:
            raise ConfigurationError("choice from an empty sequence")
        self.draws += 1
        return self._random.randrange(n)

    def weighted_choice_prepared(self, prepared: PreparedWeights) -> T:
        """Choice proportional to the prepared weights (operation ratios).

        One ``random()`` sample scaled by the total picks the first item
        whose cumulative weight exceeds it (the last item if rounding
        lands the sample on the total), so the stream advances by exactly
        one sample per pick.
        """
        self.draws += 1
        pick = self._random.random() * prepared.total
        index = bisect_right(prepared.cumulative, pick)
        items = prepared.items
        if index >= len(items):  # pick rounded up to the exact total
            return items[-1]
        return items[index]

    def shuffle(self, items: list[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        self.draws += 1
        self._random.shuffle(items)

    def random(self) -> float:
        """Raw uniform in [0, 1)."""
        self.draws += 1
        return self._random.random()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RandomStream seed={self.seed} name={self.name!r}>"
