"""Declarative fault plans: what goes wrong, where, and when.

A :class:`FaultSpec` is a frozen, hashable description of every fault to
inject into one simulation.  It deliberately contains no runtime state —
no RNG, no simulator — so it can live inside an
:class:`~repro.core.configs.ExperimentConfig`, participate in the
runner's content-addressed cache keys, and cross process boundaries by
pickling.  The runtime half (scheduling, per-drive state, meters) is
:class:`~repro.fault.injector.FaultInjector`.

Three fault families, mirroring what degrades real arrays:

* :class:`DiskFailure` — the drive stops serving at ``at_ms``; with
  ``repair_after_ms`` set, a replacement arrives that much later and a
  background rebuild streams the drive's contents back (competing with
  foreground traffic for bandwidth).
* :class:`TransientFaults` — each read on the affected drive(s) fails
  with probability ``rate`` and is retried after a full revolution, the
  classic soft-error/ECC-retry cost.
* :class:`SlowDisk` — service times on one drive scale by ``factor``
  for ``duration_ms`` (a degraded spindle / remapped-sector region).

``parse_fault_spec`` turns the CLI's compact ``--inject`` string into a
spec, e.g. ``"fail:drive=2,at=5000,repair=20000;transient:rate=0.001"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import FaultError

#: Sentinel drive index meaning "every drive in the system".
ALL_DRIVES = -1


@dataclass(frozen=True)
class DiskFailure:
    """One whole-disk failure, optionally followed by repair + rebuild.

    Attributes:
        at_ms: simulated time the drive stops serving.
        drive: index into the disk system's ``drives`` list.
        repair_after_ms: delay from failure to the replacement drive
            coming online (rebuild starts then).  ``None`` means the
            drive never returns.
    """

    at_ms: float
    drive: int
    repair_after_ms: float | None = None

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise FaultError(f"failure scheduled in the past: {self.at_ms}")
        if self.drive < 0:
            raise FaultError(f"bad drive index: {self.drive}")
        if self.repair_after_ms is not None and self.repair_after_ms < 0:
            raise FaultError(f"negative repair delay: {self.repair_after_ms}")


@dataclass(frozen=True)
class SlowDisk:
    """A latency multiplier on one drive for a bounded window.

    Attributes:
        at_ms: when the slowdown begins.
        drive: affected drive index (or :data:`ALL_DRIVES`).
        factor: service-time multiplier, must be >= 1.
        duration_ms: window length; ``inf`` means "until the end".
    """

    at_ms: float
    drive: int
    factor: float
    duration_ms: float = math.inf

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise FaultError(f"slowdown scheduled in the past: {self.at_ms}")
        if self.drive < ALL_DRIVES:
            raise FaultError(f"bad drive index: {self.drive}")
        if self.factor < 1.0:
            raise FaultError(f"slowdown factor must be >= 1: {self.factor}")
        if self.duration_ms <= 0:
            raise FaultError(f"non-positive slowdown window: {self.duration_ms}")


@dataclass(frozen=True)
class TransientFaults:
    """Per-read transient error probability over a time window.

    Attributes:
        rate: probability any single read fails once and is retried.
        drive: affected drive index, or :data:`ALL_DRIVES` (default).
        start_ms / end_ms: window bounds; ``end_ms=inf`` (default) keeps
            the fault process active for the whole run.
    """

    rate: float
    drive: int = ALL_DRIVES
    start_ms: float = 0.0
    end_ms: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise FaultError(f"transient rate outside [0, 1]: {self.rate}")
        if self.drive < ALL_DRIVES:
            raise FaultError(f"bad drive index: {self.drive}")
        if self.start_ms < 0 or self.end_ms < self.start_ms:
            raise FaultError(
                f"bad transient window [{self.start_ms}, {self.end_ms}]"
            )


@dataclass(frozen=True)
class FaultSpec:
    """Everything to inject into one simulation, declaratively.

    Hashable and canonically serializable (it is an ordinary nested
    frozen dataclass), so configs carrying a spec produce stable runner
    cache keys.  ``describe()`` gives the one-line form used in logs.
    """

    failures: tuple[DiskFailure, ...] = ()
    slowdowns: tuple[SlowDisk, ...] = ()
    transients: tuple[TransientFaults, ...] = ()
    #: Extra seed salt so two otherwise-identical experiments can draw
    #: different transient-fault streams.
    seed_salt: int = 0
    #: Rebuild request size, in stripe rows per chunk (bigger chunks
    #: rebuild faster but hold the queues longer per request).
    rebuild_rows_per_chunk: int = 8

    def __post_init__(self) -> None:
        if self.rebuild_rows_per_chunk <= 0:
            raise FaultError(
                f"rebuild chunk must be positive: {self.rebuild_rows_per_chunk}"
            )

    @property
    def empty(self) -> bool:
        """True when the spec injects nothing."""
        return not (self.failures or self.slowdowns or self.transients)

    def describe(self) -> str:
        """Compact one-line description for logs and reports."""
        parts = []
        for f in self.failures:
            repair = (
                f",repair+{f.repair_after_ms:g}ms"
                if f.repair_after_ms is not None
                else ""
            )
            parts.append(f"fail(d{f.drive}@{f.at_ms:g}ms{repair})")
        for s in self.slowdowns:
            who = "all" if s.drive == ALL_DRIVES else f"d{s.drive}"
            parts.append(f"slow({who}@{s.at_ms:g}ms x{s.factor:g})")
        for t in self.transients:
            who = "all" if t.drive == ALL_DRIVES else f"d{t.drive}"
            parts.append(f"transient({who} p={t.rate:g})")
        return " ".join(parts) if parts else "no-faults"


# ---------------------------------------------------------------------------
# The CLI's compact spec syntax
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _fields(body: str, clause: str, **spec: object) -> dict[str, float]:
    """Parse ``k=v,k=v`` with per-key defaults; unknown keys are errors."""
    values: dict[str, float] = {}
    if body:
        for pair in body.split(","):
            if "=" not in pair:
                raise FaultError(f"expected key=value in {clause!r}: {pair!r}")
            key, _, raw = pair.partition("=")
            key = key.strip()
            if key not in spec:
                raise FaultError(f"unknown key {key!r} in {clause!r}")
            try:
                values[key] = float(raw)
            except ValueError:
                raise FaultError(f"bad number {raw!r} in {clause!r}") from None
            if math.isnan(values[key]) or (
                key == "drive" and not values[key].is_integer()
            ):
                raise FaultError(f"bad number {raw!r} in {clause!r}")
    for key, default in spec.items():
        if key not in values:
            if default is _REQUIRED:
                raise FaultError(f"{clause!r} requires {key}=")
            values[key] = default  # type: ignore[assignment]
    return values


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the ``--inject`` syntax into a :class:`FaultSpec`.

    Clauses are ``;``-separated; each is ``kind:key=value,...``:

    * ``fail:drive=2,at=5000[,repair=20000]``
    * ``slow:drive=1,at=0,factor=4[,for=30000]``
    * ``transient:rate=0.001[,drive=2][,from=0][,until=60000]``

    Times are simulated milliseconds.  ``drive`` omitted on ``transient``
    means every drive.
    """
    failures: list[DiskFailure] = []
    slowdowns: list[SlowDisk] = []
    transients: list[TransientFaults] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, body = clause.partition(":")
        kind = kind.strip().lower()
        if kind == "fail":
            v = _fields(
                body, clause, drive=_REQUIRED, at=_REQUIRED, repair=math.nan
            )
            failures.append(
                DiskFailure(
                    at_ms=v["at"],
                    drive=int(v["drive"]),
                    repair_after_ms=None if math.isnan(v["repair"]) else v["repair"],
                )
            )
        elif kind == "slow":
            v = _fields(
                body,
                clause,
                drive=_REQUIRED,
                at=0.0,
                factor=_REQUIRED,
                **{"for": math.inf},
            )
            slowdowns.append(
                SlowDisk(
                    at_ms=v["at"],
                    drive=int(v["drive"]),
                    factor=v["factor"],
                    duration_ms=v["for"],
                )
            )
        elif kind == "transient":
            v = _fields(
                body,
                clause,
                rate=_REQUIRED,
                drive=float(ALL_DRIVES),
                **{"from": 0.0, "until": math.inf},
            )
            transients.append(
                TransientFaults(
                    rate=v["rate"],
                    drive=int(v["drive"]),
                    start_ms=v["from"],
                    end_ms=v["until"],
                )
            )
        else:
            raise FaultError(
                f"unknown fault kind {kind!r} (expected fail/slow/transient)"
            )
    return FaultSpec(
        failures=tuple(failures),
        slowdowns=tuple(slowdowns),
        transients=tuple(transients),
    )
