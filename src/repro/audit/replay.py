"""Replay builders: adapt experiments to the bisector's callback shape.

:func:`bisect_divergence` wants ``Replay`` callbacks — "run this variant
under this :class:`~repro.audit.AuditConfig`, give me the populated
auditor".  This module builds those callbacks from the repo's own
experiment entry points, so ``repro bisect`` and the tests never
hand-roll experiment plumbing.

Kept out of ``repro.audit``'s package namespace on purpose: this module
imports :mod:`repro.core.experiments`, which itself imports the audit
package, and keeping the dependency one-way (core -> audit) everywhere
else means the import graph stays acyclic.  Import it directly::

    from repro.audit.replay import performance_replay
"""

from __future__ import annotations

from typing import Any, Callable

from ..sim.engine import Simulator
from .bisect import Replay
from .invariants import AuditConfig, InvariantAuditor

__all__ = ["performance_replay"]


def performance_replay(
    config,
    simulator_factory: Callable[[], Simulator] | None = None,
    **experiment_kwargs: Any,
) -> Replay:
    """A :data:`~repro.audit.bisect.Replay` over one performance config.

    Each call of the returned callback replays the full experiment under
    the given audit configuration and returns the auditor that rode it.

    Args:
        config: the :class:`~repro.core.configs.ExperimentConfig` to run.
        simulator_factory: optional engine variant (e.g. the reference
            engine, ``lambda: Simulator(immediate_queue=False)``).
        experiment_kwargs: forwarded to
            :func:`~repro.core.experiments.run_performance_experiment`
            (caps, tolerances, phase switches).
    """
    from ..core.experiments import run_performance_experiment

    def replay(audit: AuditConfig) -> InvariantAuditor:
        built: list[Simulator] = []

        def factory() -> Simulator:
            sim = (
                Simulator()
                if simulator_factory is None
                else simulator_factory()
            )
            built.append(sim)
            return sim

        run_performance_experiment(
            config, audit=audit, simulator_factory=factory,
            **experiment_kwargs,
        )
        return built[0].auditor

    return replay
