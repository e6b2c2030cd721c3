"""Plant a deliberate state divergence in an audited replay.

The corruption and bisection tests need run B to differ from run A at
one known executed event.  :func:`perturbed` wraps a replay callback so
that, for the length of each call, :meth:`InvariantAuditor.after_event`
first runs ``mutate(sim)`` when it is about to handle event ``at_event``
— that is, after the event's callback and before its clock check and
sweep, on every replay call.
"""

from repro.audit import InvariantAuditor


def perturbed(replay, at_event, mutate):
    """``replay`` with ``mutate(sim)`` planted just before ``at_event``'s sweep."""

    def run(audit):
        after_event = InvariantAuditor.after_event

        def mutate_then_audit(auditor, sim):
            if auditor.event_index + 1 == at_event:
                mutate(sim)
            after_event(auditor, sim)

        InvariantAuditor.after_event = mutate_then_audit
        try:
            return replay(audit)
        finally:
            InvariantAuditor.after_event = after_event

    return run
