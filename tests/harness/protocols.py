"""Synthetic protocols shared across engine test suites."""

from repro.core.protocol import PopulationProtocol, TransitionResult
from repro.core.state import AgentState


class LateRandomProtocol(PopulationProtocol):
    """Deterministic counters that start consuming rng at a threshold.

    The per-agent counter space (0…200) overflows the dense-table budget,
    so the engines start on the lazy path; the first agent to reach the
    threshold makes its transition consume randomness, which raises
    ``RandomnessConsumed`` inside the tabulated walk and exercises the
    *mid-run* demotion to the object path, at a seed-dependent time.
    """

    name = "late-random"
    THRESHOLD = 100

    def initial_state(self):
        return AgentState(aux=0)

    def transition(self, u, v, rng):
        u.aux = min((u.aux or 0) + 1, 200)
        if u.aux >= self.THRESHOLD:
            if int(rng.integers(0, 2)):
                v.aux = 0
        return TransitionResult(changed=True)

    def has_converged(self, configuration):
        return False


class ClosedLateRandomProtocol(PopulationProtocol):
    """Monotone counters with a closed goal that demote mid-run.

    Initiators count up to 200 (too many states for the dense budget, so
    the engines start lazy); from ``THRESHOLD`` on, an initiator draws a
    coin that may also advance its responder, which raises
    ``RandomnessConsumed`` in the tabulated walk.  Counters never
    decrease, so the goal "every counter reached ``THRESHOLD``" is closed
    — and at small ``n`` the first demotion and the convergence fall into
    one pair buffer.
    """

    name = "closed-late-random"
    THRESHOLD = 80

    def initial_state(self):
        return AgentState(aux=0)

    def transition(self, u, v, rng):
        u.aux = min(u.aux + 1, 200)
        if u.aux >= self.THRESHOLD and int(rng.integers(0, 2)):
            v.aux = min(v.aux + 1, 200)
        return TransitionResult(changed=True)

    def has_converged(self, configuration):
        return all(s.aux >= self.THRESHOLD for s in configuration.states)

    def convergence_is_closed(self):
        return True


class TransientGoalProtocol(PopulationProtocol):
    """Deterministic counting whose goal holds only for a short window.

    Every interaction raises the initiator's counter, so the counter sum
    equals the interaction count (the cap is out of reach); the goal holds
    while that sum lies in ``[LOW, HIGH)``.  The predicate is *not*
    closed: a run that only looked at the end of a pair buffer would
    miss the window the cadence-``n`` checks catch.
    """

    name = "transient-goal"
    LOW = 203
    HIGH = 212

    def initial_state(self):
        return AgentState(aux=0)

    def transition(self, u, v, rng):
        u.aux = min(u.aux + 1, 1000)
        return TransitionResult(changed=True)

    def has_converged(self, configuration):
        total = sum(s.aux for s in configuration.states)
        return self.LOW <= total < self.HIGH
