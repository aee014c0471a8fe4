"""The ``Ranking`` transition rules (Protocol 2).

Protocol 2 is the heart of both ranking protocols: given a unique (unaware)
leader it assigns ranks phase by phase.  It is invoked by
``SpaceEfficientRanking`` for every interaction of two non-leader-electing
agents, and by ``Ranking+`` whenever the responder's coin shows 1.

The implementation follows the pseudocode line by line.  One detail the
pseudocode leaves to the state-space definition: an agent that becomes
ranked holds *only* its rank, so the auxiliary variables of the
self-stabilizing protocol (coin, ``aliveCount``) are cleared on every
transition into a ranked state.  This is a no-op for the non-self-stabilizing
protocol, whose agents never carry those variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...core.state import AgentState
from .phases import PhaseSchedule

__all__ = ["RankingRules", "RankingOutcome"]


@dataclass(slots=True)
class RankingOutcome:
    """What a single invocation of Protocol 2 did.

    Attributes
    ----------
    changed:
        Whether any state changed.
    rank_assigned:
        The rank newly assigned to the responder, if any.
    initiator_became_waiting:
        Whether the initiator transitioned from unaware leader to waiting
        (end of a non-final phase) — ``Ranking+`` needs this to install the
        waiting agent's coin and liveness counter (Protocol 4, lines 17–18).
    initiator_became_ranked:
        Whether the initiator transitioned from waiting to rank 1.
    phase_advanced:
        Whether a phase counter increased (responder bumped or epidemic).
    """

    changed: bool = False
    rank_assigned: Optional[int] = None
    initiator_became_waiting: bool = False
    initiator_became_ranked: bool = False
    phase_advanced: bool = False


#: The shared outcome of every invocation that changes nothing; callers
#: only read it.
UNCHANGED = RankingOutcome()


class RankingRules:
    """Protocol 2, parameterized by the phase schedule and ``c_wait``.

    Parameters
    ----------
    schedule:
        The :class:`PhaseSchedule` for the population size.
    wait_init:
        The value ``⌈c_wait · log n⌉`` loaded into the wait counter at every
        phase transition.
    """

    def __init__(self, schedule: PhaseSchedule, wait_init: int):
        self._schedule = schedule
        self._wait_init = wait_init

    @property
    def schedule(self) -> PhaseSchedule:
        """The phase schedule in use."""
        return self._schedule

    @property
    def wait_init(self) -> int:
        """Initial value of the leader's wait counter."""
        return self._wait_init

    def apply(self, initiator: AgentState, responder: AgentState) -> RankingOutcome:
        """Execute ``Ranking(u, v)`` with ``u = initiator``, ``v = responder``.

        An invocation that changes nothing returns the shared
        :data:`UNCHANGED` outcome.
        """
        u, v = initiator, responder

        # Line 1: if v is not a phase agent (it is ranked, waiting, …), do nothing.
        k = v.phase
        if k is None:
            return UNCHANGED

        u_rank = u.rank
        if u_rank is not None:
            schedule = self._schedule
            if k <= schedule.phase_count:
                boundary = schedule.ranks_per_phase(k)  # f_k - f_{k+1}
                if 1 <= u_rank <= boundary:
                    # Lines 4-5: u is the unaware leader for phase k and
                    # assigns the next rank of the phase to v.
                    assigned = schedule.f(k + 1) + u_rank
                    v.phase = None
                    v.rank = assigned
                    v.coin = None
                    v.alive_count = None
                    outcome = RankingOutcome(changed=True, rank_assigned=assigned)
                    if u_rank < boundary:
                        # Lines 6-7: phase not done, advance the leader's rank.
                        u.rank = u_rank + 1
                    elif k < schedule.phase_count:
                        # Lines 8-9: end of a non-final phase, start waiting.
                        u.rank = None
                        u.wait_count = self._wait_init
                        outcome.initiator_became_waiting = True
                    # In the final phase the leader keeps its rank (which is
                    # 1 by this point in a correct execution) and the
                    # protocol becomes silent.
                    return outcome
                if u_rank == schedule.f(k) and k < schedule.phase_count:
                    # Lines 10-11: u holds the last rank of phase k, so v can
                    # safely conclude that phase k is finished.  (In a correct
                    # execution this never fires for the final phase; the
                    # guard keeps adversarial configurations of the
                    # self-stabilizing protocol inside the phase state space.)
                    v.phase = k + 1
                    return RankingOutcome(changed=True, phase_advanced=True)
            return UNCHANGED

        u_phase = u.phase
        if u_phase is not None:
            # Lines 12-14: two phase agents adopt the more advanced phase.
            maximum = max(u_phase, k)
            if u_phase != maximum or k != maximum:
                u.phase = maximum
                v.phase = maximum
                return RankingOutcome(changed=True, phase_advanced=True)
            return UNCHANGED

        wait = u.wait_count
        if wait is not None:
            # Lines 15-19: the waiting leader counts down against phase agents
            # and eventually re-enters the ranking with rank 1.
            outcome = RankingOutcome(changed=True)
            if wait == 1:
                u.wait_count = None
                u.rank = 1
                u.coin = None
                u.alive_count = None
                outcome.initiator_became_ranked = True
            else:
                u.wait_count = wait - 1
            return outcome
        return UNCHANGED
