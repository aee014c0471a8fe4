"""``SpaceEfficientRanking`` — the non-self-stabilizing protocol (Theorem 1).

Protocol 1 composes a leader-election substrate with the ``Ranking`` rules of
Protocol 2:

1. While both agents are still leader-electing, they run the leader-election
   sub-protocol (lines 1–2).
2. The moment an agent holds ``isLeader = leaderDone = 1`` it forgets its
   leader-election state and becomes the unique waiting agent with counter
   ``⌈c_wait · log n⌉`` (lines 3–6).
3. A leader-electing agent meeting a non-leader-electing agent forgets its
   leader-election state and becomes a phase agent with phase 1 — the
   one-way epidemic announcing that the ranking has started (lines 7–9).
4. Two non-leader-electing agents run ``Ranking`` (lines 10–11).

The protocol is silent and reaches a valid ranking in ``O(n² log n)``
interactions w.h.p., using ``n + Θ(log n)`` states (with the leader-election
protocol of [30] as a black box; this reproduction runs the substitute in
:mod:`repro.protocols.leader_election.gs_leader_election`).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ...core.configuration import Configuration
from ...core.protocol import RankingProtocol, TransitionResult
from ...core.state import AgentState
from ..leader_election.gs_leader_election import GSLeaderElection
from ..leader_election.interfaces import LeaderElectionModule
from .phases import PhaseSchedule, wait_count_init
from .rules import RankingRules

__all__ = ["SpaceEfficientRanking"]


class SpaceEfficientRanking(RankingProtocol[AgentState]):
    """The paper's non-self-stabilizing ranking protocol.

    Parameters
    ----------
    n:
        Population size (must be known exactly).
    c_wait:
        Constant of the leader's wait counter; the paper's analysis requires
        a sufficiently large constant, the paper's own simulations use 2.
    leader_election:
        The leader-election substrate.  Defaults to the GS-style substitute
        (see :mod:`repro.protocols.leader_election.gs_leader_election`).
    """

    name = "space-efficient-ranking"

    def __init__(
        self,
        n: int,
        c_wait: float = 2.0,
        leader_election: Optional[LeaderElectionModule] = None,
    ):
        super().__init__(n)
        self._c_wait = c_wait
        self._schedule = PhaseSchedule(n)
        self._wait_init = wait_count_init(n, c_wait)
        self._leader_election = leader_election or GSLeaderElection(n)
        self._rules = RankingRules(self._schedule, self._wait_init)

    # ------------------------------------------------------------------
    # Accessors used by experiments and tests
    # ------------------------------------------------------------------
    @property
    def schedule(self) -> PhaseSchedule:
        """The phase schedule ``f_k``."""
        return self._schedule

    @property
    def rules(self) -> RankingRules:
        """The Protocol 2 rules instance."""
        return self._rules

    @property
    def wait_init(self) -> int:
        """The leader's wait counter ``⌈c_wait · log n⌉``."""
        return self._wait_init

    @property
    def leader_election(self) -> LeaderElectionModule:
        """The leader-election substrate."""
        return self._leader_election

    # ------------------------------------------------------------------
    # PopulationProtocol interface
    # ------------------------------------------------------------------
    def initial_state(self) -> AgentState:
        agent = AgentState()
        self._leader_election.init_state(agent)
        return agent

    def transition(
        self,
        initiator: AgentState,
        responder: AgentState,
        rng: np.random.Generator,
    ) -> TransitionResult:
        u, v = initiator, responder
        changed = False

        # Lines 1-2: two leader-electing agents run the LE sub-protocol.
        if u.in_leader_election and v.in_leader_election:
            changed = self._leader_election.apply(u, v, rng) or changed

        # Lines 3-6: an elected, finished leader becomes the waiting agent.
        for agent in (u, v):
            if agent.is_leader == 1 and agent.leader_done == 1:
                agent.clear_leader_election()
                agent.wait_count = self._wait_init
                return TransitionResult(changed=True, label="leader_becomes_waiting")

        # Lines 7-9: a leader-electing agent meeting a non-leader-electing
        # agent joins the ranking as a phase-1 agent.
        if u.in_leader_election != v.in_leader_election:
            joining = u if u.in_leader_election else v
            joining.clear_leader_election()
            joining.phase = 1
            changed = True

        # Lines 10-11: two non-leader-electing agents run Ranking.
        if not u.in_leader_election and not v.in_leader_election:
            outcome = self._rules.apply(u, v)
            changed = changed or outcome.changed
            return TransitionResult(
                changed=changed,
                rank_assigned=outcome.rank_assigned,
                label="ranking" if outcome.changed else None,
            )
        return TransitionResult(changed=changed)

    def has_converged(self, configuration: Configuration[AgentState]) -> bool:
        return configuration.is_valid_ranking()

    def consumes_randomness(self) -> bool:
        """``True``: the GS leader-election substrate draws random tags."""
        return True

    def codec_fields(self):
        from ...core.state import AGENT_STATE_FIELDS

        return AGENT_STATE_FIELDS

    # ------------------------------------------------------------------
    # State accounting (Theorem 1)
    # ------------------------------------------------------------------
    def overhead_states(self, le_states: Optional[int] = None) -> int:
        """Number of states beyond the ``n`` rank states.

        Following the accounting in Section IV-A: ``⌈c_wait log n⌉`` wait
        states, ``⌈log n⌉`` phase states and ``2·|Q_LE|`` leader-election
        states.  ``le_states`` defaults to the paper's black-box
        ``|Q_LE| = Θ(log log n)`` bound (rounded up); pass the substitute's
        actual count to get the as-built figure.
        """
        if le_states is None:
            le_states = max(1, int(math.ceil(math.log2(max(math.log2(self.n), 2.0)))))
        return self._wait_init + self._schedule.phase_count + 2 * le_states

    def state_space_size(self) -> int:
        """Total number of states per the paper's accounting (``n + Θ(log n)``)."""
        return self.n + self.overhead_states()

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            c_wait=self._c_wait,
            wait_init=self._wait_init,
            phase_count=self._schedule.phase_count,
        )
        return info
