"""Burman-et-al.-style self-stabilizing ranking with ``Θ(n)`` overhead states.

Burman et al. [20] give a silent self-stabilizing leader-election protocol
(via ranking) that stabilizes in ``O(n² log n)`` interactions w.h.p. — the
same, optimal, time as the paper — but uses ``O(n)`` states *in addition* to
the ``n`` rank states, because the agent distributing the ranks keeps an
explicit "next rank to assign" counter alongside its own role.  The paper's
contribution is to shrink exactly this overhead to ``O(log² n)``.

This module implements that design point at the level of detail needed for
the comparison experiments (:mod:`repro.experiments.comparison`).  It
reuses the same substrates as ``StableRanking`` (``PropagateReset``,
``FastLeaderElection``) and differs only in the main protocol:

* the elected leader takes rank 1 and additionally carries a counter
  ``aux ∈ {2, …, n+1}`` holding the next rank to hand out — this is the
  ``Θ(n)`` state overhead;
* unranked agents carry a coin and a liveness counter, as in ``Ranking+``;
* errors (duplicate ranks, two counter-carrying leaders, liveness expiry)
  trigger a ``PropagateReset`` exactly as in the paper's protocol.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.configuration import Configuration
from ..core.protocol import RankingProtocol, TransitionResult
from ..core.state import AgentState
from ..protocols.leader_election.fast_leader_election import (
    FastLeaderElection,
    default_l_max,
)
from ..protocols.reset.propagate_reset import PropagateReset, default_reset_depths

__all__ = ["BurmanStyleRanking"]


class BurmanStyleRanking(RankingProtocol[AgentState]):
    """Self-stabilizing ranking whose leader remembers the next rank.

    Parameters mirror :class:`~repro.protocols.ranking.stable_ranking.StableRanking`
    where applicable.
    """

    name = "burman-style-ranking"

    def __init__(
        self,
        n: int,
        c_live: float = 4.0,
        l_max: Optional[int] = None,
        r_max: Optional[int] = None,
        d_max: Optional[int] = None,
    ):
        super().__init__(n)
        self._l_max = l_max if l_max is not None else default_l_max(n)
        self._alive_reset = max(1, int(math.ceil(c_live * math.log2(n))))
        default_r, default_d = default_reset_depths(n)
        self._reset = PropagateReset(
            r_max if r_max is not None else default_r,
            d_max if d_max is not None else default_d,
            restart=self._restart_leader_election,
        )
        self._leader_election = FastLeaderElection(
            n,
            l_max=self._l_max,
            on_become_waiting=self._become_counter_leader,
            on_trigger_reset=self._reset.trigger,
        )

    # ------------------------------------------------------------------
    # Sub-protocol wiring
    # ------------------------------------------------------------------
    def _restart_leader_election(self, agent: AgentState) -> None:
        self._leader_election.init_state(agent)

    def _become_counter_leader(self, agent: AgentState) -> None:
        """The elected leader takes rank 1 and starts counting from rank 2."""
        agent.rank = 1
        agent.aux = 2
        agent.coin = None
        agent.alive_count = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def reset(self) -> PropagateReset:
        """The reset sub-protocol."""
        return self._reset

    @property
    def l_max(self) -> int:
        """The liveness / leader-election countdown bound."""
        return self._l_max

    @staticmethod
    def _in_main(state: AgentState) -> bool:
        if state.in_reset or state.in_leader_election:
            return False
        return state.rank is not None or state.alive_count is not None

    @staticmethod
    def _is_counter_leader(state: AgentState) -> bool:
        return state.rank is not None and state.aux is not None

    # ------------------------------------------------------------------
    # PopulationProtocol interface
    # ------------------------------------------------------------------
    def initial_state(self) -> AgentState:
        agent = AgentState(coin=0)
        self._leader_election.init_state(agent)
        return agent

    def transition(
        self,
        initiator: AgentState,
        responder: AgentState,
        rng: np.random.Generator,
    ) -> TransitionResult:
        u, v = initiator, responder
        rank_assigned = None
        triggers_before = self._reset.triggered_count

        changed = self._reset.apply(u, v)

        if u.leader_done is not None and v.leader_done is not None:
            changed = self._leader_election.apply(u, v, rng) or changed

        # A leader-electing agent meeting a main-protocol agent joins as an
        # unranked agent with a fresh liveness counter.
        u_in_le = u.leader_done is not None
        v_in_le = v.leader_done is not None
        if u_in_le != v_in_le:
            le_agent, other = (u, v) if u_in_le else (v, u)
            if self._in_main(other):
                coin = le_agent.coin if le_agent.coin is not None else 0
                le_agent.clear()
                le_agent.coin = coin
                le_agent.alive_count = self._l_max
                changed = True

        if self._in_main(u) and self._in_main(v):
            outcome = self._main_transition(u, v)
            changed = changed or outcome.changed
            rank_assigned = outcome.rank_assigned

        if v.coin is not None:
            v.toggle_coin()
            changed = True

        return TransitionResult(
            changed=changed,
            rank_assigned=rank_assigned,
            reset_triggered=self._reset.triggered_count > triggers_before,
        )

    def _main_transition(self, u: AgentState, v: AgentState) -> TransitionResult:
        """The main ranking rules between two main-state agents."""
        n = self.n

        # Error detection: duplicate ranks or two counter-carrying leaders.
        if u.rank is not None and u.rank == v.rank:
            self._reset.trigger(u)
            return TransitionResult(changed=True, reset_triggered=True)
        if self._is_counter_leader(u) and self._is_counter_leader(v):
            self._reset.trigger(u)
            return TransitionResult(changed=True, reset_triggered=True)

        changed = False

        # Liveness bookkeeping, as in Ranking+ lines 5-11.
        if u.alive_count is not None and v.alive_count is not None:
            new_count = max(0, max(u.alive_count, v.alive_count) - 1)
            if (u.alive_count, v.alive_count) != (new_count, new_count):
                u.alive_count = new_count
                v.alive_count = new_count
                changed = True
        if u.rank in (n - 1, n) and v.alive_count is not None:
            v.alive_count = max(0, v.alive_count - 1)
            changed = True
        if v.alive_count == 0:
            self._reset.trigger(u)
            return TransitionResult(changed=True, reset_triggered=True)

        # The counter-carrying leader assigns the next rank to an unranked agent.
        if self._is_counter_leader(u) and v.rank is None and v.alive_count is not None:
            if u.aux <= n:
                assigned = u.aux
                v.clear()
                v.rank = assigned
                u.aux = assigned + 1
                return TransitionResult(changed=True, rank_assigned=assigned)
            # Counter exhausted but unranked agents remain: inconsistent state.
            self._reset.trigger(u)
            return TransitionResult(changed=True, reset_triggered=True)

        # Replenish the liveness counter of an unranked agent that meets the
        # leader (progress is possible, so the system is alive).
        if self._is_counter_leader(v) and u.alive_count is not None:
            if u.alive_count != self._l_max:
                u.alive_count = self._l_max
                changed = True
        return TransitionResult(changed=changed)

    # ------------------------------------------------------------------
    # Array-engine capability declarations
    # ------------------------------------------------------------------
    def consumes_randomness(self) -> bool:
        """``False``: FastLeaderElection and the ranking rules are
        deterministic functions of the two states (coins are togglings),
        so the array engine tabulates state pairs and runs warm."""
        return False

    def codec_fields(self):
        from ..core.state import AGENT_STATE_FIELDS

        return AGENT_STATE_FIELDS

    def has_converged(self, configuration: Configuration[AgentState]) -> bool:
        """A clean valid ranking in which only the leader keeps its counter."""
        if not configuration.is_valid_ranking():
            return False
        for state in configuration.states:
            if state.in_reset or state.in_leader_election:
                return False
            if state.alive_count is not None or state.phase is not None:
                return False
        return True

    # ------------------------------------------------------------------
    # State accounting
    # ------------------------------------------------------------------
    def overhead_states(self) -> int:
        """``Θ(n)``: the leader's rank-1-with-counter states dominate."""
        counter_states = self.n  # rank 1 combined with a counter in {2, …, n+1}
        reset_states = (self._reset.r_max + 1) * (self._reset.d_max + 1)
        le_states = self._l_max * self._leader_election.coin_count_init * 4
        unranked_states = self._l_max
        return counter_states + 2 * (reset_states + le_states + unranked_states)

    def state_space_size(self) -> int:
        return self.n + self.overhead_states()
