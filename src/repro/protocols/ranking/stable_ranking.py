"""``StableRanking`` — the self-stabilizing ranking protocol (Theorem 2).

Protocol 3 composes three sub-protocols on a shared state space of
``n + O(log² n)`` states:

* :class:`~repro.protocols.reset.propagate_reset.PropagateReset` restarts the
  population whenever an error is detected (line 1);
* :class:`~repro.protocols.leader_election.fast_leader_election.FastLeaderElection`
  elects a leader with constant probability per attempt and times out into a
  reset otherwise (lines 2–3);
* :class:`~repro.protocols.ranking.ranking_plus.RankingPlus` assigns ranks and
  detects duplicate ranks, duplicate waiting agents and missing progress
  (lines 7–8).

A leader-electing agent meeting an agent that already executes the main
protocol joins it as a phase-1 agent (lines 4–6), and the responder's
synthetic coin is toggled at the end of every interaction (lines 9–10).

Starting from *any* configuration over the protocol's state space, the
population reaches the set of silent legal configurations (every agent holds
a unique rank, nothing else) within ``O(n² log n)`` interactions w.h.p.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ...core.configuration import Configuration
from ...core.group_engine import RankingCountGoal
from ...core.protocol import CHANGED, NOOP, RankingProtocol, TransitionResult
from ...core.state import AgentState
from ..leader_election.fast_leader_election import FastLeaderElection, default_l_max
from ..reset.propagate_reset import PropagateReset, default_reset_depths
from .phases import PhaseSchedule, wait_count_init
from .ranking_plus import RankingPlus
from .states import in_main_state, unranked_main_state

__all__ = ["StableRanking", "StableRankingCountGoal"]


class StableRanking(RankingProtocol[AgentState]):
    """The paper's silent self-stabilizing ranking protocol.

    Parameters
    ----------
    n:
        Population size (must be known exactly).
    c_wait:
        Wait-counter constant (the paper's simulations use 2).
    c_live:
        Liveness replenishment constant; the replenished value is
        ``⌈c_live · log₂ n⌉`` (the paper's simulations use 4).
    l_max:
        Maximum liveness / leader-election countdown ``L_max = Θ(log n)``.
    r_max / d_max:
        ``PropagateReset`` depths ``R_max`` and ``D_max`` (both ``Θ(log n)``).
    """

    name = "stable-ranking"

    def __init__(
        self,
        n: int,
        c_wait: float = 2.0,
        c_live: float = 4.0,
        l_max: Optional[int] = None,
        r_max: Optional[int] = None,
        d_max: Optional[int] = None,
    ):
        super().__init__(n)
        self._c_wait = c_wait
        self._c_live = c_live
        self._schedule = PhaseSchedule(n)
        self._wait_init = wait_count_init(n, c_wait)
        self._l_max = l_max if l_max is not None else default_l_max(n)
        self._alive_reset = max(1, int(math.ceil(c_live * math.log2(n))))
        if self._alive_reset > self._l_max:
            self._alive_reset = self._l_max

        default_r, default_d = default_reset_depths(n)
        self._reset = PropagateReset(
            r_max if r_max is not None else default_r,
            d_max if d_max is not None else default_d,
            restart=self._restart_leader_election,
        )
        self._leader_election = FastLeaderElection(
            n,
            l_max=self._l_max,
            on_become_waiting=self._become_waiting,
            on_trigger_reset=self._reset.trigger,
        )
        self._ranking_plus = RankingPlus(
            self._schedule,
            self._wait_init,
            alive_reset=self._alive_reset,
            l_max=self._l_max,
            trigger_reset=self._reset.trigger,
        )

    # ------------------------------------------------------------------
    # Sub-protocol wiring
    # ------------------------------------------------------------------
    def _restart_leader_election(self, agent: AgentState) -> None:
        """After dormancy, agents restart with ``FastLeaderElection``."""
        self._leader_election.init_state(agent)

    def _become_waiting(self, agent: AgentState) -> None:
        """Protocol 5, line 11: the elected leader enters the main protocol."""
        agent.wait_count = self._wait_init
        agent.alive_count = self._l_max
        if agent.coin is None:
            agent.coin = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def schedule(self) -> PhaseSchedule:
        """The phase schedule ``f_k``."""
        return self._schedule

    @property
    def reset(self) -> PropagateReset:
        """The ``PropagateReset`` sub-protocol."""
        return self._reset

    @property
    def leader_election(self) -> FastLeaderElection:
        """The ``FastLeaderElection`` sub-protocol."""
        return self._leader_election

    @property
    def ranking_plus(self) -> RankingPlus:
        """The ``Ranking+`` sub-protocol."""
        return self._ranking_plus

    @property
    def wait_init(self) -> int:
        """The wait counter ``⌈c_wait log n⌉``."""
        return self._wait_init

    @property
    def l_max(self) -> int:
        """The countdown bound ``L_max``."""
        return self._l_max

    @property
    def alive_reset(self) -> int:
        """The liveness replenishment value ``⌈c_live log n⌉``."""
        return self._alive_reset

    # ------------------------------------------------------------------
    # PopulationProtocol interface
    # ------------------------------------------------------------------
    def initial_state(self) -> AgentState:
        """Designated fresh start: every agent begins in leader election."""
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
        changed = False
        triggered = False
        rank_assigned = None

        # Line 1: propagate resets and manage dormancy.  While neither
        # agent carries reset variables (``clean``), main-state membership
        # below needs only the main fields: ``in_main_state`` without its
        # reset and leader-election reads.
        clean = (
            u.reset_count is None
            and u.delay_count is None
            and v.reset_count is None
            and v.delay_count is None
        )
        if not clean:
            changed = self._reset.apply(u, v)

        # Lines 2-3: both agents still electing a leader.  Only the initiator
        # changes, and a timeout may trigger a reset on it.
        u_in_le = u.leader_done is not None
        v_in_le = v.leader_done is not None
        if u_in_le and v_in_le:
            triggers_before = self._reset.triggered_count
            changed = self._leader_election.apply(u, v, rng) or changed
            triggered = self._reset.triggered_count > triggers_before
            u_in_le = u.leader_done is not None
            clean = False  # a timeout may have put ``u`` in a reset

        # Lines 4-6: a leader-electing agent meets an agent already executing
        # the main protocol and joins it as a phase-1 agent, after which both
        # hold main states.
        if u_in_le != v_in_le:
            le_agent, other = (u, v) if u_in_le else (v, u)
            if clean:
                both_main = other.rank is not None or unranked_main_state(other)
            else:
                both_main = in_main_state(other)
            if both_main:
                coin = le_agent.coin if le_agent.coin is not None else 0
                le_agent.clear()
                le_agent.coin = coin
                le_agent.phase = 1
                le_agent.alive_count = self._l_max
                changed = True
        elif u_in_le:
            both_main = False
        elif clean:
            both_main = (u.rank is not None or unranked_main_state(u)) and (
                v.rank is not None or unranked_main_state(v)
            )
        else:
            both_main = in_main_state(u) and in_main_state(v)

        # Lines 7-8: both agents hold main states — run Ranking+.
        if both_main:
            outcome = self._ranking_plus.apply(u, v)
            changed = changed or outcome.changed
            triggered = triggered or outcome.reset_triggered
            rank_assigned = outcome.rank_assigned

        # Lines 9-10: toggle the responder's coin if it has one.
        coin = v.coin
        if coin is not None:
            v.coin = 1 - coin
            changed = True

        if rank_assigned is None and not triggered:
            return CHANGED if changed else NOOP
        return TransitionResult(
            changed=changed,
            rank_assigned=rank_assigned,
            reset_triggered=triggered,
        )

    def has_converged(self, configuration: Configuration[AgentState]) -> bool:
        """Membership in the silent legal set: a clean, valid ranking.

        Beyond the rank permutation, every agent must hold *only* its rank —
        any leftover auxiliary variable (possible only in adversarial
        initializations) would allow further state changes.
        """
        if not configuration.is_valid_ranking():
            return False
        return all(self._holds_only_rank(state) for state in configuration.states)

    def count_goal(self, codec):
        """The silent legal set over counts: a bare-rank permutation."""
        return StableRankingCountGoal(self.n)

    def convergence_is_closed(self) -> bool:
        """Silent legal set: agents holding distinct bare ranks never
        change (no coin to toggle, no duplicate to detect)."""
        return True

    @staticmethod
    def _holds_only_rank(state: AgentState) -> bool:
        return (
            state.rank is not None
            and state.phase is None
            and state.wait_count is None
            and state.coin is None
            and state.alive_count is None
            and not state.in_reset
            and not state.in_leader_election
        )

    # ------------------------------------------------------------------
    # State accounting (Theorem 2)
    # ------------------------------------------------------------------
    def overhead_states(self) -> int:
        """Number of states beyond the ``n`` rank states (``O(log² n)``).

        Protocol 3's non-rank states are pairs of a coin with either a reset
        state (``R_max · D_max`` combinations collapsed in the paper to
        ``Θ(log n) × Θ(log n)``), a leader-election state
        (``|Q_SLE| = Θ(log² n)``) or a main non-rank state
        (``aliveCount × (waitCount ⊎ phase)``).
        """
        reset_states = (self._reset.r_max + 1) * (self._reset.d_max + 1)
        le_states = self._l_max * self._leader_election.coin_count_init * 4
        main_states = self._l_max * (self._wait_init + self._schedule.phase_count)
        return 2 * (reset_states + le_states + main_states)

    def state_space_size(self) -> int:
        """Total states per the paper's accounting (``n + O(log² n)``)."""
        return self.n + self.overhead_states()

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            c_wait=self._c_wait,
            c_live=self._c_live,
            l_max=self._l_max,
            wait_init=self._wait_init,
            alive_reset=self._alive_reset,
            r_max=self._reset.r_max,
            d_max=self._reset.d_max,
        )
        return info

    def consumes_randomness(self) -> bool:
        """Transitions are deterministic (synthetic coins are togglings)."""
        return False

    def codec_fields(self):
        from ...core.state import AGENT_STATE_FIELDS

        return AGENT_STATE_FIELDS

    def vectorized_kernel(self, codec):
        """The mid-run SoA fast path (coin toggles, liveness counters).

        See :mod:`repro.protocols.ranking.soa_kernel`; the kernel is exact
        and conservative, handing every base-state-writing pair back to
        the array engine's ordered walk.
        """
        from .soa_kernel import StableRankingKernel

        return StableRankingKernel(self)


class StableRankingCountGoal(RankingCountGoal):
    """:meth:`StableRanking.has_converged` read off state counts.

    ``measure()`` and ``target()`` are the ranked count of
    :class:`~repro.core.group_engine.RankingCountGoal`; ``done()``
    additionally requires all ``n`` agents to hold a bare rank in
    ``{1, …, n}`` — nothing but the rank, as in the silent legal set.  A
    ranked agent that still carries a coin or a counter keeps changing,
    so a permutation alone is not convergence.  The bare count is
    additive in the count deltas like the measure, and ``done()`` still
    implies ``measure() == target()``.
    """

    def __init__(self, n: int):
        super().__init__(n)
        self._bare = 0

    def on_count(self, state: AgentState, delta: int) -> None:
        super().on_count(state, delta)
        if (
            StableRanking._holds_only_rank(state)
            and 1 <= state.rank <= self._n
        ):
            self._bare += delta

    def done(self) -> bool:
        return super().done() and self._bare == self._n
