"""The ``PropagateReset`` sub-protocol (Burman et al. [20], Section V-A).

``PropagateReset`` restarts the whole population when some agent detects an
error.  Each agent carries two counters:

* ``resetCount ∈ [0, R_max]`` — while positive, the agent is *propagating*
  the reset: it infects every computing agent it meets (turning it into a
  propagating agent as well) and decrements its own counter, so the reset
  epidemic dies out after depth ``R_max``.
* ``delayCount ∈ [0, D_max]`` — once ``resetCount`` reaches 0 the agent is
  *dormant* and waits out ``delayCount`` interactions before it restarts the
  computation (re-entering the leader-election protocol).  The delay gives
  slower agents time to be reached by the reset and lets the synthetic coins
  warm up (Lemma 9 / Lemma 28).

The synthetic ``coin`` is the only variable that survives a reset.

The class is used by :class:`~repro.protocols.ranking.stable_ranking.StableRanking`
(Protocol 3, line 1) and can also be exercised standalone through
:class:`PropagateResetProtocol`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ...core.configuration import Configuration
from ...core.errors import ProtocolError
from ...core.protocol import PopulationProtocol, TransitionResult
from ...core.state import AgentState

__all__ = ["PropagateReset", "PropagateResetProtocol", "default_reset_depths"]

#: Callback that re-initializes an agent after its dormancy expires.  It must
#: preserve the agent's coin (the caller guarantees the coin is already set).
RestartCallback = Callable[[AgentState], None]


def default_reset_depths(n: int, r_scale: float = 3.0, d_scale: float = 8.0) -> tuple[int, int]:
    """Return default ``(R_max, D_max)`` values, both ``Θ(log n)``.

    Lemma 27 uses ``R_max = 60·ln n``; that constant is tuned for the w.h.p.
    statements of the analysis and makes small-population simulations
    needlessly slow, so we default to smaller logarithmic multiples and let
    experiments override them.  ``D_max`` must dominate ``R_max`` plus the
    coin warm-up, hence the larger scale.
    """
    if n < 2:
        raise ProtocolError(f"population size must be at least 2, got {n}")
    log_n = max(math.log(n), 1.0)
    r_max = max(2, int(math.ceil(r_scale * log_n)))
    d_max = max(r_max + 2, int(math.ceil(d_scale * log_n)))
    return r_max, d_max


class PropagateReset:
    """Reset propagation rules operating on :class:`AgentState` pairs.

    Parameters
    ----------
    r_max / d_max:
        Maximum values of ``resetCount`` and ``delayCount``.
    restart:
        Called on an agent whose dormancy has just expired; it must install
        the initial state of the follow-up computation (leader election) while
        keeping the coin.
    """

    def __init__(self, r_max: int, d_max: int, restart: RestartCallback):
        if r_max < 1:
            raise ProtocolError(f"R_max must be positive, got {r_max}")
        if d_max < 1:
            raise ProtocolError(f"D_max must be positive, got {d_max}")
        self._r_max = r_max
        self._d_max = d_max
        self._restart = restart
        self._triggered = 0

    @property
    def r_max(self) -> int:
        """Maximum reset-propagation depth ``R_max``."""
        return self._r_max

    @property
    def d_max(self) -> int:
        """Maximum dormancy ``D_max``."""
        return self._d_max

    @property
    def triggered_count(self) -> int:
        """Number of times :meth:`trigger` has been called (diagnostics)."""
        return self._triggered

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def trigger(self, agent: AgentState) -> None:
        """``TRIGGER RESET``: make ``agent`` a triggered (propagating) agent.

        All variables except the coin are forgotten; a missing coin is
        initialized to 0, exactly as described in Section V-A.
        """
        coin = agent.coin if agent.coin is not None else 0
        agent.clear()
        agent.coin = coin
        agent.reset_count = self._r_max
        agent.delay_count = self._d_max
        self._triggered += 1

    def applies(self, u: AgentState, v: AgentState) -> bool:
        """Whether this interaction is handled by ``PropagateReset`` at all."""
        return u.in_reset or v.in_reset

    def apply(self, u: AgentState, v: AgentState) -> bool:
        """Apply the reset rules to an interacting pair; return whether a
        state changed.

        The rules are symmetric in the two agents (the paper does not
        distinguish initiator and responder here).  Each agent's counters
        are read once, not through the ``AgentState`` role properties, and
        tracked in locals as the rules update them.
        """
        u_reset = u.reset_count
        u_delay = u.delay_count
        v_reset = v.reset_count
        v_delay = v.delay_count
        u_in_reset = u_reset is not None or u_delay is not None
        v_in_reset = v_reset is not None or v_delay is not None
        if not (u_in_reset or v_in_reset):
            return False

        changed = False
        u_propagating = u_reset is not None and u_reset > 0
        v_propagating = v_reset is not None and v_reset > 0

        if u_propagating and v_propagating:
            # Two propagating agents adopt the maximum counter minus one
            # (unless both are already 0, which cannot happen here because
            # propagating requires a positive counter).
            u_reset = v_reset = max(u_reset, v_reset) - 1
            u.reset_count = u_reset
            v.reset_count = v_reset
            changed = True
        elif u_propagating or v_propagating:
            # The propagating agent decrements its counter; a computing
            # partner is absorbed into the reset epidemic.  A dormant partner
            # only takes its own decrement below.
            if u_propagating:
                u_reset -= 1
                u.reset_count = u_reset
                if not v_in_reset:
                    self._infect(v, u_reset)
                    v_reset, v_delay = v.reset_count, v.delay_count
            else:
                v_reset -= 1
                v.reset_count = v_reset
                if not u_in_reset:
                    self._infect(u, v_reset)
                    u_reset, u_delay = u.reset_count, u.delay_count
            changed = True

        # Every dormant agent (reset counter 0, delay counter positive)
        # decrements its delay counter on any interaction, including one
        # that became dormant above.
        if u_reset == 0 and u_delay is not None and u_delay > 0:
            self._count_down_dormancy(u, u_delay)
            changed = True
        if v_reset == 0 and v_delay is not None and v_delay > 0:
            self._count_down_dormancy(v, v_delay)
            changed = True
        return changed

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _count_down_dormancy(self, agent: AgentState, delay_count: int) -> None:
        """Decrement a dormant agent's delay counter; restart it at 0."""
        agent.delay_count = delay_count - 1
        if delay_count == 1:
            self._wake(agent)

    def _infect(self, agent: AgentState, reset_count: int) -> None:
        """Turn a computing agent into a propagating one."""
        coin = agent.coin if agent.coin is not None else 0
        agent.clear()
        agent.coin = coin
        agent.reset_count = reset_count
        agent.delay_count = self._d_max
        if agent.reset_count == 0 and agent.delay_count == 0:
            self._wake(agent)

    def _wake(self, agent: AgentState) -> None:
        """Dormancy expired: forget the reset state and restart computing."""
        coin = agent.coin if agent.coin is not None else 0
        agent.clear()
        agent.coin = coin
        self._restart(agent)


class PropagateResetProtocol(PopulationProtocol[AgentState]):
    """Standalone wrapper used to test ``PropagateReset`` in isolation.

    Agents start as blank "computing" agents (only a coin); one of them is
    triggered in :meth:`initial_configuration`.  Restarted agents get
    ``leader_done = 0`` so convergence ("everybody restarted") is observable.
    """

    name = "propagate-reset"

    def __init__(self, n: int, r_max: Optional[int] = None, d_max: Optional[int] = None):
        super().__init__(n)
        default_r, default_d = default_reset_depths(n)
        self._reset = PropagateReset(
            r_max if r_max is not None else default_r,
            d_max if d_max is not None else default_d,
            restart=self._restart,
        )

    @staticmethod
    def _restart(agent: AgentState) -> None:
        agent.leader_done = 0
        agent.is_leader = 0

    @property
    def reset(self) -> PropagateReset:
        """The underlying reset rules (exposed for tests)."""
        return self._reset

    def initial_state(self) -> AgentState:
        return AgentState(coin=0)

    def initial_configuration(self) -> Configuration[AgentState]:
        configuration = super().initial_configuration()
        self._reset.trigger(configuration[0])
        return configuration

    def transition(
        self,
        initiator: AgentState,
        responder: AgentState,
        rng: np.random.Generator,
    ) -> TransitionResult:
        changed = self._reset.apply(initiator, responder)
        responder.toggle_coin()
        return TransitionResult(changed=changed)

    def has_converged(self, configuration: Configuration[AgentState]) -> bool:
        """Converged once every agent has been reset and restarted."""
        return all(
            state.leader_done is not None and not state.in_reset
            for state in configuration.states
        )
