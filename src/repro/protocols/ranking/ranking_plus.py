"""``Ranking+`` — the error-detecting ranking rules (Protocol 4).

``Ranking+`` extends ``Ranking`` with the three error detectors that make
the composed protocol self-stabilizing:

1. **Duplicate ranks / duplicate waiting agents** (lines 1–4): detected when
   the two offenders interact directly; triggers a reset.
2. **Liveness checking** (lines 5–11): unranked agents carry an
   ``aliveCount`` that is driven towards zero by pairwise max-minus-one
   averaging and by meetings with the agents ranked ``n-1`` or ``n``; it is
   replenished whenever a *productive pair* interacts with the phase agent's
   coin showing 0.  A counter hitting zero means the protocol stopped making
   progress and triggers a reset.
3. **Coin-gated base protocol** (lines 12–18): the plain ``Ranking`` rules
   only run when the responder's coin shows 1, so progress and liveness
   replenishment each get roughly half of the productive interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ...core.state import AgentState
from .phases import PhaseSchedule
from .rules import RankingOutcome, RankingRules

__all__ = ["RankingPlus", "RankingPlusOutcome"]


@dataclass(slots=True)
class RankingPlusOutcome:
    """Result of one ``Ranking+`` invocation."""

    changed: bool = False
    rank_assigned: Optional[int] = None
    reset_triggered: bool = False
    error: Optional[str] = None


#: Shared outcomes of the invocations that assign no rank and detect no
#: error; callers only read them.
UNCHANGED = RankingPlusOutcome()
CHANGED = RankingPlusOutcome(changed=True)


class RankingPlus:
    """Protocol 4, operating on pairs of main-state agents.

    Parameters
    ----------
    schedule:
        Phase schedule for the population size.
    wait_init:
        Wait counter loaded at phase transitions (``⌈c_wait log n⌉``).
    alive_reset:
        Replenishment value ``⌈c_live · log n⌉`` for the liveness counter
        (Protocol 4, line 14).
    l_max:
        The maximum liveness value ``L_max`` installed when an agent becomes
        waiting (line 18) and when agents join the main protocol.
    trigger_reset:
        Callback invoking ``TriggerReset`` on an agent.
    """

    def __init__(
        self,
        schedule: PhaseSchedule,
        wait_init: int,
        alive_reset: int,
        l_max: int,
        trigger_reset: Callable[[AgentState], None],
    ):
        if alive_reset < 1:
            raise ValueError(f"alive_reset must be positive, got {alive_reset}")
        if l_max < alive_reset:
            raise ValueError(
                f"L_max ({l_max}) must be at least alive_reset ({alive_reset})"
            )
        self._schedule = schedule
        self._n = schedule.n
        self._rules = RankingRules(schedule, wait_init)
        self._alive_reset = alive_reset
        self._l_max = l_max
        self._trigger_reset = trigger_reset
        self._errors_detected = {"duplicate_rank": 0, "duplicate_waiting": 0, "liveness": 0}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def rules(self) -> RankingRules:
        """The embedded Protocol 2 rules."""
        return self._rules

    @property
    def alive_reset(self) -> int:
        """The liveness replenishment value ``⌈c_live log n⌉``."""
        return self._alive_reset

    @property
    def l_max(self) -> int:
        """The maximum liveness counter ``L_max``."""
        return self._l_max

    @property
    def errors_detected(self) -> dict:
        """Counts of detected errors by category (diagnostics)."""
        return dict(self._errors_detected)

    # ------------------------------------------------------------------
    # Protocol 4
    # ------------------------------------------------------------------
    def apply(self, initiator: AgentState, responder: AgentState) -> RankingPlusOutcome:
        """Execute ``Ranking+(u, v)`` with ``u = initiator``, ``v = responder``.

        Outcomes that assign no rank and detect no error are the shared
        :data:`UNCHANGED` / :data:`CHANGED` instances.
        """
        u, v = initiator, responder
        u_rank = u.rank
        u_wait = u.wait_count

        # Lines 1-4: directly detectable errors.
        if u_rank is not None and u_rank == v.rank:
            self._errors_detected["duplicate_rank"] += 1
            self._trigger_reset(u)
            return RankingPlusOutcome(
                changed=True, reset_triggered=True, error="duplicate_rank"
            )
        if u_wait is not None and v.wait_count is not None:
            self._errors_detected["duplicate_waiting"] += 1
            self._trigger_reset(u)
            return RankingPlusOutcome(
                changed=True, reset_triggered=True, error="duplicate_waiting"
            )

        changed = False
        v_alive = v.alive_count

        # Lines 5-6: two liveness-checking agents adopt the maximum minus one.
        u_alive = u.alive_count
        if u_alive is not None and v_alive is not None:
            new_count = max(0, max(u_alive, v_alive) - 1)
            if u_alive != new_count or v_alive != new_count:
                u.alive_count = new_count
                v.alive_count = v_alive = new_count
                changed = True

        # Lines 7-8: meeting one of the top-ranked agents drains the counter.
        n = self._n
        if (u_rank == n - 1 or u_rank == n) and v_alive is not None:
            v.alive_count = v_alive = max(0, v_alive - 1)
            changed = True

        # Lines 9-11: a drained counter means no progress — reset.
        if v_alive == 0:
            self._errors_detected["liveness"] += 1
            self._trigger_reset(u)
            return RankingPlusOutcome(
                changed=True, reset_triggered=True, error="liveness"
            )

        v_coin = v.coin
        if v_coin == 0:
            # Lines 12-14: replenish the liveness counter when the pair is
            # productive but the coin forbids actual progress this time.
            productive = u_wait is not None or (
                u_rank is not None
                and v.phase is not None
                and u_rank <= self._schedule.unranked_leader_threshold(v.phase)
            )
            if productive and v_alive != self._alive_reset:
                v.alive_count = self._alive_reset
                changed = True
        elif v_coin == 1:
            # Lines 15-18: execute the base protocol.
            outcome: RankingOutcome = self._rules.apply(u, v)
            if outcome.initiator_became_waiting:
                u.coin = 0
                u.alive_count = self._l_max
            if outcome.rank_assigned is not None:
                return RankingPlusOutcome(
                    changed=True, rank_assigned=outcome.rank_assigned
                )
            changed = changed or outcome.changed
        return CHANGED if changed else UNCHANGED
