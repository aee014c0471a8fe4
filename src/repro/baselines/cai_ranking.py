"""Cai–Izumi–Wada-style ``n``-state self-stabilizing ranking baseline.

Cai, Izumi and Wada [21] show that silent self-stabilizing leader election
is possible with exactly ``n`` states and ``O(n³)`` interactions w.h.p., and
that ``n`` states are necessary.  Their protocol is the classic
collision-increment rule on labels: every agent always holds a label in
``{1, …, n}``; when two agents with the *same* label interact, the responder
moves to the cyclically next label.  Once all labels are distinct — a
configuration the random walk on label multisets reaches in ``O(n³)``
interactions in expectation — no interaction changes any state, so the
protocol is silent, the labels form a ranking, and the agent with label 1 is
the leader.

This baseline is the "zero overhead states, cubic time" corner of the
state/time trade-off that the paper improves on (``n + O(log² n)`` states,
``O(n² log n)`` interactions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.configuration import Configuration
from ..core.protocol import RankingProtocol, TransitionResult

__all__ = ["CaiState", "CaiRanking", "CaiStyleRanking"]


@dataclass(slots=True)
class CaiState:
    """State of one agent: nothing but a label in ``{1, …, n}``."""

    rank: int

    def copy(self) -> "CaiState":
        return CaiState(self.rank)


class CaiRanking(RankingProtocol[CaiState]):
    """Collision-increment ranking with exactly ``n`` states.

    The designated initial configuration assigns label 1 to every agent
    (the worst case); because the protocol is self-stabilizing, experiments
    may start it from any label assignment.
    """

    name = "cai-ranking"

    def initial_state(self) -> CaiState:
        return CaiState(rank=1)

    def transition(
        self,
        initiator: CaiState,
        responder: CaiState,
        rng: np.random.Generator,
    ) -> TransitionResult:
        if initiator.rank == responder.rank:
            responder.rank = responder.rank % self.n + 1
            return TransitionResult(
                changed=True, rank_assigned=responder.rank, label="collision"
            )
        return TransitionResult(changed=False)

    # ------------------------------------------------------------------
    # Array-engine capability declarations
    # ------------------------------------------------------------------
    def consumes_randomness(self) -> bool:
        """``False``: the collision-increment rule never draws randomness."""
        return False

    def codec_fields(self):
        return ("rank",)

    def has_converged(self, configuration: Configuration[CaiState]) -> bool:
        return configuration.is_valid_ranking()

    def convergence_is_closed(self) -> bool:
        """Distinct labels never collide, so a valid ranking is final."""
        return True

    def is_silent(self, configuration: Configuration[CaiState]) -> bool:
        """All labels distinct — equivalent to convergence for this protocol."""
        ranks = configuration.ranks()
        return len(set(ranks)) == len(ranks)

    def state_space_size(self) -> int:
        return self.n

    def overhead_states(self) -> int:
        """The protocol uses no states beyond the ``n`` labels."""
        return 0


#: Alias matching the naming of the other baselines (``BurmanStyleRanking``).
CaiStyleRanking = CaiRanking
