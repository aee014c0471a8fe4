"""Leader-election substrate for ``SpaceEfficientRanking``.

The paper plugs in the protocol of Gasieniec and Stachowiak [30], which
elects a unique leader within ``O(n log² n)`` interactions w.h.p. using
``O(log log n)`` states, and assumes (following [15]) that it exposes a
``leaderDone`` flag.  Reproducing [30] verbatim is outside the scope of this
paper's contribution — it is used strictly as a black box — so this module
provides an interface- and time-faithful substitute (its contract is
tested in ``tests/protocols/test_leader_election.py``):

* On its first activation every agent draws a random *tag* uniformly from a
  space of size ``n⁴`` (so all tags are distinct w.h.p.).
* Agents propagate the maximum tag they have seen (a one-way epidemic on the
  maximum); an agent keeps ``isLeader = 1`` exactly as long as it has never
  seen a tag larger than its own.
* Every participating agent decrements a countdown of ``Θ(log² n)`` per
  activation; when the countdown expires it sets ``leaderDone = 1``.

After ``O(n log² n)`` interactions the maximum tag has reached every agent
w.h.p., so exactly one agent ends up with ``isLeader = leaderDone = 1`` —
the contract of Lemma 15.  The substitute uses more states than [30]
(``Θ(n⁴)`` tag values instead of ``O(log log n)`` states); the state-space
accounting in :mod:`repro.analysis.state_space` therefore reports both the
as-built count and the paper's count with [30] as a black box.
"""

from __future__ import annotations

import math

import numpy as np

from ...core.configuration import Configuration
from ...core.errors import ProtocolError
from ...core.protocol import PopulationProtocol, TransitionResult
from ...core.state import AgentState
from .interfaces import LeaderElectionModule

__all__ = ["GSLeaderElection", "GSLeaderElectionProtocol"]


class GSLeaderElection(LeaderElectionModule):
    """Maximum-tag leader election with a done-countdown.

    Parameters
    ----------
    n:
        Population size.
    done_constant:
        The countdown is ``⌈done_constant · log₂(n)²⌉`` activations; the
        default leaves a comfortable w.h.p. margin over the ``O(log n)``
        activations needed for the maximum-tag epidemic to finish.
    """

    def __init__(self, n: int, done_constant: float = 3.0):
        if n < 2:
            raise ProtocolError(f"population size must be at least 2, got {n}")
        if done_constant <= 0:
            raise ProtocolError(f"done_constant must be positive, got {done_constant}")
        self._n = n
        log_n = max(math.log2(n), 1.0)
        self._countdown = max(4, int(math.ceil(done_constant * log_n * log_n)))
        self._tag_space = max(16, n ** 4)

    @property
    def n(self) -> int:
        """Population size."""
        return self._n

    @property
    def countdown(self) -> int:
        """Initial value of the per-agent done-countdown (``Θ(log² n)``)."""
        return self._countdown

    @property
    def tag_space(self) -> int:
        """Size of the random tag space (``n⁴``)."""
        return self._tag_space

    # ------------------------------------------------------------------
    # LeaderElectionModule interface
    # ------------------------------------------------------------------
    def init_state(self, agent: AgentState) -> None:
        """Install the initial leader-election variables (``q₀``)."""
        agent.is_leader = 1
        agent.leader_done = 0
        agent.le_level = None  # tag not drawn yet
        agent.le_count = self._countdown

    def apply(
        self, initiator: AgentState, responder: AgentState, rng: np.random.Generator
    ) -> bool:
        """One leader-election interaction between two participating agents."""
        self._ensure_tag(initiator, rng)
        self._ensure_tag(responder, rng)

        changed = False
        maximum = max(initiator.le_level, responder.le_level)
        for agent in (initiator, responder):
            if agent.le_level < maximum:
                agent.le_level = maximum
                if agent.is_leader == 1:
                    agent.is_leader = 0
                changed = True
            if agent.leader_done == 0:
                agent.le_count -= 1
                changed = True
                if agent.le_count <= 0:
                    agent.leader_done = 1
        return changed

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _ensure_tag(self, agent: AgentState, rng: np.random.Generator) -> None:
        if agent.le_level is None:
            agent.le_level = int(rng.integers(0, self._tag_space))


class GSLeaderElectionProtocol(PopulationProtocol[AgentState]):
    """Standalone wrapper running only the leader-election substrate.

    Convergence: every agent is done and exactly one agent believes it is the
    leader.  Used by unit tests and by the leader-election example.
    """

    name = "gs-leader-election"

    def __init__(self, n: int, done_constant: float = 3.0):
        super().__init__(n)
        self._module = GSLeaderElection(n, done_constant=done_constant)

    @property
    def module(self) -> GSLeaderElection:
        """The wrapped :class:`GSLeaderElection` instance."""
        return self._module

    def initial_state(self) -> AgentState:
        agent = AgentState()
        self._module.init_state(agent)
        return agent

    def transition(
        self,
        initiator: AgentState,
        responder: AgentState,
        rng: np.random.Generator,
    ) -> TransitionResult:
        if self._module.participates(initiator) and self._module.participates(responder):
            changed = self._module.apply(initiator, responder, rng)
            return TransitionResult(changed=changed)
        return TransitionResult(changed=False)

    def consumes_randomness(self) -> bool:
        """``True``: agents draw their lottery tags from the rng."""
        return True

    def has_converged(self, configuration: Configuration[AgentState]) -> bool:
        leaders = 0
        for state in configuration.states:
            if state.leader_done != 1:
                return False
            if state.is_leader == 1:
                leaders += 1
        return leaders == 1

    def leader_count(self, configuration: Configuration[AgentState]) -> int:
        """Number of agents currently believing they are the leader."""
        return sum(1 for state in configuration.states if state.is_leader == 1)
