"""The population protocol abstraction.

A population protocol is defined by a state space, a transition function on
ordered pairs of states, and an output function.  The classes in this module
capture exactly that, plus the two convergence notions used by the paper:

* a configuration is **valid** when the protocol's goal is met (for ranking:
  the ranks form a permutation of ``{1, …, n}``), and
* a protocol is **silent** when, eventually, no agent changes its state in
  any interaction.

Transition functions mutate the two participating
:class:`~repro.core.state.AgentState` objects in place and return a
:class:`TransitionResult` describing what happened — this avoids per-step
allocations in the simulator's hot loop while still exposing enough
information for metrics (e.g. counting resets or rank assignments).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Generic, Optional, Tuple, TypeVar

import numpy as np

from .configuration import Configuration
from .errors import ProtocolError

__all__ = ["PopulationProtocol", "TransitionResult", "RankingProtocol"]

S = TypeVar("S")


@dataclass(slots=True)
class TransitionResult:
    """What happened during a single interaction.

    Attributes
    ----------
    changed:
        Whether either agent's state changed.  Used for silence detection and
        by the no-op accounting of the aggregate engines' validation tests.
    rank_assigned:
        A rank that was newly assigned during this interaction, if any.
    reset_triggered:
        Whether the interaction triggered a reset (self-stabilizing protocol).
    label:
        Optional free-form tag for tracing (e.g. ``"phase_bump"``).
    """

    changed: bool = False
    rank_assigned: Optional[int] = None
    reset_triggered: bool = False
    label: Optional[str] = None


#: Shared immutable instance for the overwhelmingly common no-op case.
NOOP = TransitionResult(changed=False)


class PopulationProtocol(abc.ABC, Generic[S]):
    """Abstract base class for population protocols.

    Subclasses implement :meth:`initial_state`, :meth:`transition` and
    :meth:`has_converged`.  The population size ``n`` is an explicit protocol
    parameter: the paper (citing Cai et al.) shows exact knowledge of ``n``
    is necessary for self-stabilizing ranking, and the non-self-stabilizing
    protocol uses it to compute the phase schedule.
    """

    #: Human-readable protocol name used in experiment records.
    name: str = "population-protocol"

    def __init__(self, n: int):
        if n < 2:
            raise ProtocolError(f"population size must be at least 2, got {n}")
        self._n = int(n)

    @property
    def n(self) -> int:
        """The population size this protocol instance was built for."""
        return self._n

    # ------------------------------------------------------------------
    # Mandatory protocol definition
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def initial_state(self) -> S:
        """Return the designated initial state of a fresh agent."""

    @abc.abstractmethod
    def transition(
        self, initiator: S, responder: S, rng: np.random.Generator
    ) -> TransitionResult:
        """Apply one interaction, mutating ``initiator`` and ``responder``.

        The pair is ordered, matching the model in Section III: in each time
        step an ordered pair of distinct agents is chosen uniformly at random.
        Protocols whose rules are symmetric simply ignore the order.
        """

    @abc.abstractmethod
    def has_converged(self, configuration: Configuration[S]) -> bool:
        """Whether ``configuration`` satisfies the protocol's goal."""

    # ------------------------------------------------------------------
    # Optional hooks
    # ------------------------------------------------------------------
    def initial_configuration(self) -> Configuration[S]:
        """Return the designated initial configuration (all agents fresh)."""
        return Configuration([self.initial_state() for _ in range(self._n)])

    def is_silent(self, configuration: Configuration[S]) -> bool:
        """Whether no interaction can change any agent state.

        The default implementation conservatively equates silence with
        convergence; silent protocols for which convergence already implies
        silence (as proven for the paper's protocols) need not override this.
        """
        return self.has_converged(configuration)

    def output(self, state: S) -> object:
        """The output mapped from an agent state (default: the state itself)."""
        return state

    def describe(self) -> dict:
        """Protocol metadata recorded alongside experiment results."""
        return {"name": self.name, "n": self._n}

    def state_space_size(self) -> Optional[int]:
        """Number of distinct states the protocol can use, if known.

        Protocols reproducing the paper's state-space accounting override
        this; returning ``None`` means "not tracked".
        """
        return None

    def consumes_randomness(self) -> Optional[bool]:
        """Whether :meth:`transition` ever draws from the rng.

        The array engine and the backend registry use this declaration for
        capability negotiation: ``False`` promises that every transition is
        a pure function of the two states (so state pairs can be tabulated
        and the protocol runs on the array engine's warm path), ``True``
        declares that some transitions draw randomness (the engine goes
        straight to its object fallback instead of discovering the fact on
        the first tabulation attempt), and ``None`` (the default) leaves
        the engine to probe dynamically.  A wrong ``False`` is harmless —
        the probing rng still raises and the engine demotes mid-run — but
        costs a failed tabulation; a wrong ``True`` only forfeits speed.
        """
        return None

    def codec_fields(self) -> Tuple[str, ...]:
        """Field names that fully determine this protocol's agent states.

        Used with :meth:`StateCodec.field_columns
        <repro.core.codec.StateCodec.field_columns>` to project interned
        states into per-field integer columns (SoA kernels, capability
        matrices, cross-engine equivalence tests).  An empty tuple (the
        default) means the projection is undeclared.
        """
        return ()

    def count_goal(self, codec):
        """Convergence observable over state counts for the group engine.

        Protocols that can express their goal as a function of *how many*
        agents occupy each state (rather than which agent occupies it)
        return a :class:`~repro.core.group_engine.CountGoal` built over
        ``codec``; the group-count engine then simulates the exact lumped
        count process instead of individual agents.  Returning ``None``
        (the default) opts the protocol out of the group engine.
        """
        return None

    def count_profile(self):
        """Initial configuration as ``(state, multiplicity)`` pairs, if known.

        The group engine only needs counts, so protocols whose designated
        initial configuration collapses to a handful of distinct states can
        return them here and skip materializing ``n`` state objects (the
        difference between milliseconds and seconds at ``n = 10^6``).
        ``None`` (the default) falls back to building the configuration.
        """
        return None

    def convergence_is_closed(self) -> bool:
        """Whether the converged set is closed under every transition.

        ``True`` promises that no interaction leads from a configuration
        satisfying :meth:`has_converged` to one that does not — the
        closure half of self-stabilization, for *every* converged
        configuration over the state space, not only the reachable ones.
        The array engine then checks convergence only at the ends of its
        processing blocks and replays a block that ends converged at the
        exact check cadence, which yields the stopping interaction of a
        check every ``convergence_interval`` interactions without splitting
        its vector work into blocks of that size.  A wrong ``True``
        silently changes recorded stopping times, so declare it only where
        a property test backs it (``tests/property``).  ``False`` (the
        default) keeps the engine on cadence-sized blocks.
        """
        return False

    def vectorized_kernel(self, codec):
        """Optional struct-of-arrays fast path for the array engine.

        Protocols that understand their own hot path may return a
        :class:`~repro.core.soa.VectorizedKernel` built over ``codec`` (a
        :class:`~repro.core.codec.StateCodec`); the array engine then
        consumes chunk prefixes through it instead of the scalar walk,
        falling back to the walk at the first pair the kernel declines.
        The kernel must be *exact* — bit-identical to the reference
        simulator for the pairs it consumes (see :mod:`repro.core.soa`).
        Returning ``None`` (the default) keeps the generic paths.
        """
        return None


class RankingProtocol(PopulationProtocol[S]):
    """Base class for ranking protocols (the paper's problem).

    Convergence is membership in ``C_L``: every agent holds a rank and the
    ranks are a permutation of ``{1, …, n}``.  Subclasses may *extend*
    convergence with additional conditions (e.g. the self-stabilizing
    protocol also requires that no reset is in flight) by overriding
    :meth:`has_converged` and calling ``super()``.
    """

    name = "ranking"

    def has_converged(self, configuration: Configuration[S]) -> bool:
        return configuration.is_valid_ranking()

    def output(self, state: S):
        """Ranking output: the agent's rank (``None`` while unranked)."""
        return getattr(state, "rank", None)

    def leader_output(self, state: S) -> Optional[bool]:
        """Leader-election output derived from ranking (rank 1 = leader)."""
        rank = getattr(state, "rank", None)
        if rank is None:
            return None
        return rank == 1

    def count_goal(self, codec):
        """Ranking goal over counts: ranks held form a permutation of 1..n."""
        from .group_engine import RankingCountGoal

        return RankingCountGoal(self._n)


def make_probe(name: str, function: Callable[[Configuration], float]):
    """Small helper pairing a metric name with its probe function."""
    return (name, function)
