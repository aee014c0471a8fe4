"""Configurations: the global state of a population.

A configuration is the vector of agent states at a point in time.  This
module provides a small container class with the validity predicates used
throughout the paper (valid ranking, legal configuration set ``C_L``) plus
convenience accessors used by metrics, experiments and tests.

The container is deliberately generic: the reference protocols use
:class:`~repro.core.state.AgentState`, while baselines may define their own
lightweight state classes.  The only requirement for the ranking-specific
helpers is that states expose a ``rank`` attribute (``None`` when unranked).
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Callable, Generic, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

from .errors import ConfigurationError
from .state import AgentState, Role, classify_role

__all__ = ["Configuration"]

S = TypeVar("S")


class Configuration(Generic[S]):
    """The joint state of all ``n`` agents.

    Parameters
    ----------
    states:
        One state object per agent.  The configuration takes ownership of the
        list; callers that need to preserve the originals should pass copies.
    """

    __slots__ = ("_states",)

    def __init__(self, states: Sequence[S]):
        states = list(states)
        if not states:
            raise ConfigurationError("a configuration needs at least one agent")
        self._states: List[S] = states

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[S]:
        return iter(self._states)

    def __getitem__(self, index: int) -> S:
        return self._states[index]

    def __setitem__(self, index: int, value: S) -> None:
        self._states[index] = value

    @property
    def states(self) -> List[S]:
        """The underlying list of agent states (mutable, shared)."""
        return self._states

    @property
    def population_size(self) -> int:
        """Number of agents ``n``."""
        return len(self._states)

    def copy(self) -> "Configuration[S]":
        """Deep-ish copy: copies states that provide a ``copy()`` method."""
        copied = [
            state.copy() if hasattr(state, "copy") else state
            for state in self._states
        ]
        return Configuration(copied)

    # ------------------------------------------------------------------
    # Ranking-specific queries (states must expose ``rank``)
    # ------------------------------------------------------------------
    def ranks(self) -> List[Optional[int]]:
        """Return the list of ranks (``None`` for unranked agents)."""
        return [getattr(state, "rank", None) for state in self._states]

    def assigned_ranks(self) -> List[int]:
        """Return only the defined ranks, in agent order."""
        return [rank for rank in self.ranks() if rank is not None]

    def ranked_count(self) -> int:
        """Number of agents currently holding a rank."""
        ranks = self.ranks()
        return len(ranks) - ranks.count(None)

    def unranked_count(self) -> int:
        """Number of agents without a rank."""
        return len(self) - self.ranked_count()

    def duplicate_ranks(self) -> List[int]:
        """Return the ranks held by more than one agent (sorted)."""
        assigned = self.assigned_ranks()
        if len(set(assigned)) == len(assigned):
            return []
        counts = Counter(assigned)
        return sorted(rank for rank, count in counts.items() if count > 1)

    def is_valid_ranking(self) -> bool:
        """Whether the configuration is in the legal set ``C_L``.

        ``C_L`` is the set of configurations in which the ranks form a
        permutation of ``{1, …, n}`` (Section III of the paper).
        """
        ranks = self.ranks()
        if any(rank is None for rank in ranks):
            return False
        return sorted(ranks) == list(range(1, len(self) + 1))

    def leader_index(self) -> Optional[int]:
        """Index of the agent with rank 1, or ``None`` if no such agent exists.

        The paper derives leader election from ranking by declaring the agent
        with rank 1 the leader.
        """
        for index, state in enumerate(self._states):
            if getattr(state, "rank", None) == 1:
                return index
        return None

    # ------------------------------------------------------------------
    # Role-based queries (reference AgentState only)
    # ------------------------------------------------------------------
    def role_counts(self) -> Counter:
        """Histogram of :class:`~repro.core.state.Role` values.

        Only meaningful when states are :class:`AgentState` instances.
        """
        return Counter(classify_role(state) for state in self._states)

    def agents_with_role(self, role: Role) -> List[int]:
        """Indices of agents whose classified role equals ``role``."""
        return [
            index
            for index, state in enumerate(self._states)
            if isinstance(state, AgentState) and classify_role(state) is role
        ]

    def phase_values(self) -> List[int]:
        """Phase counters of all phase agents (unordered list)."""
        return [
            state.phase
            for state in self._states
            if getattr(state, "phase", None) is not None
        ]

    def average_phase(self) -> float:
        """Average phase counter of unranked phase agents (0.0 if none).

        This is the red dashed series of the paper's Figure 2.
        """
        phases = self.phase_values()
        if not phases:
            return 0.0
        return sum(phases) / len(phases)

    def ranking_summary(self) -> Tuple[int, float, int]:
        """``(ranked_count(), average_phase(), len(duplicate_ranks()))`` in
        one pass over the states.

        The Figure 2 probes read all three at every metric snapshot (see
        :func:`~repro.core.metrics.standard_ranking_probes`).
        """
        ranks = []
        phase_total = phase_agents = 0
        for state in self._states:
            rank = getattr(state, "rank", None)
            if rank is not None:
                ranks.append(rank)
            phase = getattr(state, "phase", None)
            if phase is not None:
                phase_total += phase
                phase_agents += 1
        duplicates = 0
        if len(set(ranks)) != len(ranks):
            duplicates = sum(1 for held in Counter(ranks).values() if held > 1)
        average = phase_total / phase_agents if phase_agents else 0.0
        return len(ranks), average, duplicates

    # ------------------------------------------------------------------
    # Generic summarization
    # ------------------------------------------------------------------
    def count_where(self, predicate: Callable[[S], bool]) -> int:
        """Number of agents whose state satisfies ``predicate``."""
        return sum(1 for state in self._states if predicate(state))

    def summary(self) -> dict:
        """A small dictionary summary used by traces and debug output."""
        info = {
            "n": len(self),
            "ranked": self.ranked_count(),
            "duplicates": len(self.duplicate_ranks()),
            "valid_ranking": self.is_valid_ranking(),
        }
        if self._states and isinstance(self._states[0], AgentState):
            info["roles"] = {
                role.value: count for role, count in sorted(
                    self.role_counts().items(), key=lambda item: item[0].value
                )
            }
            info["average_phase"] = self.average_phase()
        return info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Configuration(n={len(self)}, ranked={self.ranked_count()})"

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def of_states(cls, states: Iterable[S]) -> "Configuration[S]":
        """Build a configuration from an iterable of states."""
        return cls(list(states))

    @classmethod
    def uniform(cls, n: int, factory: Callable[[], S]) -> "Configuration[S]":
        """Build a configuration of ``n`` agents created by ``factory``."""
        if n <= 0:
            raise ConfigurationError(f"population size must be positive, got {n}")
        return cls([factory() for _ in range(n)])
