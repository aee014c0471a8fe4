"""One-way epidemics (broadcasts).

A one-way epidemic spreads a piece of information from a single initially
informed agent to the whole population (or to a designated subpopulation):
whenever the initiator of an interaction is informed, the responder becomes
informed as well.  The paper uses one-way epidemics in three places — to
start the ranking after leader election, to propagate phase increments among
the unranked agents, and (inside ``PropagateReset``) to spread resets — and
analyses them with the tail bound of Lemma 14.

This module provides a standalone epidemic protocol for tests and examples
and the corresponding analytic bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...core.configuration import Configuration
from ...core.group_engine import CountGoal
from ...core.protocol import PopulationProtocol, TransitionResult

__all__ = [
    "EpidemicCountGoal",
    "EpidemicState",
    "OneWayEpidemicKernel",
    "OneWayEpidemicProtocol",
    "epidemic_upper_bound",
]


@dataclass(slots=True)
class EpidemicState:
    """State of one agent in the standalone epidemic protocol.

    Attributes
    ----------
    informed:
        Whether the agent carries the broadcast.
    active:
        Whether the agent belongs to the subpopulation that participates in
        the epidemic (the paper's epidemics among phase agents are restricted
        to the ``m`` unranked agents; inactive agents model the rest).
    rank:
        Present only so the generic :class:`Configuration` helpers work; the
        epidemic protocol itself never assigns ranks.
    """

    informed: bool = False
    active: bool = True
    rank: object = None

    def copy(self) -> "EpidemicState":
        return EpidemicState(self.informed, self.active, self.rank)


class OneWayEpidemicProtocol(PopulationProtocol[EpidemicState]):
    """One-way epidemic restricted to an ``m``-agent subpopulation.

    Parameters
    ----------
    n:
        Total population size.
    m:
        Size of the participating subpopulation (defaults to ``n``).  The
        remaining ``n - m`` agents are inert, mirroring the setting of
        Lemma 14 where ranked agents neither spread nor receive the epidemic.
    """

    name = "one-way-epidemic"

    def __init__(self, n: int, m: int | None = None):
        super().__init__(n)
        self._m = n if m is None else int(m)
        if not 1 <= self._m <= n:
            raise ValueError(f"m must be in [1, n], got m={m} with n={n}")

    @property
    def m(self) -> int:
        """Size of the participating subpopulation."""
        return self._m

    def initial_state(self) -> EpidemicState:
        return EpidemicState(informed=False, active=True)

    def initial_configuration(self) -> Configuration[EpidemicState]:
        """One informed active agent, ``m - 1`` uninformed active agents, rest inert."""
        states = [EpidemicState(informed=True, active=True)]
        states += [EpidemicState(informed=False, active=True) for _ in range(self._m - 1)]
        states += [
            EpidemicState(informed=False, active=False) for _ in range(self.n - self._m)
        ]
        return Configuration(states)

    def transition(
        self,
        initiator: EpidemicState,
        responder: EpidemicState,
        rng: np.random.Generator,
    ) -> TransitionResult:
        if (
            initiator.active
            and responder.active
            and initiator.informed
            and not responder.informed
        ):
            responder.informed = True
            return TransitionResult(changed=True, label="infect")
        return TransitionResult(changed=False)

    def has_converged(self, configuration: Configuration[EpidemicState]) -> bool:
        return all(
            state.informed for state in configuration.states if state.active
        )

    def convergence_is_closed(self) -> bool:
        """Infection only ever informs agents, so completion is final."""
        return True

    def informed_count(self, configuration: Configuration[EpidemicState]) -> int:
        """Number of informed agents in ``configuration``."""
        return sum(1 for state in configuration.states if state.informed)

    def state_space_size(self) -> int:
        return 4  # informed x active

    def consumes_randomness(self) -> bool:
        """Infection is a deterministic function of the two states."""
        return False

    def codec_fields(self):
        return ("informed", "active")

    def count_goal(self, codec):
        """Completion over counts: every active agent is informed."""
        return EpidemicCountGoal()

    def count_profile(self):
        """The three distinct states of the designated initial configuration."""
        profile = [(EpidemicState(informed=True, active=True), 1)]
        if self._m > 1:
            profile.append((EpidemicState(informed=False, active=True), self._m - 1))
        if self.n > self._m:
            profile.append(
                (EpidemicState(informed=False, active=False), self.n - self._m)
            )
        return profile

    def vectorized_kernel(self, codec):
        """The epidemic SoA kernel — the simplest exemplar of the hook."""
        return OneWayEpidemicKernel()


class EpidemicCountGoal(CountGoal):
    """Epidemic completion read off state counts.

    ``measure()`` counts informed active agents, ``target()`` the active
    subpopulation — both linear in the counts, and the number of active
    agents is invariant under the transition, so the target is constant.
    """

    def __init__(self):
        self._informed_active = 0
        self._active = 0

    def on_count(self, state: EpidemicState, delta: int) -> None:
        if state.active:
            self._active += delta
            if state.informed:
                self._informed_active += delta

    def measure(self) -> int:
        return self._informed_active

    def target(self) -> int:
        return self._active


class OneWayEpidemicKernel:
    """Struct-of-arrays kernel for the one-way epidemic.

    The exemplar :class:`~repro.core.soa.VectorizedKernel`: the epidemic's
    only effect is monotone (``informed`` flips to ``True`` and stays), so
    a whole chunk resolves as a time-respecting reachability fixpoint —
    agent ``v`` is informed after the chunk iff some pair ``(u, v)`` at
    position ``t`` had ``u`` informed strictly before ``t``.  Iterating
    the earliest-infection-time relaxation converges in at most the depth
    of the chunk's infection forest (a handful of rounds) and consumes
    every chunk completely; the kernel never defers to the walk.
    """

    _COLUMNS = ("informed", "active")

    def __init__(self):
        self._classified = 0
        self._informed = np.empty(0, dtype=bool)
        self._active = np.empty(0, dtype=bool)

    def columns(self):
        return self._COLUMNS

    def _refresh(self, store) -> None:
        from ...core.soa import grow_column

        size = store.refresh()
        start = self._classified
        if size <= start:
            return
        self._informed = grow_column(self._informed, start, size, minimum=8)
        self._active = grow_column(self._active, start, size, minimum=8)
        window = slice(start, size)
        self._informed[window] = store.column("informed")[window] > 0
        self._active[window] = store.column("active")[window] > 0
        self._classified = size

    def apply_chunk(self, initiators, responders, columns, rng,
                    stops=(), on_stop=None):
        from ...core.soa import ChunkOutcome

        self._refresh(columns)
        codes = columns.codes
        informed = self._informed[codes]
        active = self._active[codes]
        total = len(initiators)
        live = active[initiators] & active[responders]
        positions = np.flatnonzero(live)
        pair_u = initiators[positions]
        pair_v = responders[positions]
        never = total + 1
        infection_time = np.where(informed, np.int64(-1), np.int64(never))
        while len(positions):
            spreads = (infection_time[pair_u] < positions) & (
                infection_time[pair_v] > positions
            )
            if not spreads.any():
                break
            np.minimum.at(infection_time, pair_v[spreads], positions[spreads])
        # Agent v is informed after the first s pairs iff its infection
        # time is below s, so each stop commits the agents infected since
        # the previous one.
        newly = np.flatnonzero((infection_time >= 0) & (infection_time < never))
        times = infection_time[newly]
        start = 0
        for stop in stops:
            self._inform(columns, newly[(times >= start) & (times < stop)])
            on_stop(stop)
            start = stop
        self._inform(columns, newly[times >= start])
        return ChunkOutcome(total, changed=bool(len(newly)))

    @staticmethod
    def _inform(columns, agents) -> None:
        """Commit ``informed=True`` for ``agents``."""
        if len(agents):
            codes = columns.codes
            agents = agents.tolist()
            columns.commit(agents, [
                columns.variant(int(codes[agent]), informed=True)
                for agent in agents
            ])


def epidemic_upper_bound(n: int, m: int, gamma: float = 1.0) -> float:
    """Interaction bound of Lemma 14.

    With probability at least ``1 - 2·n^-gamma`` a one-way epidemic among a
    subset of ``m`` agents (one initially informed) in a population of ``n``
    agents completes within ``3·n²/m · (log m + 2·gamma·log n)`` interactions.
    """
    if not 2 <= m <= n:
        raise ValueError(f"need 2 <= m <= n, got m={m}, n={n}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return 3.0 * n * n / m * (math.log(m) + 2.0 * gamma * math.log(n))
