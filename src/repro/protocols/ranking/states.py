"""State-space helpers shared by the ranking protocols.

The self-stabilizing protocol partitions agent states into the *main* states
``Q_Main`` (rank, or coin × aliveCount × (waitCount or phase)), the
leader-election states, and the reset states (Protocol 3).  The helpers in
this module implement those membership tests and the configuration-level
predicates used by the analysis (the configuration classes ``C_SR``,
``C_{k,wait}``, ``C_{k,rank}`` of Definition 5).
"""

from __future__ import annotations

from typing import Optional

from ...core.configuration import Configuration
from ...core.state import AgentState
from .phases import PhaseSchedule

__all__ = [
    "in_main_state",
    "is_productive_pair",
    "is_start_ranking_configuration",
    "is_initial_waiting_configuration",
    "is_initial_ranking_configuration",
    "unranked_main_state",
]


def in_main_state(state: AgentState) -> bool:
    """Whether ``state`` belongs to ``Q_Main`` of Protocol 3.

    A main state is either a bare rank, or an unranked main state consisting
    of a coin, an ``aliveCount`` and either a wait counter or a phase.  States
    carrying leader-election or reset variables are not main states.

    The fields are read directly rather than through the ``in_reset`` /
    ``in_leader_election`` properties: ``StableRanking`` asks this for
    both agents of most interactions.
    """
    if (
        state.reset_count is not None
        or state.delay_count is not None
        or state.leader_done is not None
    ):
        return False
    if state.rank is not None:
        return True
    return unranked_main_state(state)


def unranked_main_state(state: AgentState) -> bool:
    """:func:`in_main_state` for an unranked agent that carries no reset
    or leader-election variables: an ``aliveCount`` and either a wait
    counter or a phase."""
    return state.alive_count is not None and (
        state.wait_count is not None or state.phase is not None
    )


def is_productive_pair(
    u: AgentState, v: AgentState, schedule: PhaseSchedule
) -> bool:
    """The "productive pair" predicate of the potential-function analysis.

    A pair is productive when the protocol could make progress if the phase
    agent's coin showed 1 (Protocol 4, line 13, ignoring the coin): either
    ``u`` is waiting and ``v`` is a phase agent, or ``u`` is ranked, ``v`` is
    a phase agent and ``rank(u) ≤ ⌊n · 2^-phase(v)⌋``.
    """
    if v.phase is None:
        return False
    if u.wait_count is not None:
        return True
    if u.rank is None:
        return False
    return u.rank <= schedule.unranked_leader_threshold(v.phase)


def _unique_waiting_index(configuration: Configuration[AgentState]) -> Optional[int]:
    waiting = [
        index
        for index, state in enumerate(configuration.states)
        if state.wait_count is not None
    ]
    return waiting[0] if len(waiting) == 1 else None


def is_start_ranking_configuration(
    configuration: Configuration[AgentState], wait_init: int
) -> bool:
    """Membership test for ``C_SR`` (Lemma 3).

    A unique waiting agent with the full wait counter exists, and every other
    agent is either still leader-electing with ``isLeader = 0`` or is a phase
    agent with phase 1.
    """
    waiting_index = _unique_waiting_index(configuration)
    if waiting_index is None:
        return False
    if configuration[waiting_index].wait_count != wait_init:
        return False
    for index, state in enumerate(configuration.states):
        if index == waiting_index:
            continue
        if state.in_leader_election:
            if state.is_leader == 1:
                return False
        elif state.phase != 1:
            return False
    return True


def is_initial_waiting_configuration(
    configuration: Configuration[AgentState],
    schedule: PhaseSchedule,
    phase: int,
    wait_init: int,
) -> bool:
    """Membership test for ``C_{k,wait}`` (Definition 5.2), ``k > 1``.

    A unique waiting agent with the full counter, exactly the ranks
    ``f_k + 1 … n`` assigned (each once), all phase agents at phase at most
    ``k`` and no leader-electing agents.
    """
    waiting_index = _unique_waiting_index(configuration)
    if waiting_index is None:
        return False
    if configuration[waiting_index].wait_count != wait_init:
        return False
    expected_ranks = set(range(schedule.f(phase) + 1, schedule.n + 1))
    if sorted(configuration.assigned_ranks()) != sorted(expected_ranks):
        return False
    for state in configuration.states:
        if state.in_leader_election:
            return False
        if state.phase is not None and state.phase > phase:
            return False
    return True


def is_initial_ranking_configuration(
    configuration: Configuration[AgentState],
    schedule: PhaseSchedule,
    phase: int,
) -> bool:
    """Membership test for ``C_{k,rank}`` (Definition 5.3).

    A unique unaware leader with rank 1, exactly the ranks ``f_k + 1 … n``
    assigned to other agents, all phase agents at phase exactly ``k``, and no
    leader-electing or waiting agents.
    """
    leaders = [state for state in configuration.states if state.rank == 1]
    if len(leaders) != 1:
        return False
    other_ranks = sorted(
        state.rank
        for state in configuration.states
        if state.rank is not None and state.rank != 1
    )
    expected = list(range(schedule.f(phase) + 1, schedule.n + 1))
    if other_ranks != expected:
        return False
    for state in configuration.states:
        if state.in_leader_election or state.wait_count is not None:
            return False
        if state.phase is not None and state.phase != phase:
            return False
    return True
