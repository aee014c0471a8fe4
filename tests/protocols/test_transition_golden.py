"""Golden digests of the reset-composed ranking transitions.

``StableRanking`` and ``BurmanStyleRanking`` are applied to every ordered
pair of a fixed set of agent states: the distinct states that seeded
reference runs visit from the ``fresh``, ``adversarial`` and duplicate-rank
starts at ``n = 4`` and ``n = 16``, counters at the ends of their ranges,
and a seeded sample over the declared counter ranges that mixes defined and
``None`` fields in ways the protocols never produce themselves.  Each
transition is hashed with both resulting states, the ``TransitionResult``
fields and the per-call deltas of the diagnostic counters, so a change to
any rule shows up even where the reference simulator and the array
engine's tabulation would share it.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.core.errors import ProtocolError
from repro.core.rng import make_rng
from repro.core.simulation import Simulator
from repro.core.state import AGENT_STATE_FIELDS, AgentState
from repro.experiments.workloads import (
    adversarial_configuration,
    duplicate_rank_configuration,
)
from repro.protocols.ranking.stable_ranking import StableRanking

#: Interactions per seeded run that collects visited states.
RUN_INTERACTIONS = {4: 80, 16: 120}
RUN_SEEDS = (0, 1)
RANDOM_STATES = 40


def _visited(protocol, configuration, seed):
    """Distinct state tuples of ``configuration`` and of every agent a
    seeded reference run of ``protocol`` changes."""
    seen = {state.as_tuple() for state in configuration.states}

    def record(interaction, i, j, result):
        seen.add(states[i].as_tuple())
        seen.add(states[j].as_tuple())

    simulator = Simulator(
        protocol, configuration, random_state=seed, on_event=record
    )
    states = simulator.configuration.states
    simulator.run(RUN_INTERACTIONS[protocol.n], stop_on_convergence=False)
    return seen


def _random_states(reference, rng):
    """States whose fields are independently ``None`` or a value in the
    field's declared range for ``reference`` (a ``StableRanking``)."""
    n = reference.n
    election = reference.leader_election
    ranges = {
        "rank": (1, n),
        "phase": (1, reference.schedule.phase_count),
        "wait_count": (1, reference.wait_init),
        "coin": (0, 1),
        "alive_count": (0, reference.l_max),
        "reset_count": (0, reference.reset.r_max),
        "delay_count": (0, reference.reset.d_max),
        "is_leader": (0, 1),
        "leader_done": (0, 1),
        "le_count": (0, election.l_max),
        "coin_count": (0, election.coin_count_init),
        "le_level": (0, 3),
        "aux": (2, n + 1),
    }
    states = set()
    for _ in range(RANDOM_STATES):
        values = []
        for name in AGENT_STATE_FIELDS:
            low, high = ranges[name]
            if rng.random() < 0.6:
                values.append(None)
            else:
                values.append(int(rng.integers(low, high + 1)))
        states.add(tuple(values))
    return states


def _boundary_states(reference):
    """Counters at the ends of their ranges, where the rules branch."""
    n = reference.n
    l_max = reference.l_max
    states = []
    for coin in (None, 0, 1):
        for alive in (None, 0, 1, l_max):
            for phase in (1, reference.schedule.phase_count):
                states.append(AgentState(phase=phase, coin=coin, alive_count=alive))
            for wait in (1, reference.wait_init):
                states.append(AgentState(wait_count=wait, coin=coin, alive_count=alive))
        for rank in (1, 2, n - 1, n):
            states.append(AgentState(rank=rank, coin=coin))
        for reset, delay in ((1, 1), (2, 1), (0, 1), (0, 0)):
            states.append(AgentState(coin=coin, reset_count=reset, delay_count=delay))
        for le_count in (1, l_max // 2):
            for coin_count in (0, 1):
                for leader, done in ((0, 0), (1, 1)):
                    states.append(AgentState(
                        coin=coin, le_count=le_count, coin_count=coin_count,
                        is_leader=leader, leader_done=done,
                    ))
    states.append(AgentState(rank=1, aux=2))
    states.append(AgentState(rank=1, aux=n))
    states.append(AgentState(rank=1, aux=n + 1))
    return {state.as_tuple() for state in states}


def _state_set(protocol_class, n):
    reference = StableRanking(n)
    states = set()
    for seed in RUN_SEEDS:
        fresh = protocol_class(n).initial_configuration()
        states |= _visited(protocol_class(n), fresh, seed)
        states |= _visited(
            protocol_class(n),
            adversarial_configuration(reference, random_state=seed),
            seed,
        )
        states |= _visited(
            protocol_class(n),
            duplicate_rank_configuration(n, random_state=seed),
            seed,
        )
    states |= _boundary_states(reference)
    states |= _random_states(reference, make_rng(1000 + n))
    return sorted(states, key=lambda values: tuple((v is None, v or 0) for v in values))


def _diagnostics(protocol):
    counters = [protocol.reset.triggered_count]
    counters.append(protocol._leader_election.resets_triggered)
    ranking_plus = getattr(protocol, "ranking_plus", None)
    if ranking_plus is not None:
        counters.extend(sorted(ranking_plus.errors_detected.items()))
    return counters


def _delta(before, after):
    return tuple(
        (b[0], a[1] - b[1]) if isinstance(b, tuple) else a - b
        for b, a in zip(before, after)
    )


def transition_digest(protocol_class, n):
    """sha256 over every ordered pair of :func:`_state_set` states."""
    protocol = protocol_class(n)
    rng = np.random.default_rng(0)
    states = _state_set(protocol_class, n)
    digest = hashlib.sha256()
    for left in states:
        for right in states:
            u, v = AgentState(*left), AgentState(*right)
            before = _diagnostics(protocol)
            try:
                result = protocol.transition(u, v, rng)
            except (ProtocolError, TypeError) as error:
                # Some None mixes the protocols never produce themselves
                # reach a guard or compare None with an int.
                record = ("raises", type(error).__name__)
            else:
                record = (
                    u.as_tuple(),
                    v.as_tuple(),
                    result.changed,
                    result.rank_assigned,
                    result.reset_triggered,
                    result.label,
                    _delta(before, _diagnostics(protocol)),
                )
            digest.update(repr((left, right, record)).encode())
    return len(states), digest.hexdigest()


#: ``(state count, sha256)`` per protocol and ``n``, captured on the rule
#: code before its hot paths were flattened.
GOLDEN = {
    ("stable", 4): (
        368, "9c92a48f5402564ef6c0a921f8253b187e652ddba6c93b626a3e75a52f2abaf3"
    ),
    ("stable", 16): (
        331, "7f32c17b91a41b92176a9d1c153688dfb8fd573cacdfe608cc79d35d4d19035e"
    ),
    ("burman", 4): (
        368, "6f99eaa3073958893ad7374a1d0f21581bf09451d42fdfdec8be5f46b9ee1d7c"
    ),
    ("burman", 16): (
        335, "b1d48d86a03bde993a49844366c3c4846466735e3707cfe1a7906a798049768c"
    ),
}

PROTOCOLS = {"stable": StableRanking, "burman": BurmanStyleRanking}


@pytest.mark.parametrize("name,n", sorted(GOLDEN))
def test_transition_digest_is_unchanged(name, n):
    assert transition_digest(PROTOCOLS[name], n) == GOLDEN[(name, n)]
