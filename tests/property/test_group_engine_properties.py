"""Property-based invariants of the group-count engine.

The engine's exactness argument rests on bookkeeping that must hold after
*every* event on *any* trajectory: the count vector is a distribution of
exactly ``n`` agents over states, the incremental row-sum cache matches a
from-scratch recomputation, the total productive weight never exceeds the
number of ordered pairs, and the goal's incrementally maintained measure
agrees with a direct evaluation over the counts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cai_ranking import CaiRanking
from repro.core.configuration import Configuration
from repro.core.group_engine import GroupCountSimulator
from repro.core.simulation import Simulator
from repro.core.state import AgentState
from repro.experiments.workloads import adversarial_state
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking.stable_ranking import StableRanking


def fresh_simulator(protocol, seed):
    profile = protocol.count_profile()
    if profile is not None:
        return GroupCountSimulator(
            protocol, state_counts=profile, random_state=seed
        )
    return GroupCountSimulator(
        protocol,
        configuration=protocol.initial_configuration(),
        random_state=seed,
    )


def check_invariants(simulator, n):
    counts = simulator.count_vector()
    assert counts.sum() == n
    assert (counts >= 0).all()
    # The incremental row-sum cache matches a from-scratch recomputation.
    cached = simulator._row_sums.copy()
    simulator._recompute_row_sums()
    assert np.array_equal(cached, simulator._row_sums)
    # The productive weight is a sub-distribution over ordered pairs.
    row_weights, total = simulator._row_weights()
    assert (row_weights >= 0).all()
    assert 0 <= total <= n * (n - 1)
    # The goal's incremental measure agrees with direct evaluation.
    goal = simulator.goal
    direct = sum(
        count
        for code, count in simulator.state_counts().items()
        if getattr(simulator.codec.prototype(code), "informed", True)
    )
    if isinstance(simulator._protocol, OneWayEpidemicProtocol):
        assert goal.measure() == direct


@given(
    n=st.integers(min_value=4, max_value=128),
    m_fraction=st.floats(min_value=0.25, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    steps=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=40, deadline=None)
def test_epidemic_invariants_along_any_trajectory(n, m_fraction, seed, steps):
    protocol = OneWayEpidemicProtocol(n, m=max(1, int(m_fraction * n)))
    simulator = fresh_simulator(protocol, seed)
    check_invariants(simulator, n)
    for _ in range(steps):
        if simulator.is_done() or simulator.step() is None:
            break
        check_invariants(simulator, n)


@given(
    n=st.integers(min_value=4, max_value=24),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    steps=st.integers(min_value=1, max_value=120),
)
@settings(max_examples=25, deadline=None)
def test_cai_ranking_invariants_along_any_trajectory(n, seed, steps):
    protocol = CaiRanking(n)
    simulator = fresh_simulator(protocol, seed)
    check_invariants(simulator, n)
    for _ in range(steps):
        if simulator.is_done() or simulator.step() is None:
            break
        check_invariants(simulator, n)
    # The goal certifies a permutation exactly when the counts do.
    if simulator.is_done():
        ranks = []
        for code, count in simulator.state_counts().items():
            rank = getattr(simulator.codec.prototype(code), "rank", None)
            if rank is not None:
                ranks.extend([rank] * count)
        assert sorted(ranks) == list(range(1, n + 1))


def goal_of_counts(protocol, configuration):
    """``protocol``'s count goal fed ``configuration``'s state counts."""
    goal = protocol.count_goal(None)
    counts = {}
    for state in configuration.states:
        key = state.as_tuple()
        prototype, count = counts.get(key, (state, 0))
        counts[key] = (prototype, count + 1)
    for prototype, count in counts.values():
        goal.on_count(prototype, count)
    return goal


@given(
    n=st.sampled_from([8, 16]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scrambled=st.integers(min_value=0, max_value=16),
    stray_coins=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=16, deadline=None)
def test_stable_ranking_goal_agrees_with_has_converged(
    n, seed, scrambled, stray_coins
):
    """At every reference check point, the count goal is done exactly
    when ``has_converged`` holds.

    The start is a rank permutation with ``scrambled`` agents redrawn by
    :func:`adversarial_state` (all of them at ``scrambled >= n``) and a
    coin left on ``stray_coins`` of the remaining ranked agents — ranked
    agents that still carry an auxiliary variable are what separates the
    silent legal set from a bare permutation.
    """
    protocol = StableRanking(n)
    rng = np.random.default_rng(seed)
    states = [AgentState(rank=rank) for rank in range(1, n + 1)]
    order = rng.permutation(n)
    for agent in order[:scrambled]:
        states[agent] = adversarial_state(protocol, rng)
    for agent in order[scrambled:scrambled + stray_coins]:
        states[agent].coin = int(rng.integers(0, 2))
    checked = []

    def agrees(configuration):
        goal = goal_of_counts(protocol, configuration)
        converged = protocol.has_converged(configuration)
        assert goal.done() == converged
        if goal.done():
            assert goal.measure() == goal.target()
        checked.append(converged)
        return converged

    simulator = Simulator(
        protocol, configuration=Configuration(states), random_state=seed
    )
    simulator.run_until(agrees, max_interactions=100 * n * n, check_interval=n)
    assert checked
