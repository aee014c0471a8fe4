"""Unit tests for the codec-derived group-count engine."""

import numpy as np
import pytest

from repro.baselines.cai_ranking import CaiRanking
from repro.core.configuration import Configuration
from repro.core.errors import ConfigurationError, StateSpaceTooLarge
from repro.core.group_engine import (
    GroupCountSimulator,
    GroupTransitionModel,
    RankingCountGoal,
)
from repro.core.simulation import Simulator
from repro.core.state import AgentState
from repro.protocols.primitives.one_way_epidemic import (
    EpidemicState,
    OneWayEpidemicProtocol,
    epidemic_upper_bound,
)
from repro.protocols.ranking.stable_ranking import StableRanking


def epidemic_simulator(n, m=None, seed=0, **kwargs):
    protocol = OneWayEpidemicProtocol(n, m)
    return GroupCountSimulator(
        protocol,
        state_counts=protocol.count_profile(),
        random_state=seed,
        **kwargs,
    )


class TestConstruction:
    def test_requires_exactly_one_initial_form(self):
        protocol = OneWayEpidemicProtocol(8)
        with pytest.raises(ConfigurationError, match="exactly one"):
            GroupCountSimulator(protocol)
        with pytest.raises(ConfigurationError, match="exactly one"):
            GroupCountSimulator(
                protocol,
                configuration=protocol.initial_configuration(),
                state_counts=protocol.count_profile(),
            )

    def test_counts_must_sum_to_n(self):
        protocol = OneWayEpidemicProtocol(8)
        with pytest.raises(ConfigurationError, match="sum"):
            GroupCountSimulator(
                protocol,
                state_counts=[(EpidemicState(informed=True), 3)],
            )

    def test_configuration_and_profile_agree(self):
        protocol = OneWayEpidemicProtocol(10, m=6)
        from_config = GroupCountSimulator(
            protocol, configuration=protocol.initial_configuration()
        )
        from_profile = GroupCountSimulator(
            protocol, state_counts=protocol.count_profile()
        )
        assert from_config.state_counts() == from_profile.state_counts()

    def test_state_space_budget_is_enforced(self):
        protocol = StableRanking(16)
        with pytest.raises(StateSpaceTooLarge):
            GroupCountSimulator(
                protocol,
                configuration=protocol.initial_configuration(),
                random_state=0,
                max_states=4,
            ).run(max_interactions=10**9)


class TestEpidemic:
    def test_converges_with_exactly_m_minus_one_events(self):
        simulator = epidemic_simulator(64)
        result = simulator.run(max_interactions=10**9)
        assert result.converged
        # Every productive event informs exactly one agent.
        assert result.events == 63
        assert simulator.is_done()

    def test_restricted_subpopulation(self):
        simulator = epidemic_simulator(64, m=16)
        result = simulator.run(max_interactions=10**9)
        assert result.converged
        assert result.events == 15
        # 3 distinct states: informed-active, uninformed-inert (the
        # uninformed-active group has emptied).
        assert result.distinct_states == 2

    def test_completion_under_lemma14_bound(self):
        # The bound holds w.p. >= 1 - 2/n; one seeded run at n=4096 sits
        # far inside it.
        n = 4096
        simulator = epidemic_simulator(n, seed=7)
        result = simulator.run(max_interactions=10**12)
        assert result.converged
        assert result.interactions < epidemic_upper_bound(n, n)

    def test_milestones_recorded_in_order(self):
        simulator = epidemic_simulator(256, seed=3)
        result = simulator.run(
            max_interactions=10**9,
            milestones={"half": 128, "all": 256},
        )
        assert set(result.milestones) == {"half", "all"}
        assert 0 < result.milestones["half"] < result.milestones["all"]
        assert result.milestones["all"] == result.interactions

    def test_budget_clamps_without_overshoot(self):
        for seed in range(10):
            simulator = epidemic_simulator(128, seed=seed)
            result = simulator.run(max_interactions=500)
            assert result.interactions <= 500
            assert result.events <= result.interactions

    def test_rejects_negative_budget(self):
        simulator = epidemic_simulator(16, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            simulator.run(max_interactions=-5)
        assert simulator.interactions == 0
        assert simulator.events == 0

    def test_max_events_caps_the_run(self):
        simulator = epidemic_simulator(256, seed=1)
        result = simulator.run(max_interactions=10**9, max_events=10)
        assert result.events == 10
        assert not result.converged


class TestStep:
    def test_step_conserves_population(self):
        simulator = epidemic_simulator(32, seed=5)
        while not simulator.is_done():
            simulator.step()
            counts = simulator.count_vector()
            assert counts.sum() == 32
            assert (counts >= 0).all()

    def test_interactions_strictly_increase(self):
        simulator = epidemic_simulator(32, seed=6)
        last = 0
        for _ in range(10):
            simulator.step()
            assert simulator.interactions > last
            last = simulator.interactions


class TestSharedModel:
    def test_model_is_shared_and_reused(self):
        protocol = OneWayEpidemicProtocol(64)
        model = GroupTransitionModel(protocol)
        first = GroupCountSimulator(
            protocol, state_counts=protocol.count_profile(),
            model=model, random_state=0,
        )
        first.run(max_interactions=10**9)
        tabulated = model.tabulated_states
        second = GroupCountSimulator(
            protocol, state_counts=protocol.count_profile(),
            model=model, random_state=1,
        )
        second.run(max_interactions=10**9)
        # The second seed revisits the same reachable space.
        assert model.tabulated_states == tabulated


class TestRankingProtocols:
    def test_stable_ranking_converges_exactly(self):
        protocol = StableRanking(8)
        simulator = GroupCountSimulator(
            protocol,
            configuration=protocol.initial_configuration(),
            random_state=0,
        )
        result = simulator.run(max_interactions=10**9)
        assert result.converged
        # The goal certifies a full permutation of ranks 1..n.
        assert simulator.goal.measure() == simulator.goal.target() == 8

    def test_cai_ranking_converges_exactly(self):
        protocol = CaiRanking(16)
        simulator = GroupCountSimulator(
            protocol,
            configuration=protocol.initial_configuration(),
            random_state=0,
        )
        result = simulator.run(max_interactions=10**9)
        assert result.converged
        assert simulator.count_vector().sum() == 16


class TestStableRankingCountGoal:
    """A rank permutation whose agents still carry auxiliary variables is
    not StableRanking's silent legal set."""

    @staticmethod
    def stray_coin_start():
        states = [AgentState(rank=rank) for rank in range(1, 9)]
        states[3].coin = 1
        return Configuration(states)

    def test_stray_coin_is_not_converged_on_either_engine(self):
        group = GroupCountSimulator(
            StableRanking(8), configuration=self.stray_coin_start(),
            random_state=0,
        ).run(10**5)
        reference = Simulator(
            StableRanking(8), configuration=self.stray_coin_start(),
            random_state=0, convergence_interval=8,
        ).run(10**5)
        assert not group.converged
        assert group.interactions == 10**5
        assert not reference.converged
        assert reference.interactions == 10**5

    def test_bare_permutation_is_done(self):
        protocol = StableRanking(8)
        simulator = GroupCountSimulator(
            protocol,
            configuration=Configuration(
                [AgentState(rank=rank) for rank in range(1, 9)]
            ),
            random_state=0,
        )
        assert simulator.is_done()
        assert simulator.goal.measure() == simulator.goal.target() == 8

    @pytest.mark.parametrize(
        "field, value",
        [
            ("coin", 0),
            ("alive_count", 3),
            ("phase", 1),
            ("reset_count", 2),
            ("delay_count", 1),
        ],
    )
    def test_auxiliary_variable_keeps_permutation_unconverged(
        self, field, value
    ):
        """Any variable beside the rank blocks ``done()`` exactly as it
        blocks ``has_converged``, while the ranked count stays full."""
        protocol = StableRanking(8)
        states = [AgentState(rank=rank) for rank in range(1, 9)]
        setattr(states[5], field, value)
        goal = protocol.count_goal(None)
        for state in states:
            goal.on_count(state, 1)
        assert not protocol.has_converged(Configuration(states))
        assert not goal.done()
        assert goal.measure() == goal.target() == 8

    def test_done_follows_count_deltas(self):
        """The bare count is additive: swapping the stray-coin agent for a
        bare one makes the goal done, and swapping it back undoes it."""
        goal = StableRanking(8).count_goal(None)
        start = self.stray_coin_start().states
        for state in start:
            goal.on_count(state, 1)
        stray, bare = start[3], AgentState(rank=4)
        assert not goal.done()
        goal.on_count(stray, -1)
        goal.on_count(bare, 1)
        assert goal.done()
        goal.on_count(bare, -1)
        goal.on_count(stray, 1)
        assert not goal.done()
        assert goal.measure() == goal.target() == 8


class TestRankingCountGoal:
    def test_tracks_permutation_exactly(self):
        goal = RankingCountGoal(3)

        class S:
            def __init__(self, rank):
                self.rank = rank

        goal.on_count(S(None), 3)
        assert goal.measure() == 0 and not goal.done()
        goal.on_count(S(None), -1)
        goal.on_count(S(1), 1)
        goal.on_count(S(None), -1)
        goal.on_count(S(1), 1)  # duplicate rank 1
        assert goal.measure() == 2 and not goal.done()
        goal.on_count(S(1), -1)
        goal.on_count(S(2), 1)
        goal.on_count(S(None), -1)
        goal.on_count(S(3), 1)
        assert goal.measure() == 3 and goal.done()
