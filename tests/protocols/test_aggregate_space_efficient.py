"""Tests for the event-driven ``SpaceEfficientRanking`` engine.

Besides unit tests of the event decomposition, this module statistically
cross-validates the aggregate engine against the agent-level reference
implementation: the mean time to reach the Figure 3 milestones must agree
within sampling error (this is the main correctness argument for using the
aggregate engine at population sizes the reference cannot handle).
"""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.core.simulation import Simulator
from repro.experiments.workloads import figure3_initial_configuration
from repro.protocols.ranking.aggregate_space_efficient import (
    AggregateSpaceEfficientRanking,
)
from repro.protocols.ranking.space_efficient import SpaceEfficientRanking


class TestAggregateEngineBasics:
    def test_initial_state_matches_figure3(self):
        engine = AggregateSpaceEfficientRanking(64, random_state=0)
        assert engine.unconverted == 63
        assert engine.ranked_count() == 1
        assert engine.leader_mode == "rank"

    def test_event_weights_are_consistent_with_population(self):
        engine = AggregateSpaceEfficientRanking(32, random_state=0)
        weights = engine.event_weights()
        assert all(weight > 0 for weight in weights.values())
        assert sum(weights.values()) <= engine.total_ordered_pairs

    @pytest.mark.parametrize(
        "name",
        [
            "teleport", "assign:", "wait_tick:1", "convert_plain:2",
            "merge:1", "merge:a:b", "assign:x", "bump:1:2", "convert_join:",
        ],
    )
    def test_unknown_event_names_are_rejected(self, name):
        engine = AggregateSpaceEfficientRanking.from_start_ranking(16, random_state=0)
        with pytest.raises(ConfigurationError):
            engine.apply_event(name)

    @pytest.mark.parametrize(
        "name", ["assign:7", "bump:2", "merge:1:9", "convert_join:3"]
    )
    def test_events_on_absent_phases_are_rejected(self, name):
        engine = AggregateSpaceEfficientRanking.from_start_ranking(16, random_state=0)
        before = engine.phase_counts
        with pytest.raises(ConfigurationError):
            engine.apply_event(name)
        assert engine.phase_counts == before

    def test_runs_to_completion(self):
        engine = AggregateSpaceEfficientRanking(128, random_state=1)
        result = engine.run(max_interactions=10**12)
        assert result.converged
        assert engine.ranked_count() == 128
        assert engine.unconverted == 0
        assert not engine.phase_counts

    def test_interactions_scale_like_n2_logn(self):
        engine = AggregateSpaceEfficientRanking(512, random_state=2)
        result = engine.run(max_interactions=10**13)
        normalized = result.interactions / (512**2 * np.log2(512))
        assert 0.5 < normalized < 20

    def test_events_are_near_linear_in_n(self):
        engine = AggregateSpaceEfficientRanking(1024, random_state=3)
        result = engine.run(max_interactions=10**13)
        assert result.converged
        assert result.events < 40 * 1024

    def test_milestones_are_monotone(self):
        engine = AggregateSpaceEfficientRanking(256, random_state=4)
        fractions = (0.5, 0.75, 0.875)
        result = engine.run(
            max_interactions=10**12,
            milestones=engine.milestone_predicates(fractions),
        )
        times = [result.milestones[f"ranked_{f}"] for f in fractions]
        assert times == sorted(times)

    def test_start_ranking_constructor(self):
        engine = AggregateSpaceEfficientRanking.from_start_ranking(64, random_state=5)
        assert engine.leader_mode == "wait"
        assert engine.phase_counts == {1: 63}
        result = engine.run(max_interactions=10**12)
        assert result.converged


class TestCrossValidationAgainstReference:
    """The aggregate engine must reproduce the reference's milestone times."""

    N = 64
    FRACTION = 0.5
    REFERENCE_RUNS = 20
    AGGREGATE_RUNS = 200

    def _reference_times(self):
        times = []
        for seed in range(self.REFERENCE_RUNS):
            protocol = SpaceEfficientRanking(self.N)
            configuration = figure3_initial_configuration(protocol)
            simulator = Simulator(protocol, configuration=configuration, random_state=seed)
            outcome = simulator.run_until(
                lambda config: config.ranked_count() >= self.FRACTION * self.N,
                max_interactions=100 * self.N * self.N,
                check_interval=16,
            )
            assert outcome.converged
            times.append(simulator.interactions)
        return np.array(times, dtype=float)

    def _aggregate_times(self):
        times = []
        for seed in range(self.AGGREGATE_RUNS):
            engine = AggregateSpaceEfficientRanking(self.N, random_state=10_000 + seed)
            result = engine.run(
                max_interactions=10**12,
                milestones=engine.milestone_predicates([self.FRACTION]),
            )
            times.append(result.milestones[f"ranked_{self.FRACTION}"])
        return np.array(times, dtype=float)

    def test_milestone_means_agree(self):
        reference = self._reference_times()
        aggregate = self._aggregate_times()
        reference_mean = reference.mean()
        aggregate_mean = aggregate.mean()
        # Allow for Monte-Carlo error of the small reference sample: three
        # standard errors plus a 10% modelling tolerance.
        standard_error = reference.std(ddof=1) / np.sqrt(len(reference))
        tolerance = 3 * standard_error + 0.1 * reference_mean
        assert abs(reference_mean - aggregate_mean) < tolerance
