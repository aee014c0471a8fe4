"""Unit tests for the event-driven simulation base class."""

import numpy as np
import pytest

from repro.core.aggregate import EventDrivenSimulator
from repro.core.errors import SimulationLimitExceeded
from repro.protocols.ranking.aggregate_space_efficient import (
    AggregateSpaceEfficientRanking,
)


class CollectorSimulator(EventDrivenSimulator):
    """Toy dynamics: one collector agent 'collects' the other n-1 agents.

    Each ordered interaction (collector, uncollected agent) collects that
    agent, so the waiting time between events is geometric with success
    probability (#uncollected)/(n(n-1)) — a coupon-collector-like process
    with a known expectation that the tests can check.
    """

    def __init__(self, n, random_state=None):
        super().__init__(n, random_state)
        self.remaining = n - 1

    def event_weights(self):
        return {"collect": self.remaining}

    def apply_event(self, name):
        assert name == "collect"
        self.remaining -= 1

    def is_done(self):
        return self.remaining == 0


class BrokenSimulator(EventDrivenSimulator):
    """Weights exceeding the number of ordered pairs must be rejected."""

    def event_weights(self):
        return {"impossible": self.n * self.n * 10}

    def apply_event(self, name):  # pragma: no cover - never reached
        pass

    def is_done(self):
        return False


class TestEventDrivenSimulator:
    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            CollectorSimulator(1)

    def test_runs_to_completion(self):
        simulator = CollectorSimulator(20, random_state=0)
        result = simulator.run(max_interactions=10**9)
        assert result.converged
        assert result.events == 19
        assert result.interactions >= 19

    def test_milestones_recorded_in_order(self):
        simulator = CollectorSimulator(30, random_state=1)
        result = simulator.run(
            max_interactions=10**9,
            milestones={
                "half": lambda: simulator.remaining <= 15,
                "done": lambda: simulator.remaining == 0,
            },
        )
        assert result.milestones["half"] <= result.milestones["done"]

    def test_budget_limits_run(self):
        simulator = CollectorSimulator(200, random_state=2)
        result = simulator.run(max_interactions=50)
        assert not result.converged
        assert result.interactions >= 50

    def test_budget_is_never_overshot(self):
        """Regression: a geometric waiting time that overshoots the budget
        must clamp ``interactions`` to the budget without applying the event.
        """
        for seed in range(25):
            simulator = CollectorSimulator(200, random_state=seed)
            budget = 37
            result = simulator.run(max_interactions=budget)
            assert result.interactions <= budget
            # Every applied event consumed at least one interaction, so the
            # clamped run can never report more events than interactions.
            assert result.events <= result.interactions

    def test_rejects_negative_budget(self):
        for simulator in (
            CollectorSimulator(8, random_state=0),
            AggregateSpaceEfficientRanking(8, random_state=0),
        ):
            with pytest.raises(ValueError, match="non-negative"):
                simulator.run(-5)
            assert simulator.interactions == 0
            assert simulator.events == 0

    def test_step_event_limit_clamps_without_applying(self):
        simulator = CollectorSimulator(1000, random_state=3)
        before = simulator.remaining
        # With 999 productive pairs out of 999000 ordered pairs the first
        # waiting time is ~1000 interactions, far past a limit of 2.
        applied = simulator.step_event(limit=2)
        assert applied is None
        assert simulator.interactions == 2
        assert simulator.events == 0
        assert simulator.remaining == before

    def test_dead_configuration_stops(self):
        class Dead(CollectorSimulator):
            def event_weights(self):
                return {}

        simulator = Dead(5, random_state=0)
        result = simulator.run(max_interactions=1000)
        assert not result.converged
        assert result.events == 0

    def test_inconsistent_weights_raise(self):
        with pytest.raises(SimulationLimitExceeded):
            BrokenSimulator(4, random_state=0).step_event()

    def test_total_time_matches_coupon_collector_expectation(self):
        """Average completion time should match sum_k n(n-1)/k within 10%."""
        n = 12
        expectation = sum(n * (n - 1) / k for k in range(1, n))
        times = []
        for seed in range(400):
            simulator = CollectorSimulator(n, random_state=seed)
            times.append(simulator.run(max_interactions=10**9).interactions)
        assert np.mean(times) == pytest.approx(expectation, rel=0.1)
