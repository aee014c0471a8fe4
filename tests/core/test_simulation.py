"""Unit tests for the reference simulator, using a tiny toy protocol."""

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.errors import SimulationLimitExceeded
from repro.core.metrics import MetricsCollector
from repro.core.protocol import PopulationProtocol, TransitionResult
from repro.core.simulation import Simulator
from repro.core.state import AgentState


class InfectionProtocol(PopulationProtocol[AgentState]):
    """Toy protocol: the initiator infects the responder (rank 1 = infected)."""

    name = "infection"

    def initial_state(self) -> AgentState:
        return AgentState()

    def initial_configuration(self) -> Configuration:
        states = [AgentState(rank=1)] + [AgentState() for _ in range(self.n - 1)]
        return Configuration(states)

    def transition(self, initiator, responder, rng) -> TransitionResult:
        if initiator.rank == 1 and responder.rank is None:
            responder.rank = 1
            return TransitionResult(changed=True, rank_assigned=1)
        return TransitionResult(changed=False)

    def has_converged(self, configuration) -> bool:
        return all(state.rank == 1 for state in configuration.states)


class TestSimulatorBasics:
    def test_rejects_mismatched_configuration(self):
        protocol = InfectionProtocol(5)
        config = Configuration([AgentState() for _ in range(3)])
        with pytest.raises(SimulationLimitExceeded):
            Simulator(protocol, configuration=config)

    def test_step_counts_interactions(self):
        simulator = Simulator(InfectionProtocol(5), random_state=0)
        simulator.step()
        simulator.step()
        assert simulator.interactions == 2

    def test_run_converges_and_reports(self):
        simulator = Simulator(InfectionProtocol(10), random_state=1)
        result = simulator.run(max_interactions=100_000)
        assert result.converged
        assert result.interactions > 0
        assert result.rank_assignments == 9
        assert result.configuration.ranked_count() == 10
        assert result.protocol["name"] == "infection"

    def test_normalized_interactions(self):
        simulator = Simulator(InfectionProtocol(10), random_state=1)
        result = simulator.run(max_interactions=100_000)
        assert result.normalized_interactions == pytest.approx(result.interactions / 100.0)

    def test_budget_exhaustion_without_convergence(self):
        simulator = Simulator(InfectionProtocol(50), random_state=2)
        result = simulator.run(max_interactions=5)
        assert not result.converged
        assert result.interactions == 5

    def test_raise_on_limit(self):
        simulator = Simulator(InfectionProtocol(50), random_state=2)
        with pytest.raises(SimulationLimitExceeded) as excinfo:
            simulator.run(max_interactions=5, raise_on_limit=True)
        assert excinfo.value.result is not None
        assert excinfo.value.result.interactions == 5

    def test_determinism_for_fixed_seed(self):
        first = Simulator(InfectionProtocol(12), random_state=7).run(10_000)
        second = Simulator(InfectionProtocol(12), random_state=7).run(10_000)
        assert first.interactions == second.interactions

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            Simulator(InfectionProtocol(4), random_state=0).run(-1)


class TestSimulatorHooks:
    def test_metrics_are_recorded(self):
        metrics = MetricsCollector({"infected": lambda c: c.ranked_count()}, interval=50)
        simulator = Simulator(InfectionProtocol(10), random_state=3, metrics=metrics)
        simulator.run(max_interactions=10_000)
        series = metrics.get("infected")
        assert series.interactions[0] == 0
        assert series.values[0] == 1.0
        assert series.values[-1] == 10.0

    def test_on_event_fires_only_on_changes(self):
        events = []
        simulator = Simulator(
            InfectionProtocol(8),
            random_state=4,
            on_event=lambda t, i, j, result: events.append((t, i, j)),
        )
        simulator.run(max_interactions=10_000)
        # Exactly n - 1 infections happen, each reported once.
        assert len(events) == 7

    def test_run_until_predicate(self):
        simulator = Simulator(InfectionProtocol(20), random_state=5)
        result = simulator.run_until(
            lambda config: config.ranked_count() >= 10, max_interactions=100_000
        )
        assert result.converged
        assert result.configuration.ranked_count() >= 10

    def test_run_until_budget_exhaustion(self):
        simulator = Simulator(InfectionProtocol(20), random_state=5)
        result = simulator.run_until(
            lambda config: config.ranked_count() >= 100, max_interactions=100
        )
        assert not result.converged

    def test_stop_on_convergence_false_runs_full_budget(self):
        simulator = Simulator(InfectionProtocol(4), random_state=6)
        result = simulator.run(max_interactions=2_000, stop_on_convergence=False)
        assert result.interactions == 2_000
        assert result.converged

    def test_fixed_budget_run_checks_convergence_once(self):
        # Mid-run checks only decide when to stop; a fixed-budget run
        # evaluates the predicate once, after the loop.
        protocol = InfectionProtocol(8)
        calls = []
        has_converged = protocol.has_converged
        protocol.has_converged = lambda c: calls.append(1) or has_converged(c)
        simulator = Simulator(protocol, random_state=6)
        result = simulator.run(max_interactions=2_000, stop_on_convergence=False)
        assert result.interactions == 2_000
        assert result.converged
        assert len(calls) == 1
