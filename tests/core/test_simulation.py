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


# ----------------------------------------------------------------------
# The block-stepping loop against the per-step definition
# ----------------------------------------------------------------------
from repro.core.metrics import standard_ranking_probes  # noqa: E402
from repro.protocols.ranking.space_efficient import SpaceEfficientRanking  # noqa: E402
from repro.protocols.ranking.stable_ranking import StableRanking  # noqa: E402
from repro.topologies import build_topology  # noqa: E402

#: (protocol factory, topology spec) pairs the equivalence tests cover:
#: StableRanking on the complete graph, a ring and the async ``delayed``
#: wrapper, and SpaceEfficientRanking, whose transitions draw randomness.
STEPPING_CASES = {
    "stable-complete": (StableRanking, None),
    "stable-ring": (StableRanking, ("ring", {})),
    "stable-delayed": (StableRanking, ("delayed", {"base": "ring"})),
    "space-efficient": (SpaceEfficientRanking, None),
}


def _stepping_pair(case, n=8, seed=11, interval=37, cadence=None,
                   log_events=True):
    """Two same-seed simulators with collectors and (optional) event logs."""
    factory, topology = STEPPING_CASES[case]
    built = []
    for _ in range(2):
        events = []
        metrics = MetricsCollector(standard_ranking_probes(), interval=interval)
        simulator = Simulator(
            factory(n),
            random_state=seed,
            metrics=metrics,
            convergence_interval=cadence,
            on_event=(lambda t, i, j, r, log=events: log.append(
                (t, i, j, r.changed, r.rank_assigned, r.reset_triggered)
            )) if log_events else None,
            topology=None if topology is None else build_topology(
                topology[0], n, topology[1]
            ),
        )
        built.append((simulator, metrics, events))
    return built


def _manual_run(simulator, metrics, budget, stop_on_convergence, interval=None):
    """``Simulator.run`` written as its definition: ``step()``, then
    ``maybe_record``, then the cadence check, once per interaction."""
    protocol, config = simulator.protocol, simulator.configuration
    if simulator.interactions == 0:
        metrics.record(0, config)
    end = simulator.interactions + budget
    interval = interval or protocol.n
    converged = stop_on_convergence and protocol.has_converged(config)
    next_check = simulator.interactions + interval if stop_on_convergence else end + 1
    changed = True
    while simulator.interactions < end and not converged:
        if simulator.step().changed:
            changed = True
        metrics.maybe_record(simulator.interactions, config)
        if simulator.interactions >= next_check:
            if changed:
                converged = protocol.has_converged(config)
                changed = False
            next_check = simulator.interactions + interval
    metrics.close(simulator.interactions, config)
    return protocol.has_converged(config)


def _manual_run_until(simulator, metrics, predicate, budget, check_interval):
    config = simulator.configuration
    end = simulator.interactions + budget
    satisfied = predicate(config)
    while not satisfied and simulator.interactions < end:
        target = min(simulator.interactions + check_interval, end)
        while simulator.interactions < target:
            simulator.step()
            metrics.maybe_record(simulator.interactions, config)
        satisfied = predicate(config)
    metrics.close(simulator.interactions, config)
    return satisfied


def _observed(simulator, metrics, events):
    return (
        simulator.interactions,
        list(simulator.configuration.states),
        {name: (s.interactions, s.values) for name, s in metrics.series.items()},
        events,
        simulator.rng.bit_generator.state,
    )


class TestBlockSteppingLoop:
    @pytest.mark.parametrize("case", sorted(STEPPING_CASES))
    def test_two_runs_equal_the_per_step_loop(self, case):
        (fast, fast_metrics, fast_events), (slow, slow_metrics, slow_events) = (
            _stepping_pair(case)
        )
        # 5,000 pairs cross the 4,096-pair refill; the second call starts
        # mid-buffer and between two snapshots, and stops on convergence.
        for budget, stop in ((5_000, False), (3_000, True)):
            result = fast.run(budget, stop_on_convergence=stop)
            converged = _manual_run(slow, slow_metrics, budget, stop)
            assert result.converged == converged
            assert result.interactions == slow.interactions
            assert result.rank_assignments == slow._rank_assignments
            assert result.resets == slow._resets
            assert _observed(fast, fast_metrics, fast_events) == _observed(
                slow, slow_metrics, slow_events
            )
        assert fast_events  # the event log is exercised, not vacuous

    @pytest.mark.parametrize("case", sorted(STEPPING_CASES))
    def test_run_until_equals_the_per_step_loop(self, case):
        (fast, fast_metrics, fast_events), (slow, slow_metrics, slow_events) = (
            _stepping_pair(case)
        )
        half = lambda config: config.ranked_count() >= 4  # noqa: E731
        fast.run(100, stop_on_convergence=False)
        _manual_run(slow, slow_metrics, 100, False)
        result = fast.run_until(half, 6_000, check_interval=13)
        satisfied = _manual_run_until(slow, slow_metrics, half, 6_000, 13)
        assert result.converged == satisfied
        assert (result.rank_assignments, result.resets) == (
            slow._rank_assignments, slow._resets
        )
        assert _observed(fast, fast_metrics, fast_events) == _observed(
            slow, slow_metrics, slow_events
        )

    @pytest.mark.parametrize("case", ["stable-complete", "space-efficient"])
    def test_cadence_one_equals_the_per_step_loop(self, case):
        # Checks at every interaction make every block one pair long.
        (fast, fast_metrics, fast_events), (slow, slow_metrics, slow_events) = (
            _stepping_pair(case, interval=5, cadence=1)
        )
        result = fast.run(4_000)
        converged = _manual_run(slow, slow_metrics, 4_000, True, interval=1)
        assert (result.converged, result.resets) == (converged, slow._resets)
        assert result.rank_assignments == slow._rank_assignments
        assert _observed(fast, fast_metrics, fast_events) == _observed(
            slow, slow_metrics, slow_events
        )

    def test_overdue_snapshot_is_taken_after_the_next_interaction(self):
        # A collector attached mid-run is overdue at once; the per-step
        # loop records it after the first interaction of the run.
        (fast, _, _), (slow, _, _) = _stepping_pair("stable-complete")
        fast.run(50, stop_on_convergence=False)
        slow.run(50, stop_on_convergence=False)
        for simulator in (fast, slow):
            simulator._metrics = MetricsCollector(
                standard_ranking_probes(), interval=7
            )
        fast.run(30, stop_on_convergence=False)
        for _ in range(30):
            slow.step()
            slow._metrics.maybe_record(slow.interactions, slow.configuration)
        slow._metrics.close(slow.interactions, slow.configuration)
        assert fast._metrics.get("ranked_agents").interactions[:2] == [51, 58]
        assert _observed(fast, fast._metrics, []) == _observed(
            slow, slow._metrics, []
        )

    @pytest.mark.parametrize("interval", [1, 2, 13])
    def test_overdue_snapshot_at_entry_for_every_interval(self, interval):
        (fast, _, _), (slow, _, _) = _stepping_pair("space-efficient")
        fast.run(50, stop_on_convergence=False)
        slow.run(50, stop_on_convergence=False)
        for simulator in (fast, slow):
            simulator._metrics = MetricsCollector(
                standard_ranking_probes(), interval=interval
            )
        fast.run(40, stop_on_convergence=False)
        for _ in range(40):
            slow.step()
            slow._metrics.maybe_record(slow.interactions, slow.configuration)
        slow._metrics.close(slow.interactions, slow.configuration)
        assert fast._metrics.get("ranked_agents").interactions[:2] == [
            51, 51 + interval
        ]
        assert _observed(fast, fast._metrics, []) == _observed(
            slow, slow._metrics, []
        )


def _count_blocks(monkeypatch):
    """Patch the stepping loop to log each block's pair count."""
    from repro.core import simulation

    blocks = []
    apply_pairs = simulation.apply_pairs

    def counting(*args, **kwargs):
        blocks.append(len(args[3]))
        return apply_pairs(*args, **kwargs)

    monkeypatch.setattr(simulation, "apply_pairs", counting)
    return blocks


class TestSnapshotsInsideBlocks:
    """Metric snapshots are stops inside a block, not block ends: one
    block carries every snapshot due in it, and the series, event log and
    generator state equal the per-step definition's."""

    BUDGET = 5_000  # crosses the 4,096-pair refill once

    @pytest.mark.parametrize("log_events", [True, False])
    @pytest.mark.parametrize("interval", [1, 2, 13])
    @pytest.mark.parametrize("case", sorted(STEPPING_CASES))
    def test_fixed_budget_run(self, case, interval, log_events, monkeypatch):
        (fast, fast_metrics, fast_events), (slow, slow_metrics, slow_events) = (
            _stepping_pair(case, interval=interval, log_events=log_events)
        )
        blocks = _count_blocks(monkeypatch)
        result = fast.run(self.BUDGET, stop_on_convergence=False)
        converged = _manual_run(slow, slow_metrics, self.BUDGET, False)
        assert result.converged == converged
        assert (result.rank_assignments, result.resets) == (
            slow._rank_assignments, slow._resets
        )
        assert _observed(fast, fast_metrics, fast_events) == _observed(
            slow, slow_metrics, slow_events
        )
        assert bool(fast_events) == log_events
        assert len(fast_metrics.get("ranked_agents")) == (
            self.BUDGET // interval + 1 + bool(self.BUDGET % interval)
        )
        # One block per buffer: the refill ends a block, snapshots do not.
        assert blocks == [4096, self.BUDGET - 4096]

    @pytest.mark.parametrize("interval", [1, 2, 13])
    def test_two_runs_from_mid_buffer(self, interval):
        # The second run starts mid-buffer and between two snapshots.
        (fast, fast_metrics, fast_events), (slow, slow_metrics, slow_events) = (
            _stepping_pair("stable-ring", interval=interval)
        )
        for budget in (1_234, 3_000):
            fast.run(budget, stop_on_convergence=False)
            _manual_run(slow, slow_metrics, budget, False)
            assert _observed(fast, fast_metrics, fast_events) == _observed(
                slow, slow_metrics, slow_events
            )


class TestCadenceOneBlocks:
    """With no change pending, a stopping run runs on to the first changed
    transition instead of ending a block at every check point (at
    ``convergence_interval=1``, every pair), with the per-step
    definition's outcome."""

    def test_ring_epidemics(self, monkeypatch):
        from repro.protocols.primitives.one_way_epidemic import (
            OneWayEpidemicProtocol,
        )

        n = 32
        checks = []
        blocks = _count_blocks(monkeypatch)
        for seed in range(20):
            built = []
            for _ in range(2):
                protocol = OneWayEpidemicProtocol(n)
                has_converged = protocol.has_converged
                protocol.has_converged = (
                    lambda c, f=has_converged: checks.append(1) or f(c)
                )
                metrics = MetricsCollector(
                    {"informed": lambda c: sum(s.informed for s in c.states)},
                    interval=17,
                )
                simulator = Simulator(
                    protocol, random_state=seed, metrics=metrics,
                    convergence_interval=1,
                    topology=build_topology("ring", n, {}),
                )
                built.append((simulator, metrics))
            (fast, fast_metrics), (slow, slow_metrics) = built
            del checks[:]
            blocks_before = len(blocks)
            result = fast.run(100_000)
            fast_checks, fast_blocks = len(checks), len(blocks) - blocks_before
            converged = _manual_run(slow, slow_metrics, 100_000, True, interval=1)
            assert result.converged and converged
            assert _observed(fast, fast_metrics, []) == _observed(
                slow, slow_metrics, []
            )
            assert fast_blocks <= 2 * fast_checks

    def test_dense_changes_keep_one_block_per_check(self, monkeypatch):
        # StableRanking changes some agent on nearly every pair: at the
        # default cadence n a stopping run makes about one block per check
        # interval, not an until-change block and a block to the check
        # point for each (only a quiet interval costs those two more).
        n = 16
        (fast, fast_metrics, fast_events), (slow, slow_metrics, slow_events) = (
            _stepping_pair("stable-complete", n=n, interval=10**9)
        )
        blocks = _count_blocks(monkeypatch)
        result = fast.run(60_000)
        converged = _manual_run(slow, slow_metrics, 60_000, True)
        assert result.converged and converged
        assert _observed(fast, fast_metrics, fast_events) == _observed(
            slow, slow_metrics, slow_events
        )
        intervals = -(-result.interactions // n)
        assert len(blocks) < 1.1 * intervals

    def test_budget_ends_inside_a_quiet_stretch(self):
        # Runs stop on budgets that end between two changes, with no
        # change pending; each next run starts there.
        fast = Simulator(InfectionProtocol(12), random_state=9,
                         convergence_interval=1)
        slow = Simulator(InfectionProtocol(12), random_state=9)
        converged = slow.protocol.has_converged
        for budget in (1, 2, 3, 5, 8, 13, 21, 34, 55):
            result = fast.run(budget)
            end = slow.interactions + budget
            while slow.interactions < end and not converged(slow.configuration):
                slow.step()
            assert result.interactions == slow.interactions
            assert result.converged == converged(slow.configuration)
            assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
        assert result.converged


class TestQuietIntervalBlocks:
    """After an evaluated check with no change pending, one block ends at
    ``max(check point, first change)``: a quiet interval costs one block to
    the first change (and one on to the next check point), not a block to
    the skipped check point first."""

    @pytest.mark.parametrize("interval", [2, 5, 32])
    def test_quiet_stretches_equal_the_per_step_loop(self, interval, monkeypatch):
        from repro.protocols.primitives.one_way_epidemic import (
            OneWayEpidemicProtocol,
        )

        n = 24
        blocks = _count_blocks(monkeypatch)
        for seed in range(6):
            built = []
            for _ in range(2):
                metrics = MetricsCollector(
                    {"informed": lambda c: sum(s.informed for s in c.states)},
                    interval=11,
                )
                simulator = Simulator(
                    OneWayEpidemicProtocol(n), random_state=seed,
                    metrics=metrics, convergence_interval=interval,
                    topology=build_topology("ring", n, {}),
                )
                built.append((simulator, metrics))
            (fast, fast_metrics), (slow, slow_metrics) = built
            result = fast.run(100_000)
            converged = _manual_run(
                slow, slow_metrics, 100_000, True, interval=interval
            )
            assert result.converged and converged
            assert _observed(fast, fast_metrics, []) == _observed(
                slow, slow_metrics, []
            )
        assert blocks

    @pytest.mark.parametrize("interval,budget", [(10_000, 15_000), (5_000, 7_000)])
    def test_budget_ends_inside_the_last_interval(self, interval, budget):
        # The check point after the last evaluated check lies past the
        # budget, and the scheduler's buffer ends inside that last partial
        # interval: the blocks after a change must still stop at the budget.
        from harness.protocols import LateRandomProtocol

        built = []
        for _ in range(2):
            metrics = MetricsCollector(
                {"sum": lambda c: sum(s.aux for s in c.states)}, interval=997
            )
            simulator = Simulator(
                LateRandomProtocol(8), random_state=5, metrics=metrics,
                convergence_interval=interval,
            )
            built.append((simulator, metrics))
        (fast, fast_metrics), (slow, slow_metrics) = built
        result = fast.run(budget)
        converged = _manual_run(slow, slow_metrics, budget, True, interval=interval)
        assert not result.converged and not converged
        assert result.interactions == budget
        assert _observed(fast, fast_metrics, []) == _observed(
            slow, slow_metrics, []
        )

    def test_fault_storm_reference_cells(self, monkeypatch):
        # The 12 reference cells of docs/benchmarks.md: 25,678 blocks when
        # a quiet interval cost a block to the skipped check point, an
        # until-change block and a block to the next check point.
        from repro.experiments.fault_storm import fault_storm_specs
        from repro.experiments.study import Study

        blocks = _count_blocks(monkeypatch)
        specs = fault_storm_specs(
            n_values=(16,), repetitions=6,
            faults=("duplicate_rank", "scramble"), events=2,
            engine="reference",
        )
        rows = Study(specs).run().rows
        assert len(rows) == 12
        assert len(blocks) <= 24_538

    def test_cadence_one_ring_epidemics(self, monkeypatch):
        from repro.protocols.primitives.one_way_epidemic import (
            OneWayEpidemicProtocol,
        )

        blocks = _count_blocks(monkeypatch)
        for seed in range(300):
            simulator = Simulator(
                OneWayEpidemicProtocol(32), random_state=seed,
                convergence_interval=1,
                topology=build_topology("ring", 32, {}),
            )
            assert simulator.run(10**9).converged
        assert len(blocks) <= 13_402
