"""Cross-engine differential matrix, driven by the shared harness.

For StableRanking, the one-way epidemic and all three comparison
baselines, at population sizes 2, 16 and 64, every trajectory-class
backend the registry offers for the cell is bit-identical to the
reference run of the same seed.  The token-counter baseline declares
rng-consuming transitions, so its array run takes the engine's exact
object fallback; keeping it in the matrix pins that degradation path to
the same bit-identity bar.
"""

import numpy as np
import pytest

from harness.differential import (
    assert_identical,
    assert_ks_consistent,
    assert_matches_reference,
    differential_trajectories,
    ks_2sample,
    snapshot,
    trajectory_engines,
)
from harness.protocols import ClosedLateRandomProtocol, TransientGoalProtocol
from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.baselines.cai_ranking import CaiRanking
from repro.baselines.token_counter_ranking import TokenCounterRanking
from repro.core.array_engine import ArraySimulator
from repro.core.metrics import MetricsCollector, standard_ranking_probes
from repro.core.simulation import Simulator
from repro.protocols.primitives.one_way_epidemic import (
    EpidemicState,
    OneWayEpidemicProtocol,
)
from repro.protocols.ranking.stable_ranking import StableRanking
from repro.scenarios import ScheduledEvent, bind_schedule

PROTOCOLS = {
    "stable-ranking": StableRanking,
    "epidemic": OneWayEpidemicProtocol,
    "burman": BurmanStyleRanking,
    "cai": CaiRanking,
    "token-counter": TokenCounterRanking,
}

SEEDS = (0, 1, 3)


class TestTrajectoryMatrix:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_fixed_budget_bit_identity(self, name, n):
        budget = 20 * n * n if n > 2 else 400
        assert_matches_reference(
            PROTOCOLS[name],
            n,
            SEEDS,
            budget=budget,
            stop_on_convergence=False,
        )

    @pytest.mark.parametrize("name", ["stable-ranking", "burman", "cai"])
    def test_convergence_stop_bit_identity(self, name):
        # With stop_on_convergence every engine must stop each seed on the
        # exact same interaction — the property the study layer records.
        n = 16
        results = assert_matches_reference(
            PROTOCOLS[name], n, SEEDS, budget=3000 * n * n
        )
        assert all(t.converged for t in results["reference"])

    def test_registry_offers_array_for_every_matrix_protocol(self):
        # The matrix is only meaningful if the engines under test actually
        # serve these cells: reference and array must answer capable for
        # every protocol (token-counter via the array object fallback).
        for name, factory in PROTOCOLS.items():
            engines = trajectory_engines(factory(16))
            assert "reference" in engines, name
            assert "array" in engines, name

    def test_metric_series_bit_identity(self):
        n = 16
        make_metrics = lambda: MetricsCollector(
            standard_ranking_probes(), interval=500
        )
        results = differential_trajectories(
            StableRanking,
            n,
            SEEDS,
            budget=20_000,
            stop_on_convergence=False,
            metrics_factory=make_metrics,
        )
        anchor = results["reference"]
        assert all(t.series for t in anchor)
        for engine, trajectories in results.items():
            for seed, expected, actual in zip(SEEDS, anchor, trajectories):
                assert_identical(
                    expected, actual, context=f"{engine} seed={seed}"
                )

    @pytest.mark.parametrize("n", [8, 32])
    def test_soa_kernel_path_keeps_bit_identity(self, n):
        # The struct-of-arrays kernel is on by default on the table paths;
        # with it and without it, every seed must match the reference.
        budget = 3000 * n * n
        for seed in SEEDS:
            expected = snapshot(
                Simulator(
                    StableRanking(n), random_state=seed, convergence_interval=n
                ).run(budget)
            )
            assert expected.converged
            for use_soa_kernel in (True, False):
                actual = snapshot(
                    ArraySimulator(
                        StableRanking(n),
                        random_state=seed,
                        convergence_interval=n,
                        use_soa_kernel=use_soa_kernel,
                    ).run(budget)
                )
                assert_identical(
                    expected,
                    actual,
                    context=f"soa={use_soa_kernel} n={n} seed={seed}",
                )

    def test_convergence_dropout_keeps_bit_identity(self):
        # Seeds converge at different times while sharing one engine
        # cache; every seed must still stop on the reference interaction.
        n = 16
        seeds = range(8)
        results = assert_matches_reference(
            StableRanking, n, seeds, budget=3000 * n * n
        )
        stops = {t.interactions for t in results["reference"]}
        assert len(stops) > 1  # the stopping times actually stagger
        assert all(t.converged for t in results["array"])


def engine_pair(protocol_factory, n, seed, metrics_factory=None, interval=None):
    """Reference and array simulators for one cell (cadence ``n`` unless
    ``interval`` is given)."""
    return [
        engine(
            protocol_factory(n),
            random_state=np.random.default_rng(seed),
            convergence_interval=interval or n,
            metrics=metrics_factory() if metrics_factory else None,
        )
        for engine in (Simulator, ArraySimulator)
    ]


class TestCadenceReplay:
    """Closed-convergence stop runs: whole-buffer blocks, checks at block
    ends, and an exact cadence-``n`` replay of the block that converged."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stop_inside_a_block_matches_the_reference(self, seed):
        n = 64
        reference, array = engine_pair(StableRanking, n, seed)
        expected = snapshot(reference.run(3000 * n * n))
        actual = snapshot(array.run(3000 * n * n))
        assert_identical(expected, actual, context=f"seed={seed}")
        assert expected.converged
        # The stop is a cadence point strictly inside a pair buffer, found
        # by replaying that one block.
        assert actual.interactions % n == 0
        assert actual.interactions % 4096 != 0
        assert array.replays == 1

    def test_cadence_longer_than_the_pair_buffer(self):
        # Blocks without a check point are neither snapshotted nor checked.
        n, interval = 32, 2 * 4096 + 5
        for seed in SEEDS:
            reference, array = engine_pair(StableRanking, n, seed, interval=interval)
            expected = snapshot(reference.run(3000 * n * n))
            actual = snapshot(array.run(3000 * n * n))
            assert expected.converged
            assert_identical(expected, actual, context=f"seed={seed}")
            assert array.convergence_checks <= 2 + actual.interactions // interval + 1

    def test_second_run_continues_from_the_rewound_cursor(self):
        # After the replayed stop the engine must sit on the stopping
        # interaction of the pair stream.  A perturbation followed by a
        # second stop run makes the recovery depend on every later pair.
        n = 64

        def uninform(configuration):
            for index in range(1, n, 2):
                configuration.states[index] = EpidemicState(informed=False)

        engines = engine_pair(OneWayEpidemicProtocol, n, 4)
        first = [snapshot(engine.run(10**6)) for engine in engines]
        assert_identical(*first, context="first run")
        assert engines[1].replays == 1
        for engine in engines:
            engine.apply_perturbation(uninform)
        second = [snapshot(engine.run(10**6)) for engine in engines]
        assert_identical(*second, context="second run")
        assert second[0].interactions > first[0].interactions
        assert engines[1].replays == 2

    def test_segmented_recovery_log_matches_the_reference(self):
        n = 64
        schedule = (
            ScheduledEvent(at=3001, kind="crash_reset", params={"count": 30}),
            ScheduledEvent(at=9007, kind="crash_reset", params={"count": 50}),
        )
        results = []
        for engine in engine_pair(OneWayEpidemicProtocol, n, 8):
            bound = bind_schedule(
                schedule, engine.protocol, np.random.SeedSequence([8, n])
            )
            result = engine.run_segmented(bound, max_interactions=40_000)
            results.append((snapshot(result), result.events))
        (expected, expected_log), (actual, actual_log) = results
        assert_identical(expected, actual)
        assert actual_log == expected_log
        assert all(entry["recovered_at"] is not None for entry in actual_log)

    def test_metric_series_across_a_replayed_block(self):
        n = 32
        make_metrics = lambda: MetricsCollector(
            standard_ranking_probes(), interval=333
        )
        for seed in SEEDS:
            reference, array = engine_pair(StableRanking, n, seed, make_metrics)
            expected = snapshot(reference.run(3000 * n * n))
            actual = snapshot(array.run(3000 * n * n))
            assert expected.converged and expected.series
            assert_identical(expected, actual, context=f"seed={seed}")
            assert array.replays == 1

    @pytest.mark.parametrize("n", [8, 16])
    def test_mid_block_object_demotion_replays_exactly(self, n):
        # The first counter to reach the threshold demotes the engine to
        # the object path inside the block that also converges, so the
        # rewind must restore the table mode and the generator the object
        # transitions drew from.  A continuation run pins both.
        for seed in SEEDS:
            reference, array = engine_pair(ClosedLateRandomProtocol, n, seed)
            assert array.mode == "lazy"
            expected = snapshot(reference.run(10**5))
            actual = snapshot(array.run(10**5))
            assert expected.converged
            assert_identical(expected, actual, context=f"n={n} seed={seed}")
            assert array.mode == "object"
            assert array.replays == 1
            expected = snapshot(reference.run(5000, stop_on_convergence=False))
            actual = snapshot(array.run(5000, stop_on_convergence=False))
            assert_identical(expected, actual, context=f"continued seed={seed}")

    def test_non_closed_protocol_keeps_the_cadence(self):
        # The goal holds only while the counter sum lies in [203, 212):
        # the cadence point 208 catches it, a buffer-end check would not.
        n = 8
        for seed in SEEDS:
            reference, array = engine_pair(TransientGoalProtocol, n, seed)
            assert not array.protocol.convergence_is_closed()
            expected = snapshot(reference.run(10**5))
            actual = snapshot(array.run(10**5))
            assert (expected.converged, expected.interactions) == (True, 208)
            assert_identical(expected, actual, context=f"seed={seed}")
            assert array.replays == 0


class TestKsHelper:
    def test_same_distribution_passes(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=400)
        b = rng.normal(size=400)
        statistic, p_value = ks_2sample(a, b)
        assert 0.0 <= statistic <= 1.0
        assert p_value > 0.05
        assert_ks_consistent(a, b)

    def test_shifted_distribution_fails(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=400)
        b = rng.normal(loc=1.0, size=400)
        _, p_value = ks_2sample(a, b)
        assert p_value < 1e-3
        with pytest.raises(AssertionError, match="distributions differ"):
            assert_ks_consistent(a, b)

    def test_agrees_with_scipy_when_available(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(2)
        a = rng.exponential(size=150)
        b = rng.exponential(scale=1.3, size=170)
        statistic, p_value = ks_2sample(a, b)
        expected = scipy_stats.ks_2samp(a, b)
        assert statistic == pytest.approx(expected.statistic, abs=1e-12)
        assert p_value == pytest.approx(expected.pvalue, rel=0.1, abs=5e-3)
