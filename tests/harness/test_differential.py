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

    @pytest.mark.parametrize("interval", [1, 7])
    def test_metric_series_across_a_demoted_replayed_block(self, interval):
        # Snapshots taken on the object path after the mid-block demotion
        # are rolled back with the block and recorded again by the replay.
        n = 16
        make_metrics = lambda: MetricsCollector(
            {"aux": lambda config: float(
                sum(state.aux or 0 for state in config.states)
            )},
            interval=interval,
        )
        for seed in SEEDS:
            reference, array = engine_pair(
                ClosedLateRandomProtocol, n, seed, make_metrics
            )
            expected = snapshot(reference.run(10**5))
            actual = snapshot(array.run(10**5))
            assert expected.converged and expected.series
            assert_identical(expected, actual, context=f"seed={seed}")
            assert array.mode == "object" and array.replays == 1

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


def kernel_probes():
    """The Figure 2 probes plus two that read every coin and counter, so
    a snapshot taken on a half-committed kernel chunk cannot pass."""
    probes = standard_ranking_probes()
    probes["coins_up"] = lambda config: float(
        sum(1 for state in config.states if state.coin == 1)
    )
    probes["alive_total"] = lambda config: float(
        sum(state.alive_count or 0 for state in config.states)
    )
    return probes


def informed_probe():
    return {"informed": lambda config: float(
        sum(1 for state in config.states if state.informed)
    )}


def mid_run_pair(n, warmup, seed, interval, probes):
    """Reference and array simulators started from the configuration an
    array run reaches after ``warmup`` interactions (where the SoA kernel
    carries most pairs), with ``interval``-spaced snapshots."""
    warm = ArraySimulator(StableRanking(n), random_state=seed)
    warm.run(warmup, stop_on_convergence=False)
    return [
        engine(
            StableRanking(n),
            configuration=warm.configuration.copy(),
            random_state=np.random.default_rng(100 + seed),
            convergence_interval=n,
            metrics=MetricsCollector(probes, interval=interval),
        )
        for engine in (Simulator, ArraySimulator)
    ]


def trace_kernel(array):
    """Record, as absolute interactions, the snapshots the array engine's
    SoA kernel takes inside its chunks and the points where it declines."""
    kernel = array.soa_kernel
    apply_chunk = kernel.apply_chunk
    trace = {"stops": [], "declines": []}

    def traced(initiators, responders, columns, rng, stops=(), on_stop=None):
        start = array.interactions

        def stop(offset):
            trace["stops"].append(start + offset)
            on_stop(offset)

        outcome = apply_chunk(
            initiators, responders, columns, rng, stops=stops, on_stop=stop
        )
        if outcome.processed < len(initiators):
            trace["declines"].append(start + outcome.processed)
        return outcome

    kernel.apply_chunk = traced
    return trace


def run_both(engines, budget, stop_on_convergence=False, context=""):
    """Run both engines; assert bit-identity, generator state included."""
    reference, array = engines
    expected = snapshot(reference.run(budget, stop_on_convergence))
    actual = snapshot(array.run(budget, stop_on_convergence))
    assert_identical(expected, actual, context=context)
    assert (
        reference.rng.bit_generator.state == array.rng.bit_generator.state
    ), f"{context}: generator states differ"
    return actual


class TestSnapshotsInsideKernelChunks:
    """Metric snapshots the SoA kernel takes inside its chunks.

    Snapshots never cut the array engine's blocks: the kernel commits the
    population at each one and the engine records it.  The intervals put
    snapshots on every pair (1), at offsets that drift through the buffer
    (7, 853, 4095, 4097) and on buffer ends (4096).
    """

    INTERVALS = (1, 7, 853, 4095, 4096, 4097)
    BUDGET = 3 * 4096 + 5

    @pytest.mark.parametrize("interval", INTERVALS)
    @pytest.mark.parametrize("n, warmup", [(16, 5000), (64, 60000)])
    def test_stable_ranking_series(self, n, warmup, interval):
        for seed in (0, 1):
            engines = mid_run_pair(n, warmup, seed, interval, kernel_probes())
            trace = trace_kernel(engines[1])
            actual = run_both(
                engines, self.BUDGET, context=f"n={n} seed={seed}"
            )
            assert len(actual.series[0][1]) > self.BUDGET // interval
            # The kernel carried the run and took snapshots in its chunks.
            assert engines[1].soa_interactions > self.BUDGET // 2
            assert trace["stops"]

    @pytest.mark.parametrize("interval", INTERVALS)
    def test_epidemic_series(self, interval):
        n = 512
        for seed in SEEDS:
            engines = engine_pair(
                OneWayEpidemicProtocol, n, seed,
                lambda: MetricsCollector(informed_probe(), interval=interval),
            )
            trace = trace_kernel(engines[1])
            actual = run_both(engines, self.BUDGET, context=f"seed={seed}")
            values = actual.series[0][2]
            assert values[0] < values[-1] == n  # the spread is recorded
            assert engines[1].soa_interactions == self.BUDGET
            assert trace["stops"]

    def test_snapshot_on_the_pair_the_kernel_declines(self):
        # A dry run finds where the kernel first declines; the snapshots
        # then land just before that pair (taken by the kernel) and just
        # after it (taken once the walk has executed it).
        n, warmup, seed = 64, 20000, 1
        dry = mid_run_pair(n, warmup, seed, 10**9, kernel_probes())[1]
        dry_trace = trace_kernel(dry)
        dry.run(self.BUDGET, stop_on_convergence=False)
        declined = dry_trace["declines"][0]
        assert 0 < declined < 4096
        for interval, taker in ((declined, "kernel"), (declined + 1, "walk")):
            engines = mid_run_pair(n, warmup, seed, interval, kernel_probes())
            trace = trace_kernel(engines[1])
            actual = run_both(engines, self.BUDGET, context=f"at {interval}")
            assert declined in trace["declines"]
            assert interval in actual.series[0][1]
            assert (interval in trace["stops"]) == (taker == "kernel")

    @pytest.mark.parametrize("n, interval", [(16, 7), (64, 853)])
    def test_rewound_block_leaves_no_snapshot_behind(self, n, interval):
        # The block that ends converged runs to the buffer end, the kernel
        # snapshotting on the way, and is then rewound and replayed at the
        # cadence: only the replay's snapshots up to the stop survive.
        for seed in SEEDS[:2]:
            engines = engine_pair(
                StableRanking, n, seed,
                lambda: MetricsCollector(kernel_probes(), interval=interval),
            )
            trace = trace_kernel(engines[1])
            actual = run_both(
                engines, 3000 * n * n, stop_on_convergence=True,
                context=f"seed={seed}",
            )
            assert actual.converged and engines[1].replays == 1
            points = actual.series[0][1]
            assert points[-1] == actual.interactions
            assert len(set(points)) == len(points)
            # The kernel snapshotted inside the rewound block: past the
            # stop, or before it and again in the replay.
            stops = trace["stops"]
            assert any(
                stop > actual.interactions or stops.count(stop) > 1
                for stop in stops
            )

    def test_run_until_milestones(self):
        n = 64
        for seed in SEEDS[:2]:
            engines = engine_pair(
                StableRanking, n, seed,
                lambda: MetricsCollector(kernel_probes(), interval=333),
            )
            trace = trace_kernel(engines[1])
            for fraction in (0.5, 0.75, 0.875, 1.0):
                threshold = fraction * n
                results = [
                    snapshot(engine.run_until(
                        lambda config: config.ranked_count() >= threshold,
                        3000 * n * n,
                    ))
                    for engine in engines
                ]
                assert_identical(
                    *results, context=f"seed={seed} milestone={fraction}"
                )
                assert results[0].converged
            reference, array = engines
            assert (
                reference.rng.bit_generator.state
                == array.rng.bit_generator.state
            )
            assert trace["stops"]


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
