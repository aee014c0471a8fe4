"""Tests for the vectorized array engine.

The central claims verified here:

* **Exactness** — on the tabulated paths, a same-seed ``ArraySimulator`` run
  (with a matched ``convergence_interval``) reproduces the reference
  simulator's trajectory exactly: same stopping interaction, same final
  states, same counters, same recorded metric series.
* **Statistical equivalence** — with engine defaults (coarser convergence
  cadence), convergence-time distributions across seeds agree between the
  engines.
* **Mode selection** — protocols are routed to the lazy or object path
  as their transition structure demands, including the mid-run
  demotion for randomness-consuming transitions.
"""

import numpy as np
import pytest

from harness.differential import assert_identical, snapshot
from repro.core.array_engine import ArraySimulator, EngineCache, make_simulator
from repro.core.configuration import Configuration
from repro.core.errors import SimulationLimitExceeded
from repro.core.metrics import MetricsCollector, standard_ranking_probes
from repro.core.protocol import PopulationProtocol, TransitionResult
from repro.core.simulation import Simulator
from repro.protocols.primitives.one_way_epidemic import (
    EpidemicState,
    OneWayEpidemicProtocol,
)
from repro.protocols.ranking.space_efficient import SpaceEfficientRanking
from repro.protocols.ranking.stable_ranking import StableRanking


from harness.protocols import LateRandomProtocol


def states_of(result):
    return [
        state.as_tuple() if hasattr(state, "as_tuple") else (state.informed, state.active)
        for state in result.configuration.states
    ]


class TestModeSelection:
    def test_epidemic_uses_lazy_tables(self):
        assert ArraySimulator(OneWayEpidemicProtocol(32)).mode == "lazy"

    def test_stable_ranking_uses_lazy_tables(self):
        assert ArraySimulator(StableRanking(16)).mode == "lazy"

    def test_space_efficient_falls_back_to_object(self):
        # The GS leader-election substrate draws random tags inside the
        # transition, so state pairs cannot be tabulated.
        assert ArraySimulator(SpaceEfficientRanking(16)).mode == "object"

    def test_mode_decision_is_cached(self):
        cache = EngineCache()
        ArraySimulator(StableRanking(16), cache=cache)
        assert cache.mode == "lazy"
        assert ArraySimulator(StableRanking(16), cache=cache).mode == "lazy"

    def test_make_simulator_dispatch(self):
        assert isinstance(make_simulator(StableRanking(8)), Simulator)
        assert isinstance(
            make_simulator(StableRanking(8), engine="array"), ArraySimulator
        )
        with pytest.raises(ValueError):
            make_simulator(StableRanking(8), engine="warp")

    def test_population_size_mismatch_is_rejected(self):
        protocol = StableRanking(8)
        other = StableRanking(16).initial_configuration()
        with pytest.raises(SimulationLimitExceeded):
            ArraySimulator(protocol, configuration=other)


class TestSameSeedTraceEquality:
    """The tabulated paths replay the reference trajectory exactly.

    Comparisons go through the shared differential harness
    (:mod:`harness.differential`): one canonical trajectory snapshot and
    one bit-identity assertion, shared with the cross-engine matrix in
    ``tests/harness/test_differential.py``.
    """

    @pytest.mark.parametrize("n,seed", [(8, 0), (16, 7), (32, 3), (64, 11)])
    def test_stable_ranking_matches_reference(self, n, seed):
        reference = Simulator(StableRanking(n), random_state=seed)
        array = ArraySimulator(
            StableRanking(n), random_state=seed, convergence_interval=n
        )
        expected = snapshot(reference.run(max_interactions=8_000_000))
        actual = snapshot(array.run(max_interactions=8_000_000))
        assert array.mode == "lazy"
        assert_identical(expected, actual, context=f"array n={n} seed={seed}")

    @pytest.mark.parametrize("seed", [1, 5])
    def test_epidemic_matches_reference(self, seed):
        n = 64
        reference = Simulator(OneWayEpidemicProtocol(n), random_state=seed)
        array = ArraySimulator(
            OneWayEpidemicProtocol(n), random_state=seed, convergence_interval=n
        )
        expected = snapshot(reference.run(max_interactions=200_000))
        actual = snapshot(array.run(max_interactions=200_000))
        assert array.mode == "lazy"
        assert_identical(expected, actual, context=f"epidemic seed={seed}")

    def test_fixed_budget_runs_match(self):
        n = 32
        reference = Simulator(StableRanking(n), random_state=2)
        array = ArraySimulator(
            StableRanking(n), random_state=2, convergence_interval=n
        )
        expected = snapshot(
            reference.run(max_interactions=40_000, stop_on_convergence=False)
        )
        actual = snapshot(
            array.run(max_interactions=40_000, stop_on_convergence=False)
        )
        assert actual.interactions == expected.interactions == 40_000
        assert_identical(expected, actual, context="fixed budget")

    def test_metric_series_match_reference(self):
        n = 32
        reference = Simulator(
            StableRanking(n),
            random_state=4,
            metrics=MetricsCollector(standard_ranking_probes(), interval=500),
        )
        array = ArraySimulator(
            StableRanking(n),
            random_state=4,
            metrics=MetricsCollector(standard_ranking_probes(), interval=500),
            convergence_interval=n,
        )
        expected = reference.run(max_interactions=30_000, stop_on_convergence=False)
        actual = array.run(max_interactions=30_000, stop_on_convergence=False)
        for name, series in expected.metrics.items():
            assert actual.metrics[name].interactions == series.interactions
            assert actual.metrics[name].values == series.values

    def test_run_until_matches_reference(self):
        n = 32
        half_ranked = lambda config: config.ranked_count() >= n // 2
        reference = Simulator(StableRanking(n), random_state=6)
        array = ArraySimulator(StableRanking(n), random_state=6)
        expected = reference.run_until(half_ranked, max_interactions=2_000_000)
        actual = array.run_until(half_ranked, max_interactions=2_000_000)
        assert actual.converged and expected.converged
        assert actual.interactions == expected.interactions
        assert states_of(actual) == states_of(expected)

    def test_shared_cache_does_not_change_results(self):
        n = 24
        cache = EngineCache()
        baseline = ArraySimulator(
            StableRanking(n), random_state=9, convergence_interval=n
        ).run(max_interactions=2_000_000)
        # Warm the cache with other seeds, then re-run seed 9 against it.
        for seed in (10, 11):
            ArraySimulator(
                StableRanking(n), random_state=seed, cache=cache
            ).run(max_interactions=2_000_000)
        shared = ArraySimulator(
            StableRanking(n), random_state=9, convergence_interval=n, cache=cache
        ).run(max_interactions=2_000_000)
        assert shared.interactions == baseline.interactions
        assert states_of(shared) == states_of(baseline)


class TestObjectFallback:
    def test_mid_run_demotion_is_exact(self):
        """Demotion mid-trajectory keeps same-seed equality (pair buffer
        included: already-sampled pairs must be drained in order)."""
        n, seed = 16, 5
        reference = Simulator(
            LateRandomProtocol(n), random_state=seed, convergence_interval=n
        )
        array = ArraySimulator(
            LateRandomProtocol(n), random_state=seed, convergence_interval=n
        )
        assert array.mode == "lazy"
        expected = reference.run(max_interactions=30_000, stop_on_convergence=False)
        actual = array.run(max_interactions=30_000, stop_on_convergence=False)
        assert array.mode == "object"
        assert actual.interactions == expected.interactions
        assert states_of(actual) == states_of(expected)

    def test_shared_cache_reuse_with_new_states(self):
        """A shared cache must tabulate the states a later configuration
        contains but the first run never reached."""
        cache = EngineCache()
        ArraySimulator(OneWayEpidemicProtocol(8), cache=cache).run(
            max_interactions=10_000
        )
        states = [EpidemicState(informed=True, active=True)]
        states += [EpidemicState(informed=False, active=True) for _ in range(5)]
        states += [EpidemicState(informed=False, active=False) for _ in range(2)]
        array = ArraySimulator(
            OneWayEpidemicProtocol(8, m=6),
            configuration=Configuration(states),
            cache=cache,
        )
        assert array.mode == "lazy"
        result = array.run(max_interactions=100_000)
        assert result.converged


    def test_space_efficient_converges_on_object_path(self):
        n = 32
        array = ArraySimulator(SpaceEfficientRanking(n), random_state=3)
        result = array.run(max_interactions=4_000_000)
        assert result.converged
        assert result.configuration.is_valid_ranking()

    def test_object_path_matches_reference_exactly(self):
        # The object path samples pairs through the same scheduler and
        # passes the same generator to the transitions, and the fallback
        # decision happens before any randomness is consumed, so even the
        # rng-consuming protocol replays the reference trajectory exactly
        # when the convergence cadence matches.
        n = 16
        reference = Simulator(SpaceEfficientRanking(n), random_state=5)
        array = ArraySimulator(
            SpaceEfficientRanking(n), random_state=5, convergence_interval=n
        )
        expected = reference.run(max_interactions=2_000_000)
        actual = array.run(max_interactions=2_000_000)
        assert actual.converged and expected.converged
        assert actual.interactions == expected.interactions
        assert states_of(actual) == states_of(expected)

    @pytest.mark.parametrize("interval", [1, 2, 13])
    @pytest.mark.parametrize("factory", [SpaceEfficientRanking, LateRandomProtocol])
    def test_object_path_takes_snapshots_inside_its_blocks(
        self, factory, interval, monkeypatch
    ):
        # The object path passes the snapshots due in a block to the
        # shared stepping loop as stops, like the reference: the series
        # match, and only the buffer refill ends a block.
        from repro.core import array_engine

        blocks = []
        apply_pairs = array_engine.apply_pairs

        def counting(*args, **kwargs):
            blocks.append(len(args[3]))
            return apply_pairs(*args, **kwargs)

        monkeypatch.setattr(array_engine, "apply_pairs", counting)
        n, seed, budget = 16, 5, 9_000
        engines = [
            engine(
                factory(n), random_state=seed, convergence_interval=n,
                metrics=MetricsCollector(standard_ranking_probes(), interval),
            )
            for engine in (Simulator, ArraySimulator)
        ]
        results = [
            engine.run(budget, stop_on_convergence=False) for engine in engines
        ]
        assert engines[1].mode == "object"
        assert states_of(results[1]) == states_of(results[0])
        series = [
            {name: (s.interactions, s.values) for name, s in r.metrics.items()}
            for r in results
        ]
        assert series[1] == series[0]
        assert len(series[0]["ranked_agents"][0]) > budget // interval
        if factory is SpaceEfficientRanking:
            assert blocks == [4096, 4096, budget - 2 * 4096]
        else:
            # Demoted inside the table path's walk: the rest of that walk,
            # the rest of the engine's pair buffer in one block, then one
            # block per scheduler refill.
            assert len(blocks) == 4 and blocks[2] == 4096


class TestDistributionalEquivalence:
    def test_convergence_time_distributions_agree(self):
        """Engine defaults differ only in stop granularity (< 2% here)."""
        n = 32
        seeds = range(12)
        reference_times = []
        array_times = []
        cache = EngineCache()
        for seed in seeds:
            reference_times.append(
                Simulator(StableRanking(n), random_state=seed)
                .run(max_interactions=4_000_000)
                .interactions
            )
            array_times.append(
                ArraySimulator(StableRanking(n), random_state=seed, cache=cache)
                .run(max_interactions=4_000_000)
                .interactions
            )
        # Same seeds drive identical trajectories; only the stopping
        # granularity differs (reference checks every n, array every 4096).
        for ref, arr in zip(reference_times, array_times):
            assert -n <= arr - ref <= 4096
        # Means differ by at most the check granularity (runs at n = 32 are
        # ~40k interactions, so the inflation is a few percent at worst and
        # vanishes for the paper-scale sizes).
        assert abs(np.mean(array_times) - np.mean(reference_times)) <= 4096


class TestConvergenceChecks:
    """Diagnostic counters of the check-cadence machinery."""

    @pytest.mark.parametrize("protocol", [StableRanking, LateRandomProtocol])
    def test_fixed_budget_run_checks_at_most_twice(self, protocol):
        array = ArraySimulator(protocol(16), random_state=1, convergence_interval=16)
        result = array.run(max_interactions=20_000, stop_on_convergence=False)
        assert result.interactions == 20_000
        assert array.convergence_checks <= 2
        assert array.replays == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converged_stop_run_replays_at_most_twice(self, seed):
        array = ArraySimulator(
            StableRanking(16), random_state=seed, convergence_interval=16
        )
        result = array.run(max_interactions=10**7)
        assert result.converged
        assert 1 <= array.replays <= 2
        # The start and final checks, one per 4096-pair block, and one
        # replayed block at the cadence.
        blocks = result.interactions // 4096 + 1
        assert array.convergence_checks <= 2 + blocks + 4096 // 16


class TestResultContract:
    def test_raise_on_limit(self):
        array = ArraySimulator(StableRanking(16), random_state=0)
        with pytest.raises(SimulationLimitExceeded) as excinfo:
            array.run(max_interactions=50, raise_on_limit=True)
        assert excinfo.value.result is not None
        assert excinfo.value.result.interactions == 50

    def test_configuration_property_is_synchronized(self):
        array = ArraySimulator(StableRanking(16), random_state=1)
        array.run(max_interactions=1000, stop_on_convergence=False)
        ranked = sum(1 for s in array.configuration.states if s.rank is not None)
        assert 0 <= ranked <= 16
        assert array.interactions == 1000

    def test_normalized_interactions(self):
        result = ArraySimulator(StableRanking(16), random_state=2).run(
            max_interactions=1600, stop_on_convergence=False
        )
        assert result.normalized_interactions == pytest.approx(1600 / 256.0)


class TestTabulation:
    """The walk tabulates exactly the state pairs the trajectory meets."""

    @pytest.mark.parametrize(
        "name, interactions, cached_pairs, soa_interactions",
        [
            ("burman", 91_520, 52_706, 0),
            ("cai", 141_056, 4_016, 0),
            ("stable_adversarial", 59_296, 6_118, 51_446),
        ],
    )
    def test_miss_counts_are_pinned(
        self, name, interactions, cached_pairs, soa_interactions
    ):
        cache = EngineCache()
        array = self.pinned_simulator(name, cache)
        result = array.run(max_interactions=200 * array.protocol.n ** 2)
        assert result.converged
        assert result.interactions == interactions
        assert len(cache.pair_cache) == cached_pairs
        assert array.soa_interactions == soa_interactions

    @staticmethod
    def pinned_simulator(name, cache):
        from repro.baselines.burman_ranking import BurmanStyleRanking
        from repro.baselines.cai_ranking import CaiRanking
        from repro.experiments.workloads import adversarial_configuration

        configuration = None
        if name == "burman":
            protocol = BurmanStyleRanking(64)
        elif name == "cai":
            protocol = CaiRanking(64)
        else:
            protocol = StableRanking(32)
            configuration = adversarial_configuration(protocol, 5)
        return ArraySimulator(
            protocol, configuration=configuration, random_state=11,
            convergence_interval=protocol.n, cache=cache,
        )

    @pytest.mark.parametrize("name", ["burman", "cai", "stable_adversarial"])
    def test_warm_rerun_tabulates_nothing(self, name):
        """A second same-seed run over the filled cache meets only cached
        pairs and replays the first run bit for bit."""
        cache = EngineCache()
        cold = self.pinned_simulator(name, cache)
        budget = 200 * cold.protocol.n ** 2
        first = snapshot(cold.run(max_interactions=budget))
        tabulated = len(cache.pair_cache)
        warm = self.pinned_simulator(name, cache)
        second = snapshot(warm.run(max_interactions=budget))
        assert len(cache.pair_cache) == tabulated
        assert_identical(first, second, context=f"warm rerun {name}")

    @pytest.mark.parametrize("name", ["burman", "cai"])
    def test_walk_stops_at_every_snapshot(self, name):
        """Kernel-less baselines run on the walk alone; metric snapshots
        that fall inside a chunk read the reference's configuration."""
        from repro.baselines.burman_ranking import BurmanStyleRanking
        from repro.baselines.cai_ranking import CaiRanking

        factory = BurmanStyleRanking if name == "burman" else CaiRanking
        n = 32

        def collector():
            return MetricsCollector(standard_ranking_probes(), interval=250)

        reference = Simulator(factory(n), random_state=3, metrics=collector())
        array = ArraySimulator(
            factory(n), random_state=3, metrics=collector(),
            convergence_interval=n, cache=EngineCache(),
        )
        expected = reference.run(max_interactions=20_000, stop_on_convergence=False)
        actual = array.run(max_interactions=20_000, stop_on_convergence=False)
        assert array.mode == "lazy"
        assert array.soa_interactions == 0
        assert actual.metrics.keys() == expected.metrics.keys()
        for metric, series in expected.metrics.items():
            assert len(series.interactions) == 20_000 // 250 + 1
            assert actual.metrics[metric].interactions == series.interactions
            assert actual.metrics[metric].values == series.values
        assert_identical(
            snapshot(expected), snapshot(actual), context=f"walk {name}"
        )

    def test_large_state_space_runs_warm_not_demoted(self):
        """CaiRanking with 9,000 interned states stays on the lazy path,
        tabulates pairs of codes above 8,192 and matches the reference."""
        from repro.baselines.cai_ranking import CaiRanking, CaiState

        n = 9000

        def configuration():
            # All labels distinct: the codec interns n states the moment
            # the population is encoded.
            return Configuration(
                [CaiState(rank=label) for label in range(1, n + 1)]
            )

        array = ArraySimulator(
            CaiRanking(n), configuration=configuration(), random_state=7
        )
        assert array.mode == "lazy"  # no cap error, no object demotion
        assert array.codec.size == n > 8192
        assert array.kernel is not None

        array.run(max_interactions=20_000, stop_on_convergence=False)
        assert array.mode == "lazy"  # still not demoted
        high = [
            key for key in array.kernel.pair_dict
            if (key >> 21) > 8192 and (key & ((1 << 21) - 1)) > 8192
        ]
        assert high, "expected tabulated pairs with codes beyond 8192"

        reference = Simulator(
            CaiRanking(n), configuration=configuration(), random_state=7
        )
        reference.run(max_interactions=20_000, stop_on_convergence=False)
        assert [s.rank for s in array.configuration.states] == [
            s.rank for s in reference.configuration.states
        ]
