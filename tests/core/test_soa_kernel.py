"""Tests for the struct-of-arrays vectorized kernels (``repro.core.soa``).

The kernels are protocol-provided fast paths inside the array engine, so
the load-bearing property is the same as for the engine itself: a
same-seed run with a matched convergence cadence must reproduce the
reference simulator's trajectory *bit for bit* — same stopping
interaction, same final states, same counters, same metric series — while
actually exercising the kernel (``soa_interactions > 0``), across the
regimes the kernel special-cases (leader election, reset storms, coin
toggling, counter churn, phase waves) and in the presence of adversarial
states outside the kernel's pure classes.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.array_engine import ArraySimulator, EngineCache
from repro.core.configuration import Configuration
from repro.core.metrics import MetricsCollector, standard_ranking_probes
from repro.core.protocol import PopulationProtocol, TransitionResult
from repro.core.simulation import Simulator
from repro.core.soa import ChunkOutcome, ColumnStore, occurrence_index
from repro.core.state import AgentState
from repro.experiments.figure2 import figure2_specs
from repro.experiments.study import Study
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking.soa_kernel import StableRankingKernel
from repro.protocols.ranking.stable_ranking import StableRanking


def states_of(result):
    return [
        state.as_tuple()
        if hasattr(state, "as_tuple")
        else (state.informed, state.active)
        for state in result.configuration.states
    ]


def assert_same_run(expected, actual):
    assert actual.interactions == expected.interactions
    assert actual.converged == expected.converged
    assert actual.rank_assignments == expected.rank_assignments
    assert actual.resets == expected.resets
    assert states_of(actual) == states_of(expected)


class TestOccurrenceIndex:
    def test_counts_prior_appearances(self):
        agents = np.array([3, 1, 3, 3, 1, 0, 3])
        assert occurrence_index(agents).tolist() == [0, 0, 1, 2, 1, 0, 3]

    def test_empty(self):
        assert occurrence_index(np.empty(0, dtype=np.int64)).tolist() == []


class TestStableRankingEquivalence:
    """Same-seed bit-equality on the kernel's primary protocol."""

    @pytest.mark.parametrize("n,seed", [(2, 0), (16, 7), (64, 11)])
    def test_full_run_matches_reference(self, n, seed):
        # n=2 checks convergence every 2 interactions on both engines, so
        # its budget is kept small (the trajectory is all reset cycles
        # anyway); the larger sizes cover full phase progressions.
        budget = 60_000 if n == 2 else 400_000
        reference = Simulator(StableRanking(n), random_state=seed)
        array = ArraySimulator(
            StableRanking(n), random_state=seed, convergence_interval=n
        )
        expected = reference.run(
            max_interactions=budget, stop_on_convergence=False
        )
        actual = array.run(max_interactions=budget, stop_on_convergence=False)
        assert array.soa_kernel is not None
        assert array.soa_interactions > 0
        assert_same_run(expected, actual)

    def test_reset_storms_match_reference(self):
        # n=2 elections fail almost always, so the trajectory cycles
        # through leader election, countdown-expiry resets, propagation
        # and dormancy — the kernel's start-up-domain chains.
        n, seed = 2, 3
        reference = Simulator(StableRanking(n), random_state=seed)
        array = ArraySimulator(
            StableRanking(n), random_state=seed, convergence_interval=n
        )
        expected = reference.run(
            max_interactions=80_000, stop_on_convergence=False
        )
        actual = array.run(max_interactions=80_000, stop_on_convergence=False)
        assert expected.resets > 0
        assert_same_run(expected, actual)

    def test_metric_series_match_reference(self):
        n = 32
        reference = Simulator(
            StableRanking(n),
            random_state=13,
            metrics=MetricsCollector(standard_ranking_probes(), interval=500),
        )
        array = ArraySimulator(
            StableRanking(n),
            random_state=13,
            metrics=MetricsCollector(standard_ranking_probes(), interval=500),
            convergence_interval=n,
        )
        expected = reference.run(max_interactions=60_000, stop_on_convergence=False)
        actual = array.run(max_interactions=60_000, stop_on_convergence=False)
        assert array.soa_interactions > 0
        for name, series in expected.metrics.items():
            assert actual.metrics[name].interactions == series.interactions
            assert actual.metrics[name].values == series.values

    def test_kernel_off_matches_kernel_on(self):
        n, seed = 32, 21
        on = ArraySimulator(
            StableRanking(n), random_state=seed, convergence_interval=n
        )
        off = ArraySimulator(
            StableRanking(n),
            random_state=seed,
            convergence_interval=n,
            use_soa_kernel=False,
        )
        with_kernel = on.run(max_interactions=2_000_000)
        without = off.run(max_interactions=2_000_000)
        assert on.soa_interactions > 0
        assert off.soa_kernel is None and off.soa_interactions == 0
        assert_same_run(without, with_kernel)

    def test_adversarial_states_fall_back_to_walk(self):
        # States outside the kernel's pure classes (a ranked agent that
        # kept its coin, a blank agent, a zero wait counter) must be
        # classified conservatively and resolved by the walk — the
        # trajectory still matches the reference exactly.
        n, seed = 16, 5
        protocol = StableRanking(n)
        states = [protocol.initial_state() for _ in range(n)]
        states[0] = AgentState(rank=3, coin=1)          # impure ranked
        states[1] = AgentState(coin=0)                  # blank
        states[2] = AgentState(wait_count=0, coin=1, alive_count=4)
        states[3] = AgentState(rank=3)                  # duplicate rank
        reference = Simulator(
            StableRanking(n),
            configuration=Configuration([s.copy() for s in states]),
            random_state=seed,
        )
        array = ArraySimulator(
            StableRanking(n),
            configuration=Configuration([s.copy() for s in states]),
            random_state=seed,
            convergence_interval=n,
        )
        expected = reference.run(max_interactions=150_000, stop_on_convergence=False)
        actual = array.run(max_interactions=150_000, stop_on_convergence=False)
        assert_same_run(expected, actual)

    def test_interleaved_simulators_sharing_a_cache_stay_exact(self):
        # The kernel AND its column store are shared through the cache;
        # the live population binding must follow whichever engine is
        # advancing, even when two runs are interleaved chunk by chunk.
        n = 16
        cache = EngineCache()
        expected = {}
        for seed in (3, 4):
            sim = Simulator(StableRanking(n), random_state=seed)
            expected[seed] = sim.run(max_interactions=40_000,
                                     stop_on_convergence=False)
        arrays = {
            seed: ArraySimulator(
                StableRanking(n), random_state=seed,
                convergence_interval=n, cache=cache,
            )
            for seed in (3, 4)
        }
        for _ in range(8):
            for sim in arrays.values():
                sim.run(max_interactions=5_000, stop_on_convergence=False)
        for seed, sim in arrays.items():
            assert sim.interactions == expected[seed].interactions
            assert [s.as_tuple() for s in sim.configuration.states] == (
                states_of(expected[seed])
            )

    def test_shared_cache_shares_kernel_and_results(self):
        n = 24
        cache = EngineCache()
        baseline = ArraySimulator(
            StableRanking(n), random_state=9, convergence_interval=n
        ).run(max_interactions=2_000_000)
        first = ArraySimulator(StableRanking(n), random_state=10, cache=cache)
        first.run(max_interactions=2_000_000)
        second = ArraySimulator(StableRanking(n), random_state=9,
                                convergence_interval=n, cache=cache)
        assert second.soa_kernel is first.soa_kernel
        assert cache.soa_kernel is first.soa_kernel
        shared = second.run(max_interactions=2_000_000)
        assert_same_run(baseline, shared)


class TestEpidemicEquivalence:
    """The exemplar kernel: infection fixpoint over a chunk."""

    @pytest.mark.parametrize("n,seed", [(2, 1), (16, 2), (64, 5)])
    def test_matches_reference(self, n, seed):
        reference = Simulator(OneWayEpidemicProtocol(n), random_state=seed)
        array = ArraySimulator(
            OneWayEpidemicProtocol(n), random_state=seed, convergence_interval=n
        )
        expected = reference.run(max_interactions=200_000)
        actual = array.run(max_interactions=200_000)
        assert array.mode == "lazy"
        assert array.soa_interactions > 0
        assert_same_run(expected, actual)

    def test_inert_subpopulation(self):
        n, seed = 32, 4
        reference = Simulator(OneWayEpidemicProtocol(n, m=10), random_state=seed)
        array = ArraySimulator(
            OneWayEpidemicProtocol(n, m=10), random_state=seed,
            convergence_interval=n,
        )
        expected = reference.run(max_interactions=100_000)
        actual = array.run(max_interactions=100_000)
        assert_same_run(expected, actual)

    def test_metric_series_match_reference(self):
        n, seed = 32, 6
        probes = {"informed": lambda config: sum(
            1 for s in config.states if s.informed
        )}
        reference = Simulator(
            OneWayEpidemicProtocol(n), random_state=seed,
            metrics=MetricsCollector(probes, interval=100),
        )
        array = ArraySimulator(
            OneWayEpidemicProtocol(n), random_state=seed,
            metrics=MetricsCollector(probes, interval=100),
            convergence_interval=n,
        )
        expected = reference.run(max_interactions=20_000, stop_on_convergence=False)
        actual = array.run(max_interactions=20_000, stop_on_convergence=False)
        series = expected.metrics["informed"]
        assert actual.metrics["informed"].interactions == series.interactions
        assert actual.metrics["informed"].values == series.values


class _DecliningKernel:
    """A kernel that declines every pair (the always-safe behaviour)."""

    def columns(self):
        return ("aux",)

    def apply_chunk(self, initiators, responders, columns, rng,
                    stops=(), on_stop=None):
        return ChunkOutcome(0)


class LateRandomWithKernel(PopulationProtocol):
    """Deterministic counters that consume rng past a threshold.

    Provides a (useless but legal) kernel, so the engine exercises the
    SoA dispatch loop together with the mid-chunk demotion to the object
    path when the walk hits the first rng-consuming transition.
    """

    name = "late-random-kernel"
    THRESHOLD = 100

    def initial_state(self):
        return AgentState(aux=0)

    def transition(self, u, v, rng):
        u.aux = min((u.aux or 0) + 1, 200)
        if u.aux >= self.THRESHOLD:
            if int(rng.integers(0, 2)):
                v.aux = 0
        return TransitionResult(changed=True)

    def has_converged(self, configuration):
        return False

    def vectorized_kernel(self, codec):
        return _DecliningKernel()


class TestKernelEngineIntegration:
    def test_declining_kernel_with_mid_run_demotion(self, monkeypatch):
        """A kernel that declines everything must not disturb the walk,
        the demotion to the object path, or same-seed equality.

        It declines after fewer than ``SOA_STRIKE_YIELD`` pairs, so every
        chunk is offered to it exactly once and then runs whole on the
        table path.
        """
        chunks, kernel_calls, tabled = [], [], []
        apply_chunk = _DecliningKernel.apply_chunk
        process_chunk = ArraySimulator._process_chunk
        tables_to_stop = ArraySimulator._tables_to_stop

        def counted_apply(self, initiators, *args, **kwargs):
            kernel_calls.append(len(initiators))
            return apply_chunk(self, initiators, *args, **kwargs)

        def counted_chunk(self, pairs):
            chunks.append(len(pairs))
            return process_chunk(self, pairs)

        def counted_tables(self, pairs):
            tabled.append(len(pairs))
            return tables_to_stop(self, pairs)

        monkeypatch.setattr(_DecliningKernel, "apply_chunk", counted_apply)
        monkeypatch.setattr(ArraySimulator, "_process_chunk", counted_chunk)
        monkeypatch.setattr(ArraySimulator, "_tables_to_stop", counted_tables)
        n, seed = 16, 5
        # Snapshots every 100 interactions end each table-path call, so
        # the engine offers the kernel many chunks before it demotes.
        probes = {"aux": lambda config: sum(s.aux or 0 for s in config.states)}
        reference = Simulator(
            LateRandomWithKernel(n), random_state=seed, convergence_interval=n,
            metrics=MetricsCollector(probes, interval=100),
        )
        array = ArraySimulator(
            LateRandomWithKernel(n), random_state=seed, convergence_interval=n,
            metrics=MetricsCollector(probes, interval=100),
        )
        assert array.mode == "lazy"
        assert array.soa_kernel is not None
        expected = reference.run(max_interactions=30_000, stop_on_convergence=False)
        actual = array.run(max_interactions=30_000, stop_on_convergence=False)
        assert array.mode == "object"
        assert array.soa_kernel is None  # demotion drops the kernel
        assert actual.interactions == expected.interactions
        assert states_of(actual) == states_of(expected)
        assert actual.metrics["aux"].values == expected.metrics["aux"].values
        assert len(chunks) > 1
        assert kernel_calls == chunks
        assert tabled == chunks

    def test_column_store_projection_and_variant(self):
        protocol = StableRanking(8)
        cache = EngineCache()
        codec = cache.codec
        a = codec.encode(AgentState(phase=2, coin=1, alive_count=5))
        store = ColumnStore(codec, ("phase", "coin", "alive_count", "rank"))
        assert store.column("phase")[a] == 2
        assert store.column("rank")[a] == -1  # ⊥ projects to -1
        b = store.variant(a, coin=0, alive_count=7)
        assert store.column("coin")[b] == 0
        assert store.column("alive_count")[b] == 7
        assert store.column("phase")[b] == 2
        # memoized: the same update hits the cache and the codec agrees
        assert store.variant(a, coin=0, alive_count=7) == b
        assert codec.variant_code(a, coin=0, alive_count=7) == b

    def test_run_until_with_kernel_matches_reference(self):
        n = 32
        half_ranked = lambda config: config.ranked_count() >= n // 2
        reference = Simulator(StableRanking(n), random_state=6)
        array = ArraySimulator(StableRanking(n), random_state=6)
        expected = reference.run_until(half_ranked, max_interactions=2_000_000)
        actual = array.run_until(half_ranked, max_interactions=2_000_000)
        assert array.soa_interactions > 0
        assert actual.interactions == expected.interactions
        assert states_of(actual) == states_of(expected)


class TestSnapshotStops:
    def test_figure2_cell_takes_snapshots_without_extra_kernel_calls(
        self, monkeypatch
    ):
        """A figure2 cell's 240 snapshots ride inside the kernel's chunks.

        The cell (n=64, 50 n² interactions, 240-sample collector, cadence
        n) makes 164 ``apply_chunk`` calls.  Cutting the chunks at every
        snapshot took 370: one more kernel call, with its full vector
        setup, per snapshot that falls inside a chunk.
        """
        calls = []
        apply_chunk = StableRankingKernel.apply_chunk

        def counted(self, *args, **kwargs):
            calls.append(None)
            return apply_chunk(self, *args, **kwargs)

        monkeypatch.setattr(StableRankingKernel, "apply_chunk", counted)
        spec = figure2_specs(
            n_values=(64,), seeds=1, engine="array",
            max_normalized_interactions=50.0, random_state=1005,
        )[0]
        spec = dataclasses.replace(spec, stop_on_convergence=False)
        (row,) = Study(spec, name="count").run().rows
        assert row.interactions == 50 * 64 * 64
        assert len(row.series["ranked_agents"]["interactions"]) == 242
        assert len(calls) <= 200
