"""Bit-identity of the three baselines between the reference and array engines.

The comparison experiments pit ``StableRanking`` against the Burman-style,
Cai-style and token-counter baselines; for ``engine="array"`` (and the
``auto`` default that resolves to it) to be trustworthy there, every
baseline must reproduce the reference trajectory exactly for the same
seed — including the token counter, whose GS leader-election substrate
consumes randomness and therefore runs on the array engine's object
fallback path.
"""

import pytest

from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.baselines.cai_ranking import CaiRanking, CaiState
from repro.baselines.token_counter_ranking import TokenCounterRanking
from repro.core.array_engine import ArraySimulator
from repro.core.configuration import Configuration
from repro.core.simulation import Simulator

BASELINES = {
    "burman": BurmanStyleRanking,
    "cai": CaiRanking,
    "token-counter": TokenCounterRanking,
}


def state_snapshot(configuration):
    states = []
    for state in configuration.states:
        as_tuple = getattr(state, "as_tuple", None)
        states.append(as_tuple() if as_tuple is not None else (state.rank,))
    return states


def run_pair(factory, n, seed, interactions, configuration=None):
    def build(engine_cls):
        config = None
        if configuration is not None:
            config = Configuration([state.copy() for state in configuration.states])
        return engine_cls(
            factory(n),
            configuration=config,
            random_state=seed,
            convergence_interval=n,
        )

    reference = build(Simulator)
    array = build(ArraySimulator)
    ref_result = reference.run(
        max_interactions=interactions, stop_on_convergence=False
    )
    arr_result = array.run(
        max_interactions=interactions, stop_on_convergence=False
    )
    return reference, array, ref_result, arr_result


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(BASELINES))
    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_fixed_budget_trajectory_matches(self, name, n):
        factory = BASELINES[name]
        budget = 8_000 if n < 64 else 20_000
        reference, array, ref_result, arr_result = run_pair(
            factory, n, seed=11, interactions=budget
        )
        assert arr_result.interactions == ref_result.interactions
        assert arr_result.rank_assignments == ref_result.rank_assignments
        assert arr_result.resets == ref_result.resets
        assert state_snapshot(array.configuration) == state_snapshot(
            reference.configuration
        )

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_convergence_stop_parity(self, name):
        # With matched convergence cadences the engines stop on the exact
        # same interaction (this is what the study layer relies on when
        # recording stabilization times from any backend).
        n = 16
        factory = BASELINES[name]
        budget = 3000 * n * n

        def build(engine_cls):
            return engine_cls(
                factory(n), random_state=3, convergence_interval=n
            )

        ref_result = build(Simulator).run(max_interactions=budget)
        arr_result = build(ArraySimulator).run(max_interactions=budget)
        assert ref_result.converged and arr_result.converged
        assert arr_result.interactions == ref_result.interactions

    def test_cai_adversarial_start_matches(self):
        # Self-stabilization path: an arbitrary label multiset, tabulated
        # on first use like the designated start.
        n = 16
        import numpy as np

        rng = np.random.default_rng(5)
        configuration = Configuration(
            [CaiState(rank=int(rng.integers(1, n + 1))) for _ in range(n)]
        )
        reference, array, ref_result, arr_result = run_pair(
            CaiRanking, n, seed=6, interactions=10_000,
            configuration=configuration,
        )
        assert array.mode == "lazy"
        assert state_snapshot(array.configuration) == state_snapshot(
            reference.configuration
        )


class TestCodecDeclarations:
    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_field_columns_cover_declared_fields(self, name):
        # Every baseline declares codec_fields; projecting a populated
        # codec through StateCodec.field_columns must produce one int64
        # column per field with None mapped to the undefined sentinel.
        import numpy as np

        from repro.core.codec import StateCodec

        protocol = BASELINES[name](8)
        fields = protocol.codec_fields()
        assert fields, name
        codec = StateCodec()
        codec.encode_many(protocol.initial_configuration().states)
        columns = codec.field_columns(fields)
        assert set(columns) == set(fields)
        for column in columns.values():
            assert column.dtype == np.int64
            assert len(column) == codec.size

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_rng_consumption_is_declared(self, name):
        declared = BASELINES[name](8).consumes_randomness()
        assert declared is (name == "token-counter")


class TestEngineRouting:
    def test_burman_and_cai_run_tabulated(self):
        assert ArraySimulator(BurmanStyleRanking(16), random_state=0).mode == "lazy"
        assert ArraySimulator(CaiRanking(16), random_state=0).mode == "lazy"

    def test_cai_large_n_uses_lazy_tables(self):
        assert ArraySimulator(CaiRanking(128), random_state=0).mode == "lazy"

    def test_token_counter_declares_object_path(self):
        # The declaration short-circuits straight to the object path — no
        # doomed tabulation attempt, still bit-exact (tested above).
        assert (
            ArraySimulator(TokenCounterRanking(16), random_state=0).mode
            == "object"
        )
