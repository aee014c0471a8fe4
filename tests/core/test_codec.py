"""Unit tests for the state codec and single-pair tabulation."""

import numpy as np
import pytest

from repro.core import array_engine
from repro.core.array_engine import ArraySimulator
from repro.core.codec import RAISING_RNG, StateCodec, evaluate_pair
from repro.core.errors import CodecError, RandomnessConsumed
from repro.core.state import AgentState
from repro.protocols.leader_election.gs_leader_election import GSLeaderElectionProtocol
from repro.protocols.primitives.one_way_epidemic import (
    EpidemicState,
    OneWayEpidemicProtocol,
)
from repro.protocols.ranking.stable_ranking import StableRanking


class TestAgentStateHelperParity:
    """The hand-rolled AgentState helpers must track the dataclass fields.

    ``copy``/``as_tuple``/``clear`` enumerate the 13 fields explicitly for
    speed (they are the inner loop of transition tabulation); if a field is
    ever added without updating them, the codec would silently conflate
    distinct states.  This guard turns that silent corruption into a test
    failure.
    """

    def test_as_tuple_covers_every_field_in_order(self):
        import dataclasses

        state = AgentState()
        field_names = [f.name for f in dataclasses.fields(AgentState)]
        sentinel_values = list(range(1, len(field_names) + 1))
        for name, value in zip(field_names, sentinel_values):
            setattr(state, name, value)
        assert list(state.as_tuple()) == sentinel_values

    def test_copy_covers_every_field(self):
        import dataclasses

        state = AgentState()
        for index, f in enumerate(dataclasses.fields(AgentState)):
            setattr(state, f.name, index + 1)
        duplicate = state.copy()
        assert duplicate.as_tuple() == state.as_tuple()
        assert duplicate is not state

    def test_clear_resets_every_field(self):
        import dataclasses

        state = AgentState()
        for index, f in enumerate(dataclasses.fields(AgentState)):
            setattr(state, f.name, index + 1)
        state.clear()
        assert all(value is None for value in state.as_tuple())


class TestStateCodecRoundTrip:
    def test_encode_decode_is_identity_for_agent_states(self):
        codec = StateCodec()
        states = [
            AgentState(),
            AgentState(rank=3),
            AgentState(phase=2, coin=1, alive_count=7),
            AgentState(reset_count=4, delay_count=9, coin=0),
            AgentState(is_leader=1, leader_done=0, le_count=12, coin_count=3),
        ]
        for state in states:
            code = codec.encode(state)
            assert codec.materialize(code).as_tuple() == state.as_tuple()

    def test_encode_decode_is_identity_over_visited_space(self):
        array = ArraySimulator(StableRanking(8), random_state=1)
        array.run(max_interactions=20_000)
        codec = array.codec
        assert codec.size > 8
        for code in range(codec.size):
            state = codec.materialize(code)
            assert codec.encode(state) == code

    def test_equal_states_share_a_code(self):
        codec = StateCodec()
        assert codec.encode(AgentState(rank=5)) == codec.encode(AgentState(rank=5))
        assert codec.encode(AgentState(rank=6)) != codec.encode(AgentState(rank=5))

    def test_codec_copies_are_independent(self):
        codec = StateCodec()
        original = AgentState(rank=1)
        code = codec.encode(original)
        original.rank = 99  # mutating the caller's object must not leak
        assert codec.materialize(code).rank == 1
        materialized = codec.materialize(code)
        materialized.rank = 42
        assert codec.prototype(code).rank == 1

    def test_encode_many_and_prototype_view(self):
        codec = StateCodec()
        states = [AgentState(rank=r) for r in (1, 2, 1, 3)]
        codes = codec.encode_many(states)
        assert codes.tolist() == [0, 1, 0, 2]
        view = codec.prototype_view(codes.tolist())
        assert view[0] is view[2]  # shared prototypes for equal states
        assert [s.rank for s in view] == [1, 2, 1, 3]

    def test_unencodable_state_raises(self):
        codec = StateCodec()
        with pytest.raises(CodecError):
            codec.encode(object())


class TestPairTabulation:
    def test_lazy_kernel_outcomes_match_per_pair_evaluation(self):
        # The engine's inlined tabulation packs exactly what evaluate_pair
        # computes, for every pair a run walked (the SoA kernel would take
        # the epidemic's chunks without tabulating, so it is off here).
        protocol = OneWayEpidemicProtocol(8)
        array = ArraySimulator(protocol, random_state=2, use_soa_kernel=False)
        array.run(max_interactions=10_000)
        codec = array.codec
        pair_dict = array.kernel.pair_dict
        assert pair_dict
        bits, mask = array_engine._CODE_BITS, array_engine._CODE_MASK
        for key, packed in pair_dict.items():
            outcome = evaluate_pair(protocol, codec, key >> bits, key & mask)
            assert packed & mask == outcome.next_initiator
            assert (packed >> bits) & mask == outcome.next_responder
            assert bool(packed & array_engine._CHANGED_BIT) == outcome.changed

    def test_epidemic_infection_is_tabulated(self):
        protocol = OneWayEpidemicProtocol(4)
        codec = StateCodec()
        informed = codec.encode(EpidemicState(informed=True, active=True))
        uninformed = codec.encode(EpidemicState(informed=False, active=True))
        infection = evaluate_pair(protocol, codec, informed, uninformed)
        assert infection.changed
        assert infection.next_responder == informed
        assert not evaluate_pair(protocol, codec, uninformed, informed).changed

    def test_randomness_consumption_is_detected(self):
        protocol = GSLeaderElectionProtocol(8)
        codec = StateCodec()
        start = codec.encode(protocol.initial_configuration().states[0])
        with pytest.raises(RandomnessConsumed):
            evaluate_pair(protocol, codec, start, start)

    def test_raising_rng_raises_on_any_use(self):
        with pytest.raises(RandomnessConsumed):
            RAISING_RNG.integers(0, 2)
        with pytest.raises(RandomnessConsumed):
            RAISING_RNG.random()


class TestEvaluatePair:
    def test_stable_ranking_pair_outcomes_are_deterministic(self):
        protocol = StableRanking(16)
        codec = StateCodec()
        initial = codec.encode(protocol.initial_state())
        first = evaluate_pair(protocol, codec, initial, initial)
        second = evaluate_pair(protocol, codec, initial, initial)
        assert first == second

    def test_rank_assignment_is_recorded(self):
        protocol = StableRanking(8)
        codec = StateCodec()
        # An unaware leader with rank 1 meeting a phase-1 agent with coin 1
        # (coin-gated rules run) assigns the next rank of phase 1.
        leader = codec.encode(AgentState(rank=1))
        phase_agent = codec.encode(
            AgentState(phase=1, coin=1, alive_count=protocol.alive_reset)
        )
        outcome = evaluate_pair(protocol, codec, leader, phase_agent)
        assert outcome.rank_assigned == protocol.schedule.f(2) + 1
        assert outcome.changed


class TestFieldColumns:
    """Struct-of-arrays projection (the SoA kernels' substrate)."""

    def test_projects_fields_with_undefined_sentinel(self):
        codec = StateCodec()
        a = codec.encode(AgentState(rank=4))
        b = codec.encode(AgentState(phase=2, coin=1, alive_count=0))
        columns = codec.field_columns(("rank", "phase", "coin", "alive_count"))
        assert columns["rank"].tolist() == [4, -1]
        assert columns["phase"].tolist() == [-1, 2]
        assert columns["coin"].tolist() == [-1, 1]
        assert columns["alive_count"].tolist() == [-1, 0]
        assert columns["rank"].dtype == np.int64
        assert a == 0 and b == 1

    def test_start_offset_projects_only_new_codes(self):
        codec = StateCodec()
        codec.encode(AgentState(rank=1))
        codec.encode(AgentState(rank=2))
        columns = codec.field_columns(("rank",), start=1)
        assert columns["rank"].tolist() == [2]

    def test_booleans_project_to_integers(self):
        codec = StateCodec()
        codec.encode(EpidemicState(informed=True, active=False))
        columns = codec.field_columns(("informed", "active"))
        assert columns["informed"].tolist() == [1]
        assert columns["active"].tolist() == [0]

    def test_missing_field_raises(self):
        codec = StateCodec()
        codec.encode(AgentState())
        with pytest.raises(CodecError):
            codec.field_columns(("no_such_field",))


class TestVariantCode:
    def test_variant_interns_and_round_trips(self):
        codec = StateCodec()
        base = codec.encode(AgentState(phase=3, coin=0, alive_count=9))
        variant = codec.variant_code(base, coin=1, alive_count=2)
        state = codec.materialize(variant)
        assert (state.phase, state.coin, state.alive_count) == (3, 1, 2)
        # identical updates return the interned code, and the base state
        # is untouched
        assert codec.variant_code(base, coin=1, alive_count=2) == variant
        assert codec.materialize(base).coin == 0

    def test_variant_with_none_clears_a_field(self):
        codec = StateCodec()
        base = codec.encode(AgentState(phase=3, coin=0, alive_count=9))
        cleared = codec.variant_code(
            base, phase=None, coin=None, alive_count=None, rank=7
        )
        state = codec.materialize(cleared)
        assert state.rank == 7
        assert state.phase is None and state.coin is None
        assert state.alive_count is None

    def test_variant_of_unchanged_fields_is_identity(self):
        codec = StateCodec()
        base = codec.encode(AgentState(rank=5))
        assert codec.variant_code(base, rank=5) == base
