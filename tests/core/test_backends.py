"""Tests for the engine-backend registry and capability negotiation."""

import pytest

from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.baselines.cai_ranking import CaiRanking
from repro.baselines.token_counter_ranking import TokenCounterRanking
from repro.core import backends
from repro.core.array_engine import ArraySimulator, make_simulator
from repro.core.errors import ExperimentError
from repro.core.simulation import Simulator
from repro.protocols.ranking.space_efficient import SpaceEfficientRanking
from repro.protocols.ranking.stable_ranking import StableRanking


class TestRegistry:
    def test_builtin_backends_are_registered(self):
        assert backends.backend_names() == (
            "reference", "array", "aggregate", "group",
        )
        assert backends.engine_choices() == (
            "reference", "array", "aggregate", "group", "auto",
        )

    def test_get_backend(self):
        assert backends.get_backend("array").name == "array"
        with pytest.raises(ExperimentError, match="unknown engine"):
            backends.get_backend("warp")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError, match="already registered"):
            backends.register_backend(backends.ReferenceBackend())

    def test_kinds(self):
        assert backends.get_backend("reference").kind == "agent"
        assert backends.get_backend("array").kind == "agent"
        assert backends.get_backend("aggregate").kind == "aggregate"
        assert backends.get_backend("group").kind == "count"


class TestCapabilities:
    def test_reference_supports_everything(self):
        capability = backends.get_backend("reference").capabilities(
            TokenCounterRanking(8), "fresh", 8, series=True
        )
        assert capability.supported
        assert capability.exactness == "trajectory"
        assert capability.throughput_hint == 1.0

    def test_array_negotiates_rng_declaration(self):
        array = backends.get_backend("array")
        tabulated = array.capabilities(StableRanking(8), "fresh", 8)
        fallback = array.capabilities(TokenCounterRanking(8), "fresh", 8)
        assert tabulated.supported and fallback.supported
        assert tabulated.throughput_hint > 1.0
        assert fallback.throughput_hint < 1.0
        assert "object fallback" in fallback.reason

    def test_aggregate_constraints_live_in_its_capabilities(self):
        aggregate = backends.get_backend("aggregate")
        ok = aggregate.capabilities(SpaceEfficientRanking(8), "figure3", 8)
        assert ok.supported and ok.exactness == "distribution"
        wrong_protocol = aggregate.capabilities(StableRanking(8), "figure3", 8)
        assert not wrong_protocol.supported
        assert "space-efficient-ranking" in wrong_protocol.reason
        wrong_workload = aggregate.capabilities(
            SpaceEfficientRanking(8), "fresh", 8
        )
        assert not wrong_workload.supported
        with_series = aggregate.capabilities(
            SpaceEfficientRanking(8), "figure3", 8, series=True
        )
        assert not with_series.supported

    def test_group_negotiates_from_declarations(self):
        from repro.protocols.primitives.one_way_epidemic import (
            OneWayEpidemicProtocol,
        )

        group = backends.get_backend("group")
        # Deterministic protocol with a count goal: supported everywhere,
        # but the hint only beats the agent engines for a compact declared
        # state space at large n.
        small = group.capabilities(OneWayEpidemicProtocol(8), "fresh", 8)
        assert small.supported and small.exactness == "distribution"
        assert small.throughput_hint < 1.0
        large = group.capabilities(
            OneWayEpidemicProtocol(10**6), "fresh", 10**6
        )
        assert large.throughput_hint > backends.ArrayBackend.HINT_TABULATED
        # Undeclared or rng-consuming transitions cannot be lumped exactly.
        rng_consuming = group.capabilities(
            TokenCounterRanking(8), "fresh", 8
        )
        assert not rng_consuming.supported
        assert "consumes_randomness" in rng_consuming.reason
        # Series and mid-run events are agent-level features.
        with_series = group.capabilities(
            OneWayEpidemicProtocol(8), "fresh", 8, series=True
        )
        assert not with_series.supported
        with_events = group.capabilities(
            OneWayEpidemicProtocol(8), "fresh", 8, events=True
        )
        assert not with_events.supported


class TestResolution:
    def test_auto_picks_array_for_tabulable_protocols(self):
        for protocol in (StableRanking(8), BurmanStyleRanking(8), CaiRanking(8)):
            backend, capability = backends.resolve_backend(
                protocol, "fresh", 8, engine="auto"
            )
            assert backend.name == "array", protocol.name
            assert capability.exactness == "trajectory"

    def test_auto_avoids_array_beyond_rank_capacity(self):
        # At n >= 2^17 the array engine's packed tables cannot hold the
        # ranks and it falls back to the object path, so the capability
        # hint must drop below the reference and auto must not pick it.
        n = 1 << 17
        capability = backends.get_backend("array").capabilities(
            StableRanking(n), "fresh", n
        )
        assert capability.supported
        assert capability.throughput_hint < 1.0
        assert "object fallback" in capability.reason
        backend, _ = backends.resolve_backend(
            StableRanking(n), "fresh", n, engine="auto", kinds=("agent",)
        )
        assert backend.name == "reference"

    def test_auto_prefers_reference_for_rng_consuming_protocols(self):
        backend, _ = backends.resolve_backend(
            TokenCounterRanking(8), "fresh", 8, engine="auto"
        )
        assert backend.name == "reference"

    def test_auto_picks_aggregate_for_figure3_cells(self):
        backend, _ = backends.resolve_backend(
            SpaceEfficientRanking(8), "figure3", 8, engine="auto"
        )
        assert backend.name == "aggregate"
        # ...but not when the cell needs metric series.
        backend, _ = backends.resolve_backend(
            SpaceEfficientRanking(8), "figure3", 8, engine="auto", series=True
        )
        assert backend.name != "aggregate"

    def test_explicit_engine_raises_with_backend_reason(self):
        with pytest.raises(ExperimentError, match="space-efficient-ranking"):
            backends.resolve_backend(
                StableRanking(8), "figure3", 8, engine="aggregate"
            )

    def test_kind_restriction(self):
        backend, _ = backends.resolve_backend(
            SpaceEfficientRanking(8), "figure3", 8, engine="auto",
            kinds=("agent",),
        )
        assert backend.kind == "agent"
        with pytest.raises(ExperimentError):
            backends.resolve_backend(
                StableRanking(8), "fresh", 8, engine="aggregate",
                kinds=("agent",),
            )

    def test_auto_routes_large_compact_cells_to_group(self):
        from repro.protocols.primitives.one_way_epidemic import (
            OneWayEpidemicProtocol,
        )

        backend, capability = backends.resolve_backend(
            OneWayEpidemicProtocol(10**6), "fresh", 10**6, engine="auto"
        )
        assert backend.name == "group"
        assert capability.exactness == "distribution"
        # At small n the agent engines keep the cell.
        backend, _ = backends.resolve_backend(
            OneWayEpidemicProtocol(64), "fresh", 64, engine="auto"
        )
        assert backend.name != "group"

    def test_exactness_pin_filters_auto_and_rejects_mismatches(self):
        from repro.protocols.primitives.one_way_epidemic import (
            OneWayEpidemicProtocol,
        )

        # The pin routes a small cell to the group engine even though the
        # array engine holds the higher hint.
        backend, capability = backends.resolve_backend(
            OneWayEpidemicProtocol(64), "fresh", 64, engine="auto",
            exactness="distribution",
        )
        assert backend.name == "group"
        assert capability.exactness == "distribution"
        # A concrete engine of the wrong class is rejected outright.
        with pytest.raises(ExperimentError, match="exactness"):
            backends.resolve_backend(
                OneWayEpidemicProtocol(64), "fresh", 64,
                engine="reference", exactness="distribution",
            )
        # A pin no backend can satisfy fails with the requirement named.
        with pytest.raises(ExperimentError, match="distribution"):
            backends.resolve_backend(
                TokenCounterRanking(8), "fresh", 8, engine="auto",
                exactness="distribution",
            )

    def test_capability_matrix_covers_all_backends(self):
        matrix = backends.capability_matrix(StableRanking(8), "fresh", 8)
        assert set(matrix) == {"reference", "array", "aggregate", "group"}
        assert matrix["array"].supported
        assert not matrix["aggregate"].supported
        assert matrix["group"].supported


class TestMakeSimulatorAuto:
    def test_auto_builds_the_resolved_engine(self):
        assert isinstance(
            make_simulator(StableRanking(8), engine="auto"), ArraySimulator
        )
        assert isinstance(
            make_simulator(TokenCounterRanking(8), engine="auto"), Simulator
        )


REMOVED_ENGINES = ("array-batched", "array-jit")


class TestRemovedEngines:
    """The lockstep replica engine and the numba tier are gone: their
    names are unknown wherever an engine string is accepted, and the
    surviving ``array`` backend serves every cell they used to take."""

    @pytest.mark.parametrize("name", REMOVED_ENGINES)
    def test_get_backend_rejects_the_name(self, name):
        with pytest.raises(ExperimentError, match="unknown engine"):
            backends.get_backend(name)

    @pytest.mark.parametrize("name", REMOVED_ENGINES)
    def test_explicit_resolution_rejects_the_name(self, name):
        with pytest.raises(ExperimentError, match="unknown engine"):
            backends.resolve_backend(StableRanking(8), "fresh", 8, engine=name)

    @pytest.mark.parametrize("name", REMOVED_ENGINES)
    def test_make_simulator_rejects_the_name(self, name):
        with pytest.raises(ValueError, match="unknown engine"):
            make_simulator(StableRanking(8), engine=name)

    def test_array_create_builds_the_serial_engine(self):
        simulator = backends.get_backend("array").create(
            StableRanking(8), random_state=0
        )
        assert isinstance(simulator, ArraySimulator)

    def test_array_serves_event_and_series_cells(self):
        capability = backends.get_backend("array").capabilities(
            StableRanking(8), "fresh", 8, series=True, events=True
        )
        assert capability.supported
        assert capability.exactness == "trajectory"
        assert capability.throughput_hint == backends.ArrayBackend.HINT_TABULATED
        backend, _ = backends.resolve_backend(
            StableRanking(8), "fresh", 8, engine="auto", events=True
        )
        assert backend.name == "array"

    def test_declared_rng_and_rank_capacity_take_the_object_fallback(self):
        from repro.core.array_engine import _MAX_RANK

        array = backends.get_backend("array")
        declared = array.capabilities(TokenCounterRanking(8), "fresh", 8)
        huge = array.capabilities(StableRanking(8), "fresh", _MAX_RANK)
        below = array.capabilities(StableRanking(8), "fresh", _MAX_RANK - 1)
        for capability in (declared, huge):
            assert capability.supported
            assert capability.exactness == "trajectory"
            assert (
                capability.throughput_hint
                == backends.ArrayBackend.HINT_OBJECT_FALLBACK
            )
        assert "consumes randomness" in declared.reason
        assert "rank capacity" in huge.reason
        assert below.throughput_hint == backends.ArrayBackend.HINT_TABULATED
