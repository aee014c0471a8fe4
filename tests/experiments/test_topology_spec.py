"""The topology axis through the study layer: spec normalization and
identity back-compat, capability-driven backend routing, row recording,
and the ``topology_sweep`` preset.
"""

import pytest

from repro.core.backends import resolve_backend
from repro.core.errors import ExperimentError
from repro.experiments.study import ExperimentSpec, RunRow, Study
from repro.experiments.topology_sweep import (
    format_topology_sweep,
    topology_sweep_result_from_rows,
    topology_sweep_specs,
)
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol


def _spec(**kwargs):
    base = dict(
        variant="t",
        protocol="one-way-epidemic",
        n_values=(16,),
        seeds=2,
        max_interactions_factor=50.0,
    )
    base.update(kwargs)
    return ExperimentSpec(**base)


class TestSpecNormalization:
    def test_unset_topology_keeps_legacy_identity(self):
        # A spec with no topology must hash and serialize exactly as
        # before the axis existed: the keys are simply absent.
        payload = _spec().as_dict()
        assert "topology" not in payload
        assert "topology_params" not in payload

    def test_explicit_complete_normalizes_to_unset(self):
        assert _spec(topology="complete").topology is None
        assert _spec(topology="complete").as_dict() == _spec().as_dict()

    def test_restricted_topology_is_part_of_the_identity(self):
        ring = _spec(topology="ring")
        assert ring.as_dict()["topology"] == "ring"
        assert ring.as_dict() != _spec().as_dict()
        assert (
            _spec(topology="power_law", topology_params={"m": 3}).as_dict()
            != _spec(topology="power_law").as_dict()
        )

    def test_round_trip_through_dict(self):
        spec = _spec(topology="grid2d", topology_params={"rows": 4})
        clone = ExperimentSpec.from_dict(spec.as_dict())
        assert clone.topology == "grid2d"
        assert dict(clone.topology_params) == {"rows": 4}
        assert clone.as_dict() == spec.as_dict()

    def test_params_without_topology_rejected(self):
        with pytest.raises(ExperimentError):
            _spec(topology_params={"rows": 4})

    def test_complete_with_params_rejected(self):
        with pytest.raises(ExperimentError):
            _spec(topology="complete", topology_params={"rows": 4})

    def test_unknown_topology_rejected(self):
        with pytest.raises(ExperimentError, match="unknown topology"):
            _spec(topology="moebius")

    def test_invalid_params_rejected_at_spec_time(self):
        # Validation happens per n at construction, not at run time.
        with pytest.raises(ExperimentError):
            _spec(topology="grid2d", topology_params={"rows": 3})  # 3 ∤ 16

    def test_build_topology_per_cell(self):
        spec = _spec(topology="ring")
        assert spec.build_topology(16).family == "ring"
        assert _spec().build_topology(16) is None


class TestBackendRouting:
    def test_distribution_backends_decline_restricted_cells(self):
        protocol = OneWayEpidemicProtocol(16)
        for engine in ("aggregate", "group"):
            from repro.core.backends import get_backend

            capability = get_backend(engine).capabilities(
                protocol, "fresh", 16, topology="ring"
            )
            assert not capability.supported
            assert "'ring'" in capability.reason

    def test_auto_never_routes_restricted_cells_to_population_level(self):
        # The epidemic is exactly the protocol "auto" loves to hand to
        # the count engines — a restricted topology must forbid that,
        # at every n including the group engine's preferred huge sizes.
        for n in (16, 65536):
            protocol = OneWayEpidemicProtocol(n)
            backend, capability = resolve_backend(
                protocol, "fresh", n, topology="ring"
            )
            assert backend.kind == "agent"
            assert backend.name not in ("aggregate", "group")
            assert capability.supported

    def test_explicit_population_engine_with_topology_rejected(self):
        for engine in ("aggregate", "group"):
            with pytest.raises(ExperimentError):
                _spec(engine=engine, topology="ring")

    def test_spec_resolves_restricted_cells_to_agent_backends(self):
        spec = _spec(engine="auto", topology="ring")
        assert spec.resolve_backend(16) not in ("aggregate", "group")


class TestRowRecording:
    def test_rows_record_the_topology(self):
        result = Study([_spec(topology="ring")], name="t", store=None).run()
        assert all(row.topology == "ring" for row in result.rows)
        assert all(
            row.engine not in ("aggregate", "group") for row in result.rows
        )

    def test_unrestricted_rows_record_complete(self):
        result = Study([_spec()], name="t", store=None).run()
        assert all(row.topology == "complete" for row in result.rows)

    def test_legacy_row_payloads_load_as_complete(self):
        row = Study([_spec()], name="t", store=None).run().rows[0]
        payload = row.as_dict()
        payload.pop("topology", None)
        assert RunRow.from_dict(payload).topology == "complete"

    def test_flat_dict_exposes_topology(self):
        row = Study([_spec(topology="ring")], name="t", store=None).run().rows[0]
        assert row.flat_dict()["topology"] == "ring"


class TestTopologySweepPreset:
    def test_specs_lead_with_the_complete_baseline(self):
        specs = topology_sweep_specs(
            topologies=("ring",), n_values=(16,), repetitions=2
        )
        assert [spec.variant for spec in specs] == ["complete", "ring"]
        assert specs[0].topology is None
        assert specs[1].topology == "ring"
        assert all(spec.protocol == "one-way-epidemic" for spec in specs)

    def test_duplicate_and_unknown_topologies(self):
        specs = topology_sweep_specs(
            topologies=("ring", "ring", "complete"), n_values=(16,)
        )
        assert [spec.variant for spec in specs] == ["complete", "ring"]
        with pytest.raises(ExperimentError, match="unknown topology"):
            topology_sweep_specs(topologies=("torus",))
        with pytest.raises(ExperimentError):
            topology_sweep_specs(topologies=())

    def test_sweep_result_and_render_with_theory_overlay(self):
        specs = topology_sweep_specs(
            topologies=("ring",), n_values=(16,), repetitions=3
        )
        sweep = topology_sweep_result_from_rows(
            Study(specs, name="sweep", store=None).run()
        )
        # The ring epidemic is Θ(n²); the complete baseline Θ(n log n).
        assert sweep.mean("ring", 16) > sweep.mean("complete", 16)
        rows = {(row["topology"], row["n"]): row for row in sweep.rows()}
        assert rows[("ring", 16)]["expected"] == 16.0 * 15.0
        assert rows[("ring", 16)]["vs_complete"] > 1.0
        text = format_topology_sweep(sweep)
        assert "Herman ring band" in text
        assert "4n²/27" in text
        assert "vs_complete" in text
