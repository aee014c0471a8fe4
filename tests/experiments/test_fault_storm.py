"""Tests for the scenario-bearing spec surface and the fault_storm preset."""

import json

import pytest

from repro.core import backends
from repro.core.errors import ExperimentError
from repro.experiments.cli import main
from repro.experiments.fault_storm import (
    FaultStormResult,
    fault_storm_result_from_rows,
    fault_storm_specs,
    format_fault_storm,
)
from repro.experiments.study import ExperimentSpec, ResultSet, Study
from repro.protocols.ranking.space_efficient import SpaceEfficientRanking


class TestSpecScenarioSurface:
    def test_workload_only_spec_payload_has_no_scenario_keys(self):
        spec = ExperimentSpec(variant="legacy", workload="figure2")
        payload = spec.as_dict()
        assert "scenario" not in payload
        assert "scenario_params" not in payload

    def test_static_scenario_normalizes_to_workload_alias(self):
        # Same identity → same store directory, same cell trajectories:
        # the two spellings are one spec.
        via_workload = ExperimentSpec(variant="x", workload="figure2")
        via_scenario = ExperimentSpec(variant="x", scenario="figure2")
        assert via_scenario.scenario is None
        assert via_scenario.workload == "figure2"
        assert via_scenario.identity_seed() == via_workload.identity_seed()
        assert via_scenario.as_dict() == via_workload.as_dict()

    def test_static_scenario_rejects_scenario_params(self):
        with pytest.raises(ExperimentError, match="no schedule|no scenario"):
            ExperimentSpec(
                variant="x", scenario="figure2", scenario_params={"events": 3}
            )

    def test_event_scenario_round_trips_and_rekeys_identity(self):
        spec = ExperimentSpec(
            variant="storm",
            scenario="fault_storm",
            scenario_params={"fault": "crash_reset", "events": 2,
                             "period_factor": 1.0},
        )
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert rebuilt == spec
        plain = ExperimentSpec(variant="storm")
        assert spec.identity_seed() != plain.identity_seed()
        assert spec.build_schedule(8) != ()
        assert spec.has_events(8)
        assert not plain.has_events(8)

    def test_event_scenario_adopts_and_composes_initial_condition(self):
        default = ExperimentSpec(variant="a", scenario="fault_storm")
        assert default.workload == "fresh"
        composed = ExperimentSpec(
            variant="b", scenario="fault_storm", workload="figure2",
            protocol="stable-ranking-figure2",
        )
        assert composed.workload == "figure2"
        assert composed.scenario == "fault_storm"

    def test_event_scenario_excludes_milestones(self):
        with pytest.raises(ExperimentError, match="milestone"):
            ExperimentSpec(
                variant="x", scenario="fault_storm",
                milestone_fractions=(0.5,),
            )

    def test_unknown_scenario_and_bad_params_fail_at_spec_time(self):
        with pytest.raises(ExperimentError, match="unknown scenario"):
            ExperimentSpec(variant="x", scenario="meteor_storm")
        with pytest.raises(ExperimentError, match="unknown event kind"):
            ExperimentSpec(
                variant="x", scenario="fault_storm",
                scenario_params={"fault": "meteor_strike"},
            )
        # A typo'd applier kwarg or an out-of-range value must fail at
        # spec time, not mid-run inside a worker process.
        with pytest.raises(ExperimentError, match="does not accept"):
            ExperimentSpec(
                variant="x", scenario="fault_storm",
                scenario_params={"fault": "crash_reset", "cout": 2},
            )
        with pytest.raises(ExperimentError, match="fraction"):
            ExperimentSpec(
                variant="x", scenario="fault_storm",
                scenario_params={"fault": "scramble", "fraction": 1.5},
            )
        with pytest.raises(ExperimentError, match="count"):
            ExperimentSpec(
                variant="x", scenario="fault_storm",
                scenario_params={"fault": "crash_reset", "count": 0},
            )
        with pytest.raises(ExperimentError, match="fraction"):
            ExperimentSpec(
                variant="x", scenario="churn",
                scenario_params={"fraction": 1.5},
            )

    def test_incompatible_event_protocol_pair_raises_cleanly(self):
        # Ranking-family events write AgentState values; on a baseline
        # protocol with its own state class they must raise a clear
        # ExperimentError, not corrupt the population.
        from repro.experiments.study import Study
        from repro.experiments.fault_storm import fault_storm_specs

        specs = fault_storm_specs(
            n_values=(8,), repetitions=1, faults=("scramble",),
            events=1, period_factor=1.0, max_interactions_factor=10.0,
        )
        spec = ExperimentSpec.from_dict(
            {**specs[0].as_dict(), "protocol": "cai-ranking"}
        )
        with pytest.raises(ExperimentError, match="scramble"):
            Study(spec, name="bad").run()

    def test_duplicate_rank_workload_revision_rekeys_identity(self):
        # The v1.3 donor-selection fix changed the builder's rng draws,
        # so its cells must not share a store with pre-fix rows.
        fixed = ExperimentSpec(variant="x", workload="duplicate_rank")
        assert fixed.identity_dict()["workload_revision"] == 2
        assert "workload_revision" not in ExperimentSpec(
            variant="x"
        ).identity_dict()


class TestEventCapabilityNegotiation:
    def test_agent_backends_support_events(self):
        from repro.protocols.ranking.stable_ranking import StableRanking

        for name in ("reference", "array"):
            capability = backends.get_backend(name).capabilities(
                StableRanking(8), "fresh", 8, events=True
            )
            assert capability.supported

    def test_aggregate_backend_rejects_events(self):
        capability = backends.get_backend("aggregate").capabilities(
            SpaceEfficientRanking(8), "figure3", 8, events=True
        )
        assert not capability.supported
        assert "mid-run events" in capability.reason
        with pytest.raises(ExperimentError, match="group counts"):
            backends.resolve_backend(
                SpaceEfficientRanking(8), "figure3", 8,
                engine="aggregate", events=True,
            )

    def test_auto_routes_event_cells_off_the_aggregate_engine(self):
        # The figure3 cell normally negotiates aggregate; with events it
        # must fall back to an agent-level backend.
        backend, _ = backends.resolve_backend(
            SpaceEfficientRanking(8), "figure3", 8, engine="auto",
            events=True,
        )
        assert backend.kind == "agent"

    def test_spec_resolution_respects_events(self):
        spec = ExperimentSpec(
            variant="storm",
            protocol="space-efficient-ranking",
            scenario="fault_storm",
            workload="figure3",
            scenario_params={"fault": "crash_reset", "events": 1,
                             "period_factor": 1.0},
        )
        assert spec.resolve_backend(8) != "aggregate"


class TestFaultStormPreset:
    def test_specs_shape(self):
        specs = fault_storm_specs(
            n_values=(8,), repetitions=2, events=2, period_factor=3.0
        )
        assert [spec.variant for spec in specs] == [
            "storm_duplicate_rank", "storm_crash_reset", "storm_scramble",
        ]
        assert all(spec.scenario == "fault_storm" for spec in specs)
        # Budget default leaves room for the final recovery.
        assert all(
            spec.max_interactions_factor == pytest.approx(3.0 * 4)
            for spec in specs
        )

    def test_static_scenario_rejected(self):
        with pytest.raises(ExperimentError, match="fires no events"):
            fault_storm_specs(scenario="figure2")

    def test_churn_scenario_yields_one_variant(self):
        specs = fault_storm_specs(
            n_values=(8,), scenario="churn", events=2, period_factor=2.0
        )
        assert [spec.variant for spec in specs] == ["churn"]

    def test_end_to_end_rows_carry_event_accounting(self):
        specs = fault_storm_specs(
            n_values=(8,), repetitions=1, faults=("crash_reset",),
            events=2, period_factor=20.0, max_interactions_factor=200.0,
        )
        result = Study(specs, name="fault_storm").run()
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.engine == "array"  # auto resolves the tabulated path
        assert row.extras["events_fired"] == 2.0
        assert 0.0 <= row.extras["events_recovered"] <= 2.0
        legacy = fault_storm_result_from_rows(result)
        table = format_fault_storm(legacy)
        assert "Fault-storm recovery" in table
        assert "storm_crash_reset" in table

    def test_result_from_rows_handles_empty_sets(self):
        empty = fault_storm_result_from_rows(ResultSet([], [], "storm"))
        assert empty.rows() == []
        specs = fault_storm_specs(n_values=(8,), repetitions=1)
        hollow = fault_storm_result_from_rows(ResultSet([], specs, "storm"))
        for row in hollow.rows():
            assert row["runs"] == 0
            assert row["recovered_fraction"] == 0.0
        assert "Fault-storm" in format_fault_storm(hollow)

    def test_empty_result_dataclass_renders(self):
        assert FaultStormResult(n_values=(), repetitions=0).rows() == []


class TestFaultStormCli:
    def test_run_fault_storm_smoke(self, tmp_path, capsys):
        code = main([
            "run", "fault_storm", "--n", "8", "--seeds", "1",
            "--faults", "crash_reset", "--events", "1",
            "--period-factor", "20", "--max-factor", "120",
            "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fault-storm recovery" in out
        store_dir = next(tmp_path.iterdir())
        rows = [
            json.loads(line)
            for line in (store_dir / "rows.jsonl").read_text().splitlines()
        ]
        assert len(rows) == 1
        assert rows[0]["extras"]["events_fired"] == 1.0

    def test_run_fault_storm_churn_scenario(self, tmp_path, capsys):
        code = main([
            "run", "fault_storm", "--scenario", "churn", "--n", "8",
            "--seeds", "1", "--events", "1", "--period-factor", "10",
            "--max-factor", "60", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0
        assert "'churn' scenario" in capsys.readouterr().out

    def test_list_includes_fault_storm(self, capsys):
        assert main(["list"]) == 0
        assert "fault_storm" in capsys.readouterr().out

    def test_list_scenarios_matrix(self, capsys):
        assert main(["list", "--scenarios"]) == 0
        out = capsys.readouterr().out
        assert "scenarios (initial condition + event schedule)" in out
        assert "static (no events)" in out
        assert "fault_storm" in out
        assert "workload=fresh" in out
