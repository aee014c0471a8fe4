"""Tests for the declarative study API (spec, store, parallel execution).

The load-bearing properties: specs are plain validated data with a stable
identity; a study's cells are deterministic in their coordinates (so
parallel execution is bit-identical to serial and a store can be resumed);
and the unified row schema round-trips through JSON and CSV.
"""

import json

import numpy as np
import pytest

from repro.core.errors import ExperimentError
from repro.experiments.figure3 import figure3_specs
from repro.experiments.store import ResultStore
from repro.experiments.study import (
    ExperimentSpec,
    ResultSet,
    RunRow,
    Study,
    execute_cell,
)
import repro.experiments.study as study_module
from repro.protocols.ranking.aggregate_space_efficient import (
    AggregateSpaceEfficientRanking,
)


def small_spec(**overrides):
    defaults = dict(
        variant="stable-ranking",
        protocol="stable-ranking",
        n_values=(8,),
        seeds=2,
        max_interactions_factor=2000.0,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ExperimentError):
            small_spec(engine="magic")
        with pytest.raises(ExperimentError):
            small_spec(protocol="unknown-protocol")
        with pytest.raises(ExperimentError):
            small_spec(workload="unknown-workload")
        with pytest.raises(ExperimentError):
            small_spec(seeds=0)
        with pytest.raises(ExperimentError):
            small_spec(n_values=())
        with pytest.raises(ExperimentError):
            small_spec(extractors=("nope",))
        # Engine constraints come from the backends' capability probes:
        # aggregate is tied to the space-efficient protocol + figure3 start
        # and records no series.
        with pytest.raises(ExperimentError):
            small_spec(engine="aggregate")
        with pytest.raises(ExperimentError):
            small_spec(
                protocol="space-efficient-ranking", engine="aggregate",
                workload="fresh",
            )
        with pytest.raises(ExperimentError):
            ExperimentSpec(
                variant="agg",
                protocol="space-efficient-ranking",
                engine="aggregate",
                workload="figure3",
                n_values=(8,),
                samples=10,
            )

    def test_dict_round_trip(self):
        spec = small_spec(milestone_fractions=(0.75, 0.5), extractors=("ranked_agents",))
        rebuilt = ExperimentSpec.from_dict(spec.as_dict())
        assert rebuilt == spec
        assert rebuilt.milestone_fractions == (0.5, 0.75)  # normalized order

    def test_identity_excludes_matrix_extent(self):
        # Extending seeds or n_values must not re-key the study store.
        a = small_spec(n_values=(8,), seeds=2)
        b = small_spec(n_values=(8, 16), seeds=50)
        assert a.identity_seed() == b.identity_seed()
        assert Study([a]).content_hash() == Study([b]).content_hash()
        # ...but anything trajectory-relevant must.
        c = small_spec(random_state=1)
        assert a.identity_seed() != c.identity_seed()

    def test_cells_are_deterministic_across_calls(self):
        spec = small_spec(seeds=1)
        first = execute_cell(spec.as_dict(), 8, 0)
        second = execute_cell(spec.as_dict(), 8, 0)
        assert first == second
        other_seed = execute_cell(spec.as_dict(), 8, 1)
        assert other_seed["interactions"] != first["interactions"] or (
            other_seed != first
        )


class TestStudyExecution:
    def test_run_matrix_and_rows(self):
        spec = small_spec(n_values=(8, 16), seeds=2)
        result = Study(spec, name="matrix").run()
        assert len(result.rows) == 4
        assert [(r.n, r.seed_index) for r in result.rows] == [
            (8, 0), (8, 1), (16, 0), (16, 1),
        ]
        assert all(r.converged for r in result.rows)
        assert all(r.study == "matrix" for r in result.rows)
        assert result.convergence_rate() == 1.0

    def test_parallel_matches_serial_bit_for_bit(self):
        spec = small_spec(n_values=(8, 16), seeds=2)
        serial = Study(spec, name="par").run()
        parallel = Study(spec, name="par", jobs=2).run()
        assert [r.as_dict() for r in parallel.rows] == [
            r.as_dict() for r in serial.rows
        ]

    def test_duplicate_variants_rejected(self):
        with pytest.raises(ExperimentError):
            Study([small_spec(), small_spec()])

    def test_summary_and_filter(self):
        spec = small_spec(n_values=(8, 16), seeds=3)
        result = Study(spec, name="sum").run()
        summaries = result.summary(lambda row: row.normalized_interactions)
        assert set(summaries) == {("stable-ranking", 8), ("stable-ranking", 16)}
        assert summaries[("stable-ranking", 8)].count == 3
        assert len(result.filter(n=16)) == 3


class TestSingleCellUnits:
    """Every work unit is one cell, whatever the seed count: ``--jobs``
    fans many-seed groups out, and a resumed store re-runs exactly the
    missing cells."""

    def test_removed_batched_engine_is_an_unknown_engine(self):
        with pytest.raises(ExperimentError, match="unknown engine"):
            small_spec(engine="array-batched")

    def test_removed_jit_engine_is_an_unknown_engine(self):
        with pytest.raises(ExperimentError, match="unknown engine"):
            small_spec(engine="array-jit")

    @pytest.mark.parametrize("seeds", [1, 2, 4, 32])
    def test_plan_units_emits_one_cell_per_seed(self, seeds):
        spec = small_spec(n_values=(8, 16), seeds=seeds)
        units = study_module.plan_units([spec], ())
        assert {unit[0] for unit in units} == {"cell"}
        assert [(unit[2], unit[3]) for unit in units] == [
            (n, seed) for n in (8, 16) for seed in range(seeds)
        ]
        # Known cells drop out one by one, never as a group.
        rest = study_module.plan_units([spec], [("stable-ranking", 8, 0)])
        assert len(rest) == len(units) - 1

    def test_many_seed_auto_rows_record_array(self):
        result = Study(small_spec(n_values=(8,), seeds=5), name="auto").run()
        assert [row.engine for row in result.rows] == ["array"] * 5

    def test_many_seed_parallel_matches_serial_jobs1(self):
        spec = small_spec(n_values=(8, 16), seeds=5)
        serial = Study(spec, name="many-par").run()
        parallel = Study(spec, name="many-par", jobs=2).run()
        assert all(row.engine == "array" for row in serial.rows)
        assert [r.as_dict() for r in parallel.rows] == [
            r.as_dict() for r in serial.rows
        ]

    def test_legacy_batch_rows_match_per_seed_cells(self):
        # A ("batch", ...) unit persisted by an earlier release runs each
        # seed as its own cell: same rows, same order as the seed list.
        spec = small_spec(n_values=(8,), seeds=5)
        payload = spec.as_dict()
        seeds = (4, 0, 2)
        batch = study_module.execute_batch(payload, 8, seeds)
        assert batch == [execute_cell(payload, 8, seed) for seed in seeds]
        assert [row["seed_index"] for row in batch] == list(seeds)
        assert {row["engine"] for row in batch} == {"array"}

    def test_execute_unit_dispatches_both_unit_kinds(self):
        from repro.experiments.parallel import execute_unit, unit_cell_keys

        payload = small_spec(n_values=(8,), seeds=3).as_dict()
        legacy = ("batch", payload, 8, (0, 2))
        cells = [("cell", payload, 8, 0), ("cell", payload, 8, 2)]
        assert execute_unit(legacy) == [
            row for unit in cells for row in execute_unit(unit)
        ]
        assert unit_cell_keys(legacy) == [
            key for unit in cells for key in unit_cell_keys(unit)
        ]

    def test_resume_recomputes_only_missing_cells(self, tmp_path, monkeypatch):
        spec = small_spec(n_values=(8,), seeds=8)
        study = Study(spec, name="midmatrix", store=tmp_path)
        first = study.run()

        # Drop a mid-matrix subset of seeds from the store, as if those
        # cells had never been appended before an interruption.
        dropped = {2, 3, 5, 6}
        rows_path = study.store.rows_path
        kept = [
            line
            for line in rows_path.read_text().splitlines()
            if json.loads(line)["seed_index"] not in dropped
        ]
        rows_path.write_text("\n".join(kept) + "\n")

        cell_calls = []

        def counting_cell(payload, n, seed_index):
            cell_calls.append((n, seed_index))
            return study_module.execute_cell(payload, n, seed_index)

        import repro.experiments.parallel as parallel_module
        monkeypatch.setattr(parallel_module, "execute_cell", counting_cell)

        resumed = Study(spec, name="midmatrix", store=tmp_path).run()
        assert cell_calls == [(8, 2), (8, 3), (8, 5), (8, 6)]
        assert [r.as_dict() for r in resumed.rows] == [
            r.as_dict() for r in first.rows
        ]


class TestStoreAndRoundTrips:
    def test_resume_loads_cells_instead_of_rerunning(self, tmp_path, monkeypatch):
        spec = small_spec(n_values=(8,), seeds=3)
        first = Study(spec, name="resume", store=tmp_path).run()
        assert len(first.rows) == 3

        calls = []
        original = study_module.execute_cell

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(study_module, "execute_cell", counting)
        # parallel imports execute_cell by name; patch it there too.
        import repro.experiments.parallel as parallel_module
        monkeypatch.setattr(parallel_module, "execute_cell", counting)

        second = Study(spec, name="resume", store=tmp_path).run()
        assert calls == []  # every cell came from the store
        assert [r.as_dict() for r in second.rows] == [
            r.as_dict() for r in first.rows
        ]

        # Extending the matrix only computes the new cells.
        extended = Study(
            small_spec(n_values=(8,), seeds=5), name="resume", store=tmp_path
        ).run()
        assert len(calls) == 2
        assert len(extended.rows) == 5
        assert [r.as_dict() for r in extended.rows[:3]] == [
            r.as_dict() for r in first.rows
        ]

    def test_store_layout(self, tmp_path):
        spec = small_spec(n_values=(8,), seeds=1)
        study = Study(spec, name="layout", store=tmp_path)
        study.run()
        directory = study.store.directory
        assert directory.name == f"layout-{study.content_hash()}"
        assert (directory / "spec.json").exists()
        assert (directory / "rows.jsonl").exists()
        assert (directory / "rows.csv").exists()
        payload = json.loads((directory / "spec.json").read_text())
        assert payload["study"] == "layout"
        assert payload["specs"][0]["variant"] == "stable-ranking"

    def test_store_rejects_path_like_names(self, tmp_path):
        with pytest.raises(ExperimentError):
            ResultStore(tmp_path, "bad/name", "abc")

    def test_torn_trailing_line_keeps_store_resumable(self, tmp_path):
        # A run killed mid-append leaves a partial final line; resume must
        # skip it (and recompute that cell), not crash.
        spec = small_spec(n_values=(8,), seeds=2)
        study = Study(spec, name="torn", store=tmp_path)
        first = study.run()
        with study.store.rows_path.open("a") as handle:
            handle.write('{"variant": "stable-ranking", "n": 8, "seed')
        resumed = Study(spec, name="torn", store=tmp_path).run()
        assert [r.as_dict() for r in resumed.rows] == [
            r.as_dict() for r in first.rows
        ]

    def test_corrupt_middle_line_raises(self, tmp_path):
        spec = small_spec(n_values=(8,), seeds=2)
        study = Study(spec, name="corrupt", store=tmp_path)
        study.run()
        lines = study.store.rows_path.read_text().splitlines()
        lines[0] = "not json at all"
        study.store.rows_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ExperimentError, match="corrupt row store"):
            Study(spec, name="corrupt", store=tmp_path).run()

    def test_json_round_trip(self, tmp_path):
        spec = small_spec(n_values=(8,), seeds=2)
        result = Study(spec, name="json").run()
        path = tmp_path / "result.json"
        result.to_json(path)
        loaded = ResultSet.from_json(path)
        assert loaded.name == "json"
        assert [r.as_dict() for r in loaded.rows] == [
            r.as_dict() for r in result.rows
        ]
        assert loaded.specs == result.specs

    def test_csv_round_trip(self, tmp_path):
        from repro.experiments.recording import read_csv

        spec = small_spec(n_values=(8,), seeds=2)
        result = Study(spec, name="csv").run()
        path = tmp_path / "rows.csv"
        result.to_csv(path)
        rows = read_csv(path)
        assert len(rows) == 2
        for loaded, row in zip(rows, result.rows):
            assert loaded["variant"] == row.variant
            assert loaded["n"] == row.n
            assert loaded["seed_index"] == row.seed_index
            assert loaded["interactions"] == row.interactions
            assert loaded["converged"] == row.converged


class TestMeasurements:
    def test_milestones_on_reference_engine(self):
        spec = ExperimentSpec(
            variant="figure3",
            protocol="space-efficient-ranking",
            workload="figure3",
            n_values=(24,),
            seeds=2,
            milestone_fractions=(0.5, 0.75),
            max_interactions_factor=500.0,
        )
        result = Study(spec, name="milestones").run()
        for row in result.rows:
            assert row.converged
            assert row.milestones["ranked_0.5"] <= row.milestones["ranked_0.75"]

    def test_aggregate_engine_milestones(self):
        spec = ExperimentSpec(
            variant="figure3",
            protocol="space-efficient-ranking",
            engine="aggregate",
            workload="figure3",
            n_values=(64,),
            seeds=2,
            milestone_fractions=(0.5,),
        )
        result = Study(spec, name="agg").run()
        assert all(row.converged for row in result.rows)
        assert all(row.milestones["ranked_0.5"] > 0 for row in result.rows)

    def test_aggregate_engine_honours_the_budget(self):
        spec = figure3_specs(
            n_values=(128,), repetitions=1, max_interactions_factor=1.0
        )[0]
        row = Study(spec, name="budget").run().rows[0]
        assert row.engine == "aggregate"
        assert not row.converged
        assert row.interactions == 128 * 128
        assert all(value <= 128 * 128 for value in row.milestones.values())

    def test_aggregate_engine_runs_on_after_the_last_milestone(self):
        # Unlike the agent-level executor, the aggregate engine does not
        # stop at the last milestone: the row's interactions are the
        # full-ranking time of the same trajectory.
        spec = figure3_specs(n_values=(128,), repetitions=1, fractions=(0.5,))[0]
        row = Study(spec, name="run-on").run().rows[0]
        assert row.engine == "aggregate"
        assert row.converged
        assert row.interactions > row.milestones["ranked_0.5"]
        _, run_seq, _ = study_module._cell_rng_sequences(spec, 128, 0)
        engine = AggregateSpaceEfficientRanking(
            128, random_state=np.random.default_rng(run_seq)
        )
        full = engine.run(max_interactions=10**12)
        assert full.converged
        assert row.interactions == full.interactions

    def test_series_recording(self):
        spec = ExperimentSpec(
            variant="figure2",
            protocol="stable-ranking-figure2",
            workload="figure2",
            n_values=(16,),
            seeds=1,
            max_interactions_factor=200.0,
            samples=30,
        )
        row = Study(spec, name="series").run().rows[0]
        assert set(row.series) >= {"ranked_agents", "average_phase"}
        ranked = row.series["ranked_agents"]
        assert len(ranked["interactions"]) == len(ranked["values"])
        assert ranked["values"][0] == 15.0  # n - 1 ranked at the start

    def test_extractors(self):
        spec = small_spec(extractors=("ranked_agents", "overhead_states"))
        row = Study(spec, name="extract").run().rows[0]
        assert row.extras["ranked_agents"] == 8.0
        assert row.extras["overhead_states"] > 0

    def test_array_engine_rows_match_reference(self):
        # The engine request is part of the spec identity, so the two
        # studies run *different seeds* by design — compare workload-level
        # outcomes.  Per-interaction bit-identity between the engines (same
        # seed, matched cadence — what the study's pinned
        # ``convergence_interval=n`` relies on) is covered at simulator
        # level in tests/baselines/test_baseline_array_equivalence.py and
        # tests/core/test_array_engine.py.
        reference = Study(
            small_spec(engine="reference", seeds=2), name="x"
        ).run()
        array = Study(small_spec(engine="array", seeds=2), name="x").run()
        assert [r.converged for r in array.rows] == [
            r.converged for r in reference.rows
        ]


class TestBackendResolution:
    def test_auto_is_the_default_and_resolves_per_cell(self):
        spec = small_spec()
        assert spec.engine == "auto"
        assert spec.resolve_backend(8) == "array"

    def test_rows_record_the_resolved_backend(self):
        result = Study(small_spec(seeds=1), name="resolved").run()
        assert [row.engine for row in result.rows] == ["array"]

    def test_rng_consuming_protocol_resolves_to_reference(self):
        spec = small_spec(
            variant="token", protocol="token-counter-ranking", seeds=1
        )
        assert spec.resolve_backend(8) == "reference"
        result = Study(spec, name="token-auto").run()
        assert result.rows[0].engine == "reference"

    def test_figure3_cells_resolve_to_aggregate(self):
        spec = ExperimentSpec(
            variant="figure3",
            protocol="space-efficient-ranking",
            workload="figure3",
            n_values=(32,),
            seeds=1,
            milestone_fractions=(0.5,),
        )
        assert spec.engine == "auto"
        assert spec.resolve_backend(32) == "aggregate"
        result = Study(spec, name="auto-agg").run()
        assert result.rows[0].engine == "aggregate"
        assert result.rows[0].milestones["ranked_0.5"] > 0

    def test_engine_request_is_part_of_the_identity(self):
        # "auto" and an explicit engine are distinct spec identities (the
        # cell rng derives from the identity, and a store must never mix
        # rows produced under different engine requests).
        assert (
            small_spec().identity_seed()
            != small_spec(engine="array").identity_seed()
        )

    def test_auto_parallel_matches_serial(self):
        spec = small_spec(n_values=(8, 16), seeds=2)
        serial = Study(spec, name="auto-par").run()
        parallel = Study(spec, name="auto-par", jobs=2).run()
        assert [r.as_dict() for r in parallel.rows] == [
            r.as_dict() for r in serial.rows
        ]
        assert all(row.engine == "array" for row in parallel.rows)
