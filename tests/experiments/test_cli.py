"""Tests for the ``python -m repro`` command line.

Fast paths call :func:`repro.experiments.cli.main` in-process; one smoke
test goes through the real ``python -m repro`` entry point in a
subprocess, exercising argument parsing, the study run, the persisted
store and the rendered table end to end.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import main

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


class TestMainInProcess:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure2", "figure3", "scaling", "comparison", "fault_injection"):
            assert name in out

    def test_list_prints_capability_matrix(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "resolved backends" in out
        # Every comparison protocol resolves off the reference engine...
        assert "comparison/stable-ranking: stable-ranking [auto] -> array" in out
        assert "comparison/cai-ranking: cai-ranking [auto] -> array" in out
        assert (
            "comparison/burman-style-ranking: burman-style-ranking [auto] "
            "-> array" in out
        )
        # ...and the paper-scale presets negotiate the aggregate engine.
        assert "figure3/figure3: space-efficient-ranking [auto] -> aggregate" in out
        assert "scaling/scaling: space-efficient-ranking [auto] -> aggregate" in out

    def test_no_command_prints_overview(self, capsys):
        assert main([]) == 0
        assert "python -m repro run" in capsys.readouterr().out

    def test_run_scaling_smoke(self, tmp_path, capsys):
        code = main(
            ["run", "scaling", "--n", "8", "--seeds", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Stabilization-time scaling" in out
        assert "result store:" in out
        store_dirs = list(tmp_path.iterdir())
        assert len(store_dirs) == 1
        rows = [
            json.loads(line)
            for line in (store_dirs[0] / "rows.jsonl").read_text().splitlines()
        ]
        assert len(rows) == 2
        assert (store_dirs[0] / "rows.csv").exists()
        assert (store_dirs[0] / "result.json").exists()

    def test_rerun_loads_from_store(self, tmp_path, capsys):
        args = ["run", "scaling", "--n", "8", "--seeds", "2", "--out", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        store_dir = next(tmp_path.iterdir())
        rows = (store_dir / "rows.jsonl").read_text().splitlines()
        assert len(rows) == 2  # nothing was re-simulated or re-appended

    def test_run_comparison_and_faults(self, tmp_path, capsys):
        assert main([
            "run", "comparison", "--n", "8", "--seeds", "1",
            "--protocols", "stable-ranking", "--out", str(tmp_path), "--quiet",
        ]) == 0
        assert "Baseline comparison" in capsys.readouterr().out
        assert main([
            "run", "fault_injection", "--n", "8", "--seeds", "1",
            "--faults", "duplicate_rank", "--max-factor", "2000",
            "--out", str(tmp_path), "--quiet",
        ]) == 0
        assert "Fault-injection recovery" in capsys.readouterr().out

    def test_comparison_auto_records_resolved_backend(self, tmp_path, capsys):
        assert main([
            "run", "comparison", "--n", "8", "--seeds", "1",
            "--engine", "auto", "--out", str(tmp_path), "--quiet",
        ]) == 0
        capsys.readouterr()
        store_dir = next(tmp_path.iterdir())
        rows = [
            json.loads(line)
            for line in (store_dir / "rows.jsonl").read_text().splitlines()
        ]
        assert {row["variant"] for row in rows} == {
            "stable-ranking", "burman-style-ranking", "cai-ranking",
        }
        # The store records which backend actually served each cell — and
        # under "auto" every comparison cell runs off the reference engine.
        assert all(row["engine"] == "array" for row in rows)

    def test_no_store(self, tmp_path, capsys):
        assert main([
            "run", "scaling", "--n", "8", "--seeds", "1",
            "--no-store", "--out", str(tmp_path), "--quiet",
        ]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_unknown_experiment_is_a_parse_error(self):
        with pytest.raises(SystemExit):
            main(["run", "figure7"])

    def test_max_factor_reaches_every_preset(self):
        from repro.experiments.cli import EXPERIMENTS, _build_parser

        parser = _build_parser()
        for experiment in ("figure2", "figure3", "scaling", "comparison",
                           "fault_injection"):
            args = parser.parse_args(
                ["run", experiment, "--n", "8", "--max-factor", "123"]
            )
            specs = EXPERIMENTS[experiment]["specs"](args)
            assert all(
                spec.max_interactions_factor == 123.0 for spec in specs
            ), experiment

    def test_engine_help_lists_the_registry(self, capsys):
        from repro.core.backends import engine_choices

        with pytest.raises(SystemExit):
            main(["run", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert " | ".join(engine_choices()) in help_text

    @pytest.mark.parametrize("engine", ["array-batched", "array-jit"])
    def test_run_rejects_removed_engines(self, engine, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "run", "figure2", "--n", "8", "--seeds", "1",
                "--engine", engine, "--out", str(tmp_path), "--quiet",
            ])
        assert exit_info.value.code == 2
        assert "unknown engine" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_render_failure_reports_error_but_keeps_store(self, tmp_path, capsys):
        # A budget far too small for the milestones: the rows compute (as
        # non-converged), the legacy renderer raises, and the CLI must
        # report the error yet still persist + point at the store.
        code = main([
            "run", "figure3", "--n", "16", "--seeds", "1",
            "--engine", "reference", "--fractions", "0.5",
            "--max-factor", "0.01", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "result store:" in captured.out
        store_dir = next(tmp_path.iterdir())
        assert (store_dir / "rows.jsonl").exists()
        assert (store_dir / "result.json").exists()


class TestModuleEntryPoint:
    def test_python_m_repro_list_capability_matrix(self):
        environment = {
            **os.environ,
            "PYTHONPATH": str(REPO_SRC)
            + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""),
        }
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            env=environment,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "resolved backends" in completed.stdout
        assert "-> array" in completed.stdout
        assert "-> aggregate" in completed.stdout

    def test_python_m_repro_run_figure2(self, tmp_path):
        environment = {
            **os.environ,
            "PYTHONPATH": str(REPO_SRC)
            + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""),
        }
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "run", "figure2",
                "--n", "16", "--seeds", "2", "--jobs", "2",
                "--no-plot", "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env=environment,
            timeout=600,
        )
        assert completed.returncode == 0, completed.stderr
        assert "Figure 2 reproduction" in completed.stdout
        store_dir = next(tmp_path.iterdir())
        rows = [
            json.loads(line)
            for line in (store_dir / "rows.jsonl").read_text().splitlines()
        ]
        assert {(row["n"], row["seed_index"]) for row in rows} == {(16, 0), (16, 1)}
        assert all(row["series"]["ranked_agents"]["values"] for row in rows)


class TestCacheCommand:
    def test_list_without_a_store_location_fails(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TABLE_CACHE", raising=False)
        assert main(["cache", "list"]) == 1
        assert "REPRO_TABLE_CACHE" in capsys.readouterr().err

    def test_unknown_protocol_is_reported(self, tmp_path, capsys):
        code = main(
            ["cache", "warm", "--protocol", "nope", "--n", "16",
             "--dir", str(tmp_path / "tables")]
        )
        assert code == 1
        assert "unknown protocol" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_warm_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        store = tmp_path / "tables"
        code = main(
            ["cache", "warm", "--protocol", "stable-ranking", "--n", "8",
             "--seeds", "2", "--jobs", jobs, "--dir", str(store)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: jobs must be positive"
        assert "warmed" not in captured.out
        assert not store.exists()

    def test_warm_list_clear_round_trip(self, tmp_path, capsys):
        store = tmp_path / "tables"
        code = main(
            ["cache", "warm", "--protocol", "stable-ranking", "--n", "24",
             "--seeds", "2", "--dir", str(store)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warmed stable-ranking" in out
        assert "table store:" in out and "spilled" in out

        assert main(["cache", "list", "--dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert "stable-ranking" in out
        assert re.search(r"pairs [1-9]", out)

        assert main(["cache", "clear", "--dir", str(store)]) == 0
        assert not store.exists()
        assert main(["cache", "list", "--dir", str(store)]) == 0
        assert "no table-store entries" in capsys.readouterr().out

    def test_run_exports_study_table_store_and_reports_hits(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.experiments.study as study_mod

        monkeypatch.delenv("REPRO_TABLE_CACHE", raising=False)
        monkeypatch.setattr(study_mod, "_ENGINE_CACHES", {})
        args = ["run", "figure2", "--n", "32", "--seeds", "1",
                "--quiet", "--no-plot"]
        assert main(args + ["--out", str(tmp_path / "out1")]) == 0
        out = capsys.readouterr().out
        assert "table store:" in out and "spilled" in out
        study_dir = next((tmp_path / "out1").iterdir())
        assert (study_dir / "tables").is_dir()

        # A second cold process (simulated: fresh per-process caches)
        # sharing the table store reports hits instead of tabulating.
        monkeypatch.setattr(study_mod, "_ENGINE_CACHES", {})
        monkeypatch.setenv("REPRO_TABLE_CACHE", str(study_dir / "tables"))
        assert main(args + ["--out", str(tmp_path / "out2")]) == 0
        out = capsys.readouterr().out
        assert "table store: loaded" in out


class TestTopologyCli:
    def test_list_topologies_prints_the_matrix(self, capsys):
        assert main(["list", "--topologies"]) == 0
        out = capsys.readouterr().out
        assert "topologies (interaction graphs" in out
        for family in ("complete", "ring", "grid2d", "random_regular",
                       "erdos_renyi", "power_law", "delayed"):
            assert family in out
        assert "degree min/mean/max" in out
        # The sweep preset shows up in the capability matrix with its
        # restricted variants resolved to an agent-level backend.
        assert "topology_sweep/ring: one-way-epidemic [auto] -> array" in out

    def test_list_without_flag_omits_the_matrix(self, capsys):
        assert main(["list"]) == 0
        assert "topologies (interaction graphs" not in capsys.readouterr().out

    def test_run_topology_sweep_records_topology(self, tmp_path, capsys):
        assert main([
            "run", "topology_sweep", "--topology", "ring", "--n", "16",
            "--seeds", "2", "--out", str(tmp_path), "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "Topology sweep" in out
        assert "Herman ring band" in out
        store_dir = next(tmp_path.iterdir())
        rows = [
            json.loads(line)
            for line in (store_dir / "rows.jsonl").read_text().splitlines()
        ]
        assert {row["variant"] for row in rows} == {"complete", "ring"}
        by_variant = {}
        for row in rows:
            by_variant.setdefault(row["variant"], []).append(row)
        assert all(r["topology"] == "ring" for r in by_variant["ring"])
        assert all(r["topology"] == "complete" for r in by_variant["complete"])
        # Restricted cells must have been served by a concrete agent-level
        # backend — never the population-level engines, never raw "auto".
        assert all(
            r["engine"] not in ("auto", "aggregate", "group")
            for r in by_variant["ring"]
        )

    def test_python_m_repro_list_topologies_subprocess(self):
        environment = {
            **os.environ,
            "PYTHONPATH": str(REPO_SRC)
            + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""),
        }
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list", "--topologies"],
            capture_output=True,
            text=True,
            env=environment,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "topologies (interaction graphs" in completed.stdout
        assert "power_law" in completed.stdout
        assert "async wrapper" in completed.stdout


class TestPresetSpecs:
    def test_defaults_match_the_cli(self):
        from repro.experiments.cli import EXPERIMENTS, _build_parser, preset_specs

        parser = _build_parser()
        for experiment in sorted(EXPERIMENTS):
            args = parser.parse_args(["run", experiment])
            expected = [s.as_dict() for s in EXPERIMENTS[experiment]["specs"](args)]
            actual = [s.as_dict() for s in preset_specs(experiment)]
            assert actual == expected, experiment

    def test_overrides_apply_with_cli_semantics(self):
        from repro.experiments.cli import preset_specs

        specs = preset_specs(
            "topology_sweep",
            {"topology": "ring", "n": "8,16", "seeds": 3, "max-factor": 30},
        )
        assert [s.variant for s in specs] == ["complete", "ring"]
        assert all(s.n_values == (8, 16) for s in specs)
        assert all(s.seeds == 3 for s in specs)
        assert all(s.max_interactions_factor == 30.0 for s in specs)

    def test_unknown_preset_and_override_raise(self):
        from repro.core.errors import ExperimentError
        from repro.experiments.cli import preset_specs

        with pytest.raises(ExperimentError, match="unknown experiment"):
            preset_specs("figure9")
        with pytest.raises(ExperimentError, match="unknown preset override"):
            preset_specs("figure2", {"bogus": 1})
        with pytest.raises(ExperimentError, match="not a spec option"):
            preset_specs("figure2", {"out": "/tmp/elsewhere"})
