"""Tests for the paper presets' result views (small parameterizations).

Each preset runs the way every caller runs it: its spec builder through
:class:`~repro.experiments.study.Study`, then its ``*_result_from_rows``
converter.  The tests only check that each view is structurally correct
and plausible, quickly.
"""

import math

import pytest

from repro.core.errors import ExperimentError
from repro.experiments.comparison import (
    comparison_result_from_rows,
    comparison_specs,
    format_comparison,
)
from repro.experiments.fault_injection import (
    fault_injection_result_from_rows,
    fault_injection_specs,
    format_fault_injection,
)
from repro.experiments.figure2 import (
    figure2_result_from_rows,
    figure2_specs,
    format_figure2,
)
from repro.experiments.figure3 import (
    figure3_result_from_rows,
    figure3_specs,
    format_figure3,
)
from repro.experiments.scaling import (
    format_scaling,
    scaling_result_from_rows,
    scaling_specs,
)
from repro.experiments.study import Study


def figure2(n, random_state, samples):
    specs = figure2_specs(
        n_values=(n,), samples=samples, engine="reference",
        random_state=random_state,
    )
    return figure2_result_from_rows(Study(specs, name="figure2").run())


def figure3(**kwargs):
    return figure3_result_from_rows(
        Study(figure3_specs(**kwargs), name="figure3").run()
    )


def comparison(workload="fresh", **kwargs):
    specs = comparison_specs(workload=workload, engine="reference", **kwargs)
    return comparison_result_from_rows(
        Study(specs, name="comparison").run(), workload=workload
    )


class TestFigure2Driver:
    def test_series_structure_and_recovery(self):
        result = figure2(n=64, random_state=0, samples=80)
        assert result.n == 64
        assert len(result.interactions) == len(result.ranked_agents)
        assert len(result.interactions) == len(result.average_phase)
        # Starts with n - 1 ranked agents and ends with all ranked.
        assert result.ranked_agents[0] == 63
        assert result.converged
        assert result.ranked_agents[-1] == 64
        # At least one reset happened (the whole point of the workload).
        assert result.resets >= 1
        assert min(result.ranked_agents) < 63
        # After the reset the re-ranking walks through the phases again:
        # the average phase of the unranked agents drops (fresh agents
        # start at phase 1) and climbs back towards ⌈log₂ n⌉.
        reset_index = result.ranked_agents.index(min(result.ranked_agents))
        post_reset_phases = result.average_phase[reset_index:]
        assert min(post_reset_phases) < math.log2(64) / 2
        assert max(post_reset_phases) > math.log2(64) / 2
        rows = result.rows()
        assert rows[0]["interactions_over_n2"] == 0.0

    def test_formatting_contains_key_facts(self):
        result = figure2(n=32, random_state=1, samples=40)
        text = format_figure2(result)
        assert "Figure 2" in text
        assert "ranked agents" in text
        assert "average phase" in text


class TestFigure3Driver:
    def test_aggregate_engine_sweep(self):
        result = figure3(n_values=(64, 128), repetitions=4, engine="aggregate")
        assert set(result.samples) == {64, 128}
        for n in (64, 128):
            for fraction in result.fractions:
                assert len(result.samples[n][fraction]) == 4
        # Later fractions take longer.
        assert result.mean(128, 0.5) < result.mean(128, 0.9375)
        # Normalized times are O(1) (flat in n): same order of magnitude.
        assert result.mean(128, 0.5) < 4 * result.mean(64, 0.5) + 1
        text = format_figure3(result)
        assert "Figure 3" in text and "frac 0.5" in text

    def test_reference_engine_agrees_roughly_with_aggregate(self):
        aggregate = figure3(
            n_values=(48,), fractions=(0.5,), repetitions=6, engine="aggregate"
        )
        reference = figure3(
            n_values=(48,), fractions=(0.5,), repetitions=6, engine="reference"
        )
        assert aggregate.mean(48, 0.5) == pytest.approx(reference.mean(48, 0.5), rel=0.6)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            figure3_specs(engine="magic")
        with pytest.raises(ExperimentError):
            figure3_specs(repetitions=0)


class TestScalingDriver:
    def test_normalized_times_are_flat(self):
        specs = scaling_specs(n_values=(64, 256), repetitions=4, engine="aggregate")
        result = scaling_result_from_rows(Study(specs, name="scaling").run())
        rows = result.rows()
        assert len(rows) == 2
        values = [row["mean_over_n2_logn"] for row in rows]
        assert max(values) / min(values) < 2.5
        assert "constant" in format_scaling(result)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            scaling_specs(engine="magic")


class TestComparisonDriver:
    def test_fresh_comparison_structure(self):
        result = comparison(
            n_values=(16,),
            repetitions=2,
            protocols=("cai-ranking", "stable-ranking"),
            max_interactions_factor=600,
        )
        rows = result.rows()
        assert {row["protocol"] for row in rows} == {"cai-ranking", "stable-ranking"}
        assert all(row["converged_fraction"] == 1.0 for row in rows)
        cai = next(row for row in rows if row["protocol"] == "cai-ranking")
        stable = next(row for row in rows if row["protocol"] == "stable-ranking")
        assert cai["overhead_states"] == 0
        assert stable["overhead_states"] > 0
        assert "Baseline comparison" in format_comparison(result)

    def test_corrupted_workload(self):
        result = comparison(
            n_values=(16,),
            repetitions=2,
            workload="corrupted",
            protocols=("stable-ranking",),
            max_interactions_factor=1500,
        )
        assert result.rows()[0]["converged_fraction"] == 1.0

    def test_validation(self):
        with pytest.raises(ExperimentError):
            comparison_specs(workload="nope")
        with pytest.raises(ExperimentError):
            comparison_specs(protocols=("unknown-protocol",))


class TestFaultInjectionDriver:
    def test_all_faults_recover(self):
        specs = fault_injection_specs(
            n_values=(16,), repetitions=2, max_interactions_factor=2000,
            engine="reference",
        )
        result = fault_injection_result_from_rows(
            Study(specs, name="fault-injection").run()
        )
        rows = result.rows()
        assert {row["fault"] for row in rows} == {
            "duplicate_rank",
            "missing_rank",
            "adversarial",
        }
        assert all(row["recovered_fraction"] == 1.0 for row in rows)
        assert "Fault-injection" in format_fault_injection(result)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            fault_injection_specs(faults=("meteor_strike",))
        with pytest.raises(ExperimentError):
            fault_injection_specs(repetitions=0)

    def test_empty_cells_report_zero_instead_of_raising(self):
        # Regression: an empty cell used to blow up the summary (empty
        # sample) and the convergence lookup (missing key); it must
        # render as 0 runs / 0.0 recovered instead.
        from repro.experiments.fault_injection import FaultInjectionResult
        from repro.experiments.study import ResultSet

        hollow = fault_injection_result_from_rows(ResultSet([], [], "faults"))
        assert hollow.rows() == []

        specs = fault_injection_specs(n_values=(8,), repetitions=1)
        no_rows = fault_injection_result_from_rows(
            ResultSet([], specs, "faults")
        )
        rows = no_rows.rows()
        assert {row["fault"] for row in rows} == {
            "duplicate_rank", "missing_rank", "adversarial",
        }
        assert all(row["runs"] == 0 for row in rows)
        assert all(row["recovered_fraction"] == 0.0 for row in rows)
        assert all(row["mean_recovery_interactions"] == 0.0 for row in rows)
        assert "Fault-injection" in format_fault_injection(no_rows)

        # A result object missing a convergence entry entirely must not
        # KeyError either.
        partial = FaultInjectionResult(n_values=(8,), repetitions=1)
        partial.recovery[("duplicate_rank", 8)] = [12]
        assert partial.rows()[0]["recovered_fraction"] == 0.0
