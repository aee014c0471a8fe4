"""Tests of the top-level public API surface.

Downstream users interact with the library through ``import repro``; these
tests pin the advertised names, their re-export consistency and the basic
metadata so accidental API breakage is caught — including the result views
the paper presets' ``*_result_from_rows`` converters build from a study.
"""

import repro
import repro.analysis
import repro.baselines
import repro.experiments


def test_version_is_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ advertises missing name {name!r}"


def test_core_protocol_classes_are_exported():
    for name in (
        "SpaceEfficientRanking",
        "StableRanking",
        "Simulator",
        "Configuration",
        "AgentState",
        "PhaseSchedule",
        "AggregateSpaceEfficientRanking",
    ):
        assert name in repro.__all__


def test_subpackage_all_names_resolve():
    for module in (repro.analysis, repro.baselines, repro.experiments):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__} misses {name!r}"


def test_protocol_names_are_distinct():
    protocols = [
        repro.SpaceEfficientRanking(8),
        repro.StableRanking(8),
        repro.baselines.CaiRanking(8),
        repro.baselines.BurmanStyleRanking(8),
        repro.baselines.TokenCounterRanking(8),
    ]
    names = [protocol.name for protocol in protocols]
    assert len(names) == len(set(names))


def test_public_classes_have_docstrings():
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        attribute = getattr(repro, name)
        if isinstance(attribute, type) or callable(attribute):
            assert attribute.__doc__, f"{name} has no docstring"


def test_study_api_is_exported():
    for name in ("ExperimentSpec", "Study", "ResultSet", "ResultStore", "RunRow"):
        assert name in repro.__all__
        assert name in repro.experiments.__all__


def test_backend_registry_is_exported():
    import repro.core

    for name in (
        "Backend",
        "BackendCapability",
        "register_backend",
        "get_backend",
        "resolve_backend",
        "backend_names",
        "engine_choices",
        "capability_matrix",
        "ProbeClassTable",
        "GroupCountSimulator",
        "CountGoal",
    ):
        assert name in repro.core.__all__
        assert hasattr(repro.core, name)
    assert repro.core.backend_names() == (
        "reference", "array", "aggregate", "group",
    )
    assert repro.core.engine_choices()[-1] == "auto"
    # The Cai baseline is reachable under both spellings.
    assert repro.baselines.CaiStyleRanking is repro.baselines.CaiRanking


class TestPresetResultViews:
    """Each preset's spec builder, run through :class:`~repro.Study`, feeds
    its ``*_result_from_rows`` converter, which returns the preset's
    result type."""

    def test_scaling_result_view(self):
        specs = repro.experiments.scaling_specs(
            n_values=(8,), repetitions=2, engine="aggregate", random_state=0
        )
        result = repro.experiments.scaling_result_from_rows(
            repro.Study(specs, name="scaling").run()
        )
        assert isinstance(result, repro.experiments.ScalingResult)
        assert result.engine == "aggregate"
        assert len(result.interactions[8]) == 2
        assert result.rows()[0]["runs"] == 2

    def test_comparison_result_view(self):
        specs = repro.experiments.comparison_specs(
            n_values=(8,),
            repetitions=1,
            protocols=("stable-ranking",),
            max_interactions_factor=2000,
            engine="reference",
        )
        result = repro.experiments.comparison_result_from_rows(
            repro.Study(specs, name="comparison").run()
        )
        assert isinstance(result, repro.experiments.ComparisonResult)
        assert ("stable-ranking", 8) in result.times
        assert result.overhead[("stable-ranking", 8)] > 0

    def test_fault_injection_result_view(self):
        specs = repro.experiments.fault_injection_specs(
            n_values=(8,),
            repetitions=1,
            faults=("duplicate_rank",),
            max_interactions_factor=2000,
            engine="reference",
        )
        result = repro.experiments.fault_injection_result_from_rows(
            repro.Study(specs, name="fault-injection").run()
        )
        assert isinstance(result, repro.experiments.FaultInjectionResult)
        assert ("duplicate_rank", 8) in result.recovery

    def test_figure2_result_view(self):
        specs = repro.experiments.figure2_specs(
            n_values=(16,), samples=20, engine="reference"
        )
        result = repro.experiments.figure2_result_from_rows(
            repro.Study(specs, name="figure2").run()
        )
        assert isinstance(result, repro.experiments.Figure2Result)
        assert result.n == 16
        assert len(result.interactions) == len(result.ranked_agents)

    def test_figure3_result_view(self):
        specs = repro.experiments.figure3_specs(
            n_values=(24,), fractions=(0.5,), repetitions=2, engine="aggregate"
        )
        result = repro.experiments.figure3_result_from_rows(
            repro.Study(specs, name="figure3").run()
        )
        assert isinstance(result, repro.experiments.Figure3Result)
        assert len(result.samples[24][0.5]) == 2
