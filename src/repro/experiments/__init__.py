"""Experiment layer: declarative studies plus the paper's figure presets.

The center of the package is the study API (:mod:`repro.experiments.study`):
an :class:`ExperimentSpec` declares a protocol, workload, engine, seed plan
and measurements as plain data; a :class:`Study` expands specs into a
``variants × n × seeds`` cell matrix, executes it (optionally across worker
processes), persists every finished cell through a :class:`ResultStore`,
and returns one unified :class:`ResultSet`.  The paper's figures are thin
presets over that API: each has a spec builder (``figure2_specs``, …), a
converter from the study's rows to its result view
(``figure2_result_from_rows``, …) and a ``python -m repro run <preset>``
command (:mod:`repro.experiments.cli`).
"""

from .ascii_plot import ascii_plot, format_table
from .comparison import (
    ComparisonResult,
    comparison_result_from_rows,
    comparison_specs,
    format_comparison,
)
from .fault_injection import (
    FaultInjectionResult,
    fault_injection_result_from_rows,
    fault_injection_specs,
    format_fault_injection,
)
from .fault_storm import (
    FaultStormResult,
    fault_storm_result_from_rows,
    fault_storm_specs,
    format_fault_storm,
)
from .figure2 import (
    Figure2Result,
    figure2_result_from_rows,
    figure2_specs,
    format_figure2,
)
from .figure3 import (
    PAPER_FRACTIONS,
    Figure3Result,
    figure3_result_from_rows,
    figure3_specs,
    format_figure3,
)
from .recording import default_results_dir, read_csv, write_csv, write_json
from .scaling import (
    ScalingResult,
    format_scaling,
    scaling_result_from_rows,
    scaling_specs,
)
from .store import ResultStore
from .study import (
    EXTRACTORS,
    PROTOCOLS,
    WORKLOADS,
    ExperimentSpec,
    ResultSet,
    RunRow,
    Study,
)
from .workloads import (
    adversarial_configuration,
    adversarial_state,
    duplicate_rank_configuration,
    figure2_initial_configuration,
    figure3_initial_configuration,
    fresh_configuration,
    missing_rank_configuration,
    valid_ranking_configuration,
)

__all__ = [
    "ComparisonResult",
    "EXTRACTORS",
    "ExperimentSpec",
    "FaultInjectionResult",
    "FaultStormResult",
    "Figure2Result",
    "Figure3Result",
    "PAPER_FRACTIONS",
    "PROTOCOLS",
    "ResultSet",
    "ResultStore",
    "RunRow",
    "ScalingResult",
    "Study",
    "WORKLOADS",
    "adversarial_configuration",
    "adversarial_state",
    "ascii_plot",
    "comparison_result_from_rows",
    "comparison_specs",
    "default_results_dir",
    "duplicate_rank_configuration",
    "fault_injection_result_from_rows",
    "fault_injection_specs",
    "fault_storm_result_from_rows",
    "fault_storm_specs",
    "figure2_initial_configuration",
    "figure2_result_from_rows",
    "figure2_specs",
    "figure3_initial_configuration",
    "figure3_result_from_rows",
    "figure3_specs",
    "format_comparison",
    "format_fault_injection",
    "format_fault_storm",
    "format_figure2",
    "format_figure3",
    "format_scaling",
    "format_table",
    "fresh_configuration",
    "missing_rank_configuration",
    "read_csv",
    "scaling_result_from_rows",
    "scaling_specs",
    "valid_ranking_configuration",
    "write_csv",
    "write_json",
]
