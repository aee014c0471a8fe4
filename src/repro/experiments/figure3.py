"""Experiment E2 — reproduce the paper's Figure 3.

Figure 3 shows, for ``SpaceEfficientRanking`` and populations
``n ∈ {128, 256, …, 8192}`` (100 runs per size in the paper), the number of
interactions — normalized by ``n²`` — needed to rank the fractions 1/2,
3/4, 7/8 and 15/16 of the agents, starting from a configuration with one
unaware leader holding rank 1 and every other agent still in a leader
election state.

Expected shape: the normalized time per fraction is essentially flat in
``n`` (ranking a constant fraction takes ``Θ(n²)`` interactions), and each
successive fraction adds a roughly constant increment (the coupon-collector
style doubling the paper discusses).

Two engines are available:

* ``"aggregate"`` (what ``"auto"`` resolves to) — the exact event-driven
  simulator (:class:`~repro.protocols.ranking.aggregate_space_efficient.AggregateSpaceEfficientRanking`),
  which handles the paper's full range of population sizes in seconds;
* ``"reference"`` — the agent-level simulator, practical up to ``n ≈ 512``
  and used to validate the aggregate engine.

The experiment is a preset over the declarative study API
(:func:`figure3_specs`, ``python -m repro run figure3``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..analysis.statistics import summarize
from ..core.errors import ExperimentError
from .ascii_plot import format_table
from .study import ExperimentSpec, ResultSet

__all__ = [
    "Figure3Result",
    "figure3_specs",
    "figure3_result_from_rows",
    "format_figure3",
    "PAPER_FRACTIONS",
]

#: The ranked fractions reported in the paper's Figure 3.
PAPER_FRACTIONS = (0.5, 0.75, 0.875, 0.9375)

#: The population sizes of the paper's Figure 3.
PAPER_POPULATION_SIZES = (128, 256, 512, 1024, 2048, 4096, 8192)


@dataclass
class Figure3Result:
    """Normalized times to rank each fraction, per population size."""

    fractions: Sequence[float]
    n_values: Sequence[int]
    repetitions: int
    engine: str
    # samples[n][fraction] = list of interactions / n² values, one per run.
    samples: Dict[int, Dict[float, List[float]]] = field(default_factory=dict)

    def mean(self, n: int, fraction: float) -> float:
        """Mean normalized time to rank ``fraction`` of the agents at size ``n``."""
        return summarize(self.samples[n][fraction]).mean

    def rows(self) -> List[dict]:
        """One row per (n, fraction) with summary statistics."""
        rows = []
        for n in self.n_values:
            for fraction in self.fractions:
                summary = summarize(self.samples[n][fraction])
                rows.append(
                    {
                        "n": n,
                        "fraction": fraction,
                        "mean_interactions_over_n2": summary.mean,
                        "median_interactions_over_n2": summary.median,
                        "std": summary.std,
                        "runs": summary.count,
                    }
                )
        return rows

    def series_by_fraction(self) -> Dict[float, List[float]]:
        """For each fraction, the mean normalized time per population size."""
        return {
            fraction: [self.mean(n, fraction) for n in self.n_values]
            for fraction in self.fractions
        }


def figure3_specs(
    n_values: Sequence[int] = PAPER_POPULATION_SIZES,
    fractions: Sequence[float] = PAPER_FRACTIONS,
    repetitions: int = 100,
    engine: str = "auto",
    c_wait: float = 2.0,
    max_interactions_factor: float = 500.0,
    random_state: int = 0,
) -> Tuple[ExperimentSpec, ...]:
    """The Figure 3 sweep as a declarative spec.

    The default ``engine="auto"`` resolves to the aggregate engine (the
    paper-scale choice for this workload) through the backend registry;
    pass ``"reference"`` or ``"array"`` for agent-level validation runs.
    """
    return (
        ExperimentSpec(
            variant="figure3",
            protocol="space-efficient-ranking",
            n_values=tuple(n_values),
            seeds=repetitions,
            engine=engine,
            workload="figure3",
            protocol_params={"c_wait": c_wait},
            max_interactions_factor=float(max_interactions_factor),
            milestone_fractions=tuple(fractions),
            random_state=random_state,
        ),
    )


def figure3_result_from_rows(result: ResultSet) -> Figure3Result:
    """Convert a study result set into the legacy :class:`Figure3Result`."""
    spec = result.specs[0]
    fractions = tuple(spec.milestone_fractions)
    # Report the backend(s) that actually served the rows — under
    # engine="auto" the spec only records the request.
    engines = sorted({row.engine for row in result.rows}) or [spec.engine]
    out = Figure3Result(
        fractions=fractions,
        n_values=tuple(spec.n_values),
        repetitions=spec.seeds,
        engine="/".join(engines),
    )
    for n in spec.n_values:
        per_fraction: Dict[float, List[float]] = {f: [] for f in fractions}
        for row in result.filter(n=n).rows:
            if not row.converged:
                raise ExperimentError(
                    f"Figure 3 run for n={n} (seed {row.seed_index}) did not "
                    f"reach every fraction within budget"
                )
            for fraction in fractions:
                per_fraction[fraction].append(
                    row.milestones[f"ranked_{fraction}"] / float(n * n)
                )
        out.samples[n] = per_fraction
    return out


def format_figure3(result: Figure3Result) -> str:
    """Render the Figure 3 sweep as a text table (one row per n, one column per fraction)."""
    rows = []
    for n in result.n_values:
        row = {"n": n}
        for fraction in result.fractions:
            row[f"frac {fraction}"] = result.mean(n, fraction)
        rows.append(row)
    header = (
        f"Figure 3 reproduction — SpaceEfficientRanking ({result.engine} engine, "
        f"{result.repetitions} runs per n); entries are mean interactions / n² "
        f"to rank the given fraction of agents"
    )
    return header + "\n" + format_table(rows)
