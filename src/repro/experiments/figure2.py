"""Experiment E1 — reproduce the paper's Figure 2.

Figure 2 shows, for ``StableRanking`` with ``n = 256``, ``c_wait = 2`` and
``c_live = 4``, the number of ranked agents and the average phase counter of
the unranked agents as a function of the number of interactions (normalized
by ``n²``), starting from the worst-case initialization in which agents hold
the ranks ``2 … n`` and a single phase agent with maximum liveness counter
has to discover that rank 1 is missing.

Expected shape (the constants depend on the counter sizes): a long flat
prefix while the liveness counter drains, a reset that drops the ranked
count to zero, a quick recovery of most ranks, and a long tail for the final
few agents while the average phase climbs towards ``⌈log₂ n⌉``.

The experiment is a preset over the declarative study API: see
:func:`figure2_specs` for the spec and
``python -m repro run figure2`` for the command-line entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.errors import ExperimentError
from .ascii_plot import ascii_plot, format_table
from .study import ExperimentSpec, ResultSet, RunRow

__all__ = [
    "Figure2Result",
    "figure2_specs",
    "figure2_result_from_rows",
    "format_figure2",
]


@dataclass
class Figure2Result:
    """The two series of Figure 2 for one run."""

    n: int
    interactions: List[int]
    ranked_agents: List[float]
    average_phase: List[float]
    total_interactions: int
    resets: int
    converged: bool

    @property
    def normalized_interactions(self) -> List[float]:
        """x-axis of the figure: interactions divided by ``n²``."""
        scale = float(self.n * self.n)
        return [value / scale for value in self.interactions]

    def rows(self) -> List[dict]:
        """Flat rows (one per sample) for CSV export."""
        return [
            {
                "interactions": interactions,
                "interactions_over_n2": interactions / float(self.n * self.n),
                "ranked_agents": ranked,
                "average_phase": phase,
            }
            for interactions, ranked, phase in zip(
                self.interactions, self.ranked_agents, self.average_phase
            )
        ]


def figure2_specs(
    n_values: Sequence[int] = (256,),
    seeds: int = 1,
    c_wait: float = 2.0,
    c_live: float = 4.0,
    max_normalized_interactions: float = 200.0,
    samples: int = 240,
    l_max: Optional[int] = None,
    engine: str = "auto",
    random_state: int = 0,
) -> Tuple[ExperimentSpec, ...]:
    """The Figure 2 scenario as a declarative spec.

    The protocol factory ``stable-ranking-figure2`` applies the paper's
    liveness-counter parameterization ``L_max = ⌈6 · log₂ n⌉`` per
    population size unless ``l_max`` overrides it.
    """
    params = {"c_wait": c_wait, "c_live": c_live}
    if l_max is not None:
        params["l_max"] = l_max
    return (
        ExperimentSpec(
            variant="figure2",
            protocol="stable-ranking-figure2",
            n_values=tuple(n_values),
            seeds=seeds,
            engine=engine,
            workload="figure2",
            protocol_params=params,
            max_interactions_factor=max_normalized_interactions,
            samples=samples,
            random_state=random_state,
        ),
    )


def figure2_result_from_rows(result: ResultSet, n: Optional[int] = None,
                             seed_index: int = 0) -> Figure2Result:
    """Extract one run's :class:`Figure2Result` from a study result set."""
    rows = result.rows if n is None else result.filter(n=n).rows
    row: Optional[RunRow] = next(
        (r for r in rows if r.seed_index == seed_index), None
    )
    if row is None:
        raise ExperimentError(
            f"result set has no Figure 2 cell for n={n}, seed {seed_index}"
        )
    ranked = row.series["ranked_agents"]
    phase = row.series["average_phase"]
    return Figure2Result(
        n=row.n,
        interactions=list(ranked["interactions"]),
        ranked_agents=list(ranked["values"]),
        average_phase=list(phase["values"]),
        total_interactions=row.interactions,
        resets=row.resets,
        converged=row.converged,
    )


def format_figure2(result: Figure2Result, plot: bool = True) -> str:
    """Render the Figure 2 series as text (table of key points plus plot)."""
    lines = [
        f"Figure 2 reproduction — StableRanking, n = {result.n}",
        f"converged: {result.converged}, total interactions: "
        f"{result.total_interactions} ({result.total_interactions / result.n**2:.1f} n²), "
        f"resets observed: {result.resets}",
    ]
    if plot:
        lines.append(
            ascii_plot(
                result.normalized_interactions,
                result.ranked_agents,
                title="ranked agents vs interactions / n²",
            )
        )
        lines.append(
            ascii_plot(
                result.normalized_interactions,
                result.average_phase,
                title="average phase of unranked agents vs interactions / n²",
            )
        )
    # A condensed table of ~12 evenly spaced sample points.
    rows = result.rows()
    stride = max(1, len(rows) // 12)
    lines.append(
        format_table(
            rows[::stride],
            columns=["interactions_over_n2", "ranked_agents", "average_phase"],
        )
    )
    return "\n".join(lines)
