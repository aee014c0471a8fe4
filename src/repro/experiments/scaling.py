"""Experiment E3 — stabilization-time scaling of ``SpaceEfficientRanking``.

Theorem 1 states that the non-self-stabilizing protocol reaches a valid
ranking in ``O(n² log n)`` interactions w.h.p.  This experiment measures the
full stabilization time for a range of population sizes and reports it
normalized by ``n² log₂ n``: if the theorem's shape holds, the normalized
values are roughly constant across ``n``.

The aggregate engine starts from the Figure 3 configuration (leader already
elected); the reference and array engines run the complete protocol
including leader election.  Both are exposed because the leader-election
prefix is ``o(n²)`` and does not affect the asymptotics.

The experiment is a preset over the declarative study API
(:func:`scaling_specs`, ``python -m repro run scaling``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..analysis.statistics import summarize
from ..analysis.theory import normalized_stabilization_time
from ..core.errors import ExperimentError
from .ascii_plot import format_table
from .study import ExperimentSpec, ResultSet

__all__ = [
    "ScalingResult",
    "scaling_specs",
    "scaling_result_from_rows",
    "format_scaling",
]


@dataclass
class ScalingResult:
    """Stabilization times per population size."""

    n_values: Sequence[int]
    repetitions: int
    engine: str
    # interactions[n] = list of total interactions to stabilize.
    interactions: Dict[int, List[int]] = field(default_factory=dict)

    def normalized(self, n: int) -> List[float]:
        """Interactions divided by ``n² log₂ n`` for population size ``n``."""
        return [
            normalized_stabilization_time(value, n) for value in self.interactions[n]
        ]

    def rows(self) -> List[dict]:
        rows = []
        for n in self.n_values:
            raw = summarize(self.interactions[n])
            norm = summarize(self.normalized(n))
            rows.append(
                {
                    "n": n,
                    "mean_interactions": raw.mean,
                    "mean_over_n2": raw.mean / (n * n),
                    "mean_over_n2_logn": norm.mean,
                    "std_over_n2_logn": norm.std,
                    "runs": raw.count,
                }
            )
        return rows


def scaling_specs(
    n_values: Sequence[int] = (64, 128, 256, 512, 1024),
    repetitions: int = 20,
    engine: str = "auto",
    c_wait: float = 2.0,
    max_interactions_factor: float = 2000.0,
    random_state: int = 0,
) -> Tuple[ExperimentSpec, ...]:
    """The stabilization-time scaling sweep as a declarative spec.

    ``engine`` selects how each run is simulated: ``"auto"`` (the
    default) starts from the Figure 3 workload so the backend registry
    resolves to the exact event-driven aggregate engine — the paper-scale
    choice; ``"aggregate"`` requests it explicitly.  ``"reference"`` and
    ``"array"`` run the complete protocol including leader election
    (``SpaceEfficientRanking``'s GS leader-election substrate consumes
    randomness, so the array engine takes its object fallback path —
    exposed for cross-engine validation rather than speed).
    """
    workload = "figure3" if engine in ("aggregate", "auto") else "fresh"
    return (
        ExperimentSpec(
            variant="scaling",
            protocol="space-efficient-ranking",
            n_values=tuple(n_values),
            seeds=repetitions,
            engine=engine,
            workload=workload,
            protocol_params={"c_wait": c_wait},
            max_interactions_factor=float(max_interactions_factor),
            random_state=random_state,
        ),
    )


def scaling_result_from_rows(result: ResultSet) -> ScalingResult:
    """Convert a study result set into the legacy :class:`ScalingResult`."""
    spec = result.specs[0]
    # Report the backend(s) that actually served the rows — under
    # engine="auto" the spec only records the request.
    engines = sorted({row.engine for row in result.rows}) or [spec.engine]
    out = ScalingResult(
        n_values=tuple(spec.n_values),
        repetitions=spec.seeds,
        engine="/".join(engines),
    )
    for n in spec.n_values:
        times: List[int] = []
        for row in result.filter(n=n).rows:
            if not row.converged:
                raise ExperimentError(f"scaling run for n={n} did not stabilize")
            times.append(row.interactions)
        out.interactions[n] = times
    return out


def format_scaling(result: ScalingResult) -> str:
    """Render the scaling study as a text table."""
    header = (
        f"Stabilization-time scaling — SpaceEfficientRanking ({result.engine} engine, "
        f"{result.repetitions} runs per n).  Theorem 1 predicts the "
        f"'mean_over_n2_logn' column to be roughly constant."
    )
    return header + "\n" + format_table(result.rows())
