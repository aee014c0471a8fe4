"""Experiment E5 — comparing ``StableRanking`` against the baselines.

The paper positions its protocol in a state/time trade-off against two
existing self-stabilizing approaches:

* Cai et al. [21]: exactly ``n`` states, but ``O(n³)`` interactions;
* Burman et al. [20] (silent variant): ``O(n² log n)`` interactions, but
  ``n + Θ(n)`` states.

This experiment measures stabilization times of the corresponding
implementations (plus ``StableRanking`` itself) from the same initial
conditions — either the designated fresh start or an adversarially corrupted
ranking — and pairs them with each protocol's overhead-state count, giving
the full comparison in one table.

The experiment is a preset over the declarative study API — one spec per
protocol family (:func:`comparison_specs`, ``python -m repro run
comparison``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.statistics import summarize
from ..baselines.burman_ranking import BurmanStyleRanking
from ..baselines.cai_ranking import CaiRanking
from ..core.errors import ExperimentError
from ..protocols.ranking.stable_ranking import StableRanking
from .ascii_plot import format_table
from .study import ExperimentSpec, ResultSet

__all__ = [
    "ComparisonResult",
    "comparison_specs",
    "comparison_result_from_rows",
    "format_comparison",
]

#: Protocol factories by name; every factory takes the population size.
PROTOCOL_FAMILIES: Dict[str, Callable[[int], object]] = {
    "stable-ranking": StableRanking,
    "burman-style-ranking": BurmanStyleRanking,
    "cai-ranking": CaiRanking,
}


@dataclass
class ComparisonResult:
    """Stabilization times and state counts per protocol and population size."""

    n_values: Sequence[int]
    repetitions: int
    workload: str
    # times[(protocol, n)] = list of interaction counts.
    times: Dict[tuple, List[int]] = field(default_factory=dict)
    # overhead[(protocol, n)] = overhead-state count per the protocol's accounting.
    overhead: Dict[tuple, int] = field(default_factory=dict)
    convergence: Dict[tuple, float] = field(default_factory=dict)

    def rows(self) -> List[dict]:
        rows = []
        for (protocol, n), samples in sorted(self.times.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            summary = summarize(samples)
            rows.append(
                {
                    "protocol": protocol,
                    "n": n,
                    "mean_interactions": summary.mean,
                    "mean_over_n2": summary.mean / (n * n),
                    "overhead_states": self.overhead[(protocol, n)],
                    "converged_fraction": self.convergence[(protocol, n)],
                    "runs": summary.count,
                }
            )
        return rows


def comparison_specs(
    n_values: Sequence[int] = (16, 32, 64),
    repetitions: int = 5,
    workload: str = "fresh",
    protocols: Optional[Sequence[str]] = None,
    max_interactions_factor: int = 400,
    engine: str = "auto",
    random_state: int = 0,
) -> Tuple[ExperimentSpec, ...]:
    """The baseline comparison as one spec per protocol family.

    ``workload="fresh"`` starts every protocol from its designated initial
    configuration; ``"corrupted"`` starts from a valid ranking with one
    duplicated rank (a transient fault), which is meaningful only for the
    self-stabilizing protocols and exercises their recovery path.
    ``max_interactions_factor`` is the per-run budget in units of ``n²``
    — the Cai baseline needs ``Θ(n³)`` interactions, so the factor must
    comfortably exceed the largest population size used.
    """
    if workload not in ("fresh", "corrupted"):
        raise ExperimentError(f"unknown workload {workload!r}")
    names = list(protocols) if protocols is not None else list(PROTOCOL_FAMILIES)
    for name in names:
        if name not in PROTOCOL_FAMILIES:
            raise ExperimentError(f"unknown protocol {name!r}")
    spec_workload = "fresh" if workload == "fresh" else "duplicate_rank"
    return tuple(
        ExperimentSpec(
            variant=name,
            protocol=name,
            n_values=tuple(n_values),
            seeds=repetitions,
            engine=engine,
            workload=spec_workload,
            max_interactions_factor=float(max_interactions_factor),
            random_state=random_state,
        )
        for name in names
    )


def comparison_result_from_rows(
    result: ResultSet, workload: str = "fresh"
) -> ComparisonResult:
    """Convert a study result set into the legacy :class:`ComparisonResult`."""
    first = result.specs[0]
    out = ComparisonResult(
        n_values=tuple(first.n_values),
        repetitions=first.seeds,
        workload=workload,
    )
    for spec in result.specs:
        factory = PROTOCOL_FAMILIES[spec.protocol]
        for n in spec.n_values:
            rows = result.filter(variant=spec.variant, n=n).rows
            key = (spec.variant, n)
            out.times[key] = [row.interactions for row in rows]
            out.convergence[key] = (
                sum(row.converged for row in rows) / len(rows) if rows else 0.0
            )
            protocol = factory(n)
            out.overhead[key] = (
                protocol.overhead_states()
                if hasattr(protocol, "overhead_states")
                else -1
            )
    return out


def format_comparison(result: ComparisonResult) -> str:
    """Render the comparison as a text table."""
    header = (
        f"Baseline comparison ({result.workload} start, {result.repetitions} runs per cell).  "
        f"StableRanking should match the Burman-style baseline's time with "
        f"exponentially fewer overhead states, and beat the Cai baseline's time "
        f"by a growing factor."
    )
    return header + "\n" + format_table(result.rows())
