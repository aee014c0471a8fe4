"""Experiment E6 — recovery from injected transient faults.

Theorem 2 promises stabilization from *any* configuration.  This experiment
makes that concrete for three fault models applied to an otherwise healthy
system running ``StableRanking``:

* ``duplicate_rank`` — some agents' ranks are overwritten with other agents'
  ranks (the canonical transient memory fault);
* ``missing_rank`` — one agent loses its rank entirely and rejoins as a
  phase agent (a crash-recover fault; with the missing rank being 1 this is
  exactly the Figure 2 workload);
* ``adversarial`` — every agent's state is replaced by a uniformly random
  state from the protocol's state space.

For each fault the experiment measures the number of interactions until the
population is back in a clean legal configuration.

The experiment is a preset over the declarative study API — one spec per
fault model (:func:`fault_injection_specs`, ``python -m repro run
fault_injection``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..analysis.statistics import summarize
from ..core.errors import ExperimentError
from .ascii_plot import format_table
from .study import ExperimentSpec, ResultSet

__all__ = [
    "FaultInjectionResult",
    "fault_injection_specs",
    "fault_injection_result_from_rows",
    "format_fault_injection",
]

FAULT_MODELS = ("duplicate_rank", "missing_rank", "adversarial")


@dataclass
class FaultInjectionResult:
    """Recovery times per fault model and population size."""

    n_values: Sequence[int]
    repetitions: int
    # recovery[(fault, n)] = list of interaction counts until recovery.
    recovery: Dict[tuple, List[int]] = field(default_factory=dict)
    convergence: Dict[tuple, float] = field(default_factory=dict)

    def rows(self) -> List[dict]:
        rows = []
        for (fault, n), samples in sorted(
            self.recovery.items(), key=lambda kv: (kv[0][1], kv[0][0])
        ):
            # A cell can legitimately be empty (a filtered result set, a
            # store loaded mid-matrix): report it as 0 runs / 0.0
            # recovered instead of failing on the empty summary.
            if samples:
                summary = summarize(samples)
                mean = summary.mean
                runs = summary.count
            else:
                mean = 0.0
                runs = 0
            rows.append(
                {
                    "fault": fault,
                    "n": n,
                    "mean_recovery_interactions": mean,
                    "mean_over_n2": mean / (n * n),
                    "recovered_fraction": self.convergence.get((fault, n), 0.0),
                    "runs": runs,
                }
            )
        return rows


def fault_injection_specs(
    n_values: Sequence[int] = (32, 64),
    repetitions: int = 5,
    faults: Sequence[str] = FAULT_MODELS,
    max_interactions_factor: int = 400,
    l_max: int | None = None,
    engine: str = "auto",
    random_state: int = 0,
) -> Tuple[ExperimentSpec, ...]:
    """The fault-injection study as one spec per fault model.

    Every fault model is a workload over the same protocol family, so the
    study is simply three variants of ``StableRanking`` with different
    initial-configuration builders.
    """
    for fault in faults:
        if fault not in FAULT_MODELS:
            raise ExperimentError(f"unknown fault model {fault!r}")
    params = {} if l_max is None else {"l_max": l_max}
    return tuple(
        ExperimentSpec(
            variant=fault,
            protocol="stable-ranking",
            n_values=tuple(n_values),
            seeds=repetitions,
            engine=engine,
            workload=fault,
            protocol_params=params,
            max_interactions_factor=float(max_interactions_factor),
            random_state=random_state,
        )
        for fault in faults
    )


def fault_injection_result_from_rows(result: ResultSet) -> FaultInjectionResult:
    """Convert a study result set into the legacy :class:`FaultInjectionResult`.

    Cells without rows (an empty or partially filtered result set, a
    store loaded mid-matrix) are kept with an explicit empty sample and a
    ``recovered_fraction`` of 0.0 rather than raising.
    """
    if not result.specs:
        return FaultInjectionResult(n_values=(), repetitions=0)
    first = result.specs[0]
    out = FaultInjectionResult(
        n_values=tuple(first.n_values), repetitions=first.seeds
    )
    for spec in result.specs:
        for n in spec.n_values:
            rows = result.filter(variant=spec.variant, n=n).rows
            key = (spec.variant, n)
            out.recovery[key] = [row.interactions for row in rows]
            out.convergence[key] = (
                sum(row.converged for row in rows) / len(rows) if rows else 0.0
            )
    return out


def format_fault_injection(result: FaultInjectionResult) -> str:
    """Render the fault-injection study as a text table."""
    header = (
        f"Fault-injection recovery — StableRanking ({result.repetitions} runs per cell).  "
        f"Every fault model should recover within O(n² log n) interactions."
    )
    return header + "\n" + format_table(result.rows())
