"""Experiment E7 — recovery under periodic mid-run fault injection.

Where the fault-injection experiment (:mod:`repro.experiments
.fault_injection`) perturbs the *initial* configuration only, this preset
exercises the full strength of Theorem 2: an event-bearing scenario
(:mod:`repro.scenarios`) fires deterministic perturbations — duplicate
ranks, agent crashes, adversarial re-scrambles, population churn — every
``period_factor · n²`` interactions of a live run, and the study records
per-event *recovery times*: the number of interactions until the
population is back in a clean legal configuration after each injection.

Rows carry the segment accounting produced by the engines' segmented
runs: ``events_fired`` / ``events_recovered`` / ``mean_recovery_
interactions`` extras plus ``converged_initial`` and ``event<k>_recovered``
milestones.  Every engine whose capability probe supports events runs
these cells, and array-engine cells are bit-identical to the reference
for the same seed despite the mid-run events.

Run it with ``python -m repro run fault_storm`` (``--scenario`` switches
the event family, e.g. ``--scenario churn``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.errors import ExperimentError
from ..scenarios import EVENTS, get_scenario
from .ascii_plot import format_table
from .study import ExperimentSpec, ResultSet

__all__ = [
    "FaultStormResult",
    "STORM_FAULTS",
    "fault_storm_specs",
    "fault_storm_result_from_rows",
    "format_fault_storm",
]

#: Default event kinds injected by the ``fault_storm`` preset (one study
#: variant each).
STORM_FAULTS = ("duplicate_rank", "crash_reset", "scramble")


@dataclass
class FaultStormResult:
    """Per-variant recovery statistics under periodic fault injection."""

    n_values: Sequence[int]
    repetitions: int
    scenario: str = "fault_storm"
    # cells[(variant, n)] = list of per-run (fired, recovered, mean_recovery).
    cells: Dict[tuple, List[Tuple[int, int, float]]] = field(
        default_factory=dict
    )

    def rows(self) -> List[dict]:
        rows = []
        for (variant, n), samples in sorted(
            self.cells.items(), key=lambda kv: (kv[0][1], kv[0][0])
        ):
            fired = sum(sample[0] for sample in samples)
            recovered = sum(sample[1] for sample in samples)
            # Pool per-event: each run's mean is weighted by how many
            # events it recovered, so this column and recovered_fraction
            # aggregate over the same per-event population.
            mean_recovery = (
                sum(sample[1] * sample[2] for sample in samples) / recovered
                if recovered else 0.0
            )
            rows.append(
                {
                    "variant": variant,
                    "n": n,
                    "events_fired": fired,
                    "recovered_fraction": (
                        recovered / fired if fired else 0.0
                    ),
                    "mean_recovery_over_n2": mean_recovery / (n * n),
                    "runs": len(samples),
                }
            )
        return rows


def fault_storm_specs(
    n_values: Sequence[int] = (32, 64),
    repetitions: int = 3,
    scenario: str = "fault_storm",
    faults: Sequence[str] = STORM_FAULTS,
    events: int = 3,
    period_factor: float = 80.0,
    max_interactions_factor: float | None = None,
    l_max: int | None = None,
    engine: str = "auto",
    random_state: int = 0,
) -> Tuple[ExperimentSpec, ...]:
    """The fault-storm study: event-bearing scenarios over ``StableRanking``.

    With the default ``fault_storm`` scenario the study is one variant per
    event kind in ``faults``; other event-bearing scenarios (e.g.
    ``churn``) yield a single variant parameterized by ``events`` and
    ``period_factor``.  The default interaction budget leaves one extra
    period after the last event for the final recovery.
    """
    scn = get_scenario(scenario)
    if scn.is_static:
        raise ExperimentError(
            f"scenario {scenario!r} fires no events; use "
            "`python -m repro run fault_injection` for one-shot faults"
        )
    events = int(events)
    if max_interactions_factor is None:
        max_interactions_factor = float(period_factor) * (events + 2)
    params = {} if l_max is None else {"l_max": l_max}
    if scenario == "fault_storm":
        for fault in faults:
            if fault not in EVENTS:
                raise ExperimentError(f"unknown event kind {fault!r}")
        variants = [
            (
                f"storm_{fault}",
                {
                    "fault": fault,
                    "events": events,
                    "period_factor": float(period_factor),
                },
            )
            for fault in faults
        ]
    else:
        variants = [
            (
                scenario,
                {"events": events, "period_factor": float(period_factor)},
            )
        ]
    return tuple(
        ExperimentSpec(
            variant=variant,
            protocol="stable-ranking",
            n_values=tuple(n_values),
            seeds=repetitions,
            engine=engine,
            scenario=scenario,
            scenario_params=scenario_params,
            protocol_params=params,
            max_interactions_factor=float(max_interactions_factor),
            random_state=random_state,
        )
        for variant, scenario_params in variants
    )


def fault_storm_result_from_rows(result: ResultSet) -> FaultStormResult:
    """Aggregate a fault-storm result set into per-variant recovery stats."""
    if not result.specs:
        return FaultStormResult(n_values=(), repetitions=0)
    first = result.specs[0]
    out = FaultStormResult(
        n_values=tuple(first.n_values),
        repetitions=first.seeds,
        scenario=first.scenario or "fault_storm",
    )
    for spec in result.specs:
        for n in spec.n_values:
            rows = result.filter(variant=spec.variant, n=n).rows
            out.cells[(spec.variant, n)] = [
                (
                    int(row.extras.get("events_fired", 0.0)),
                    int(row.extras.get("events_recovered", 0.0)),
                    float(row.extras.get("mean_recovery_interactions", 0.0)),
                )
                for row in rows
            ]
    return out


def format_fault_storm(result: FaultStormResult) -> str:
    """Render the fault-storm study as a text table."""
    header = (
        f"Fault-storm recovery — StableRanking under the "
        f"{result.scenario!r} scenario ({result.repetitions} runs per "
        f"cell).  Each event should be recovered from within "
        f"O(n² log n) interactions."
    )
    return header + "\n" + format_table(result.rows())
