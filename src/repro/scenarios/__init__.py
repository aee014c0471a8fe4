"""First-class scenarios: composable workloads with mid-run event schedules.

A :class:`~repro.scenarios.scenario.Scenario` couples an initial
condition (a workload family) with a deterministic
:class:`~repro.scenarios.events.ScheduledEvent` schedule — rank
corruption, duplicate/missing-rank injection, crash-and-reset,
adversarial re-scramble, population churn — fired at specified
interaction counts.  Scenarios live in a registry mirroring the engine
backends (:func:`get_scenario` / :func:`register_scenario`), the
experiment layer's ``workload=`` strings are back-compat aliases for the
static scenarios, and every engine whose capability probe supports
event-bearing cells runs them bit-identically to the reference
simulator.  See ``docs/scenarios.md`` for the model and the
determinism contract.
"""

from .events import (
    EVENTS,
    BoundEvent,
    ScheduledEvent,
    bind_schedule,
    register_event,
)
from .scenario import (
    ChurnScenario,
    FaultStormScenario,
    Scenario,
    StaticScenario,
    get_scenario,
    register_scenario,
    scenario_names,
)

__all__ = [
    "EVENTS",
    "BoundEvent",
    "ChurnScenario",
    "FaultStormScenario",
    "Scenario",
    "ScheduledEvent",
    "StaticScenario",
    "bind_schedule",
    "get_scenario",
    "register_event",
    "register_scenario",
    "scenario_names",
]
