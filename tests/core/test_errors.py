"""Unit tests for the exception hierarchy and the shared budget check."""

import numpy as np
import pytest

from repro.core.array_engine import ArraySimulator
from repro.core.errors import (
    AnalysisError,
    ConfigurationError,
    ExperimentError,
    ProtocolError,
    ReproError,
    SimulationLimitExceeded,
)
from repro.core.group_engine import GroupCountSimulator
from repro.core.simulation import Simulator
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking import AggregateSpaceEfficientRanking, StableRanking


@pytest.mark.parametrize(
    "exception_type",
    [ConfigurationError, ProtocolError, SimulationLimitExceeded, AnalysisError, ExperimentError],
)
def test_all_errors_derive_from_repro_error(exception_type):
    assert issubclass(exception_type, ReproError)


def test_simulation_limit_carries_result():
    error = SimulationLimitExceeded("budget exhausted", result={"interactions": 10})
    assert error.result == {"interactions": 10}
    assert "budget" in str(error)


def test_catching_base_class_catches_all():
    with pytest.raises(ReproError):
        raise ProtocolError("bad n")


def _group_epidemic(random_state):
    protocol = OneWayEpidemicProtocol(64)
    return GroupCountSimulator(
        protocol, state_counts=protocol.count_profile(), random_state=random_state
    )


ENGINES = {
    "reference": lambda: Simulator(StableRanking(8), random_state=1),
    "array": lambda: ArraySimulator(StableRanking(8), random_state=1),
    "aggregate": lambda: AggregateSpaceEfficientRanking(64, random_state=1),
    "group": lambda: _group_epidemic(random_state=1),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_every_engine_checks_its_budget_the_same_way(engine):
    simulator = ENGINES[engine]()
    runs = [simulator.run]
    if hasattr(simulator, "run_until"):
        runs.append(lambda budget: simulator.run_until(lambda c: False, budget))
        runs.append(lambda budget: simulator.run_segmented((), budget))
    for run in runs:
        for budget in (10.5, 10.0):
            with pytest.raises(TypeError):
                run(budget)
        with pytest.raises(ValueError, match="non-negative"):
            run(-1)
    assert simulator.interactions == 0
    result = simulator.run(np.int64(10))
    assert 0 < result.interactions <= 10
    assert type(result.interactions) is int

