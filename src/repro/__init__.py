"""repro — Silent Self-Stabilizing Ranking for population protocols.

A from-scratch Python reproduction of

    Berenbrink, Elsässer, Götte, Hintze, Kaaser:
    "Silent Self-Stabilizing Ranking: Time Optimal and Space Efficient",
    ICDCS 2025 (arXiv:2504.10417).

The public API re-exports the most commonly used pieces:

* the simulation core (:class:`Simulator`, :class:`Configuration`, …),
* the paper's protocols (:class:`SpaceEfficientRanking`,
  :class:`StableRanking`) and their substrates,
* the baselines and the experiment layer for the paper's figures: the
  declarative study API (:class:`ExperimentSpec`, :class:`Study`,
  :class:`ResultSet`) behind the ``python -m repro`` command line.

See ``README.md`` for a quickstart, ``docs/experiments.md`` for the study
API and the CLI cookbook that maps each paper figure to one command, and
``docs/engines.md`` for the simulation engines.
"""

from .core import (
    AgentState,
    ArraySimulator,
    Configuration,
    EngineCache,
    MetricsCollector,
    PopulationProtocol,
    RankingProtocol,
    Role,
    SimulationResult,
    Simulator,
    StateCodec,
    TransitionResult,
    classify_role,
    make_rng,
    make_simulator,
    standard_ranking_probes,
)
from .protocols.leader_election import (
    FastLeaderElection,
    FastLeaderElectionProtocol,
    GSLeaderElection,
    GSLeaderElectionProtocol,
)
from .protocols.ranking import (
    AggregateSpaceEfficientRanking,
    PhaseSchedule,
    RankingPlus,
    RankingRules,
    SpaceEfficientRanking,
    StableRanking,
)
from .protocols.reset import PropagateReset, PropagateResetProtocol
from .scenarios import (
    Scenario,
    ScheduledEvent,
    get_scenario,
    register_scenario,
    scenario_names,
)
from .experiments.store import ResultStore
from .experiments.study import ExperimentSpec, ResultSet, RunRow, Study

__version__ = "1.9.0"

__all__ = [
    "AgentState",
    "AggregateSpaceEfficientRanking",
    "ArraySimulator",
    "Configuration",
    "EngineCache",
    "ExperimentSpec",
    "FastLeaderElection",
    "FastLeaderElectionProtocol",
    "GSLeaderElection",
    "GSLeaderElectionProtocol",
    "MetricsCollector",
    "PhaseSchedule",
    "PopulationProtocol",
    "PropagateReset",
    "PropagateResetProtocol",
    "RankingPlus",
    "RankingProtocol",
    "RankingRules",
    "ResultSet",
    "ResultStore",
    "Role",
    "RunRow",
    "Scenario",
    "ScheduledEvent",
    "SimulationResult",
    "Simulator",
    "SpaceEfficientRanking",
    "StableRanking",
    "StateCodec",
    "Study",
    "TransitionResult",
    "classify_role",
    "get_scenario",
    "make_rng",
    "make_simulator",
    "register_scenario",
    "scenario_names",
    "standard_ranking_probes",
    "__version__",
]
