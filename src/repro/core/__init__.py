"""Core population-protocol simulation model.

This subpackage contains everything that is *not* specific to the paper's
ranking protocols: agent states, configurations, the protocol abstraction,
the uniform random scheduler, the reference simulator, metric collection and
the exact event-driven simulation base class.
"""

from .aggregate import AggregateResult, EventDrivenSimulator
from .array_engine import ArraySimulator, EngineCache, make_simulator
from .backends import (
    Backend,
    BackendCapability,
    backend_names,
    capability_matrix,
    engine_choices,
    get_backend,
    register_backend,
    resolve_backend,
)
from .codec import StateCodec
from .group_engine import (
    CountGoal,
    GroupCountSimulator,
    GroupRunResult,
    GroupTransitionModel,
    RankingCountGoal,
)
from .configuration import Configuration
from .errors import (
    AnalysisError,
    CodecError,
    ConfigurationError,
    ExperimentError,
    ProtocolError,
    RandomnessConsumed,
    ReproError,
    SimulationLimitExceeded,
    StateSpaceTooLarge,
)
from .events import TraceEvent, TraceLog
from .metrics import MetricsCollector, TimeSeries, standard_ranking_probes
from .protocol import PopulationProtocol, RankingProtocol, TransitionResult
from .rng import make_rng, spawn_rngs, spawn_seeds
from .scheduler import UniformPairScheduler
from .simulation import SimulationResult, Simulator
from .soa import ChunkOutcome, ColumnStore, VectorizedKernel, occurrence_index
from .state import AgentState, Role, classify_role

__all__ = [
    "AgentState",
    "AggregateResult",
    "AnalysisError",
    "ArraySimulator",
    "Backend",
    "BackendCapability",
    "ChunkOutcome",
    "CodecError",
    "ColumnStore",
    "Configuration",
    "ConfigurationError",
    "CountGoal",
    "EngineCache",
    "EventDrivenSimulator",
    "ExperimentError",
    "GroupCountSimulator",
    "GroupRunResult",
    "GroupTransitionModel",
    "MetricsCollector",
    "PopulationProtocol",
    "ProtocolError",
    "RandomnessConsumed",
    "RankingCountGoal",
    "RankingProtocol",
    "ReproError",
    "Role",
    "SimulationLimitExceeded",
    "SimulationResult",
    "Simulator",
    "StateCodec",
    "StateSpaceTooLarge",
    "TimeSeries",
    "TraceEvent",
    "TraceLog",
    "TransitionResult",
    "UniformPairScheduler",
    "VectorizedKernel",
    "backend_names",
    "capability_matrix",
    "classify_role",
    "engine_choices",
    "get_backend",
    "occurrence_index",
    "register_backend",
    "resolve_backend",
    "make_rng",
    "make_simulator",
    "spawn_rngs",
    "spawn_seeds",
    "standard_ranking_probes",
]
