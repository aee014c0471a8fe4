"""Declarative study API: one spec, a run matrix, one result schema.

The paper's evaluation is statistical — convergence and milestone times
over many independent seeded runs, across population sizes, protocols and
engines — so the experiment layer treats ``variants × n × seeds`` as a
first-class object instead of a hand-rolled loop per figure:

* an :class:`ExperimentSpec` *names* everything a run needs — a protocol
  factory and its parameters, a workload (initial-configuration family
  from :mod:`repro.experiments.workloads`), an engine, milestones, metric
  series, extractors — as plain JSON-serializable data;
* a :class:`Study` expands one or more specs into a cell matrix, executes
  the missing cells (serially or with multiprocess fan-out, see
  :mod:`repro.experiments.parallel`), persists each finished cell through
  a :class:`~repro.experiments.store.ResultStore`, and returns a
  :class:`ResultSet` of unified :class:`RunRow` rows.

Because specs are data and every cell's seed is derived deterministically
from the spec identity and the cell coordinates (no Python ``hash()``,
which is process-salted), a study is *reproducible across processes*:
``--jobs 8`` produces bit-identical rows to a serial run, and re-running a
finished study loads every cell from the store without simulating
anything.  The paper's presets are spec builders over this API
(``figure2_specs``, ``figure3_specs``, …), and ``python -m repro run
<preset>`` runs the same specs from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import math

import numpy as np

from ..analysis.statistics import RunSummary, summarize
from ..baselines.burman_ranking import BurmanStyleRanking
from ..baselines.cai_ranking import CaiRanking
from ..baselines.token_counter_ranking import TokenCounterRanking
from ..core import backends as _backends
from ..core.array_engine import EngineCache
from ..core.errors import ExperimentError
from ..core.metrics import MetricsCollector, standard_ranking_probes
from ..core.rng import cell_seed_sequences
from ..core.table_store import ENV_VAR as _TABLE_CACHE_ENV
from ..core.table_store import resolve_store_dir
from ..protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from ..protocols.ranking.aggregate_space_efficient import (
    AggregateSpaceEfficientRanking,
)
from ..protocols.ranking.space_efficient import SpaceEfficientRanking
from ..protocols.ranking.stable_ranking import StableRanking
from ..scenarios import bind_schedule, get_scenario
from ..topologies import build_topology as _build_topology
from ..topologies import get_topology as _get_topology
from .store import ResultStore
from . import workloads as _workloads

__all__ = [
    "ExperimentSpec",
    "execute_batch",
    "plan_units",
    "ResultSet",
    "RunRow",
    "Study",
    "PROTOCOLS",
    "WORKLOADS",
    "EXTRACTORS",
    "paper_l_max",
]

#: Scale of the maximum liveness counter used by the Figure 2 workload
#: (``L_max = scale · log₂ n``); see :mod:`repro.experiments.figure2`.
PAPER_COUNTER_SCALE = 6.0


def paper_l_max(n: int) -> int:
    """The Figure 2 liveness-counter bound ``⌈6 · log₂ n⌉`` (min 8)."""
    return max(8, int(math.ceil(PAPER_COUNTER_SCALE * math.log2(n))))


# ----------------------------------------------------------------------
# Registries: specs name factories instead of holding callables, so a
# spec pickles/serializes cleanly and a worker process can rebuild the
# exact experiment from the spec dict alone.
# ----------------------------------------------------------------------

#: Protocol factories by name; each takes ``(n, **protocol_params)``.
PROTOCOLS: Dict[str, Callable] = {
    "stable-ranking": StableRanking,
    "stable-ranking-figure2": lambda n, **params: StableRanking(
        n, l_max=params.pop("l_max", None) or paper_l_max(n), **params
    ),
    "space-efficient-ranking": SpaceEfficientRanking,
    "burman-style-ranking": BurmanStyleRanking,
    "cai-ranking": CaiRanking,
    "token-counter-ranking": TokenCounterRanking,
    "one-way-epidemic": OneWayEpidemicProtocol,
}

#: Workload (initial configuration) builders by name; each takes
#: ``(protocol, rng, **workload_params)`` and returns a Configuration or
#: ``None`` for the protocol's designated initial configuration.
WORKLOADS: Dict[str, Callable] = {
    "fresh": lambda protocol, rng, **params: None,
    "figure2": lambda protocol, rng, **params: (
        _workloads.figure2_initial_configuration(protocol)
    ),
    "figure3": lambda protocol, rng, **params: (
        _workloads.figure3_initial_configuration(protocol)
    ),
    "duplicate_rank": lambda protocol, rng, **params: (
        _workloads.duplicate_rank_configuration(
            protocol.n, duplicates=params.get("duplicates", 1), random_state=rng
        )
    ),
    "missing_rank": lambda protocol, rng, **params: (
        _workloads.missing_rank_configuration(
            protocol,
            missing_rank=params.get("missing_rank")
            or int(rng.integers(1, protocol.n + 1)),
        )
    ),
    "adversarial": lambda protocol, rng, **params: (
        _workloads.adversarial_configuration(protocol, random_state=rng)
    ),
}

#: Per-run extractors by name: ``(result, simulator) -> {column: value}``.
EXTRACTORS: Dict[str, Callable] = {
    "ranked_agents": lambda result, simulator: {
        "ranked_agents": float(result.configuration.ranked_count())
    },
    "duplicate_ranks": lambda result, simulator: {
        "duplicate_ranks": float(len(result.configuration.duplicate_ranks()))
    },
    "overhead_states": lambda result, simulator: {
        "overhead_states": float(simulator.protocol.overhead_states())
        if hasattr(simulator.protocol, "overhead_states")
        else -1.0
    },
}



#: Trajectory-relevant revisions of workload builders.  Bump a workload's
#: entry (starting at 2; absent means the original draw pattern) whenever
#: its generator consumption changes: the revision joins the spec
#: identity, so same-seed cells produced by different builder versions
#: can never share a store directory.  ``duplicate_rank`` moved from
#: order-dependent choice+integers draws to a disjoint victim/donor
#: permutation (exact fault counts) in v1.3.
_WORKLOAD_REVISIONS: Dict[str, int] = {
    "duplicate_rank": 2,
}


#: Per-process memo of spec matrices whose explicit-engine capability
#: validation already ran (keyed by identity seed + matrix n_values), so
#: worker-side ``from_dict`` calls pay the resolution pass once per spec
#: rather than once per cell.
_VALIDATED_MATRICES: set = set()


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """One variant of a study, as plain declarative data.

    A spec expands to ``len(n_values) × seeds`` independent cells.  All
    fields are JSON-serializable; factories are referenced by name through
    :data:`PROTOCOLS`, :data:`WORKLOADS` and :data:`EXTRACTORS` so a
    worker process can reconstruct the experiment from the dict alone.

    Parameters
    ----------
    variant:
        Label distinguishing this spec's rows inside the study (protocol
        name, fault model, …).
    protocol:
        Key into :data:`PROTOCOLS`.  Required for every spec: backend
        capability probes run against the constructed protocol instance
        (the aggregate engine accepts only ``space-efficient-ranking``
        and substitutes its own count-level simulation at run time).
    n_values, seeds:
        The matrix extent: population sizes × independent seeded runs.
        Deliberately excluded from the spec's identity hash so a study
        can be extended in place (see ``identity_dict``).
    engine:
        A backend name from :mod:`repro.core.backends` (``"reference"``,
        ``"array"``, ``"aggregate"``, ``"group"``) or ``"auto"`` (the
        default), which resolves each cell to the fastest backend whose
        :meth:`~repro.core.backends.Backend.capabilities` probe accepts
        it.  Rows record the *resolved* backend name.
    exactness:
        Optional exactness-class pin (``"trajectory"`` or
        ``"distribution"``).  ``None`` (the default) accepts any class.
        Pinning ``"distribution"`` lets ``engine="auto"`` route the
        cell to the count-level engines even where an agent engine holds
        the higher throughput hint — the declared intent is "this cell
        measures a distribution, not a trajectory", which is what makes
        million-agent sweeps tractable.  Rows record the resolved
        capability's exactness class.
    workload:
        Key into :data:`WORKLOADS` — the initial-configuration family.
        When ``scenario`` is set this is the scenario's *initial
        condition*: leaving it at the default ``"fresh"`` adopts the
        scenario's declared workload, any other value overrides it
        (composition: e.g. a fault storm on the Figure 2 start).
    scenario:
        Optional name from the scenario registry
        (:mod:`repro.scenarios`).  A *static* scenario normalizes to its
        ``workload=`` alias (same identity hash, same store, same
        trajectory); an event-bearing scenario fires its deterministic
        perturbation schedule mid-run through the engines' segmented
        runs.  ``None`` (the default) keeps the plain workload path and
        the exact legacy spec identity.
    scenario_params:
        Keyword arguments for the scenario's schedule builder (event
        kind, count, period, …).
    protocol_params, workload_params:
        Keyword arguments for the two factories.
    max_interactions_factor:
        Interaction budget per run in units of ``n²``.
    stop_on_convergence:
        Whether a run stops at the protocol's convergence predicate.
    milestone_fractions:
        Ranked fractions whose first-hit interaction counts are recorded
        per run (the Figure 3 measurement).  When non-empty, agent-level
        runs stop after the last milestone instead of at convergence.
        The count-level engines run on to their goal (the aggregate
        engine to full ranking), so there a row's ``interactions`` is the
        completion time of the same trajectory.
    samples:
        When positive, record the standard ranking probes as time series
        with ``samples`` snapshots across the budget (the Figure 2
        measurement).
    extractors:
        Names from :data:`EXTRACTORS` applied to each finished run.
    random_state:
        Root seed; every cell derives its generator deterministically
        from this, the spec identity and the cell coordinates.
    topology:
        Optional name from the topology registry
        (:mod:`repro.topologies`) restricting which agent pairs the
        scheduler may deliver.  ``"complete"`` (with no parameters)
        normalizes to ``None`` — the paper's uniform scheduler and the
        exact legacy spec identity.  A restricted topology joins the
        identity hash, is built deterministically per ``n`` (all seeds of
        a cell share one graph), and restricts backend resolution to
        agent-level engines (the count engines answer complete-only).
    topology_params:
        Keyword arguments for the topology family (e.g. ``degree`` for
        ``random_regular``, ``base``/``delay`` for ``delayed``).
    """

    variant: str
    protocol: str = "stable-ranking"
    n_values: Tuple[int, ...] = (64,)
    seeds: int = 1
    engine: str = "auto"
    exactness: Optional[str] = None
    workload: str = "fresh"
    scenario: Optional[str] = None
    scenario_params: Mapping[str, object] = field(default_factory=dict)
    protocol_params: Mapping[str, object] = field(default_factory=dict)
    workload_params: Mapping[str, object] = field(default_factory=dict)
    max_interactions_factor: float = 400.0
    stop_on_convergence: bool = True
    milestone_fractions: Tuple[float, ...] = ()
    samples: int = 0
    extractors: Tuple[str, ...] = ()
    random_state: int = 0
    topology: Optional[str] = None
    topology_params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(
            self,
            "milestone_fractions",
            tuple(sorted(float(f) for f in self.milestone_fractions)),
        )
        object.__setattr__(self, "extractors", tuple(self.extractors))
        object.__setattr__(self, "protocol_params", dict(self.protocol_params))
        object.__setattr__(self, "workload_params", dict(self.workload_params))
        object.__setattr__(self, "scenario_params", dict(self.scenario_params))
        object.__setattr__(self, "topology_params", dict(self.topology_params))
        self._normalize_topology()
        if self.scenario is not None:
            self._normalize_scenario()
        if self.engine not in _backends.engine_choices():
            raise ExperimentError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{_backends.engine_choices()}"
            )
        if self.exactness not in (None, "trajectory", "distribution"):
            raise ExperimentError(
                f"unknown exactness {self.exactness!r}; expected "
                "'trajectory', 'distribution' or None"
            )
        if self.protocol not in PROTOCOLS:
            raise ExperimentError(f"unknown protocol {self.protocol!r}")
        if self.workload not in WORKLOADS:
            raise ExperimentError(f"unknown workload {self.workload!r}")
        for name in self.extractors:
            if name not in EXTRACTORS:
                raise ExperimentError(f"unknown extractor {name!r}")
        if self.seeds < 1:
            raise ExperimentError("seeds must be positive")
        if not self.n_values:
            raise ExperimentError("n_values must not be empty")
        if self.max_interactions_factor <= 0:
            raise ExperimentError("max_interactions_factor must be positive")
        # Engine-specific constraints live with the backends now: an
        # *explicit* engine must be capable of every cell of the matrix
        # (raises ExperimentError with the backend's reason otherwise).
        # ``engine="auto"`` needs no validation pass — the reference
        # backend supports every agent-level cell, so auto resolution
        # cannot fail — unless an exactness class is pinned, which can
        # leave no capable backend and must fail at spec construction,
        # not mid-study.  The pass is memoized per process: worker-side
        # ``from_dict`` round-trips happen once per *cell*, and rebuilding
        # the whole protocol matrix each time would dominate small cells.
        if self.engine != _backends.AUTO_ENGINE or self.exactness is not None:
            memo_key = (self.identity_seed(), self.n_values)
            if memo_key not in _VALIDATED_MATRICES:
                for n in self.n_values:
                    self.resolve_backend(n)
                _VALIDATED_MATRICES.add(memo_key)

    def _normalize_topology(self) -> None:
        """Resolve the topology name and fold the complete graph onto ``None``.

        ``topology="complete"`` with no parameters *is* the paper's
        uniform scheduler, so it normalizes to the unset field — the
        spec's identity hash (and therefore its store directory and every
        cell trajectory) is shared between the two spellings, exactly
        like static scenarios folding onto their workload alias.  A
        restricted topology is validated for every ``n`` of the matrix by
        building it (construction is cached per process, so this warms
        the graphs the cells will sample).
        """
        if self.topology is None:
            if self.topology_params:
                raise ExperimentError(
                    "topology_params given without a topology family"
                )
            return
        _get_topology(self.topology)
        if self.topology == "complete":
            if self.topology_params:
                raise ExperimentError(
                    "topology 'complete' takes no parameters; "
                    f"got {sorted(self.topology_params)}"
                )
            object.__setattr__(self, "topology", None)
            return
        for n in self.n_values:
            _build_topology(self.topology, n, self.topology_params)

    def _normalize_scenario(self) -> None:
        """Resolve the scenario name and fold static scenarios onto workloads.

        A static scenario is *identical* to its ``workload=`` alias, so it
        is normalized onto it — the spec's identity hash (and therefore
        its store directory and every cell trajectory) is shared between
        the two spellings, and pre-scenario stores keep resolving.  An
        event-bearing scenario keeps its ``scenario`` field, adopts the
        scenario's initial condition unless the spec overrides it, and
        has its schedule validated for every ``n`` of the matrix.
        """
        scenario = get_scenario(self.scenario)
        if self.workload == "fresh":
            object.__setattr__(self, "workload", scenario.workload)
        if scenario.is_static:
            if self.scenario_params:
                raise ExperimentError(
                    f"static scenario {scenario.name!r} accepts no "
                    f"scenario_params; use workload_params instead"
                )
            object.__setattr__(self, "scenario", None)
            return
        if self.milestone_fractions:
            raise ExperimentError(
                "event-bearing scenarios do not support milestone "
                "fractions; per-event recovery times are recorded instead"
            )
        for n in self.n_values:
            scenario.schedule(n, **self.scenario_params)

    def as_dict(self) -> dict:
        """The full spec as JSON-ready data (matrix extent included).

        The ``scenario`` keys appear only for event-bearing scenarios,
        ``exactness`` only when pinned, and the ``topology`` keys only
        for restricted topologies, so legacy specs serialize — and
        hash — exactly as they did before those fields existed.
        """
        payload = {
            "variant": self.variant,
            "protocol": self.protocol,
            "n_values": list(self.n_values),
            "seeds": self.seeds,
            "engine": self.engine,
            "workload": self.workload,
            "protocol_params": dict(self.protocol_params),
            "workload_params": dict(self.workload_params),
            "max_interactions_factor": self.max_interactions_factor,
            "stop_on_convergence": self.stop_on_convergence,
            "milestone_fractions": list(self.milestone_fractions),
            "samples": self.samples,
            "extractors": list(self.extractors),
            "random_state": self.random_state,
        }
        if self.scenario is not None:
            payload["scenario"] = self.scenario
            payload["scenario_params"] = dict(self.scenario_params)
        if self.exactness is not None:
            payload["exactness"] = self.exactness
        if self.topology is not None:
            payload["topology"] = self.topology
            payload["topology_params"] = dict(self.topology_params)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`as_dict` output."""
        return cls(**payload)

    def identity_dict(self) -> dict:
        """The fields that determine a cell's trajectory.

        Excludes the matrix extent (``n_values``, ``seeds``): a cell's
        result depends only on its own coordinates, so extending the
        matrix must not re-key the study's store.  Includes the workload
        builder's revision when one is recorded in
        :data:`_WORKLOAD_REVISIONS`: a builder whose rng draw pattern
        changed produces different trajectories from the same seeds, and
        the store contract ("changing anything trajectory-relevant
        re-keys the directory") must hold for builder fixes too —
        otherwise resuming a pre-fix store would silently mix rows from
        two different seeded configurations under one identity.
        """
        payload = self.as_dict()
        del payload["n_values"]
        del payload["seeds"]
        revision = _WORKLOAD_REVISIONS.get(self.workload)
        if revision is not None:
            payload["workload_revision"] = revision
        return payload

    def identity_seed(self) -> int:
        """A process-stable 63-bit integer derived from the identity."""
        canonical = json.dumps(self.identity_dict(), sort_keys=True)
        digest = hashlib.sha256(canonical.encode()).digest()
        return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF

    # ------------------------------------------------------------------
    # Backend negotiation
    # ------------------------------------------------------------------
    def build_protocol(self, n: int):
        """Construct the protocol instance for one population size."""
        return PROTOCOLS[self.protocol](n, **self.protocol_params)

    def build_topology(self, n: int):
        """The cell topology for one population size, or ``None``.

        Deterministic in the spec and ``n`` (and cached per process), so
        every seed, worker and resume samples the same graph.
        """
        if self.topology is None:
            return None
        return _build_topology(self.topology, n, self.topology_params)

    def build_schedule(self, n: int):
        """The scenario's event schedule for one population size.

        Empty for workload-only specs (static scenarios normalize to
        those); a pure function of the spec and ``n``, so serial and
        parallel runs — and the backend resolution below — agree on it.
        """
        if self.scenario is None:
            return ()
        return get_scenario(self.scenario).schedule(n, **self.scenario_params)

    def has_events(self, n: int) -> bool:
        """Whether this spec's cells at ``n`` fire mid-run events."""
        return bool(self.build_schedule(n))

    def resolve(self, n: int):
        """The ``(backend, capability)`` pair serving this spec's ``n`` cells.

        A concrete ``engine`` resolves to that backend (raising
        :class:`~repro.core.errors.ExperimentError` when it cannot run the
        cell); ``engine="auto"`` negotiates the fastest capable backend
        through each backend's
        :meth:`~repro.core.backends.Backend.capabilities` probe.  The
        resolution is a pure function of the spec and ``n``, so parallel
        workers resolve identically to a serial run.  Extractor-bearing
        specs read the final agent-level configuration, so they are
        restricted to agent backends.
        """
        return _backends.resolve_backend(
            self.build_protocol(n),
            self.workload,
            n,
            engine=self.engine,
            series=self.samples > 0,
            events=self.has_events(n),
            stop_on_convergence=self.stop_on_convergence,
            kinds=("agent",) if self.extractors else None,
            exactness=self.exactness,
            topology=self.topology,
        )

    def resolve_backend(self, n: int) -> str:
        """Name of the concrete backend serving this spec's ``n`` cells."""
        return self.resolve(n)[0].name


# ----------------------------------------------------------------------
# Rows and result sets
# ----------------------------------------------------------------------
@dataclass
class RunRow:
    """One completed cell of a study, in the unified result schema."""

    study: str
    variant: str
    protocol: str
    engine: str
    n: int
    seed_index: int
    converged: bool
    interactions: int
    resets: int
    #: Exactness class of the backend that served the cell
    #: (``"trajectory"`` or ``"distribution"``; empty in legacy rows).
    exactness: str = ""
    #: Interaction-topology family the cell ran on (``"complete"`` for
    #: the paper's uniform scheduler; legacy rows load as complete).
    topology: str = "complete"
    extras: Dict[str, float] = field(default_factory=dict)
    #: milestone name → first interaction count at which it held.
    milestones: Dict[str, int] = field(default_factory=dict)
    #: series name → {"interactions": [...], "values": [...]}.
    series: Dict[str, Dict[str, list]] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, int, int]:
        """The cell key ``(variant, n, seed_index)``."""
        return (self.variant, self.n, self.seed_index)

    @property
    def normalized_interactions(self) -> float:
        """Interactions divided by ``n²``."""
        return self.interactions / float(self.n * self.n)

    def as_dict(self) -> dict:
        """JSON-ready representation (used for persistence)."""
        return {
            "study": self.study,
            "variant": self.variant,
            "protocol": self.protocol,
            "engine": self.engine,
            "n": self.n,
            "seed_index": self.seed_index,
            "converged": self.converged,
            "interactions": self.interactions,
            "resets": self.resets,
            "exactness": self.exactness,
            "topology": self.topology,
            "extras": dict(self.extras),
            "milestones": dict(self.milestones),
            "series": self.series,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunRow":
        """Rebuild a row from :meth:`as_dict` output."""
        return cls(
            study=payload["study"],
            variant=payload["variant"],
            protocol=payload["protocol"],
            engine=payload["engine"],
            n=int(payload["n"]),
            seed_index=int(payload["seed_index"]),
            converged=bool(payload["converged"]),
            interactions=int(payload["interactions"]),
            resets=int(payload["resets"]),
            exactness=str(payload.get("exactness", "")),
            topology=str(payload.get("topology", "complete")),
            extras=dict(payload.get("extras", {})),
            milestones={
                name: int(value)
                for name, value in payload.get("milestones", {}).items()
            },
            series=payload.get("series", {}),
        )

    def flat_dict(self) -> dict:
        """One flat mapping per row for CSV export (series omitted)."""
        row = {
            "study": self.study,
            "variant": self.variant,
            "protocol": self.protocol,
            "engine": self.engine,
            "n": self.n,
            "seed_index": self.seed_index,
            "converged": self.converged,
            "interactions": self.interactions,
            "normalized_interactions": self.normalized_interactions,
            "resets": self.resets,
            "exactness": self.exactness,
            "topology": self.topology,
        }
        row.update(self.extras)
        row.update(self.milestones)
        return row


class ResultSet:
    """All rows of a study plus provenance, behind one query surface."""

    def __init__(self, rows: Sequence[RunRow], specs: Sequence[ExperimentSpec],
                 name: str = "study"):
        self._rows = list(rows)
        self._specs = list(specs)
        self._name = name

    @property
    def name(self) -> str:
        """The study name the rows belong to."""
        return self._name

    @property
    def rows(self) -> List[RunRow]:
        """The unified rows, in deterministic (variant, n, seed) order."""
        return self._rows

    @property
    def specs(self) -> List[ExperimentSpec]:
        """The specs that produced the rows."""
        return self._specs

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def filter(self, **equals) -> "ResultSet":
        """Rows whose attributes equal the given values (e.g. ``n=128``)."""
        rows = [
            row
            for row in self._rows
            if all(getattr(row, key) == value for key, value in equals.items())
        ]
        return ResultSet(rows, self._specs, self._name)

    def group(self, *fields: str) -> Dict[tuple, List[RunRow]]:
        """Rows grouped by the given row attributes, insertion-ordered."""
        groups: Dict[tuple, List[RunRow]] = {}
        for row in self._rows:
            key = tuple(getattr(row, name) for name in fields)
            groups.setdefault(key, []).append(row)
        return groups

    def summary(
        self,
        value: Callable[[RunRow], float],
        by: Sequence[str] = ("variant", "n"),
    ) -> Dict[tuple, RunSummary]:
        """Summaries of ``value(row)`` per group (default: variant × n)."""
        return {
            key: summarize([value(row) for row in rows])
            for key, rows in self.group(*by).items()
        }

    def convergence_rate(self) -> float:
        """Fraction of rows that converged."""
        if not self._rows:
            return 0.0
        return sum(row.converged for row in self._rows) / len(self._rows)

    def flat_rows(self) -> List[dict]:
        """All rows as flat dictionaries (for CSV export)."""
        return [row.flat_dict() for row in self._rows]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self, path) -> None:
        """Write the rows + specs as one JSON document."""
        from .recording import write_json

        write_json(
            path,
            {
                "study": self._name,
                "specs": [spec.as_dict() for spec in self._specs],
                "rows": [row.as_dict() for row in self._rows],
            },
        )

    @classmethod
    def from_json(cls, path) -> "ResultSet":
        """Load a result set written by :meth:`to_json`."""
        payload = json.loads(Path(path).read_text())
        return cls(
            rows=[RunRow.from_dict(row) for row in payload["rows"]],
            specs=[ExperimentSpec.from_dict(spec) for spec in payload["specs"]],
            name=payload.get("study", "study"),
        )

    def to_csv(self, path) -> None:
        """Write the flat rows as CSV (series are JSON-only)."""
        from .recording import write_csv

        write_csv(path, self.flat_rows())


# ----------------------------------------------------------------------
# Cell execution (module-level and spec-dict driven: picklable, so the
# multiprocess fan-out ships (spec, n, seed_index) tuples to workers)
# ----------------------------------------------------------------------

#: Per-process engine caches, keyed by (spec identity, n, table-store
#: directory): repeated cells of one variant in one worker share the
#: transition tabulation.
_ENGINE_CACHES: Dict[tuple, EngineCache] = {}


def _shared_cache(spec, n: int) -> EngineCache:
    """The per-process shared cache for one (variant, n) — persistent when
    a table store is configured (``REPRO_TABLE_CACHE``), plain otherwise.

    The store directory is resolved on every call and is part of the
    cache key, because a cache stays bound to the directory it was
    created with.  ``Study.run`` exports the study's table directory
    around the fan-out, so the in-process path, spawned pool workers
    (which import this module fresh) and forked ones (which inherit the
    parent's caches) all spill into the current study's store, never
    into one an earlier study in the same process used.
    """
    store_dir = resolve_store_dir()
    cache_key = (spec.identity_seed(), n, store_dir)
    cache = _ENGINE_CACHES.get(cache_key)
    if cache is None:
        cache = _ENGINE_CACHES[cache_key] = EngineCache(persist_dir=store_dir)
    return cache


def _cell_rng_sequences(spec: ExperimentSpec, n: int, seed_index: int):
    """Three independent seed sequences (workload, run, events) per cell.

    The derivation lives in :func:`repro.core.rng.cell_seed_sequences` —
    deterministic, process-stable, and a function of the cell's own
    coordinates only, which is what makes ``--jobs N`` runs and resumed
    studies bit-identical to serial runs.  Spawn children are determined
    by their index, so the workload and run streams are unchanged from
    the pre-scenario layout and legacy cells keep their exact
    trajectories; the third (event) sequence is consumed only by
    event-bearing scenarios.
    """
    return cell_seed_sequences(spec.identity_seed(), n, seed_index, 3)


def execute_cell(spec_payload: Mapping, n: int, seed_index: int) -> dict:
    """Run one (variant, n, seed) cell and return its row dictionary.

    The cell's engine request (concrete name or ``"auto"``) is resolved
    through the backend registry; the returned row records the *resolved*
    backend in its ``engine`` field, so a store always shows which engine
    actually served each cell.
    """
    spec = ExperimentSpec.from_dict(dict(spec_payload))
    workload_seq, run_seq, events_seq = _cell_rng_sequences(spec, n, seed_index)
    protocol = spec.build_protocol(n)
    backend, capability = _backends.resolve_backend(
        protocol,
        spec.workload,
        n,
        engine=spec.engine,
        series=spec.samples > 0,
        events=spec.has_events(n),
        stop_on_convergence=spec.stop_on_convergence,
        kinds=("agent",) if spec.extractors else None,
        exactness=spec.exactness,
        topology=spec.topology,
    )
    if backend.kind == "aggregate":
        return _execute_aggregate(spec, n, seed_index, run_seq, backend,
                                  capability)
    if backend.kind == "count":
        return _execute_group(
            spec, protocol, n, seed_index, workload_seq, run_seq, backend,
            capability,
        )
    return _execute_agent_level(
        spec, protocol, n, seed_index, workload_seq, run_seq, events_seq,
        backend, capability,
    )


def _execute_aggregate(spec, n, seed_index, run_seq, backend,
                       capability) -> dict:
    simulator = AggregateSpaceEfficientRanking(
        n,
        random_state=np.random.default_rng(run_seq),
        **spec.protocol_params,
    )
    milestones = simulator.milestone_predicates(spec.milestone_fractions)
    outcome = simulator.run(
        max_interactions=int(spec.max_interactions_factor * n * n),
        milestones=milestones,
    )
    row = RunRow(
        study="",
        variant=spec.variant,
        protocol="space-efficient-ranking",
        engine=backend.name,
        n=n,
        seed_index=seed_index,
        converged=outcome.converged,
        interactions=outcome.interactions,
        resets=0,
        exactness=capability.exactness,
        milestones={
            name: int(value) for name, value in outcome.milestones.items()
        },
    )
    return row.as_dict()


#: Per-process shared group-transition tabulations, keyed by
#: (spec identity, n): every seed of one variant replays the same
#: reachable state space, so the lazily tabulated productive-transition
#: model is shared exactly like the array engine's ``EngineCache``.
_GROUP_MODELS: Dict[tuple, "object"] = {}

#: Tabulated-state counts already written to the table store per model
#: key, so repeated cells rewrite the group snapshot only when the model
#: actually grew.
_GROUP_PERSISTED: Dict[tuple, int] = {}


def _group_store_entry(protocol):
    """The table-store entry for ``protocol``, or ``None`` when no store
    is configured (or the store is unusable — never fatal)."""
    store_dir = resolve_store_dir()
    if store_dir is None:
        return None
    try:
        from ..core.table_store import TableStore

        return TableStore(store_dir).entry_for(protocol)
    except Exception as exc:
        warnings.warn(
            f"table store unavailable for group models ({exc}); "
            "continuing without persistence",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def _restore_group_model(protocol, model_key):
    """Rebuild a persisted :class:`GroupTransitionModel`, or ``None``.

    Snapshot replay reconstructs the successor lists in their original
    insertion order, so restored models sample bit-identically to the
    models that wrote them; any failure (corrupt snapshot, states that no
    longer intern to their own codes after a protocol change the identity
    hash missed) falls back to cold derivation with a warning.
    """
    entry = _group_store_entry(protocol)
    if entry is None:
        return None
    snapshot = entry.load_group_model()
    if snapshot is None:
        return None
    from ..core.group_engine import GroupTransitionModel

    try:
        model = GroupTransitionModel.from_snapshot(protocol, *snapshot)
    except Exception as exc:
        warnings.warn(
            f"persisted group model for {protocol.name} did not replay "
            f"({exc}); rebuilding cold",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    _GROUP_PERSISTED[model_key] = model.tabulated_states
    return model


def _persist_group_model(protocol, model_key, model) -> None:
    """Write the model's snapshot if it grew past what the store holds."""
    tabulated = model.tabulated_states
    if tabulated <= _GROUP_PERSISTED.get(model_key, 0):
        return
    entry = _group_store_entry(protocol)
    if entry is None:
        return
    try:
        entry.write_group_model(*model.snapshot())
    except Exception as exc:
        warnings.warn(
            f"could not persist group model for {protocol.name} ({exc})",
            RuntimeWarning,
            stacklevel=2,
        )
        return
    _GROUP_PERSISTED[model_key] = tabulated


def _execute_group(
    spec, protocol, n, seed_index, workload_seq, run_seq, backend, capability
) -> dict:
    """Run one cell on the group-count engine (exact lumped count process).

    The initial counts come from the protocol's
    :meth:`~repro.core.protocol.PopulationProtocol.count_profile` when the
    workload is the designated fresh start (no ``n`` state objects are
    ever materialized — the point at ``n = 10^6``); any other workload
    builds its agent-level configuration once and collapses it to counts.
    Milestones are ranked-fraction thresholds over the goal's measure,
    recorded at the exact interaction count of the crossing event.
    """
    from ..core.group_engine import GroupCountSimulator

    model_key = (spec.identity_seed(), n)
    model = _GROUP_MODELS.get(model_key)
    if model is None:
        model = _restore_group_model(protocol, model_key)
        if model is not None:
            _GROUP_MODELS[model_key] = model

    state_counts = None
    configuration = None
    if spec.workload == "fresh" and not spec.workload_params:
        state_counts = protocol.count_profile()
    if state_counts is None:
        configuration = WORKLOADS[spec.workload](
            protocol, np.random.default_rng(workload_seq),
            **spec.workload_params,
        )
        if configuration is None:
            configuration = protocol.initial_configuration()

    simulator = GroupCountSimulator(
        protocol,
        configuration=configuration,
        state_counts=state_counts,
        model=model,
        random_state=np.random.default_rng(run_seq),
    )
    if model is None:
        _GROUP_MODELS[model_key] = simulator.model

    budget = int(spec.max_interactions_factor * n * n)
    milestones: Optional[Dict[str, int]] = None
    if spec.milestone_fractions:
        target = simulator.goal.target()
        milestones = {
            f"ranked_{fraction}": int(math.ceil(fraction * target))
            for fraction in spec.milestone_fractions
        }
    outcome = simulator.run(max_interactions=budget, milestones=milestones)
    _persist_group_model(protocol, model_key, simulator.model)
    if spec.milestone_fractions:
        # Match the agent-level milestone contract: the row converges
        # when every requested fraction was reached within budget.
        converged = len(outcome.milestones) == len(spec.milestone_fractions)
    else:
        converged = outcome.converged
    row = RunRow(
        study="",
        variant=spec.variant,
        protocol=protocol.name,
        engine=backend.name,
        n=n,
        seed_index=seed_index,
        converged=converged,
        interactions=outcome.interactions,
        resets=0,
        exactness=capability.exactness,
        extras={
            "events": float(outcome.events),
            "distinct_states": float(outcome.distinct_states),
        },
        milestones={
            name: int(value) for name, value in outcome.milestones.items()
        },
    )
    return row.as_dict()


def execute_batch(
    spec_payload: Mapping, n: int, seed_indices: Sequence[int]
) -> List[dict]:
    """Run a legacy ``("batch", …)`` unit: one :func:`execute_cell` per seed.

    :func:`plan_units` emits single cells, but queues persisted by earlier
    releases can hold seed-group jobs; they drain to exactly the rows the
    per-cell jobs would write.
    """
    return [execute_cell(spec_payload, n, int(index)) for index in seed_indices]


def _execute_agent_level(
    spec, protocol, n, seed_index, workload_seq, run_seq, events_seq, backend,
    capability,
) -> dict:
    configuration = WORKLOADS[spec.workload](
        protocol, np.random.default_rng(workload_seq), **spec.workload_params
    )
    budget = int(spec.max_interactions_factor * n * n)
    metrics = None
    if spec.samples > 0:
        interval = max(1, budget // spec.samples)
        metrics = MetricsCollector(standard_ranking_probes(), interval=interval)

    rng = np.random.default_rng(run_seq)
    cache = None
    if backend.uses_cache:
        cache = _shared_cache(spec, n)
    # The convergence cadence is pinned to the reference simulator's
    # default (every ``n`` interactions) for every backend: recorded
    # stopping times are a measured quantity, so they must not depend on
    # which engine a cell resolved to.  Tabulating backends are
    # bit-identical to the reference per interaction, so with the cadence
    # matched their *rows* are identical too.
    create_kwargs = {}
    cell_topology = spec.build_topology(n)
    if cell_topology is not None:
        create_kwargs["topology"] = cell_topology
    simulator = backend.create(
        protocol,
        configuration=configuration,
        random_state=rng,
        metrics=metrics,
        cache=cache,
        convergence_interval=n,
        **create_kwargs,
    )

    milestones: Dict[str, int] = {}
    extras: Dict[str, float] = {}
    schedule = spec.build_schedule(n)
    if schedule:
        bound = bind_schedule(schedule, protocol, events_seq)
        result = simulator.run_segmented(
            bound,
            max_interactions=budget,
            stop_on_convergence=spec.stop_on_convergence,
        )
        row_converged = result.converged
        interactions = result.interactions
        resets = result.resets
        # Per-segment accounting: the initial ramp-up convergence and
        # each event's recovery become milestones; aggregate recovery
        # statistics become extras (floats, so they survive CSV export).
        initial = result.events[0]
        if initial["recovered_at"] is not None:
            milestones["converged_initial"] = int(initial["recovered_at"])
        recoveries = []
        fired = result.events[1:]
        for index, entry in enumerate(fired, start=1):
            if entry["recovered_at"] is not None:
                milestones[f"event{index}_recovered"] = int(
                    entry["recovered_at"]
                )
                recoveries.append(entry["recovered_at"] - entry["at"])
        extras["events_fired"] = float(len(fired))
        extras["events_recovered"] = float(len(recoveries))
        if recoveries:
            extras["mean_recovery_interactions"] = float(np.mean(recoveries))
    elif spec.milestone_fractions:
        converged = True
        result = None
        for fraction in spec.milestone_fractions:
            threshold = fraction * n
            result = simulator.run_until(
                lambda config, threshold=threshold: (
                    config.ranked_count() >= threshold
                ),
                max_interactions=max(0, budget - simulator.interactions),
            )
            if not result.converged:
                converged = False
                break
            milestones[f"ranked_{fraction}"] = simulator.interactions
        row_converged = converged
        interactions = simulator.interactions
        resets = result.resets if result is not None else 0
    else:
        result = simulator.run(
            max_interactions=budget,
            stop_on_convergence=spec.stop_on_convergence,
        )
        row_converged = result.converged
        interactions = result.interactions
        resets = result.resets

    if cache is not None:
        cache.spill()

    for name in spec.extractors:
        extras.update(EXTRACTORS[name](result, simulator))

    series: Dict[str, Dict[str, list]] = {}
    if metrics is not None:
        for name, recorded in metrics.series.items():
            series[name] = {
                "interactions": list(recorded.interactions),
                "values": list(recorded.values),
            }

    row = RunRow(
        study="",
        variant=spec.variant,
        protocol=protocol.name,
        engine=backend.name,
        n=n,
        seed_index=seed_index,
        converged=row_converged,
        interactions=interactions,
        resets=resets,
        exactness=capability.exactness,
        topology=spec.topology or "complete",
        extras=extras,
        milestones=milestones,
        series=series,
    )
    return row.as_dict()


# ----------------------------------------------------------------------
# Work planning
# ----------------------------------------------------------------------
def plan_units(
    specs: Sequence[ExperimentSpec],
    known_keys,
) -> List[tuple]:
    """The pending work units for a spec matrix, minus the known cells.

    This is the single planner behind both execution modes: ``Study.run``
    feeds the units to the in-process fan-out
    (:func:`repro.experiments.parallel.run_units`), the serving layer
    wraps each unit as one queue job
    (:class:`repro.serving.JobQueue`).  Every unit is one
    ``("cell", spec_payload, n, seed_index)`` cell, in spec, ``n``, seed
    order.  The plan is a pure function of the specs and the known-cell
    set, so every submitter and every resumed run agree on it.
    """
    known = set(known_keys)
    return [
        ("cell", spec.as_dict(), n, seed_index)
        for spec in specs
        for n in spec.n_values
        for seed_index in range(spec.seeds)
        if (spec.variant, n, seed_index) not in known
    ]


# ----------------------------------------------------------------------
# Study
# ----------------------------------------------------------------------
class Study:
    """A named set of specs, expanded into a resumable run matrix.

    Parameters
    ----------
    specs:
        One spec or a sequence of specs (one per variant).
    name:
        Study name; used for the store directory and row provenance.
    store:
        ``None`` (in-memory only), a path (a
        :class:`~repro.experiments.store.ResultStore` is created under
        it), or a ready store.
    jobs:
        Worker processes for the cell fan-out; ``1`` runs serially in
        this process.  Parallel execution is bit-identical to serial —
        every cell derives its randomness from its own coordinates.
    """

    def __init__(
        self,
        specs: Union[ExperimentSpec, Sequence[ExperimentSpec]],
        name: str = "study",
        store: Union[None, str, "ResultStore"] = None,
        jobs: int = 1,
    ):
        if isinstance(specs, ExperimentSpec):
            specs = [specs]
        if not specs:
            raise ExperimentError("a study needs at least one spec")
        names = [spec.variant for spec in specs]
        if len(set(names)) != len(names):
            raise ExperimentError(f"duplicate variant labels: {names}")
        if jobs < 1:
            raise ExperimentError("jobs must be positive")
        self._specs: List[ExperimentSpec] = list(specs)
        self._name = name
        self._jobs = jobs
        if store is None or isinstance(store, ResultStore):
            self._store = store
        else:
            self._store = ResultStore(store, name, self.content_hash())

    @property
    def specs(self) -> List[ExperimentSpec]:
        """The study's specs, one per variant."""
        return self._specs

    @property
    def name(self) -> str:
        """The study name."""
        return self._name

    @property
    def store(self) -> Optional[ResultStore]:
        """The attached result store (``None`` when in-memory only)."""
        return self._store

    def content_hash(self) -> str:
        """12-hex-digit hash over the specs' identity dictionaries."""
        canonical = json.dumps(
            [spec.identity_dict() for spec in self._specs], sort_keys=True
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def cells(self) -> List[Tuple[ExperimentSpec, int, int]]:
        """The expanded run matrix in deterministic order."""
        matrix = []
        for spec in self._specs:
            for n in spec.n_values:
                for seed_index in range(spec.seeds):
                    matrix.append((spec, n, seed_index))
        return matrix

    def run(
        self,
        progress: Optional[Callable[[dict, int, int], None]] = None,
    ) -> ResultSet:
        """Execute the missing cells and return the full result set.

        Cells already present in the store are loaded, not re-simulated.
        ``progress`` (if given) is called as ``progress(row, done, total)``
        after every cell, loaded or computed.
        """
        from .parallel import run_units

        matrix = self.cells()
        known: Dict[tuple, dict] = {}
        if self._store is not None:
            self._store.write_spec(
                {
                    "study": self._name,
                    "hash": self.content_hash(),
                    "specs": [spec.as_dict() for spec in self._specs],
                }
            )
            known = dict(self._store.load())

        total = len(matrix)
        done = 0
        for spec, n, seed_index in matrix:
            row = known.get((spec.variant, n, seed_index))
            if row is not None:
                done += 1
                if progress is not None:
                    progress(row, done, total)

        pending = plan_units(self._specs, known.keys())

        def on_row(row: dict) -> None:
            nonlocal done
            done += 1
            if self._store is not None:
                self._store.append(row)
            if progress is not None:
                progress(row, done, total)

        # Fan out with the study's own table directory as the table store
        # (unless the caller already pinned one): pool workers, forked or
        # spawned, inherit the environment, so every process — and every
        # later run over the same store — shares one persistent tabulation.
        exported = (
            _TABLE_CACHE_ENV not in os.environ and self._store is not None
        )
        if exported:
            os.environ[_TABLE_CACHE_ENV] = str(
                self._store.directory / "tables"
            )
        try:
            computed = run_units(pending, jobs=self._jobs, callback=on_row)
        finally:
            if exported:
                del os.environ[_TABLE_CACHE_ENV]
        for row in computed:
            known[(row["variant"], int(row["n"]), int(row["seed_index"]))] = row

        rows: List[RunRow] = []
        for spec, n, seed_index in matrix:
            payload = known[(spec.variant, n, seed_index)]
            row = RunRow.from_dict(payload)
            row.study = self._name
            rows.append(row)
        result = ResultSet(rows, self._specs, self._name)
        if self._store is not None:
            result.to_csv(self._store.directory / "rows.csv")
            # Fold any serving-worker shards into the canonical file: a
            # finished study converges back to one rows.jsonl whichever
            # mix of processes produced its cells.
            self._store.compact()
        return result
