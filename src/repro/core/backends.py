"""Engine backends: a registry with per-cell capability negotiation.

Engine selection used to be a string set hardcoded in the experiment layer
(``_ENGINES`` in ``study.py``) plus ad-hoc branches in the CLI and the
drivers — every rule about what an engine can run ("aggregate only
simulates space-efficient-ranking", "the array engine falls back to the
object path when transitions draw randomness") lived far away from the
engine it described.  This module makes the engines first-class:

* a :class:`Backend` names one engine and answers a
  :meth:`~Backend.capabilities` probe — given a protocol instance, a
  workload name and a population size, it reports whether it can run the
  cell (and why not), its exactness class and a relative throughput hint;
* a registry maps engine names to backends
  (:func:`register_backend` / :func:`get_backend` / :func:`backend_names`);
* :func:`resolve_backend` turns a requested engine — a concrete name or
  the :data:`AUTO_ENGINE` sentinel ``"auto"`` — into the backend that will
  serve a cell, picking the fastest capable backend under ``"auto"``.

Resolution is a pure function of ``(protocol, workload, n, requirements)``,
so it is deterministic across processes: a parallel study resolves every
cell exactly like a serial one, and the resolved backend name is recorded
per row.

Exactness classes
-----------------
``"trajectory"``
    Bit-identical to the reference simulator for the same seed (the
    reference itself, and the array engine on every path).
``"distribution"``
    Exact in distribution but simulated in a different representation
    (the aggregate and group-count engines evolve state counts, not
    agents).

The reference and array backends are registered here; the aggregate and
group-count backends' *capability logic* also lives here (it needs
nothing but the protocol's declarations), while their execution stays
with the experiment layer — they simulate counts, not agents, and
therefore have ``kind`` ``"aggregate"``/``"count"`` rather than the
agent-level ``create`` contract.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .errors import ExperimentError
from .protocol import PopulationProtocol

__all__ = [
    "AUTO_ENGINE",
    "Backend",
    "BackendCapability",
    "ReferenceBackend",
    "ArrayBackend",
    "AggregateBackend",
    "GroupCountBackend",
    "register_backend",
    "get_backend",
    "backend_names",
    "engine_choices",
    "resolve_backend",
    "capability_matrix",
]

#: Engine name that asks the registry to pick the fastest capable backend.
AUTO_ENGINE = "auto"


@dataclass(frozen=True)
class BackendCapability:
    """One backend's answer to "can you run this cell, and how well?".

    Attributes
    ----------
    supported:
        Whether the backend can run the cell at all.
    exactness:
        ``"trajectory"`` (bit-identical to the reference for the same
        seed) or ``"distribution"`` (exact in distribution); empty when
        unsupported.
    throughput_hint:
        Expected throughput relative to the reference simulator (1.0);
        the ``auto`` resolver maximizes this among supported backends.
    reason:
        Why the cell is unsupported, or a note on how it will run (e.g.
        the array engine's object fallback).
    """

    supported: bool
    exactness: str = ""
    throughput_hint: float = 0.0
    reason: str = ""


class Backend(abc.ABC):
    """One simulation engine, as seen by the experiment layer."""

    #: Registry name (the ``engine=`` string).
    name: str = "backend"
    #: ``"agent"`` backends implement :meth:`create`; ``"aggregate"``
    #: backends simulate counts and are driven by the experiment layer.
    kind: str = "agent"
    #: Whether :meth:`create` accepts a shared ``EngineCache``.
    uses_cache: bool = False

    @abc.abstractmethod
    def capabilities(
        self,
        protocol: PopulationProtocol,
        workload: str,
        n: int,
        *,
        series: bool = False,
        events: bool = False,
        topology: Optional[str] = None,
    ) -> BackendCapability:
        """Probe whether (and how well) this backend can run one cell.

        ``protocol`` is a constructed protocol instance (so declarations
        like :meth:`~repro.core.protocol.PopulationProtocol
        .consumes_randomness` are available), ``workload`` the
        initial-configuration family name, ``series`` whether the cell
        records metric time series, ``events`` whether the cell's
        scenario fires mid-run perturbation events.  ``topology`` is
        the restricted interaction-topology family name (``None`` for the
        paper's complete graph); count-level backends answer
        complete-only.
        """

    def create(self, protocol: PopulationProtocol, *, cache=None, **kwargs):
        """Build a simulator for an agent-level cell (``kind == "agent"``).

        ``kwargs`` are the shared simulator arguments (``configuration``,
        ``random_state``, ``metrics``, ``convergence_interval``); ``cache``
        is an :class:`~repro.core.array_engine.EngineCache` honoured only
        by backends with ``uses_cache``.
        """
        raise NotImplementedError(
            f"backend {self.name!r} (kind={self.kind!r}) does not build "
            "agent-level simulators"
        )


class ReferenceBackend(Backend):
    """The agent-level ground-truth simulator: always capable, baseline speed."""

    name = "reference"

    def capabilities(self, protocol, workload, n, *, series=False,
                     events=False, topology=None):
        return BackendCapability(
            supported=True,
            exactness="trajectory",
            throughput_hint=1.0,
        )

    def create(self, protocol, *, cache=None, **kwargs):
        from .simulation import Simulator

        return Simulator(protocol, **kwargs)


class ArrayBackend(Backend):
    """The vectorized engine: bit-identical, fast when pairs tabulate.

    The throughput hint negotiates with the protocol's rng-consumption
    declaration: a protocol that declares randomness-free transitions gets
    the tabulated paths (measured ~3.5x the reference on full
    ``StableRanking`` n=128 runs), an undeclared protocol is assumed
    tabulable but scored conservatively, and a protocol that declares rng
    consumption would run on the object fallback — still exact, but no
    faster than the reference, so ``auto`` prefers the reference for it.
    """

    name = "array"
    uses_cache = True

    #: Hints by declaration: declared-deterministic, unknown, declared-rng.
    HINT_TABULATED = 12.0
    HINT_UNKNOWN = 3.0
    HINT_OBJECT_FALLBACK = 0.8

    def capabilities(self, protocol, workload, n, *, series=False,
                     events=False, topology=None):
        from .array_engine import _MAX_RANK

        declared = protocol.consumes_randomness()
        if declared is True or n >= _MAX_RANK:
            # Same conditions as ArraySimulator._select_mode: declared rng
            # consumption, or a population beyond the packed-rank capacity
            # of the table entries, lands on the object fallback — exact
            # but no faster than the reference, so `auto` must not prefer
            # it on the tabulated hint.
            reason = (
                "transition consumes randomness; state pairs cannot be "
                "tabulated, so runs take the object fallback path"
                if declared is True
                else f"n >= {_MAX_RANK} exceeds the packed-table rank "
                "capacity, so runs take the object fallback path"
            )
            return BackendCapability(
                supported=True,
                exactness="trajectory",
                throughput_hint=self.HINT_OBJECT_FALLBACK,
                reason=reason,
            )
        return BackendCapability(
            supported=True,
            exactness="trajectory",
            throughput_hint=(
                self.HINT_TABULATED if declared is False else self.HINT_UNKNOWN
            ),
        )

    def create(self, protocol, *, cache=None, **kwargs):
        from .array_engine import ArraySimulator

        return ArraySimulator(protocol, cache=cache, **kwargs)


class AggregateBackend(Backend):
    """The exact event-driven engine on group counts (paper-scale runs).

    Only simulates ``SpaceEfficientRanking`` from the Figure 3 start (the
    event decomposition is hand-derived per protocol), evolves counts
    rather than agents (exact in distribution, not per-trajectory), and
    records no metric series.  These constraints used to be special-cased
    in ``ExperimentSpec.validate``; they are this backend's capability
    answer now.
    """

    name = "aggregate"
    kind = "aggregate"

    #: Protocols with a hand-derived event decomposition.
    SUPPORTED_PROTOCOLS = ("space-efficient-ranking",)
    #: The decomposition starts from the leader-already-elected state.
    SUPPORTED_WORKLOADS = ("figure3",)

    def capabilities(self, protocol, workload, n, *, series=False,
                     events=False, topology=None):
        if topology is not None:
            return BackendCapability(
                supported=False,
                reason=(
                    "the aggregate engine's event decomposition assumes "
                    "the uniform scheduler on the complete graph; a "
                    f"restricted topology ({topology!r}) needs an "
                    "agent-level pair stream"
                ),
            )
        if events:
            return BackendCapability(
                supported=False,
                reason=(
                    "the aggregate engine evolves group counts, not "
                    "agents; agent-level mid-run events cannot be applied"
                ),
            )
        if protocol.name not in self.SUPPORTED_PROTOCOLS:
            return BackendCapability(
                supported=False,
                reason=(
                    "the aggregate engine only simulates "
                    "space-efficient-ranking (its event decomposition is "
                    "hand-derived per protocol)"
                ),
            )
        if workload not in self.SUPPORTED_WORKLOADS:
            return BackendCapability(
                supported=False,
                reason="the aggregate engine starts from the figure3 workload",
            )
        if series:
            return BackendCapability(
                supported=False,
                reason="the aggregate engine does not record metric series",
            )
        return BackendCapability(
            supported=True,
            exactness="distribution",
            throughput_hint=200.0,
        )


class GroupCountBackend(Backend):
    """The codec-derived exact engine on state counts (scaling sweeps).

    Where the aggregate engine needs a hand-derived event decomposition
    per protocol, this backend serves *every* deterministic protocol: the
    group engine tabulates productive ordered transitions through the
    protocol's own :func:`~repro.core.codec.evaluate_pair` and runs the
    exact no-op-skipping event process on a state-count vector.  The
    capability answer is negotiated from the same declarations the codec
    layer uses — :meth:`~repro.core.protocol.PopulationProtocol
    .consumes_randomness` must be a declared ``False`` (lumping the agent
    process to counts is only exact when the transition is a function of
    the two states), and the protocol must answer
    :meth:`~repro.core.protocol.PopulationProtocol.count_goal` (the
    convergence observable the engine tracks over counts).

    The throughput hint is population-aware: per-event cost is dominated
    by the count-vector width, not ``n``, so for a compact declared state
    space at large ``n`` the engine is orders of magnitude faster than
    any agent-level path — but at small ``n`` the agent engines win, and
    for protocols with large or undeclared state spaces the tabulation
    cost is real, so the hint stays below the agent engines and ``auto``
    only routes to the group engine when it is clearly the right tool.
    """

    name = "group"
    kind = "count"

    #: Declared state spaces at or below this size tabulate in one burst.
    COMPACT_STATE_SPACE = 512
    #: Population size from which count-level simulation clearly wins.
    LARGE_POPULATION = 65536
    #: Hints: clearly-winning cells vs "capable, but let agent engines win".
    HINT_COMPACT_LARGE_N = 64.0
    HINT_DEFAULT = 0.9

    def capabilities(self, protocol, workload, n, *, series=False,
                     events=False, topology=None):
        if topology is not None:
            return BackendCapability(
                supported=False,
                reason=(
                    "lumping agents to state counts is only exact under "
                    "the complete-graph uniform scheduler; a restricted "
                    f"topology ({topology!r}) makes agent adjacency "
                    "trajectory-relevant"
                ),
            )
        if events:
            return BackendCapability(
                supported=False,
                reason=(
                    "the group-count engine evolves state counts, not "
                    "agents; agent-level mid-run events cannot be applied"
                ),
            )
        if series:
            return BackendCapability(
                supported=False,
                reason="the group-count engine does not record metric series",
            )
        if protocol.consumes_randomness() is not False:
            return BackendCapability(
                supported=False,
                reason=(
                    "the count process is only exactly lumped for "
                    "deterministic transitions; the protocol does not "
                    "declare consumes_randomness() = False"
                ),
            )
        if protocol.count_goal(None) is None:
            return BackendCapability(
                supported=False,
                reason=(
                    "the protocol declares no count_goal(); convergence "
                    "cannot be observed over state counts"
                ),
            )
        size = protocol.state_space_size()
        compact = size is not None and size <= self.COMPACT_STATE_SPACE
        hint = (
            self.HINT_COMPACT_LARGE_N
            if compact and n >= self.LARGE_POPULATION
            else self.HINT_DEFAULT
        )
        return BackendCapability(
            supported=True,
            exactness="distribution",
            throughput_hint=hint,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Add a backend to the registry (insertion order is tie-break order).

    Like the experiment layer's protocol/workload registries, the registry
    is per-process module state: parallel studies run cells in *spawned*
    worker processes that re-import :mod:`repro`, so a custom backend must
    be registered at import time of a module those workers also import
    (e.g. a package ``__init__``), not ad hoc in a script — otherwise the
    workers resolve against the built-in backends only and a parallel run
    can diverge from a serial one.
    """
    if not replace and backend.name in _REGISTRY:
        raise ExperimentError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """The registered backend called ``name``."""
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ExperimentError(
            f"unknown engine {name!r}; expected one of {engine_choices()}"
        )
    return backend


def backend_names() -> Tuple[str, ...]:
    """All registered backend names, in registration order."""
    return tuple(_REGISTRY)


def engine_choices() -> Tuple[str, ...]:
    """Valid ``engine=`` values: every backend name plus ``"auto"``."""
    return backend_names() + (AUTO_ENGINE,)


def resolve_backend(
    protocol: PopulationProtocol,
    workload: str,
    n: int,
    *,
    engine: str = AUTO_ENGINE,
    series: bool = False,
    events: bool = False,
    kinds: Optional[Sequence[str]] = None,
    exactness: Optional[str] = None,
    topology: Optional[str] = None,
) -> Tuple[Backend, BackendCapability]:
    """Resolve an engine request for one cell into a capable backend.

    A concrete ``engine`` name returns that backend — raising
    :class:`~repro.core.errors.ExperimentError` with the backend's reason
    when it cannot run the cell.  ``engine="auto"`` returns the supported
    backend with the highest throughput hint (registration order breaks
    ties), restricted to the given ``kinds`` when provided.

    ``exactness`` pins the resolution to one exactness class (exact
    equality on :attr:`BackendCapability.exactness`): a concrete engine of
    a different class is rejected, and ``"auto"`` only considers backends
    of that class.  A cell that needs per-trajectory reproducibility pins
    ``"trajectory"``; a distribution-level scaling sweep pins
    ``"distribution"`` so the count engines compete on speed alone.

    ``topology`` is the restricted-topology family name (``None`` for the
    complete graph): backends that cannot inject a graph-restricted pair
    stream answer unsupported, so ``"auto"`` routes restricted cells to
    the agent-level engines.
    """
    if engine != AUTO_ENGINE:
        backend = get_backend(engine)
        if kinds is not None and backend.kind not in kinds:
            raise ExperimentError(
                f"engine {engine!r} (kind={backend.kind!r}) cannot serve "
                f"this context (expected kind in {tuple(kinds)})"
            )
        capability = backend.capabilities(
            protocol, workload, n, series=series, events=events,
            topology=topology,
        )
        if not capability.supported:
            raise ExperimentError(
                f"engine {engine!r} cannot run protocol "
                f"{protocol.name!r} with workload {workload!r}: "
                f"{capability.reason}"
            )
        if exactness is not None and capability.exactness != exactness:
            raise ExperimentError(
                f"engine {engine!r} has exactness "
                f"{capability.exactness!r} for this cell, but the spec "
                f"requires {exactness!r}"
            )
        return backend, capability

    best: Optional[Tuple[Backend, BackendCapability]] = None
    for backend in _REGISTRY.values():
        if kinds is not None and backend.kind not in kinds:
            continue
        capability = backend.capabilities(
            protocol, workload, n, series=series, events=events,
            topology=topology,
        )
        if not capability.supported:
            continue
        if exactness is not None and capability.exactness != exactness:
            continue
        if best is None or capability.throughput_hint > best[1].throughput_hint:
            best = (backend, capability)
    if best is None:
        requirement = (
            f" with exactness {exactness!r}" if exactness is not None else ""
        )
        raise ExperimentError(
            f"no registered backend supports protocol {protocol.name!r} "
            f"with workload {workload!r}{requirement}"
        )
    return best


def capability_matrix(
    protocol: PopulationProtocol,
    workload: str,
    n: int,
    *,
    series: bool = False,
    events: bool = False,
    topology: Optional[str] = None,
) -> Dict[str, BackendCapability]:
    """Every backend's capability answer for one cell (diagnostics/CLI)."""
    return {
        name: backend.capabilities(
            protocol, workload, n, series=series, events=events,
            topology=topology,
        )
        for name, backend in _REGISTRY.items()
    }


register_backend(ReferenceBackend())
register_backend(ArrayBackend())
register_backend(AggregateBackend())
register_backend(GroupCountBackend())
