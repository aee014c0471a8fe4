"""``ArraySimulator`` — vectorized agent-level simulation on encoded states.

The reference :class:`~repro.core.simulation.Simulator` executes one
interaction per Python call, which caps it at a few hundred thousand
interactions per second and makes the paper's ``Θ(n² log n)``-interaction
runs infeasible beyond ``n ≈ 256``.  This module simulates the *same*
process — the uniform random scheduler applied to the protocol's transition
function — on dense state codes (:class:`~repro.core.codec.StateCodec`),
consuming sampled pairs in chunks.

Exactness
---------
Sequential semantics are preserved exactly, not approximately.  The table
path is one ordered walk: the pairs execute one at a time, in their
original order, as scalar lookups of the current state pair in the pair
cache on the live code list — a dictionary probe and a few integer
operations per interaction, an order of magnitude less than a full
Python-object transition.  A state pair the cache does not hold yet is
tabulated the moment the walk meets it, against the codes the trajectory
has at that point, so the cache holds exactly the pairs the trajectory
met.

Determinism and same-seed equality
----------------------------------
The engine refills its pair buffer with
``UniformPairScheduler.sample_chunk(chunk_size)``, issuing exactly the same
generator calls as the reference scheduler's internal refill.  For protocols
whose transition is deterministic given the two states (both of the paper's
headline protocols qualify — synthetic coins are deterministic togglings), a
same-seed ``ArraySimulator`` run therefore visits exactly the same
configuration trajectory as the reference ``Simulator``.  The array
engine's *default* convergence-check cadence is coarser than the
reference's (see ``convergence_interval`` below), so to reproduce the
reference's exact stopping interaction, pass the same explicit
``convergence_interval`` to both engines.

The check cadence does not set the processing block size.  Fixed-budget
runs never read the predicate mid-run, and protocols that declare a
closed converged set (``PopulationProtocol.convergence_is_closed``) are
checked at block ends only, with a block that ends converged rewound and
replayed at the cadence — see :meth:`ArraySimulator.run`.

Engine modes
------------
``lazy``
    Table entries are tabulated on first use and cached, so only the state
    pairs a run actually meets are ever evaluated (``StableRanking`` has
    ``n + Θ(log² n)`` states with large constants; the one-way epidemic
    has 4).  Exact and deterministic; share an :class:`EngineCache` across
    runs of equivalent protocols to amortize the tabulation.
``object``
    The transition consumes randomness (the GS leader-election substrate
    draws random tags), so state pairs cannot be cached at all.  The engine
    degrades to an in-order object loop — semantically the reference
    simulator without its per-step bookkeeping.  Selected automatically,
    also mid-run if a lazily tabulated protocol first consumes randomness
    deep into a trajectory (the walk order makes the hand-over exact).

On top of the table mode, a protocol may provide a *struct-of-arrays
vectorized kernel* (:mod:`repro.core.soa`, enabled with
``use_soa_kernel=True``, the default): the kernel consumes exact chunk
prefixes with column operations — coin-toggle parity, counter chains —
and hands every pair it cannot prove back to the walk (or, when it
declines early in a call, the rest of the chunk).  This lifts the
write-heavy mid-run regime of ``StableRanking`` (where nearly every pair
toggles a synthetic coin) and its no-op-heavy tail from the walk's
~0.5 µs/interaction to a few hundredths, while keeping bit-exact
sequential semantics.  See ``docs/engines.md`` for the full
mode ladder.

Protocol-level *diagnostic* counters (e.g. ``RankingPlus.errors_detected``)
are perturbed by tabulation probes and, on the table path, do not reflect
the simulated trajectory; all counters in ``SimulationResult`` are exact.
"""

from __future__ import annotations

import warnings
from itertools import islice
from typing import Callable, Dict, List, Optional

import numpy as np

from .codec import RAISING_RNG, StateCodec
from .configuration import Configuration
from .errors import (
    CodecError,
    RandomnessConsumed,
    SimulationLimitExceeded,
    check_budget,
)
from .metrics import MetricsCollector
from .protocol import PopulationProtocol
from .rng import RandomState
from .scheduler import UniformPairScheduler
from .simulation import SimulationResult, Simulator, apply_pairs, segmented_run
from .soa import ColumnStore, VectorizedKernel

__all__ = ["ArraySimulator", "EngineCache", "make_simulator"]

# Bit layout of packed table entries: successor codes use 21 bits each, the
# assigned rank 17 bits, then one bit each for the changed and reset flags.
# The limits are enforced at construction time.
_CODE_BITS = 21
_RANK_BITS = 17
_MAX_CODES = 1 << _CODE_BITS
_MAX_RANK = 1 << _RANK_BITS
_CODE_MASK = _MAX_CODES - 1
_RANK_MASK = _MAX_RANK - 1
_RANK_SHIFT = 2 * _CODE_BITS
_CHANGED_SHIFT = _RANK_SHIFT + _RANK_BITS
_RESET_SHIFT = _CHANGED_SHIFT + 1
_CHANGED_BIT = 1 << _CHANGED_SHIFT
_RESET_BIT = 1 << _RESET_SHIFT
_RANK_FIELD = _RANK_MASK << _RANK_SHIFT
#: Any bit at or above the rank field: pairs without any of these are inert.
_FLAG_FIELD = _RANK_FIELD | _CHANGED_BIT | _RESET_BIT


class EngineCache:
    """Tabulation state reusable across runs of *equivalent* protocols.

    A ``StableRanking(128)`` run visits far more distinct state pairs than a
    single trajectory can amortize, so repeated runs (benchmark rounds,
    experiment sweeps) should share the tabulation.  Pass one cache instance
    to every :class:`ArraySimulator` built for protocols with identical
    parameters — the transition function must be the same function of the
    two states, which holds exactly when the protocol type and all
    constructor arguments match.  Sharing across *different*
    parameterizations silently corrupts results; nothing can check this for
    you.

    With ``persist_dir`` set, the cache also binds to the on-disk
    :mod:`~repro.core.table_store`: the first simulator construction
    merges every readable artifact under the protocol's content address
    (:meth:`load_persisted`, called from the engines' mode selection),
    and :meth:`spill` persists whatever this process newly tabulated.
    Persistence only moves tabulation work across processes — trajectories
    are bit-identical with or without it.
    """

    __slots__ = (
        "codec", "pair_cache", "mode",
        "soa_kernel", "soa_columns",
        "persist_dir", "_store_entry", "_spill_mark", "_persist_failed",
    )

    def __init__(self, persist_dir=None):
        self.codec = StateCodec()
        #: Packed outcome of every tabulated state pair, keyed by the
        #: pair's two codes; filled by the walk in trajectory order and
        #: by :meth:`load_persisted` from the table store.
        self.pair_cache: Dict[int, int] = {}
        #: Resolved engine mode, or ``None`` until the first simulator decides.
        self.mode: Optional[str] = None
        #: Shared protocol-provided SoA kernel and its column store (both
        #: keyed on this cache's codec, so sharing follows the same
        #: equal-parameterization contract as the pair cache; the store's
        #: live-population binding is refreshed per chunk by each engine).
        self.soa_kernel = None
        self.soa_columns = None
        #: Root directory of the persistent table store, or ``None`` for a
        #: purely in-memory cache (the historical behaviour).
        self.persist_dir = persist_dir
        self._store_entry = None
        #: Pair-cache length at the last load/spill: everything beyond it
        #: is "newly tabulated by this process" (dict order is insertion
        #: order, and tabulation only ever appends).
        self._spill_mark = 0
        self._persist_failed = False

    # ------------------------------------------------------------------
    # Persistent table store
    # ------------------------------------------------------------------
    def load_persisted(self, protocol: "PopulationProtocol") -> None:
        """Bind to the persistent store and merge its artifacts once.

        Called by the engines' mode selection right before the first
        codec interning, so pair spills seed the lazy tabulation.  Any
        store failure warns and permanently disables persistence for this
        cache — the run continues cold, never poisoned.
        """
        if (
            self.persist_dir is None
            or self._persist_failed
            or self._store_entry is not None
        ):
            return
        from .table_store import TableStore, record_loaded_pairs

        try:
            entry = TableStore(self.persist_dir).entry_for(protocol)
        except Exception as error:
            self._persist_failed = True
            warnings.warn(f"table store disabled: {error}")
            return
        self._store_entry = entry
        codec = self.codec
        try:
            merged: Dict[int, int] = {}
            for states, keys, vals in entry.load_pair_spills():
                # Remap the spill's private codes onto the live codec.
                mapping = np.empty(len(states), dtype=np.int64)
                for spill_code, state in enumerate(states):
                    mapping[spill_code] = codec.encode(state)
                keys = np.asarray(keys, dtype=np.int64)
                vals = np.asarray(vals, dtype=np.int64)
                new_keys = (
                    (mapping[keys >> _CODE_BITS] << _CODE_BITS)
                    | mapping[keys & _CODE_MASK]
                )
                flags = vals & ~np.int64(
                    (_CODE_MASK << _CODE_BITS) | _CODE_MASK
                )
                new_vals = (
                    mapping[vals & _CODE_MASK]
                    | (mapping[(vals >> _CODE_BITS) & _CODE_MASK]
                       << _CODE_BITS)
                    | flags
                )
                merged.update(zip(new_keys.tolist(), new_vals.tolist()))
            if codec.size > _MAX_CODES:
                raise CodecError(
                    f"persisted spills exceed the {_MAX_CODES} "
                    f"distinct-state capacity"
                )
            pair_cache = self.pair_cache
            fresh = {
                key: value
                for key, value in merged.items()
                if key not in pair_cache
            }
            if fresh:
                pair_cache.update(fresh)
                record_loaded_pairs(len(fresh))
        except Exception as error:
            self._persist_failed = True
            self._store_entry = None
            warnings.warn(
                f"table store load failed ({type(error).__name__}: "
                f"{error}); continuing cold"
            )
        self._spill_mark = len(self.pair_cache)

    def spill(self) -> int:
        """Persist what this process newly tabulated; returns pairs written.

        Call on finalize (the study layer does, after each executed
        unit).  Tabulated pairs beyond the last load/spill watermark
        become one new immutable spill artifact.  Failures warn and
        disable persistence — results are never affected.
        """
        entry = self._store_entry
        if entry is None or self._persist_failed:
            return 0
        written = 0
        try:
            count = len(self.pair_cache) - self._spill_mark
            if count > 0:
                items = list(
                    islice(self.pair_cache.items(), self._spill_mark, None)
                )
                keys = np.fromiter(
                    (key for key, _ in items), np.int64, len(items)
                )
                vals = np.fromiter(
                    (value for _, value in items), np.int64, len(items)
                )
                states = [
                    self.codec.prototype(code)
                    for code in range(self.codec.size)
                ]
                if entry.write_pair_spill(states, keys, vals):
                    written = len(items)
                self._spill_mark = len(self.pair_cache)
        except Exception as error:
            self._persist_failed = True
            warnings.warn(
                f"table store spill failed ({type(error).__name__}: "
                f"{error}); continuing without persistence"
            )
        return written


class _LazyKernel:
    """The walk's on-demand pair cache.

    Full outcomes are packed into one int64 per state pair for the walk's
    scalar dictionary probes.  A pair the cache does not hold is tabulated
    by :meth:`evaluate_packed` when the walk meets it, against the codes
    its two agents hold at that point of the trajectory.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        codec: StateCodec,
        cache: EngineCache,
    ):
        self._protocol = protocol
        self._codec = codec
        self.pair_dict: Dict[int, int] = cache.pair_cache
        #: Per-state-type capability cache: True when the type supports the
        #: inlined copy()/as_tuple() fast path of :meth:`evaluate_packed`.
        self._fast_types: Dict[type, bool] = {}

    def _is_fast_type(self, state_type: type) -> bool:
        supported = self._fast_types.get(state_type)
        if supported is None:
            supported = hasattr(state_type, "copy") and hasattr(
                state_type, "as_tuple"
            )
            self._fast_types[state_type] = supported
        return supported

    @property
    def cached_pairs(self) -> int:
        """Number of tabulated state pairs (diagnostics)."""
        return len(self.pair_dict)

    def evaluate_packed(self, key: int) -> int:
        """Tabulate one state pair and return its packed outcome.

        Functionally :func:`~repro.core.codec.evaluate_pair` plus packing,
        but inlined against the codec internals: this is the dominant cost
        of every run that explores new state pairs, so the wrapper layers
        (dataclass result, per-field copies through generic helpers) are
        flattened away.

        Raises :class:`RandomnessConsumed` if the transition touches the
        rng — the engine then demotes itself to the object path.
        """
        a = key >> _CODE_BITS
        b = key & _CODE_MASK
        codec = self._codec
        prototypes = codec._prototypes
        proto_a = prototypes[a]
        proto_b = prototypes[b]
        if self._is_fast_type(type(proto_a)) and self._is_fast_type(type(proto_b)):
            interned = codec._codes
            initiator = proto_a.copy()
            responder = proto_b.copy()
            result = self._protocol.transition(initiator, responder, RAISING_RNG)
            next_a = interned.get((type(initiator), initiator.as_tuple()))
            if next_a is None:
                next_a = codec.encode(initiator)
            next_b = interned.get((type(responder), responder.as_tuple()))
            if next_b is None:
                next_b = codec.encode(responder)
        else:
            # States without copy()/as_tuple() (plain dataclasses) take the
            # generic, slightly slower path.
            initiator = codec.materialize(a)
            responder = codec.materialize(b)
            result = self._protocol.transition(initiator, responder, RAISING_RNG)
            next_a = codec.encode(initiator)
            next_b = codec.encode(responder)
        if codec.size > _MAX_CODES:
            raise CodecError(
                f"protocol {self._protocol.name} exceeded the array engine's "
                f"{_MAX_CODES} distinct-state capacity"
            )
        rank = result.rank_assigned
        if rank is None:
            rank = 0
        elif rank >= _MAX_RANK:
            raise CodecError(
                f"rank {rank} exceeds the array engine's packed-rank "
                f"capacity ({_MAX_RANK - 1})"
            )
        packed = (
            next_a
            | (next_b << _CODE_BITS)
            | (rank << _RANK_SHIFT)
            | (_CHANGED_BIT if result.changed else 0)
            | (_RESET_BIT if result.reset_triggered else 0)
        )
        self.pair_dict[key] = packed
        return packed


class ArraySimulator:
    """Drop-in fast engine with the :class:`Simulator` result contract.

    Parameters
    ----------
    protocol:
        The population protocol to run.  Transitions that are deterministic
        given the two agent states get the tabulated fast paths; others run
        on the object fallback path.
    configuration:
        Initial configuration; defaults to ``protocol.initial_configuration()``.
    random_state:
        Seed or generator.  With the same seed (and default chunk size) a
        tabulated run reproduces the reference simulator's trajectory
        exactly.
    metrics:
        Optional :class:`MetricsCollector`; snapshots are taken at exactly
        the interactions the reference simulator would record.
    convergence_interval:
        The stop cadence: a run with ``stop_on_convergence`` stops at the
        first multiple of this many interactions (counted from the
        ``run`` call) at which the convergence predicate holds.  Defaults
        to ``max(n, 4096)``, which inflates the recorded stopping time of
        a ``Θ(n² log n)`` run by well under 1%; pass
        ``convergence_interval=n`` for exact same-seed stop parity with
        the reference.  For protocols without a closed converged set the
        cadence also bounds the processing blocks.
    chunk_size:
        Pairs sampled per generator call.  Must match the reference
        scheduler's ``chunk_size`` (default 4096) for same-seed equality.
    cache:
        Optional :class:`EngineCache` shared across simulators of
        equivalent protocols.
    use_soa_kernel:
        Whether to ask the protocol for a struct-of-arrays
        :class:`~repro.core.soa.VectorizedKernel` (see
        ``PopulationProtocol.vectorized_kernel``) and route chunk prefixes
        through it on the table path.  The kernel is exact, so this only
        trades performance; disable it to benchmark or debug the scalar
        walk in isolation.
    """

    #: A kernel call that declines after fewer pairs than this hands the
    #: rest of the chunk to the walk instead of walking the declined pair
    #: alone and calling the kernel again.  In regimes like start-up leader
    #: election nearly every pair is outside the fast path, and re-calling
    #: the kernel per pair costs more than it saves (measured in
    #: ``docs/benchmarks.md``).
    SOA_STRIKE_YIELD = 16

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Optional[Configuration] = None,
        random_state: RandomState = None,
        metrics: Optional[MetricsCollector] = None,
        convergence_interval: Optional[int] = None,
        chunk_size: int = 4096,
        cache: Optional[EngineCache] = None,
        use_soa_kernel: bool = True,
        topology=None,
    ):
        self._protocol = protocol
        self._configuration = (
            configuration if configuration is not None
            else protocol.initial_configuration()
        )
        if self._configuration.population_size != protocol.n:
            raise SimulationLimitExceeded(
                f"configuration has {self._configuration.population_size} agents "
                f"but protocol was built for n={protocol.n}"
            )
        self._n = protocol.n
        if topology is not None:
            if topology.n != protocol.n:
                raise SimulationLimitExceeded(
                    f"topology was built for n={topology.n} "
                    f"but protocol has n={protocol.n}"
                )
            from ..topologies.scheduler import TopologyScheduler

            self._scheduler = TopologyScheduler(
                topology, random_state, chunk_size=chunk_size
            )
        else:
            self._scheduler = UniformPairScheduler(
                protocol.n, random_state, chunk_size=chunk_size
            )
        self._topology = topology
        self._chunk_size = chunk_size
        self._metrics = metrics
        self._convergence_interval = (
            convergence_interval
            if convergence_interval is not None
            else max(protocol.n, 4096)
        )
        if self._convergence_interval < 1:
            raise ValueError("convergence_interval must be positive")

        self._interactions = 0
        self._rank_assignments = 0
        self._resets = 0
        self._changed_since_check = True
        self._convergence_checks = 0
        self._replays = 0

        # Pair buffer: refilled with sample_chunk(chunk_size) so the
        # generator sees the exact call sequence of the reference scheduler.
        self._pair_buffer = np.empty((0, 2), dtype=np.int64)
        self._pair_cursor = 0

        self._codec: Optional[StateCodec] = None
        # Canonical per-agent codes: a Python list for the scalar walk, with
        # a numpy mirror for the SoA kernel and block snapshots (kept in
        # sync).
        self._code_list: Optional[List[int]] = None
        self._codes_np: Optional[np.ndarray] = None
        self._kernel = None
        self._cache = cache if cache is not None else EngineCache()
        self._mode = self._select_mode()

        # Protocol-provided struct-of-arrays kernel (table path only).
        self._soa: Optional[VectorizedKernel] = None
        self._soa_columns: Optional[ColumnStore] = None
        self._soa_interactions = 0
        if use_soa_kernel and self._mode == "lazy":
            soa = self._cache.soa_kernel
            if soa is None:
                soa = protocol.vectorized_kernel(self._codec)
                self._cache.soa_kernel = soa
            if soa is not None:
                self._soa = soa
                # The store's per-code columns are shared across runs (the
                # projection over thousands of interned states is pure
                # Python); the live per-agent binding is per engine and
                # refreshed before every kernel call.
                store = self._cache.soa_columns
                if store is None:
                    store = ColumnStore(self._codec, soa.columns())
                    self._cache.soa_columns = store
                self._soa_columns = store

    # ------------------------------------------------------------------
    # Mode selection
    # ------------------------------------------------------------------
    def _select_mode(self) -> str:
        cache = self._cache
        if cache.mode == "object":
            return "object"
        if self._protocol.consumes_randomness() is True:
            # The protocol declares up front that its transition draws
            # randomness (see PopulationProtocol.consumes_randomness), so
            # state pairs can never be tabulated: go straight to the
            # object path.
            cache.mode = "object"
            return "object"
        codec = cache.codec
        # Merge persisted tables (if a store is attached) before the first
        # interning, so pair spills seed the tabulation.  No-op after
        # first contact.
        cache.load_persisted(self._protocol)
        try:
            codes = codec.encode_many(self._configuration.states)
        except CodecError:
            cache.mode = "object"
            return "object"
        self._codec = codec
        self._codes_np = codes
        self._code_list = codes.tolist()
        if self._n >= _MAX_RANK:
            return "object"
        cache.mode = "lazy"
        self._kernel = _LazyKernel(self._protocol, codec, cache)
        return "lazy"

    def _demote_to_object(
        self, initiators: List[int], responders: List[int]
    ) -> None:
        """Switch to the object path mid-run (transition consumed randomness).

        The walk executes pairs in original order, so finishing the
        pending pairs on materialized states is exactly the sequential
        semantics.
        """
        self._sync_configuration()
        self._mode = "object"
        self._kernel = None
        self._soa = None
        self._soa_columns = None
        self._cache.mode = "object"
        self._apply_pairs_object(initiators, responders)

    # ------------------------------------------------------------------
    # Perturbation events
    # ------------------------------------------------------------------
    def apply_perturbation(self, mutate) -> Optional[dict]:
        """Apply an external state mutation via a codec round-trip.

        The engine decodes the live codes into real state objects, hands
        the configuration to ``mutate`` (which must *replace* states, not
        mutate them in place — see :mod:`repro.scenarios.events`), then
        re-encodes the perturbed population and re-enters the warm table
        path.  New states the perturbation introduced are interned on the
        fly and tabulated on first use.  The pair buffer is untouched, so the
        scheduler stream — and with it same-seed reference equality —
        survives the boundary.
        """
        if self._mode == "object":
            summary = mutate(self._configuration)
            self._changed_since_check = True
            return summary
        self._sync_configuration()
        summary = mutate(self._configuration)
        self._changed_since_check = True
        try:
            codes = self._codec.encode_many(self._configuration.states)
        except CodecError:
            # States the codec cannot key (exotic types injected by a
            # custom event) still simulate exactly on the object path.
            self._leave_table_modes()
            return summary
        self._codes_np = codes
        self._code_list = codes.tolist()
        if self._codec.size > _MAX_CODES:
            self._leave_table_modes()
        return summary

    def _leave_table_modes(self) -> None:
        """Drop to the object path when the *configuration* already holds
        the truth (unlike :meth:`_demote_to_object`, no code sync)."""
        self._mode = "object"
        self._kernel = None
        self._soa = None
        self._soa_columns = None
        self._codec = None
        self._code_list = None
        self._codes_np = None
        self._cache.mode = "object"

    def run_segmented(
        self,
        events,
        max_interactions: int,
        stop_on_convergence: bool = True,
    ) -> SimulationResult:
        """Run with perturbation events, mirroring ``Simulator.run_segmented``.

        With matched seeds, chunk size and ``convergence_interval`` the
        trajectory — including the per-event recovery log — is
        bit-identical to the reference simulator's through every event
        boundary.
        """
        return segmented_run(
            self, events, max_interactions, stop_on_convergence
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def protocol(self) -> PopulationProtocol:
        """The protocol being simulated."""
        return self._protocol

    @property
    def mode(self) -> str:
        """The engine path in use: ``"lazy"`` (tabulated on first use) or
        ``"object"`` (transitions run on state objects)."""
        return self._mode

    @property
    def codec(self) -> Optional[StateCodec]:
        """The state codec (``None`` on the object path)."""
        return self._codec

    @property
    def kernel(self):
        """The active lookup kernel (``None`` on the object path)."""
        return self._kernel

    @property
    def soa_kernel(self):
        """The protocol-provided vectorized kernel (``None`` if absent)."""
        return self._soa

    @property
    def soa_interactions(self) -> int:
        """Interactions consumed by the SoA kernel so far (diagnostics)."""
        return self._soa_interactions

    @property
    def convergence_checks(self) -> int:
        """Convergence-predicate evaluations so far (diagnostics)."""
        return self._convergence_checks

    @property
    def replays(self) -> int:
        """Blocks rewound and replayed at the check cadence (diagnostics)."""
        return self._replays

    @property
    def interactions(self) -> int:
        """Number of interactions simulated so far."""
        return self._interactions

    @property
    def rng(self):
        """The generator shared by the scheduler (and object-path transitions)."""
        return self._scheduler.rng

    @property
    def configuration(self) -> Configuration:
        """The current configuration (synchronized from the code array)."""
        self._sync_configuration()
        return self._configuration

    def _sync_configuration(self) -> None:
        if self._mode != "object" and self._code_list is not None:
            self._configuration.states[:] = self._codec.materialize_many(
                self._code_list
            )

    def _view_configuration(self) -> Configuration:
        """A read-only configuration view for predicates and probes.

        On the table path the view shares codec prototypes across agents,
        so callers must not mutate the states (convergence predicates and
        metric probes only read).
        """
        if self._mode == "object":
            return self._configuration
        return Configuration(self._codec.prototype_view(self._code_list))

    def _check_converged(self) -> bool:
        self._convergence_checks += 1
        return self._protocol.has_converged(self._view_configuration())

    # ------------------------------------------------------------------
    # Pair supply
    # ------------------------------------------------------------------
    def _buffered_pairs(self) -> int:
        """Pairs left in the buffer, refilling it (fixed chunks) if empty."""
        if self._pair_cursor >= len(self._pair_buffer):
            self._pair_buffer = self._scheduler.sample_chunk(self._chunk_size)
            self._pair_cursor = 0
        return len(self._pair_buffer) - self._pair_cursor

    def _next_pairs(self, count: int) -> np.ndarray:
        """Up to ``count`` pairs from the buffer (refilled in fixed chunks)."""
        take = min(count, self._buffered_pairs())
        view = self._pair_buffer[self._pair_cursor:self._pair_cursor + take]
        self._pair_cursor += take
        return view

    # ------------------------------------------------------------------
    # Core advancement
    # ------------------------------------------------------------------
    def _advance(self, count: int) -> None:
        """Simulate exactly ``count`` further interactions.

        Metric snapshots that fall due on the way are recorded on their
        exact interaction: the SoA kernel and the object path take them
        inside their chunks (the shared stops contract of
        :meth:`_snapshot_stops`), the table path runs up to each one and
        records it there.  Pairs a path hands back (a demotion, a snapshot
        stop) return to the buffer for the next round.
        """
        end = self._interactions + count
        while self._interactions < end:
            if self._mode == "object":
                self._advance_object(end - self._interactions)
                continue
            pairs = self._next_pairs(end - self._interactions)
            self._pair_cursor -= len(pairs) - self._process_chunk(pairs)

    def _record_due(self) -> None:
        """Record the metric snapshot due at the current interaction."""
        metrics = self._metrics
        if metrics is not None and self._interactions >= metrics.next_due:
            metrics.record(self._interactions, self._view_configuration())

    def _snapshot_stops(self, count: int) -> range:
        """Offsets of the snapshots due in the next ``count`` interactions,
        the ``stops`` of :meth:`VectorizedKernel.apply_chunk` and
        :func:`apply_pairs`.

        A snapshot overdue at the current interaction is taken after the
        next one, as the reference's per-step ``maybe_record`` takes it.
        """
        metrics = self._metrics
        if metrics is None:
            return range(0)
        first = max(metrics.next_due - self._interactions, 1)
        return range(first, count + 1, metrics.interval)

    def _record_stop(self, offset: int) -> None:
        """``on_stop`` for :meth:`_snapshot_stops`: the chunk starts at the
        current interaction until the kernel or stepping loop returns."""
        self._metrics.record(
            self._interactions + offset, self._view_configuration()
        )

    def _advance_object(self, count: int) -> None:
        # Drain pairs the table path already sampled into the engine's
        # buffer before drawing fresh ones: a mid-run demotion must consume
        # the sampled sequence in order, or the trajectory would silently
        # diverge from the generator's pair stream.
        if self._pair_cursor < len(self._pair_buffer):
            leftover = self._pair_buffer[self._pair_cursor:self._pair_cursor + count]
            self._pair_cursor += len(leftover)
            self._apply_pairs_object(
                leftover[:, 0].tolist(), leftover[:, 1].tolist()
            )
            count -= len(leftover)
        take = self._scheduler.take
        while count > 0:
            initiators, responders = take(count)
            self._apply_pairs_object(initiators, responders)
            count -= len(initiators)

    def _apply_pairs_object(
        self, initiators: List[int], responders: List[int]
    ) -> None:
        """Object-path execution of explicit pairs, through the reference
        engine's stepping loop, snapshots included."""
        _, ranks, resets, changed = apply_pairs(
            self._protocol.transition, self._configuration.states,
            self._scheduler.rng, initiators, responders,
            stops=self._snapshot_stops(len(initiators)),
            on_stop=self._record_stop,
        )
        self._interactions += len(initiators)
        self._rank_assignments += ranks
        self._resets += resets
        if changed:
            self._changed_since_check = True

    def _process_chunk(self, pairs: np.ndarray) -> int:
        """Execute a prefix of a chunk exactly, preferring the SoA kernel;
        return the number of pairs executed.

        With a protocol-provided :class:`~repro.core.soa.VectorizedKernel`
        attached, the kernel consumes a maximal exact prefix of the rest of
        the chunk in column operations and takes the metric snapshots due
        inside it.  When it declines a pair after fewer than
        :attr:`SOA_STRIKE_YIELD` pairs, it hands the rest of the chunk to
        the walk; otherwise :meth:`_walk` resolves the declined pair alone
        and the kernel is called again.  A walk over the rest of the chunk
        stops at the next snapshot, and a walk that demotes the engine to
        the object path ends the call, so the prefix can be shorter than
        the chunk.
        """
        if self._soa is None:
            return self._tables_to_stop(pairs)
        # The column store may be shared with other simulators on the same
        # cache: (re-)bind our live population before handing it over.
        self._soa_columns.bind(self._codes_np, self._code_list)
        total = len(pairs)
        start = 0
        while start < total:
            outcome = self._soa.apply_chunk(
                pairs[start:, 0],
                pairs[start:, 1],
                self._soa_columns,
                self._scheduler.rng,
                stops=self._snapshot_stops(total - start),
                on_stop=self._record_stop,
            )
            processed = outcome.processed
            if processed:
                self._interactions += processed
                self._soa_interactions += processed
                self._rank_assignments += outcome.rank_assignments
                self._resets += outcome.resets
                if outcome.changed:
                    self._changed_since_check = True
                start += processed
            if start >= total:
                break
            if processed < self.SOA_STRIKE_YIELD:
                return start + self._tables_to_stop(pairs[start:])
            self._walk([int(pairs[start, 0])], [int(pairs[start, 1])])
            start += 1
            self._record_due()
            if self._mode == "object":
                # The walk demoted the engine (the declined pair already
                # ran on the object path); the rest of the chunk goes back
                # to the buffer for the object path.
                return start
        return total

    def _tables_to_stop(self, pairs: np.ndarray) -> int:
        """Walk ``pairs`` up to the next metric snapshot, record it, and
        return the number of pairs executed."""
        count = len(pairs)
        metrics = self._metrics
        if metrics is not None:
            count = min(count, max(metrics.next_due - self._interactions, 1))
        self._walk(pairs[:count, 0].tolist(), pairs[:count, 1].tolist())
        self._record_due()
        return count

    def _walk(self, ai: List[int], ar: List[int]) -> None:
        """The table path: execute pairs one at a time, in order.

        Each pair looks its current state pair up in the pair cache and
        applies the packed outcome to the live codes.  A state pair the
        cache does not hold is tabulated on the spot; a transition that
        draws randomness demotes the engine, and the object path runs the
        rest.
        """
        codes = self._code_list
        get = self._kernel.pair_dict.get
        evaluate = self._kernel.evaluate_packed
        pending: Dict[int, int] = {}
        walked = 0
        ranks = 0
        resets = 0
        changed = False
        demoted = False
        try:
            for i, j in zip(ai, ar):
                a = codes[i]
                b = codes[j]
                value = get((a << _CODE_BITS) | b)
                if value is None:
                    value = evaluate((a << _CODE_BITS) | b)
                next_a = value & _CODE_MASK
                if next_a != a:
                    codes[i] = next_a
                    pending[i] = next_a
                next_b = (value >> _CODE_BITS) & _CODE_MASK
                if next_b != b:
                    codes[j] = next_b
                    pending[j] = next_b
                walked += 1
                if value & _FLAG_FIELD:
                    if value & _CHANGED_BIT:
                        changed = True
                    if value & _RANK_FIELD:
                        ranks += 1
                    if value & _RESET_BIT:
                        resets += 1
        except RandomnessConsumed:
            demoted = True
        if pending:
            self._codes_np[list(pending.keys())] = list(pending.values())
        self._interactions += walked
        self._rank_assignments += ranks
        self._resets += resets
        if changed:
            self._changed_since_check = True
        if demoted:
            self._demote_to_object(ai[walked:], ar[walked:])

    # ------------------------------------------------------------------
    # Simulator-compatible driving loop
    # ------------------------------------------------------------------
    #: Engine attributes a processing block may change, restored before
    #: the block is replayed.  The tabulation caches are exact, so they
    #: keep whatever the rewound block added.
    _BLOCK_STATE = (
        "_interactions", "_rank_assignments", "_resets",
        "_soa_interactions",
        "_changed_since_check", "_pair_cursor",
        "_mode", "_kernel", "_soa", "_soa_columns",
    )

    def _run_at_cadence(self, budget_end: int, next_check: int) -> None:
        """Stop at the first converged check point (``next_check`` and
        every ``convergence_interval`` after it) or at ``budget_end``."""
        while self._interactions < budget_end:
            self._advance(min(budget_end, next_check) - self._interactions)
            if self._interactions < next_check:
                return
            if self._changed_since_check:
                self._changed_since_check = False
                if self._check_converged():
                    return
            next_check += self._convergence_interval

    def _run_closed(self, budget_end: int) -> None:
        """Stop mode for a protocol whose converged set is closed.

        Blocks are bounded only by the budget and the end of the pair
        buffer; metric snapshots are taken inside them.  The predicate is
        evaluated at the end of each block that holds a check point.  The
        run starts unconverged and closure makes the predicate monotone
        along the trajectory, so a block that ends unconverged holds no
        converged check point.  A block that ends converged is rewound to
        its start and replayed at the cadence, which stops on exactly the
        check point cadence-sized blocks would have stopped on.  Blocks never
        cross a buffer refill, so the rewind never re-draws pairs; the
        generator state is restored for transitions that drew from it
        after a mid-block demotion, and the snapshots the block recorded
        are discarded, so the replay records each of them once.
        """
        origin = self._interactions
        interval = self._convergence_interval
        next_check = origin + interval
        # Object-path states mutate in place and draw pairs through the
        # scheduler's own buffer, so there is nothing cheap to rewind:
        # from a demotion on, the run finishes at the cadence.
        while self._interactions < budget_end and self._mode != "object":
            block_end = min(
                budget_end, self._interactions + self._buffered_pairs()
            )
            # Only a block holding a check point can stop the run, so only
            # such a block needs a snapshot and a check (rare when the
            # cadence exceeds the buffer).
            snapshot = self._snapshot_block() if block_end >= next_check else None
            self._advance(block_end - self._interactions)
            if snapshot is not None:
                next_check += ((block_end - next_check) // interval + 1) * interval
                if self._changed_since_check:
                    self._changed_since_check = False
                    if self._check_converged():
                        self._restore_block(snapshot)
                        break
        if self._interactions < budget_end:
            passed = self._interactions - origin
            self._run_at_cadence(
                budget_end, origin + (passed // interval + 1) * interval
            )

    def _snapshot_block(self):
        """What :meth:`_restore_block` needs to rewind the coming block."""
        return (
            [getattr(self, name) for name in self._BLOCK_STATE],
            self._codes_np.copy(),
            self._cache.mode,
            self.rng.bit_generator.state,
            self._metrics.checkpoint() if self._metrics is not None else None,
        )

    def _restore_block(self, snapshot) -> None:
        """Rewind the engine to a :meth:`_snapshot_block` snapshot."""
        values, codes, cache_mode, rng_state, metrics_mark = snapshot
        for name, value in zip(self._BLOCK_STATE, values):
            setattr(self, name, value)
        self._codes_np[:] = codes
        self._code_list[:] = codes.tolist()
        self._cache.mode = cache_mode
        self.rng.bit_generator.state = rng_state
        if metrics_mark is not None:
            self._metrics.rollback(metrics_mark)
        self._replays += 1

    def run(
        self,
        max_interactions: int,
        stop_on_convergence: bool = True,
        raise_on_limit: bool = False,
    ) -> SimulationResult:
        """Run until convergence or until ``max_interactions`` is reached.

        Mirrors :meth:`Simulator.run`: the run stops at the first multiple
        of ``convergence_interval`` (counted from this call) at which the
        convergence predicate holds, metric snapshots are recorded on the
        collector's schedule, and the resulting :class:`SimulationResult`
        has the same contract.  The check cadence only decides *where* a
        run stops, not how the engine gets there:

        * with ``stop_on_convergence=False`` the predicate is evaluated
          once, after the budget is spent;
        * protocols declaring a closed converged set
          (``convergence_is_closed``) are checked at block ends, with the
          one block that ends converged replayed at the cadence;
        * other protocols advance in cadence-sized blocks.
        """
        max_interactions = check_budget(max_interactions)

        if self._metrics is not None and self._interactions == 0:
            self._metrics.record(0, self._view_configuration())

        budget_end = self._interactions + max_interactions
        if not stop_on_convergence:
            self._advance(max_interactions)
        elif not self._check_converged():
            if self._protocol.convergence_is_closed():
                self._run_closed(budget_end)
            else:
                self._run_at_cadence(
                    budget_end, self._interactions + self._convergence_interval
                )

        converged = self._check_converged()
        result = self._finish(converged)
        if raise_on_limit and not converged:
            raise SimulationLimitExceeded(
                f"{self._protocol.name} did not converge within "
                f"{self._interactions} interactions",
                result=result,
            )
        return result

    def run_until(
        self,
        predicate: Callable[[Configuration], bool],
        max_interactions: int,
        check_interval: Optional[int] = None,
    ) -> SimulationResult:
        """Run until ``predicate(configuration)`` holds (checked periodically)."""
        if check_interval is None:
            check_interval = max(1, self._protocol.n // 4)
        budget_end = self._interactions + check_budget(max_interactions)
        satisfied = predicate(self._view_configuration())
        while not satisfied and self._interactions < budget_end:
            self._advance(min(check_interval, budget_end - self._interactions))
            satisfied = predicate(self._view_configuration())
        return self._finish(satisfied)

    def _finish(self, converged: bool) -> SimulationResult:
        """Close the metric series and report the run's outcome."""
        if self._metrics is not None:
            self._metrics.close(self._interactions, self._view_configuration())
        self._sync_configuration()
        return SimulationResult(
            converged=converged,
            interactions=self._interactions,
            configuration=self._configuration,
            metrics=self._metrics.series if self._metrics is not None else {},
            rank_assignments=self._rank_assignments,
            resets=self._resets,
            protocol=self._protocol.describe(),
        )


def make_simulator(
    protocol: PopulationProtocol,
    engine: str = "reference",
    **kwargs,
):
    """Build a simulator for ``protocol`` by engine name.

    ``engine`` names an agent-level backend of the registry
    (:mod:`repro.core.backends`): ``"reference"`` builds the agent-level
    :class:`Simulator`, ``"array"`` the vectorized :class:`ArraySimulator`,
    and ``"auto"`` the fastest agent-level backend capable of the
    protocol — negotiated through the protocol's rng-consumption
    declaration.  All engines accept the shared keyword arguments
    (``configuration``, ``random_state``, ``metrics``,
    ``convergence_interval``); ``cache`` reaches only the engines that use
    one.  Any other name raises :class:`ValueError`.
    """
    from . import backends

    agent_engines = tuple(
        name for name in backends.backend_names()
        if backends.get_backend(name).kind == "agent"
    )
    if engine == backends.AUTO_ENGINE:
        backend, _ = backends.resolve_backend(
            protocol, "fresh", protocol.n, kinds=("agent",)
        )
    elif engine in agent_engines:
        backend = backends.get_backend(engine)
    else:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of "
            f"{agent_engines + (backends.AUTO_ENGINE,)}"
        )
    return backend.create(protocol, **kwargs)
