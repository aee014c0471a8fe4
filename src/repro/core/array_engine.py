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
Sequential semantics are preserved exactly, not approximately.  The engine
exploits one fact: a transition only reads and writes the states of its two
participants, so interactions that provably change nothing commute with
everything.  Each chunk is processed in two steps:

1. **Optimistic bulk no-op elimination.**  The outcome of every pair is
   probed against the tabulated transition tables *without* evaluating
   unknown entries.  The *volatile* agent set is read off the probes:
   agents some pair currently writes, plus both agents of every
   untabulated pair.  Pairs touching no volatile agent are *tentatively*
   retired as no-ops, with their (exact) result flags deferred.  Late in a
   run almost every interaction retires here, in a handful of numpy
   operations per chunk.
2. **Validated ordered walk.**  The remaining pairs execute one at a time,
   in their original order, as scalar table lookups on the live code list —
   a dictionary probe and a few integer operations per interaction, an
   order of magnitude less than a full Python-object transition.  The walk
   also *validates* the elimination: if a pair writes an agent assumed
   stable (possible only when an operand written earlier in the chunk
   flipped the pair's behavior), that agent joins the volatile set and its
   later tentatively-retired pairs are merged back into the walk at their
   original positions.  A pair that stays retired therefore provably saw
   its operands keep their chunk-start states — its probed no-op outcome
   is its true outcome.

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
and hands every pair it cannot prove back to the ordered walk below.
This lifts the write-heavy mid-run regime of ``StableRanking`` (where
nearly every pair toggles a synthetic coin and nothing retires in bulk)
from the walk's ~0.5 µs/interaction to a few hundredths, while keeping
bit-exact sequential semantics.  See ``docs/engines.md`` for the full
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
from .probe_table import ProbeClassTable
from .protocol import PopulationProtocol
from .rng import RandomState
from .scheduler import UniformPairScheduler
from .simulation import SimulationResult, Simulator, segmented_run
from .soa import ColumnStore, VectorizedKernel

__all__ = ["ArraySimulator", "EngineCache", "make_simulator", "ENGINE_NAMES"]

#: Engine names understood by :func:`make_simulator`.
ENGINE_NAMES = ("reference", "array")

# Bit layout of packed table entries: successor codes use 21 bits each, the
# assigned rank 17 bits, then one bit each for the changed and reset flags.
# The limits are enforced at construction time.  -1 marks "not tabulated".
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


# Probe-class bits: what an interaction between two states does, compressed
# to one byte for the chunk-wide volatile-set probe.  -1 (all bits set, via
# two's complement) marks unknown entries, which thereby conservatively read
# as "writes both agents and carries flags".
_CLS_WRITES_U = 1
_CLS_WRITES_V = 2
_CLS_FLAGGED = 4


def _class_of(packed: int, a: int, b: int) -> int:
    """Probe class of a packed outcome for the state pair ``(a, b)``."""
    cls = 0
    if packed & _CODE_MASK != a:
        cls |= _CLS_WRITES_U
    if (packed >> _CODE_BITS) & _CODE_MASK != b:
        cls |= _CLS_WRITES_V
    if packed & _FLAG_FIELD:
        cls |= _CLS_FLAGGED
    return cls


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
        "codec", "pair_cache", "probe_table", "mode",
        "soa_kernel", "soa_columns",
        "persist_dir", "_store_entry", "_spill_mark", "_persist_failed",
    )

    def __init__(self, persist_dir=None):
        self.codec = StateCodec()
        self.pair_cache: Dict[int, int] = {}
        #: Pair-code → probe-class byte map; a dense (S × S) int8 matrix
        #: while the codec is small, an open-addressed hash table beyond
        #: :data:`~repro.core.probe_table.DENSE_STATE_LIMIT` states — so
        #: arbitrarily large state spaces stay on the warm probe path.
        self.probe_table = ProbeClassTable(key_bits=_CODE_BITS)
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
                keys = np.fromiter(fresh.keys(), np.int64, len(fresh))
                vals = np.fromiter(fresh.values(), np.int64, len(fresh))
                cu = keys >> _CODE_BITS
                cv = keys & _CODE_MASK
                classes = (
                    ((vals & _CODE_MASK) != cu) * _CLS_WRITES_U
                    | (((vals >> _CODE_BITS) & _CODE_MASK) != cv)
                    * _CLS_WRITES_V
                    | ((vals & _FLAG_FIELD) != 0) * _CLS_FLAGGED
                ).astype(np.int8)
                table = self.probe_table
                table.ensure_capacity(codec.size)
                table.bulk_set(cu, cv, classes)
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
    """Chunk probes backed by an on-demand pair cache.

    Full outcomes are packed into one int64 per state pair for the walk's
    scalar dictionary probes; a parallel int8 ``(S × S)`` probe-class table
    answers the chunk-wide "does this pair write / carry flags?" question
    with a single fancy-index gather.  Batch probes never tabulate — unknown
    pairs read as conservative "writes both" and are resolved by the ordered
    walk, which sees the settled codes and calls :meth:`evaluate_packed`.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        codec: StateCodec,
        cache: EngineCache,
    ):
        self._protocol = protocol
        self._codec = codec
        self._cache = cache
        self.pair_dict: Dict[int, int] = cache.pair_cache
        #: Per-state-type capability cache: True when the type supports the
        #: inlined copy()/as_tuple() fast path of :meth:`evaluate_packed`.
        self._fast_types: Dict[type, bool] = {}
        cache.probe_table.ensure_capacity(max(codec.size, 1))

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
        # Record the probe class; the table grows (or migrates from its
        # dense matrix to the hashed representation) as the codec interns
        # states, so no code is ever beyond reach.
        table = self._cache.probe_table
        table.ensure_capacity(self._codec.size)
        table.set(a, b, _class_of(packed, a, b))
        return packed

    def probe_class(self, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
        """Probe-class bytes for a batch of state pairs; unknown reads -1."""
        table = self._cache.probe_table
        table.ensure_capacity(self._codec.size)
        return table.lookup(cu, cv)


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

    #: Pairs resolved by the scalar walk after a kernel declines a pair,
    #: before the kernel is retried — the detour around rare non-fast-path
    #: events (a rank assignment, a phase bump).  Kept minimal: walked
    #: pairs in novel states pay the one-time tabulation cost.
    SOA_WALK_SEGMENT = 1
    #: Re-entry window after a decline; doubles on every fully consumed
    #: window so quiet stretches reach whole-chunk calls, while decline
    #: clusters never pay vector setup for pairs they will not consume.
    SOA_REENTRY_WINDOW = 512
    #: Folding the lazy pair cache into the kernel dispatch: a chunk is
    #: routed to the generic table path — even with a kernel attached —
    #: when the kernel's *scalar-loop share* for the chunk (its
    #: ``chunk_scalar_share`` diagnostic, when it provides one) is at
    #: least this fraction.  The kernel's vectorized wins (coin parity,
    #: bulk class handling) vanish in regimes where nearly every pair
    #: runs its ordered scalar chain loop; there a pre-tabulated pair
    #: costs less as a warm dictionary probe on the walk than as another
    #: loop iteration plus commit.  Measured on ``StableRanking`` n=128:
    #: the share sits near 1.0 during the early counter-churn and at
    #: 0.01-0.15 for the rest of the run, so 0.5 cleanly separates the
    #: regimes.
    SOA_DISPATCH_SCALAR_SHARE = 0.5
    #: ...but only when the chunk probe confirms the pair cache has seen
    #: the regime: chunks whose share of untabulated chunk-start pairs is
    #: at or above this fraction stay on the kernel, which exists
    #: precisely to keep novel pairs away from the µs-scale tabulation.
    #: The probe is conservative — in write-heavy regimes chunk-start
    #: codes mispredict the walked pair stream, so a fully pre-tabulated
    #: replay still reads 10-70% "novel" while genuinely novelty-bound
    #: regimes read 85-100% — hence the high cut.
    SOA_TABLE_DISPATCH_NOVELTY = 0.8
    #: Consecutive nearly-empty kernel calls before the engine temporarily
    #: stops trying the kernel (regimes like start-up leader election,
    #: where every pair is outside the fast path).
    SOA_STRIKE_LIMIT = 4
    #: Kernel calls count as a strike only below this yield.
    SOA_STRIKE_YIELD = 16
    #: Chunks processed entirely by the generic paths after striking out.
    SOA_BACKOFF_CHUNKS = 4

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
        # a numpy mirror for the vectorized probes (kept in sync).
        self._code_list: Optional[List[int]] = None
        self._codes_np: Optional[np.ndarray] = None
        self._kernel = None
        self._cache = cache if cache is not None else EngineCache()
        self._mode = self._select_mode()

        # Protocol-provided struct-of-arrays kernel (table path only).
        self._soa: Optional[VectorizedKernel] = None
        self._soa_columns: Optional[ColumnStore] = None
        self._soa_interactions = 0
        self._soa_strikes = 0
        self._soa_backoff = 0
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

    def _demote_to_object(self, remaining_pairs=None) -> None:
        """Switch to the object path mid-run (transition consumed randomness).

        Already-retired no-ops changed nothing and the walk executes in
        original order, so finishing the pending pairs on materialized
        states is exactly the sequential semantics.
        """
        self._sync_configuration()
        self._mode = "object"
        self._kernel = None
        self._soa = None
        self._soa_columns = None
        self._cache.mode = "object"
        if remaining_pairs:
            self._apply_pairs_object(remaining_pairs)

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
        exact interaction: the SoA kernel takes them inside its chunks,
        the table and object paths run up to each one and record it there.
        Pairs a path hands back (a demotion, a snapshot stop) return to the
        buffer for the next round.
        """
        end = self._interactions + count
        while self._interactions < end:
            if self._mode == "object":
                self._advance_object(self._until_stop(end - self._interactions))
                self._record_due()
                continue
            pairs = self._next_pairs(end - self._interactions)
            self._pair_cursor -= len(pairs) - self._process_chunk(pairs)

    def _until_stop(self, count: int) -> int:
        """``count``, or fewer interactions if a metric snapshot falls due
        on the way.

        A snapshot overdue at the current interaction is taken after the
        next one, as the reference's per-step ``maybe_record`` takes it.
        """
        if self._metrics is None:
            return count
        return min(count, max(self._metrics.next_due - self._interactions, 1))

    def _record_due(self) -> None:
        """Record the metric snapshot due at the current interaction."""
        metrics = self._metrics
        if metrics is not None and self._interactions >= metrics.next_due:
            metrics.record(self._interactions, self._view_configuration())

    def _kernel_stops(self, count: int) -> range:
        """Offsets of the snapshots due in the next ``count`` interactions."""
        metrics = self._metrics
        if metrics is None:
            return range(0)
        first = max(metrics.next_due - self._interactions, 1)
        return range(first, count + 1, metrics.interval)

    def _record_kernel_stop(self, offset: int) -> None:
        """``on_stop`` for the SoA kernel: the chunk starts at the current
        interaction until the kernel returns."""
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
            self._apply_pairs_object(leftover.tolist())
            count -= len(leftover)
            if count <= 0:
                return
        protocol = self._protocol
        states = self._configuration.states
        scheduler = self._scheduler
        rng = scheduler.rng
        sample = scheduler.sample
        for _ in range(count):
            i, j = sample()
            result = protocol.transition(states[i], states[j], rng)
            self._interactions += 1
            if result.rank_assigned is not None:
                self._rank_assignments += 1
            if result.reset_triggered:
                self._resets += 1
            if result.changed:
                self._changed_since_check = True

    def _apply_pairs_object(self, pairs) -> None:
        """Object-path execution of explicit pairs (mid-chunk demotion)."""
        protocol = self._protocol
        states = self._configuration.states
        rng = self._scheduler.rng
        for i, j in pairs:
            result = protocol.transition(states[i], states[j], rng)
            self._interactions += 1
            if result.rank_assigned is not None:
                self._rank_assignments += 1
            if result.reset_triggered:
                self._resets += 1
            if result.changed:
                self._changed_since_check = True

    def _process_chunk(self, pairs: np.ndarray) -> int:
        """Execute a prefix of a chunk exactly, preferring the SoA kernel;
        return the number of pairs executed.

        With a protocol-provided :class:`~repro.core.soa.VectorizedKernel`
        attached, the kernel consumes a maximal exact prefix of the chunk
        in column operations and takes the metric snapshots due inside it;
        the first pair it declines (and a bounded segment after it) is
        resolved by the generic probe-and-walk path, then the kernel is
        retried on the remainder.  Kernel-hostile regimes (start-up leader
        election, reset storms) are detected by a strike counter and
        processed generically for a few chunks before the kernel is
        retried.  The generic paths stop at the next snapshot, and a
        demotion to the object path ends the call, so the prefix can be
        shorter than the chunk.
        """
        if self._soa is None:
            return self._tables_to_stop(pairs)
        if self._soa_backoff > 0:
            self._soa_backoff -= 1
            return self._tables_to_stop(pairs)
        share_probe = getattr(self._soa, "chunk_scalar_share", None)
        if share_probe is not None:
            # Fold the lazy pair cache into the kernel dispatch: in
            # scalar-loop-bound regimes, chunks the cache has mostly seen
            # before run faster on the warm table path than in the
            # kernel's chains, so the kernel keeps only the novelty-heavy
            # chunks (where walking would mean tabulating).
            share = share_probe(self._codes_np[pairs[:, 1]], self._soa_columns)
            if share >= self.SOA_DISPATCH_SCALAR_SHARE:
                classes = self._kernel.probe_class(
                    self._codes_np[pairs[:, 0]], self._codes_np[pairs[:, 1]]
                )
                novel = int(np.count_nonzero(classes == -1))
                if novel < self.SOA_TABLE_DISPATCH_NOVELTY * len(pairs):
                    return self._tables_to_stop(pairs, classes)
        # The column store may be shared with other simulators on the same
        # cache: (re-)bind our live population before handing it over.
        self._soa_columns.bind(self._codes_np, self._code_list)
        total = len(pairs)
        start = 0
        window = total
        while start < total:
            end = min(start + window, total)
            outcome = self._soa.apply_chunk(
                pairs[start:end, 0],
                pairs[start:end, 1],
                self._soa_columns,
                self._scheduler.rng,
                stops=self._kernel_stops(end - start),
                on_stop=self._record_kernel_stop,
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
                self._soa_strikes = 0
                return total
            if start >= end:
                # The window was fully consumed without a decline; grow it
                # back toward whole-chunk calls.  A full window is a
                # productive call, so it also clears the strike count.
                self._soa_strikes = 0
                window = min(window * 2, total)
                continue
            # The kernel declined the pair at ``start``: score the attempt,
            # walk a short segment past the offending pair, then re-enter
            # on a reduced window.
            if processed >= self.SOA_STRIKE_YIELD:
                self._soa_strikes = 0
            else:
                self._soa_strikes += 1
                if self._soa_strikes >= self.SOA_STRIKE_LIMIT:
                    self._soa_strikes = 0
                    self._soa_backoff = self.SOA_BACKOFF_CHUNKS
                    return start + self._tables_to_stop(pairs[start:])
            segment_end = start + self._until_stop(
                min(self.SOA_WALK_SEGMENT, total - start)
            )
            self._walk_all(
                pairs[start:segment_end, 0].tolist(),
                pairs[start:segment_end, 1].tolist(),
            )
            start = segment_end
            self._record_due()
            if self._mode == "object":
                # The segment demoted the engine mid-chunk (its own tail
                # already ran on the object path); the rest of the chunk
                # goes back to the buffer for the object path.
                return start
            # Extend the segment over pairs the pair cache already holds:
            # each costs one warm dictionary probe, cheaper than another
            # kernel re-entry, and never tabulates.
            while start < total:
                bound = start + self._until_stop(total - start)
                walked = self._walk_while_tabulated(
                    pairs[start:bound, 0].tolist(),
                    pairs[start:bound, 1].tolist(),
                )
                start += walked
                self._record_due()
                if start < bound:
                    break
            window = self.SOA_REENTRY_WINDOW
        return total

    def _tables_to_stop(
        self, pairs: np.ndarray, classes: Optional[np.ndarray] = None
    ) -> int:
        """Run ``pairs`` on the table path up to the next metric snapshot,
        record it, and return the number of pairs executed."""
        count = self._until_stop(len(pairs))
        self._process_chunk_tables(
            pairs[:count], None if classes is None else classes[:count]
        )
        self._record_due()
        return count

    def _process_chunk_tables(
        self, pairs: np.ndarray, classes: Optional[np.ndarray] = None
    ) -> None:
        """Execute a chunk of pairs with exact sequential semantics.

        Optimistic elimination with walk-time validation: the volatile set
        is taken directly from the chunk probes (agents some pair currently
        writes, plus both agents of every untabulated pair) with no
        transitive closure.  Pairs touching no volatile agent are
        *tentatively* retired, their statistics deferred; the ordered walk
        over the rest verifies the assumption.  If a walked pair writes an
        agent assumed stable — possible only when an operand written
        earlier in the chunk flipped the pair's behavior — that agent joins
        the volatile set and its later tentatively-retired pairs are merged
        back into the walk at their original positions.  Retired pairs are
        therefore exact no-ops: their operands provably kept their
        chunk-start states for the whole chunk.
        """
        total = len(pairs)
        agents_i = pairs[:, 0]
        agents_r = pairs[:, 1]
        codes_np = self._codes_np

        # Probe the whole chunk against the current codes (unless the
        # kernel dispatch already did).  Unknown pairs are NOT tabulated
        # here — their operands may still change before their turn; they
        # read as "writes both agents" (all class bits set) and the walk
        # resolves them against settled codes.
        if classes is None:
            classes = self._kernel.probe_class(codes_np[agents_i], codes_np[agents_r])

        volatile = np.zeros(self._n, dtype=bool)
        volatile[agents_i[(classes & _CLS_WRITES_U) != 0]] = True
        volatile[agents_r[(classes & _CLS_WRITES_V) != 0]] = True

        # Flagged-but-writeless pairs (rank/reset/changed without a state
        # change) are walked too, so their exact flags are counted; retired
        # pairs therefore contribute no statistics at all.
        walk_mask = volatile[agents_i] | volatile[agents_r]
        walk_mask |= (classes & _CLS_FLAGGED) != 0
        walk_count = int(np.count_nonzero(walk_mask))
        if walk_count == 0:
            self._interactions += total
            return
        if walk_count == total:
            # Nothing retired, so no elimination to validate: take the
            # simple in-order loop without the reactivation bookkeeping.
            self._walk_all(agents_i.tolist(), agents_r.tolist())
            return
        safe = ~walk_mask
        order_np = np.flatnonzero(walk_mask)
        order = order_np.tolist()
        w_i = agents_i[order_np].tolist()
        w_r = agents_r[order_np].tolist()
        in_v = volatile.tolist()

        codes = self._code_list
        pair_dict = self._kernel.pair_dict
        get = pair_dict.get
        evaluate = self._kernel.evaluate_packed
        pending: Dict[int, int] = {}
        walked = 0
        ranks = 0
        resets = 0
        changed = False
        demote_positions: Optional[List[int]] = None

        # The walk lists may be re-built on violations, so iterate via an
        # explicit index.
        cursor = 0
        try:
            while cursor < len(order):
                position = order[cursor]
                i = w_i[cursor]
                j = w_r[cursor]
                cursor += 1
                a = codes[i]
                b = codes[j]
                value = get((a << _CODE_BITS) | b)
                if value is None:
                    value = evaluate((a << _CODE_BITS) | b)
                next_a = value & _CODE_MASK
                if next_a != a:
                    codes[i] = next_a
                    pending[i] = next_a
                    if not in_v[i]:
                        merged = self._reactivate(
                            i, position, order, cursor, safe, agents_i, agents_r
                        )
                        if merged is not None:
                            order, w_i, w_r = merged
                            cursor = 0
                        in_v[i] = True
                next_b = (value >> _CODE_BITS) & _CODE_MASK
                if next_b != b:
                    codes[j] = next_b
                    pending[j] = next_b
                    if not in_v[j]:
                        merged = self._reactivate(
                            j, position, order, cursor, safe, agents_i, agents_r
                        )
                        if merged is not None:
                            order, w_i, w_r = merged
                            cursor = 0
                        in_v[j] = True
                walked += 1
                if value & _FLAG_FIELD:
                    if value & _CHANGED_BIT:
                        changed = True
                    if value & _RANK_FIELD:
                        ranks += 1
                    if value & _RESET_BIT:
                        resets += 1
        except RandomnessConsumed:
            # Hand the rest of the chunk to the object path in original
            # order: the unfinished walk positions plus every
            # not-yet-validated tentatively-safe pair after the current one.
            position = order[cursor - 1]
            tail = np.flatnonzero(safe)
            remaining = sorted(
                set(order[cursor - 1:]) | set(tail[tail > position].tolist())
            )
            # Safe pairs before the demotion point were validated by the
            # walk so far: no non-volatile agent has changed yet, so they
            # are exact (statistics-free) no-ops.
            self._interactions += int(np.count_nonzero(tail <= position))
            demote_positions = remaining

        if pending:
            self._codes_np[list(pending.keys())] = list(pending.values())
        self._interactions += walked
        self._rank_assignments += ranks
        self._resets += resets
        if changed:
            self._changed_since_check = True

        if demote_positions is not None:
            remaining_np = np.asarray(demote_positions, dtype=np.int64)
            self._demote_to_object(
                np.stack(
                    [agents_i[remaining_np], agents_r[remaining_np]], axis=1
                ).tolist()
            )
            return

        # Pairs still marked safe survived validation: exact no-ops.
        self._interactions += int(np.count_nonzero(safe))

    def _walk_all(self, ai: List[int], ar: List[int]) -> None:
        """In-order walk of a whole chunk (nothing was retired).

        Same semantics as the validated walk in :meth:`_process_chunk`, but
        with no elimination to protect there is no reactivation bookkeeping,
        which makes the per-interaction loop measurably tighter — this is
        the hot path of the write-heavy early phase.
        """
        codes = self._code_list
        pair_dict = self._kernel.pair_dict
        evaluate = self._kernel.evaluate_packed
        get = pair_dict.get
        pending: Dict[int, int] = {}
        walked = 0
        ranks = 0
        resets = 0
        changed = False
        demote_from: Optional[int] = None
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
            demote_from = walked
        if pending:
            self._codes_np[list(pending.keys())] = list(pending.values())
        self._interactions += walked
        self._rank_assignments += ranks
        self._resets += resets
        if changed:
            self._changed_since_check = True
        if demote_from is not None:
            self._demote_to_object(
                list(zip(ai[demote_from:], ar[demote_from:]))
            )

    def _walk_while_tabulated(self, ai: List[int], ar: List[int]) -> int:
        """Walk pairs in order while the pair cache already holds them.

        The tabulation-free sibling of :meth:`_walk_all`, used to extend a
        kernel-decline segment: execution stops in front of the first pair
        whose current state pair is not in the cache (that pair goes back
        to the kernel), so every step is a warm dictionary probe and the
        walk can never tabulate or demote.  Returns the number of pairs
        consumed.
        """
        codes = self._code_list
        get = self._kernel.pair_dict.get
        pending: Dict[int, int] = {}
        walked = 0
        ranks = 0
        resets = 0
        changed = False
        for i, j in zip(ai, ar):
            a = codes[i]
            b = codes[j]
            value = get((a << _CODE_BITS) | b)
            if value is None:
                break
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
        if pending:
            self._codes_np[list(pending.keys())] = list(pending.values())
        self._interactions += walked
        self._rank_assignments += ranks
        self._resets += resets
        if changed:
            self._changed_since_check = True
        return walked

    def _reactivate(self, agent, position, order, cursor, safe, agents_i, agents_r):
        """A walked pair wrote an agent assumed stable: re-walk its pairs.

        Later tentatively-retired pairs touching ``agent`` get their probes
        invalidated by this write, so they are merged back into the walk at
        their original positions (pairs before ``position`` are unaffected:
        the agent provably held its chunk-start state until now).  Returns
        the rebuilt ``(order, walk_i, walk_r)`` tail to restart on, or
        ``None`` when no retired pair is affected.
        """
        hits = np.flatnonzero(
            ((agents_i == agent) | (agents_r == agent)) & safe
        )
        hits = hits[hits > position]
        if not len(hits):
            return None
        safe[hits] = False
        merged = sorted(order[cursor:] + hits.tolist())
        merged_np = np.asarray(merged, dtype=np.int64)
        # Restart iteration on the merged tail; already-walked pairs stay done.
        return merged, agents_i[merged_np].tolist(), agents_r[merged_np].tolist()

    # ------------------------------------------------------------------
    # Simulator-compatible driving loop
    # ------------------------------------------------------------------
    #: Engine attributes a processing block may change, restored before
    #: the block is replayed.  The tabulation caches are exact, so they
    #: keep whatever the rewound block added.
    _BLOCK_STATE = (
        "_interactions", "_rank_assignments", "_resets",
        "_soa_interactions", "_soa_strikes", "_soa_backoff",
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
        self._record_final_snapshot()
        self._sync_configuration()
        result = SimulationResult(
            converged=converged,
            interactions=self._interactions,
            configuration=self._configuration,
            metrics=self._metrics.series if self._metrics is not None else {},
            rank_assignments=self._rank_assignments,
            resets=self._resets,
            protocol=self._protocol.describe(),
        )
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
        self._record_final_snapshot()
        self._sync_configuration()
        return SimulationResult(
            converged=satisfied,
            interactions=self._interactions,
            configuration=self._configuration,
            metrics=self._metrics.series if self._metrics is not None else {},
            rank_assignments=self._rank_assignments,
            resets=self._resets,
            protocol=self._protocol.describe(),
        )

    def _record_final_snapshot(self) -> None:
        """Close metric series at the final interaction (like the reference)."""
        if self._metrics is None:
            return
        for series in self._metrics.series.values():
            if series.interactions and series.interactions[-1] == self._interactions:
                return
            break
        self._metrics.record(self._interactions, self._view_configuration())


def make_simulator(
    protocol: PopulationProtocol,
    engine: str = "reference",
    **kwargs,
):
    """Build a simulator for ``protocol`` by engine name.

    ``engine="reference"`` returns the agent-level :class:`Simulator`,
    ``engine="array"`` the vectorized :class:`ArraySimulator`, and
    ``engine="auto"`` asks the backend registry
    (:mod:`repro.core.backends`) for the fastest agent-level backend
    capable of the protocol — negotiated through the protocol's
    rng-consumption declaration.  All engines accept the shared keyword
    arguments (``configuration``, ``random_state``, ``metrics``,
    ``convergence_interval``).
    """
    if engine == "reference":
        return Simulator(protocol, **kwargs)
    if engine == "array":
        return ArraySimulator(protocol, **kwargs)
    if engine == "auto":
        from .backends import resolve_backend

        backend, _ = resolve_backend(
            protocol, "fresh", protocol.n, engine="auto", kinds=("agent",)
        )
        return backend.create(protocol, **kwargs)
    raise ValueError(
        f"unknown engine {engine!r}; expected one of {ENGINE_NAMES + ('auto',)}"
    )
