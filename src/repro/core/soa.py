"""Struct-of-arrays (SoA) vectorized kernels for the array engine.

The array engine's table path resolves *every* interaction through an
ordered scalar walk (:mod:`repro.core.array_engine`), which is exact but
caps the paper's protocols at roughly half a microsecond per interaction:
in the mid-run regime many unranked agents toggle synthetic coins and
churn liveness counters, so nearly every pair writes *something*.  This module defines the protocol-provided escape
hatch: a protocol that understands its own hot path can hand the engine a
:class:`VectorizedKernel` that consumes chunk *prefixes* with numpy
column operations instead of per-pair Python.

The division of labour:

* :class:`~repro.core.codec.StateCodec` projects interned states into
  per-field integer columns (``field_columns``) and back
  (``variant_code``) — states stay the single source of truth; columns are
  a view.
* :class:`ColumnStore` owns the per-*code* columns (grown incrementally as
  the codec interns new states), the live per-*agent* code array shared
  with the engine, and a memoized field-update → code lookup.
* A :class:`VectorizedKernel` (implemented per protocol, see
  ``StableRanking.vectorized_kernel`` and
  ``OneWayEpidemicProtocol.vectorized_kernel``) declares the fields it
  needs via :meth:`~VectorizedKernel.columns` and consumes pair chunks via
  :meth:`~VectorizedKernel.apply_chunk`.

Exactness contract
------------------
``apply_chunk`` must preserve *sequential* semantics bit-for-bit: the
committed prefix must leave the population in exactly the configuration the
reference :class:`~repro.core.simulation.Simulator` would reach after the
same pairs, and the returned statistics must match the reference's
transition results for those pairs.  A kernel is free to stop early — at
the first pair whose outcome it cannot prove vectorizedly (a rank
assignment, a reset, an agent in a state class outside its fast path) — by
returning ``processed < len(pairs)``; the engine then resolves the
following pairs through its validated ordered walk and re-enters the
kernel.  Returning ``processed == 0`` is always safe, so kernels should be
*conservative*: when in doubt about a pair, stop before it.

Kernels receive per-pair **agent indices**, not state codes: exact chunk
processing is all about the order in which the same agent re-appears
(synthetic-coin parity, counter chains), which the codes alone cannot
express.  The current codes are one gather away via ``columns.codes``.

Snapshot stops
--------------
The engine never ends a chunk at a metric snapshot.  Snapshots due
inside it arrive as ``stops``, sorted offsets into the chunk.  For every stop ``s`` that the committed prefix reaches
(``s <= processed``) the kernel commits the population through pair
``s - 1`` and calls ``on_stop(s)`` before it executes pair ``s``, so the
engine records the snapshot on the exact configuration the reference
reaches after ``s`` pairs of the chunk.  The kernel then carries on with
the vector setup it did once for the chunk (code gathers,
classification, coin parity relative to the chunk start): a stop's commit
applies only what happened since the previous stop.  ``on_stop`` only
reads the population.  Stops past ``processed`` are left to the engine,
which takes them on its generic paths after the kernel returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable,
)

import numpy as np

__all__ = [
    "ChunkOutcome",
    "ColumnStore",
    "VectorizedKernel",
    "grow_column",
    "occurrence_index",
]


def grow_column(column: np.ndarray, filled: int, size: int,
                minimum: int = 256) -> np.ndarray:
    """Return ``column`` with capacity ≥ ``size``, preserving ``filled``.

    The shared growth step of every incrementally classified per-code
    array (the column store and the kernels' derived attribute arrays):
    capacity doubles so amortized growth is linear, and only the filled
    prefix is copied — entries beyond it are uninitialized.
    """
    if size <= len(column):
        return column
    capacity = max(minimum, 2 * len(column), size)
    grown = np.empty(capacity, dtype=column.dtype)
    grown[:filled] = column[:filled]
    return grown


@dataclass(slots=True)
class ChunkOutcome:
    """What a kernel did with (a prefix of) a pair chunk.

    Attributes
    ----------
    processed:
        Number of pairs consumed exactly, counted from the front of the
        chunk.  The engine resolves ``pairs[processed:]`` itself.
    changed:
        Whether any committed pair changed some agent's state — drives the
        engine's convergence-check skipping exactly like the reference
        simulator's per-step ``TransitionResult.changed``.
    rank_assignments:
        Ranks assigned inside the prefix (the shipped kernels stop *before*
        rank-assigning pairs, so they always report 0).
    resets:
        Resets triggered inside the prefix (likewise 0 for kernels that
        stop before reset-triggering pairs).
    """

    processed: int
    changed: bool = False
    rank_assignments: int = 0
    resets: int = 0


@runtime_checkable
class VectorizedKernel(Protocol):
    """Optional protocol-provided fast path for the array engine.

    Protocols opt in by returning an implementation from
    :meth:`~repro.core.protocol.PopulationProtocol.vectorized_kernel`.
    """

    def columns(self) -> Tuple[str, ...]:
        """State field names the kernel reads through the column store."""
        ...  # pragma: no cover - protocol signature

    def apply_chunk(
        self,
        initiators: np.ndarray,
        responders: np.ndarray,
        columns: "ColumnStore",
        rng: np.random.Generator,
        stops: Sequence[int] = (),
        on_stop: Optional[Callable[[int], None]] = None,
    ) -> ChunkOutcome:
        """Exactly consume a maximal prefix of the ordered pair chunk.

        ``initiators``/``responders`` are parallel int64 arrays of agent
        indices (one ordered pair per position, in simulation order).
        State reads and writes go through ``columns``; ``rng`` is the
        run's generator and must not be consumed by tabulated protocols.
        ``on_stop(s)`` is called for each of the sorted ``stops`` with
        ``s <= processed``, in order, with the population committed
        through the first ``s`` pairs (see "Snapshot stops" above).
        """
        ...  # pragma: no cover - protocol signature


def occurrence_index(agents: np.ndarray) -> np.ndarray:
    """For each position, count earlier positions holding the same agent.

    The workhorse of coin-parity bookkeeping: an agent's synthetic coin at
    its ``k``-th appearance as responder differs from its chunk-start coin
    by the parity of ``k``.  Runs in one stable argsort over the chunk:
    an agent's ``k``-th appearance sits ``k`` places after its first one in
    the sorted order.
    """
    count = len(agents)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(agents, kind="stable")
    ordered = agents[order]
    occurrence = np.empty(count, dtype=np.int64)
    occurrence[order] = np.arange(count) - np.searchsorted(ordered, ordered)
    return occurrence


class ColumnStore:
    """Per-code field columns plus the live per-agent code view.

    One store is built per :class:`~repro.core.array_engine.ArraySimulator`
    run; the underlying codec may be shared across runs through an
    :class:`~repro.core.array_engine.EngineCache`, so the store grows its
    columns lazily whenever the codec has interned states it has not
    projected yet.
    """

    __slots__ = (
        "_codec",
        "_fields",
        "_columns",
        "_filled",
        "_variants",
        "_codes",
        "_code_list",
    )

    def __init__(self, codec, fields: Sequence[str]):
        self._codec = codec
        self._fields: Tuple[str, ...] = tuple(fields)
        self._columns: Dict[str, np.ndarray] = {
            field: np.empty(0, dtype=np.int64) for field in self._fields
        }
        self._filled = 0
        self._variants: Dict[tuple, int] = {}
        self._codes: Optional[np.ndarray] = None
        self._code_list: Optional[list] = None

    # ------------------------------------------------------------------
    # Live population view
    # ------------------------------------------------------------------
    def bind(self, codes: np.ndarray, code_list: list) -> None:
        """Attach the engine's canonical per-agent code containers."""
        self._codes = codes
        self._code_list = code_list

    @property
    def codec(self):
        """The underlying :class:`~repro.core.codec.StateCodec`."""
        return self._codec

    @property
    def fields(self) -> Tuple[str, ...]:
        """The projected field names, in declaration order."""
        return self._fields

    @property
    def codes(self) -> np.ndarray:
        """The live per-agent code array (shared with the engine)."""
        return self._codes

    @property
    def code_list(self) -> list:
        """The live per-agent codes as a Python list (shared with the engine)."""
        return self._code_list

    @property
    def size(self) -> int:
        """Number of codes currently covered by the columns."""
        return self._filled

    def commit(self, agents: Sequence[int], codes: Sequence[int]) -> None:
        """Write updated codes for ``agents`` into both engine views."""
        self._codes[list(agents)] = list(codes)
        code_list = self._code_list
        for agent, code in zip(agents, codes):
            code_list[agent] = code

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Extend the columns over newly interned codes; return the size."""
        size = self._codec.size
        filled = self._filled
        if size > filled:
            fresh = self._codec.field_columns(self._fields, start=filled)
            for field, column in self._columns.items():
                column = grow_column(column, filled, size)
                column[filled:size] = fresh[field]
                self._columns[field] = column
            self._filled = size
        return self._filled

    def column(self, field: str) -> np.ndarray:
        """The per-code column for ``field`` (length ≥ ``codec.size``).

        Undefined values (``None`` in the state object) read as ``-1``.
        Treat as read-only; the store owns the buffers.
        """
        self.refresh()
        return self._columns[field]

    # ------------------------------------------------------------------
    # Back-projection
    # ------------------------------------------------------------------
    def variant(self, code: int, **updates) -> int:
        """Memoized :meth:`~repro.core.codec.StateCodec.variant_code`."""
        key = (code, tuple(sorted(updates.items())))
        cached = self._variants.get(key)
        if cached is None:
            cached = self._codec.variant_code(code, **updates)
            self._variants[key] = cached
        return cached
