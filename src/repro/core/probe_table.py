"""Probe-class storage for the array engine: dense below, hashed above.

The array engine's chunk-wide no-op elimination asks one question per
sampled pair: *what does the interaction between these two state codes do?*
— compressed to one byte of probe-class bits (writes-initiator,
writes-responder, carries-flags; see :mod:`repro.core.array_engine`).  The
natural store is a dense ``(S × S)`` int8 matrix indexed by the two codes,
and for the paper's protocols at moderate ``n`` that is also the fastest
one (a single flattened ``take`` per chunk).  But the matrix is quadratic
in the number of interned states: at the previous hard cap of 8192 states
it already weighed 64 MiB, and the baselines' ``Θ(n)``-overhead state
spaces (or ``StableRanking`` at ``n ≥ 1024``) blow far past it.  Beyond
the cap, probes used to degrade to "unknown", silently pushing every
affected pair onto the scalar walk forever — the cold path exactly where
large runs spend their time.

:class:`ProbeClassTable` removes the cap by switching representation at a
size threshold:

``dense``
    While the codec holds at most ``dense_limit`` states, classes live in
    the familiar ``(S_cap × S_cap)`` int8 matrix (grown in power-of-two
    steps).  Lookups are one fancy-index gather; entries never collide.
``hashed``
    Past the threshold the matrix is migrated into an open-addressed hash
    table mapping the packed pair key ``(a << key_bits) | b`` to its class
    byte.  Memory is proportional to the number of *tabulated pairs* — a
    single trajectory visits a vanishing fraction of ``S²`` for large
    state spaces — and lookups stay vectorized: a whole chunk of keys is
    resolved with a few rounds of batched linear probing (expected O(1)
    rounds at the enforced load factor).

Both representations answer unknown pairs with ``-1``, matching the
engine's conservative "writes both agents, carries flags" reading, so the
switch is invisible to callers.  Entries are only ever added (tabulation
appends), so the hash table needs no deletion markers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["ProbeClassTable", "DENSE_STATE_LIMIT"]

#: Default representation threshold: state counts up to this stay on the
#: dense matrix (2048² int8 = 4 MiB); larger codecs switch to the hash
#: table.  The old implementation capped the dense matrix at 8192 states
#: (64 MiB) and had nothing beyond it.
DENSE_STATE_LIMIT = 2048

#: 64-bit odd multiplier (golden-ratio constant) for multiplicative hashing.
_MIX = 0x9E3779B97F4A7C15
_WORD = 0xFFFF_FFFF_FFFF_FFFF

#: Empty-slot marker in the key array.  Pair keys are always non-negative,
#: so the negative sentinel can never collide with a real key.
_EMPTY = -1

#: Grow the hash table when occupied slots exceed this fraction.
_MAX_LOAD = 0.6


class ProbeClassTable:
    """Pair-code → probe-class byte map with a dense fast path.

    Parameters
    ----------
    key_bits:
        Bit width of one state code inside the packed pair key; must match
        the engine's packing (``_CODE_BITS``).
    dense_limit:
        Largest codec size served by the dense matrix; beyond it the table
        migrates (once, irreversibly) to the hashed representation.
    initial_hash_capacity:
        Slot count of the freshly migrated hash table (rounded up as needed
        to respect the load factor); always a power of two.
    """

    __slots__ = (
        "_key_bits", "_dense_limit", "_dense",
        "_keys", "_values", "_mask", "_shift", "_live",
    )

    def __init__(
        self,
        key_bits: int = 21,
        dense_limit: int = DENSE_STATE_LIMIT,
        initial_hash_capacity: int = 1 << 13,
    ):
        if dense_limit < 0:
            raise ValueError("dense_limit must be non-negative")
        self._key_bits = int(key_bits)
        self._dense_limit = int(dense_limit)
        #: Dense (cap × cap) int8 matrix, or ``None`` once hashed.
        self._dense: Optional[np.ndarray] = None
        #: Open-addressing arrays (``None`` while dense).
        self._keys: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        self._mask = 0
        self._shift = 64
        self._live = 0  # occupied slots
        if self._dense_limit == 0:
            self._init_hash(int(initial_hash_capacity))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The active representation: ``"dense"`` or ``"hashed"``."""
        return "dense" if self._keys is None else "hashed"

    @property
    def size(self) -> int:
        """Number of stored pair entries."""
        if self._keys is not None:
            return self._live
        if self._dense is None:
            return 0
        return int(np.count_nonzero(self._dense != _EMPTY))

    @property
    def capacity(self) -> int:
        """States covered (dense) or hash slots allocated (hashed)."""
        if self._keys is not None:
            return len(self._keys)
        return 0 if self._dense is None else self._dense.shape[0]

    def _key(self, a: int, b: int) -> int:
        return (a << self._key_bits) | b

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    def ensure_capacity(self, states: int) -> None:
        """Make the table able to store pairs of codes ``< states``.

        Dense tables grow in power-of-two steps up to ``dense_limit``
        states; the first request beyond the limit migrates every stored
        entry into the hash table.  Hashed tables accept any code, so the
        call becomes a no-op after migration.
        """
        if self._keys is not None:
            return
        if states > self._dense_limit:
            self._migrate_to_hash()
            return
        current = 0 if self._dense is None else self._dense.shape[0]
        if current >= states:
            return
        new_cap = 256
        while new_cap < states:
            new_cap *= 2
        new_cap = min(new_cap, self._dense_limit)
        grown = np.full((new_cap, new_cap), _EMPTY, dtype=np.int8)
        if current:
            grown[:current, :current] = self._dense
        self._dense = grown

    def _init_hash(self, capacity: int) -> None:
        size = 8
        while size < capacity:
            size *= 2
        self._keys = np.full(size, _EMPTY, dtype=np.int64)
        self._values = np.full(size, _EMPTY, dtype=np.int8)
        self._mask = size - 1
        self._shift = 64 - size.bit_length() + 1  # 64 - log2(size)
        self._live = 0

    def _migrate_to_hash(self) -> None:
        dense = self._dense
        entries = None
        needed = 1 << 13
        if dense is not None:
            rows, cols = np.nonzero(dense != _EMPTY)
            entries = (
                (rows.astype(np.int64) << self._key_bits) | cols,
                dense[rows, cols],
            )
            needed = max(needed, int(len(rows) / _MAX_LOAD) + 1)
        self._init_hash(needed)
        self._dense = None
        if entries is not None:
            self._bulk_insert(*entries)

    def _grow_hash(self) -> None:
        old_keys = self._keys
        old_values = self._values
        live = np.flatnonzero(old_keys >= 0)
        self._init_hash(max(len(old_keys) * 2, 8))
        self._bulk_insert(old_keys[live], old_values[live])

    def _bulk_insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert many *distinct* keys into a freshly initialized table.

        Vectorized counterpart of :meth:`_set_key` for migration and
        rehashing (where a scalar Python loop over up to millions of
        entries would stall the engine mid-run): each round computes every
        pending key's current slot, lets the first pending key per *empty*
        slot claim it, and advances the rest one slot.  Load factor is
        pre-sized by the callers, so no growth happens mid-insert.
        """
        table_keys = self._keys
        table_values = self._values
        mask = self._mask
        mixed = keys.astype(np.uint64) * np.uint64(_MIX)
        index = (mixed >> np.uint64(self._shift)).astype(np.int64)
        keys = keys.astype(np.int64)
        while len(keys):
            empty = table_keys[index] == _EMPTY
            # One winner per slot: np.unique returns the first occurrence
            # of each distinct target, preserving probe order for the rest.
            _slots, first = np.unique(index, return_index=True)
            winner = np.zeros(len(index), dtype=bool)
            winner[first] = True
            place = winner & empty
            placed = int(np.count_nonzero(place))
            if placed:
                table_keys[index[place]] = keys[place]
                table_values[index[place]] = values[place]
                self._live += placed
                rest = ~place
                keys = keys[rest]
                values = values[rest]
                index = index[rest]
            index = (index + 1) & mask

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def set(self, a: int, b: int, value: int) -> None:
        """Store the probe class of the ordered code pair ``(a, b)``.

        Dense callers must have called :meth:`ensure_capacity` for the
        codec size first (the engine does, on every tabulation).
        """
        if self._keys is None:
            self._dense[a, b] = value
            return
        self._set_key(self._key(a, b), value)

    def _set_key(self, key: int, value: int) -> None:
        if self._live + 1 > _MAX_LOAD * (self._mask + 1):
            self._grow_hash()
        keys = self._keys
        mask = self._mask
        index = ((key * _MIX) & _WORD) >> self._shift
        while True:
            stored = keys[index]
            if stored == key:
                self._values[index] = value
                return
            if stored == _EMPTY:
                keys[index] = key
                self._values[index] = value
                self._live += 1
                return
            index = (index + 1) & mask

    def bulk_set(self, cu: np.ndarray, cv: np.ndarray, values) -> None:
        """Store the probe classes of many *distinct* code pairs at once.

        This is the persisted-warm load path: a table-store merge arrives
        as parallel code/class arrays, and inserting them one scalar
        :meth:`set` at a time would dominate the load.  Dense tables take
        a single fancy-index scatter; a *fresh* hashed table takes the
        vectorized :meth:`_bulk_insert`; a hashed table that already holds
        entries falls back to scalar upserts (``_bulk_insert`` requires
        keys absent from the table).  Callers guarantee the pairs are
        distinct — the table-store merge dedups before calling.
        """
        count = len(cu)
        if count == 0:
            return
        cu = np.asarray(cu, dtype=np.int64)
        cv = np.asarray(cv, dtype=np.int64)
        values = np.asarray(values, dtype=np.int8)
        if self._keys is None:
            needed = int(max(cu.max(), cv.max())) + 1
            self.ensure_capacity(needed)
            if self._keys is None:
                self._dense[cu, cv] = values
                return
        keys = (cu << self._key_bits) | cv
        if self._live == 0:
            needed = int(count / _MAX_LOAD) + 1
            if needed > self._mask + 1:
                self._init_hash(needed)
            self._bulk_insert(keys, values)
            return
        for key, value in zip(keys.tolist(), values.tolist()):
            self._set_key(int(key), int(value))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, a: int, b: int) -> int:
        """The stored class of ``(a, b)``, or ``-1`` when unknown."""
        return int(
            self.lookup(
                np.asarray([a], dtype=np.int64), np.asarray([b], dtype=np.int64)
            )[0]
        )

    def lookup(self, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
        """Probe classes for a batch of code pairs; unknown entries read -1.

        Dense: one flattened gather.  Hashed: batched linear probing — each
        round gathers the slot under every still-unresolved key, resolves
        hits and empty-slot misses, and advances the rest one slot.  At the
        enforced load factor the expected number of rounds is O(1), so a
        whole chunk costs a handful of vector operations.
        """
        if self._keys is None:
            if self._dense is None:
                return np.full(len(cu), _EMPTY, dtype=np.int8)
            cap = self._dense.shape[0]
            if len(cu) and (int(cu.max()) >= cap or int(cv.max()) >= cap):
                # Codes beyond the allocated matrix are simply unknown
                # (callers that ensure_capacity first never hit this).
                result = np.full(len(cu), _EMPTY, dtype=np.int8)
                in_range = (cu < cap) & (cv < cap)
                result[in_range] = self._dense[cu[in_range], cv[in_range]]
                return result
            return self._dense.reshape(-1).take(cu * cap + cv)
        result = np.full(len(cu), _EMPTY, dtype=np.int8)
        if self._live == 0:
            return result
        keys = (cu.astype(np.int64) << self._key_bits) | cv
        mixed = keys.astype(np.uint64) * np.uint64(_MIX)
        index = (mixed >> np.uint64(self._shift)).astype(np.int64)
        active = np.arange(len(keys), dtype=np.int64)
        table_keys = self._keys
        mask = self._mask
        while len(active):
            stored = table_keys[index]
            hit = stored == keys
            if hit.any():
                result[active[hit]] = self._values[index[hit]]
            unresolved = ~(hit | (stored == _EMPTY))
            if not unresolved.any():
                break
            active = active[unresolved]
            keys = keys[unresolved]
            index = (index[unresolved] + 1) & mask
        return result
