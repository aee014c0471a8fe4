"""Tests for the probe-class table (dense fallback + hashed structure).

The table answers the array engine's chunk-wide "what does this state pair
do?" probe.  Load-bearing properties: the dense and hashed representations
are observationally identical (same answers, unknown = -1); the dense →
hashed migration at the size threshold preserves every entry; codes beyond
the old 8192-state cap stay warm (the cap is gone); and the open-addressed
internals handle collisions, tombstones and resizing correctly.
"""

import numpy as np
import pytest

from repro.core.probe_table import DENSE_STATE_LIMIT, ProbeClassTable


def lookup1(table, a, b):
    return int(
        table.lookup(
            np.asarray([a], dtype=np.int64), np.asarray([b], dtype=np.int64)
        )[0]
    )


class TestDenseRepresentation:
    def test_starts_dense_and_unknown(self):
        table = ProbeClassTable()
        table.ensure_capacity(10)
        assert table.backend == "dense"
        assert lookup1(table, 3, 7) == -1
        assert table.size == 0

    def test_set_and_lookup(self):
        table = ProbeClassTable()
        table.ensure_capacity(16)
        table.set(3, 7, 5)
        table.set(7, 3, 2)
        assert lookup1(table, 3, 7) == 5
        assert lookup1(table, 7, 3) == 2
        assert lookup1(table, 3, 3) == -1
        assert table.size == 2

    def test_growth_preserves_entries(self):
        table = ProbeClassTable()
        table.ensure_capacity(4)
        table.set(1, 2, 6)
        table.ensure_capacity(300)  # forces a 256 -> 512 style regrow
        assert table.backend == "dense"
        assert lookup1(table, 1, 2) == 6
        assert lookup1(table, 299, 299) == -1

    def test_discard(self):
        table = ProbeClassTable()
        table.ensure_capacity(8)
        table.set(1, 2, 3)
        assert table.discard(1, 2)
        assert not table.discard(1, 2)
        assert lookup1(table, 1, 2) == -1

    def test_codes_beyond_capacity_read_unknown(self):
        table = ProbeClassTable()
        table.ensure_capacity(16)
        table.set(1, 2, 3)
        # Codes past the allocated matrix are unknown, not an IndexError.
        assert lookup1(table, 300, 0) == -1
        assert table.get(0, 300) == -1
        mixed = table.lookup(
            np.asarray([1, 300], dtype=np.int64),
            np.asarray([2, 300], dtype=np.int64),
        )
        assert mixed.tolist() == [3, -1]


class TestHashedRepresentation:
    def make_hashed(self, **kwargs):
        table = ProbeClassTable(dense_limit=0, **kwargs)
        assert table.backend == "hashed"
        return table

    def test_set_and_lookup(self):
        table = self.make_hashed()
        table.set(100_000, 200_000, 7)
        table.set(200_000, 100_000, 1)
        assert lookup1(table, 100_000, 200_000) == 7
        assert lookup1(table, 200_000, 100_000) == 1
        assert lookup1(table, 100_000, 100_000) == -1
        assert table.size == 2

    def test_batch_lookup_mixed_hits_and_misses(self):
        table = self.make_hashed()
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, 1 << 20, size=(500, 2))
        for index, (a, b) in enumerate(pairs.tolist()):
            table.set(a, b, index % 8)
        cu = np.concatenate([pairs[:, 0], rng.integers(0, 1 << 20, 100)])
        cv = np.concatenate([pairs[:, 1], rng.integers(0, 1 << 20, 100)])
        classes = table.lookup(cu.astype(np.int64), cv.astype(np.int64))
        expected = {(int(a), int(b)): i % 8 for i, (a, b) in enumerate(pairs.tolist())}
        for value, a, b in zip(classes.tolist(), cu.tolist(), cv.tolist()):
            assert value == expected.get((a, b), -1)

    def test_collisions_resolve_by_probing(self):
        # A tiny table forces long probe chains: with 8 slots and a 0.6
        # load limit, 4 entries guarantee at least one collision for some
        # key set; insert enough keys to exercise wrap-around probing.
        table = self.make_hashed(initial_hash_capacity=8)
        entries = [(k, (3 * k + 1) % 7) for k in range(0, 4)]
        for key, value in entries:
            table.set(key, key + 1, value)
        for key, value in entries:
            assert lookup1(table, key, key + 1) == value

    def test_resize_preserves_entries(self):
        table = self.make_hashed(initial_hash_capacity=8)
        for k in range(200):  # far beyond the initial 8 slots
            table.set(k, 2 * k, k % 8)
        assert table.capacity >= 256
        for k in range(200):
            assert lookup1(table, k, 2 * k) == k % 8
        assert table.size == 200

    def test_tombstones_keep_probe_chains_intact(self):
        # Insert colliding keys, delete one in the middle of the chain,
        # and verify the later entries still resolve (the tombstone must
        # not terminate the probe like an empty slot would).
        table = self.make_hashed(initial_hash_capacity=16)
        keys = list(range(9))  # load factor 9/16 > 0.5: chains exist
        for k in keys:
            table.set(k, 0, k % 8)
        assert table.discard(4, 0)
        for k in keys:
            expected = -1 if k == 4 else k % 8
            assert lookup1(table, k, 0) == expected
        # The tombstoned slot is reusable: live count does not leak.
        size_before = table.size
        table.set(4, 0, 5)
        assert lookup1(table, 4, 0) == 5
        assert table.size == size_before + 1

    def test_overwrite_updates_in_place(self):
        table = self.make_hashed()
        table.set(42, 43, 1)
        table.set(42, 43, 6)
        assert lookup1(table, 42, 43) == 6
        assert table.size == 1

    def test_discard_missing_key_is_false(self):
        table = self.make_hashed()
        table.set(1, 2, 3)
        assert not table.discard(2, 1)
        assert table.size == 1


class TestMigration:
    def test_dense_until_limit_then_hashed(self):
        table = ProbeClassTable(dense_limit=512)
        table.ensure_capacity(512)
        assert table.backend == "dense"
        table.ensure_capacity(513)
        assert table.backend == "hashed"
        # Hashed accepts any code from now on; ensure_capacity is a no-op.
        table.ensure_capacity(10**6)
        assert table.backend == "hashed"

    def test_migration_preserves_all_entries(self):
        table = ProbeClassTable(dense_limit=256)
        table.ensure_capacity(256)
        rng = np.random.default_rng(1)
        pairs = {
            (int(a), int(b)): int(v)
            for a, b, v in zip(
                rng.integers(0, 256, 300),
                rng.integers(0, 256, 300),
                rng.integers(0, 8, 300),
            )
        }
        for (a, b), value in pairs.items():
            table.set(a, b, value)
        table.ensure_capacity(257)
        assert table.backend == "hashed"
        assert table.size == len(pairs)
        for (a, b), value in pairs.items():
            assert lookup1(table, a, b) == value
        # And pairs never stored still read unknown after the migration.
        assert lookup1(table, 400, 400) == -1

    def test_bulk_migration_parity_at_scale(self):
        # Migration and rehashing go through the vectorized bulk insert;
        # verify it against a plain dict on a large random entry set that
        # forces several growth rounds after the migration.
        table = ProbeClassTable(dense_limit=1024)
        table.ensure_capacity(1024)
        rng = np.random.default_rng(3)
        expected = {}
        for a, b, v in zip(
            rng.integers(0, 1024, 30_000),
            rng.integers(0, 1024, 30_000),
            rng.integers(0, 8, 30_000),
        ):
            expected[(int(a), int(b))] = int(v)
            table.set(int(a), int(b), int(v))
        table.ensure_capacity(1025)  # migrate ~26k entries in bulk
        assert table.backend == "hashed"
        for a, b, v in zip(
            rng.integers(1024, 1 << 18, 30_000),
            rng.integers(1024, 1 << 18, 30_000),
            rng.integers(0, 8, 30_000),
        ):
            expected[(int(a), int(b))] = int(v)
            table.set(int(a), int(b), int(v))  # forces repeated rehashes
        assert table.size == len(expected)
        pairs = np.asarray(list(expected), dtype=np.int64)
        classes = table.lookup(pairs[:, 0], pairs[:, 1])
        assert classes.tolist() == [
            expected[(int(a), int(b))] for a, b in pairs.tolist()
        ]

    def test_dense_and_hashed_agree_at_small_sizes(self):
        dense = ProbeClassTable(dense_limit=DENSE_STATE_LIMIT)
        hashed = ProbeClassTable(dense_limit=0)
        dense.ensure_capacity(64)
        rng = np.random.default_rng(2)
        for _ in range(500):
            a, b, v = int(rng.integers(64)), int(rng.integers(64)), int(rng.integers(8))
            dense.set(a, b, v)
            hashed.set(a, b, v)
        cu = rng.integers(0, 64, 2000).astype(np.int64)
        cv = rng.integers(0, 64, 2000).astype(np.int64)
        assert np.array_equal(dense.lookup(cu, cv), hashed.lookup(cu, cv))
        assert dense.backend == "dense" and hashed.backend == "hashed"


class TestEngineBeyondOldCap:
    """The acceptance property: > 8192 states stay on the warm path."""

    N = 9000  # state-space size and population, both past the old cap

    def test_large_state_space_runs_warm_not_demoted(self):
        from repro.baselines.cai_ranking import CaiRanking, CaiState
        from repro.core.array_engine import ArraySimulator
        from repro.core.configuration import Configuration
        from repro.core.simulation import Simulator

        def configuration():
            # All labels distinct: the codec interns N > 8192 states the
            # moment the population is encoded.
            return Configuration(
                [CaiState(rank=label) for label in range(1, self.N + 1)]
            )

        array = ArraySimulator(
            CaiRanking(self.N), configuration=configuration(), random_state=7
        )
        assert array.mode == "lazy"  # no cap error, no object demotion
        assert array.codec.size == self.N > 8192
        assert array.kernel is not None
        probe_table = array._cache.probe_table
        assert probe_table.backend == "hashed"

        array.run(max_interactions=20_000, stop_on_convergence=False)
        assert array.mode == "lazy"  # still not demoted

        # Pairs the walk tabulated are warm for the chunk probe — even
        # for codes far beyond the old 8192 cap, where the previous dense
        # table silently answered "unknown" forever.
        high = [
            key for key in array.kernel.pair_dict
            if (key >> 21) > 8192 and (key & ((1 << 21) - 1)) > 8192
        ]
        assert high, "expected tabulated pairs with codes beyond the old cap"
        key = high[0]
        assert probe_table.get(key >> 21, key & ((1 << 21) - 1)) >= 0

        # And the trajectory is still bit-identical to the reference.
        reference = Simulator(
            CaiRanking(self.N), configuration=configuration(), random_state=7
        )
        reference.run(max_interactions=20_000, stop_on_convergence=False)
        assert [s.rank for s in array.configuration.states] == [
            s.rank for s in reference.configuration.states
        ]
