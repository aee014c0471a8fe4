"""Tests for the persistent cross-process tabulation store.

The store's contract has two halves, and this suite pins both:

* **Warmth transfers**: a fresh :class:`EngineCache` pointed at a
  populated store merges the persisted pairs before its
  first interning, and the resulting trajectories are bit-identical to
  cold runs — the store changes *when* tables are computed, never what.
* **Corruption cannot poison**: a truncated spill payload, a stale
  format stamp or plain garbage is warned about, deleted, and rebuilt by
  ordinary retabulation; it can never crash a run or change a row.

Concurrency is exercised the way production hits it: two *processes*
spill into one store simultaneously, and a third load sees the union.
"""

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from harness.differential import assert_identical, run_serial
from repro.core.array_engine import EngineCache
from repro.core.table_store import (
    FORMAT_VERSION,
    TableStore,
    consume_session_stats,
    protocol_key,
    session_stats,
)
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking.stable_ranking import StableRanking

N = 32
SEED = 7
BUDGET = 200 * N * N


def _run_lazy(cache, seed=SEED):
    return run_serial(
        "array", StableRanking, N, seed, budget=BUDGET, cache=cache
    )


def _spill_files(store_dir):
    return sorted(Path(store_dir).glob("*/pairs/spill-*"))


class TestPairSpillRoundTrip:
    def test_cold_spill_then_warm_load_is_bit_identical(self, tmp_path):
        store = tmp_path / "tables"
        consume_session_stats()

        cold_cache = EngineCache(persist_dir=store)
        cold = _run_lazy(cold_cache)
        assert cold_cache.spill() > 0
        written = consume_session_stats()
        assert written["spills_written"] == 1
        assert written["pairs_spilled"] == len(cold_cache.pair_cache)

        warm_cache = EngineCache(persist_dir=store)
        warm = _run_lazy(warm_cache)
        loaded = consume_session_stats()
        assert loaded["pairs_loaded"] == written["pairs_spilled"]
        assert loaded["spills_loaded"] == 1
        assert_identical(cold, warm, context="persisted-warm")

    def test_incremental_spill_writes_only_the_delta(self, tmp_path):
        store = tmp_path / "tables"
        cache = EngineCache(persist_dir=store)
        _run_lazy(cache, seed=1)
        first = cache.spill()
        assert first == len(cache.pair_cache)
        # A second run over the same cache adds few (or no) pairs; the
        # spill must cover exactly the watermarked delta, not re-write
        # the whole cache.
        _run_lazy(cache, seed=2)
        second = cache.spill()
        assert first + second == len(cache.pair_cache)
        assert cache.spill() == 0  # nothing new: no third artifact
        assert len(_spill_files(store)) == (2 if second else 1)

    def test_plain_cache_never_touches_disk(self, tmp_path):
        consume_session_stats()
        cache = EngineCache()
        _run_lazy(cache)
        assert cache.spill() == 0
        stats = consume_session_stats()
        assert stats["pairs_spilled"] == 0
        assert stats["spills_written"] == 0
        assert list(tmp_path.iterdir()) == []


class TestCorruptionRecovery:
    def _cold_and_store(self, tmp_path):
        store = tmp_path / "tables"
        cache = EngineCache(persist_dir=store)
        cold = _run_lazy(cache)
        cache.spill()
        return cold, store

    def test_truncated_spill_payload_warns_and_rebuilds(self, tmp_path):
        cold, store = self._cold_and_store(tmp_path)
        (spill,) = _spill_files(store)
        keys = spill / "keys.npy"
        # Tear the payload mid-array: the header still promises the full
        # count, so the mmap load must fail — and the artifact must be
        # discarded, not trusted.
        keys.write_bytes(keys.read_bytes()[: keys.stat().st_size // 2])

        consume_session_stats()
        warm_cache = EngineCache(persist_dir=store)
        with pytest.warns(UserWarning, match="discarding unreadable"):
            warm = _run_lazy(warm_cache)
        stats = session_stats()
        assert stats["artifacts_discarded"] == 1
        assert stats["pairs_loaded"] == 0
        assert not spill.exists()
        assert_identical(cold, warm, context="after truncated spill")
        # The retabulated pairs spill into a replacement artifact.
        assert warm_cache.spill() > 0
        assert len(_spill_files(store)) == 1

    def test_stale_format_version_is_discarded(self, tmp_path):
        cold, store = self._cold_and_store(tmp_path)
        (spill,) = _spill_files(store)
        manifest = json.loads((spill / "manifest.json").read_text())
        manifest["format"] = FORMAT_VERSION + 1
        (spill / "manifest.json").write_text(json.dumps(manifest))

        warm_cache = EngineCache(persist_dir=store)
        with pytest.warns(UserWarning, match="discarding unreadable"):
            warm = _run_lazy(warm_cache)
        assert not spill.exists()
        assert_identical(cold, warm, context="after stale format")

    def test_garbage_manifest_is_discarded(self, tmp_path):
        cold, store = self._cold_and_store(tmp_path)
        (spill,) = _spill_files(store)
        (spill / "manifest.json").write_bytes(b"\x00not json\xff")

        warm_cache = EngineCache(persist_dir=store)
        with pytest.warns(UserWarning, match="discarding unreadable"):
            warm = _run_lazy(warm_cache)
        assert not spill.exists()
        assert_identical(cold, warm, context="after garbage manifest")

    def test_unwritable_store_degrades_to_plain_cache(self, tmp_path):
        # A store path that is actually a file: binding the entry fails,
        # the cache warns once and runs cold — never raises.
        store = tmp_path / "tables"
        store.write_text("not a directory")
        cache = EngineCache(persist_dir=store)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warm = _run_lazy(cache)
            assert cache.spill() == 0
        cold = _run_lazy(EngineCache())
        assert_identical(cold, warm, context="unusable store")


_CHILD_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro.core.array_engine import EngineCache
    from repro.core.backends import get_backend
    from repro.protocols.ranking.stable_ranking import StableRanking

    store, seed = sys.argv[1], int(sys.argv[2])
    n = 32
    cache = EngineCache(persist_dir=store)
    simulator = get_backend("array").create(
        StableRanking(n),
        random_state=int(seed),
        convergence_interval=n,
        cache=cache,
    )
    simulator.run(max_interactions=200 * n * n)
    cache.spill()
    print(len(cache.pair_cache))
    """
)


class TestConcurrentWriters:
    def test_two_process_spills_merge_to_the_union(self, tmp_path):
        store = tmp_path / "tables"
        env = dict(os.environ)
        env.pop("REPRO_TABLE_CACHE", None)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _CHILD_SCRIPT, str(store), str(seed)],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
            for seed in (11, 12)
        ]
        counts = []
        for child in children:
            out, _ = child.communicate(timeout=600)
            assert child.returncode == 0
            counts.append(int(out.strip()))
        assert len(_spill_files(store)) == 2

        # A third (in-)process load sees the union of both spills, and
        # replays of both children's seeds are pure cache hits.
        consume_session_stats()
        cache = EngineCache(persist_dir=store)
        cache.load_persisted(StableRanking(32))
        assert len(cache.pair_cache) >= max(counts)
        loaded = consume_session_stats()
        assert loaded["spills_loaded"] == 2
        assert loaded["pairs_loaded"] == len(cache.pair_cache)
        for seed in (11, 12):
            cold = _run_lazy(EngineCache(), seed=seed)
            warm = _run_lazy(cache, seed=seed)
            assert_identical(cold, warm, context=f"merged seed {seed}")


class TestContentAddressing:
    def test_key_distinguishes_parameterizations(self):
        name_a, _ = protocol_key(StableRanking(32))
        name_b, _ = protocol_key(StableRanking(64))
        name_c, _ = protocol_key(OneWayEpidemicProtocol(32))
        assert len({name_a, name_b, name_c}) == 3
        assert name_a == protocol_key(StableRanking(32))[0]

    def test_entries_listing_and_describe(self, tmp_path):
        store = tmp_path / "tables"
        cache = EngineCache(persist_dir=store)
        _run_lazy(cache)
        cache.spill()
        table_store = TableStore(store)
        (entry,) = table_store.entries()
        info = entry.describe()
        assert info["spills"] == 1
        assert info["pairs"] == len(cache.pair_cache)
        assert info["bytes"] > 0
        table_store.clear()
        assert table_store.entries() == []
