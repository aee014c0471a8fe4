"""Tests for the sharded, concurrent-safe result store.

The load-bearing properties: appends are atomic single-write lines (so
concurrent shard writers can never interleave bytes), a torn trailing
record — a writer killed mid-append — is skipped-and-warned by readers
and truncated by the next appender, readers see the union of the
canonical file and every shard, and compaction folds shards back into
one canonical ``rows.jsonl`` without ever rewriting it.
"""

import json
import multiprocessing

import pytest

from repro.core.errors import ExperimentError
from repro.experiments.store import (
    ResultStore,
    append_jsonl_line,
    append_jsonl_lines,
    read_jsonl,
    repair_torn_tail,
)
from repro.serving import ShardedResultStore


def row(variant="v", n=8, seed=0, **extra):
    payload = {
        "variant": variant, "n": n, "seed_index": seed,
        "interactions": 100 + seed, "converged": True,
    }
    payload.update(extra)
    return payload


class TestAtomicAppend:
    def test_append_writes_one_complete_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        append_jsonl_line(path, row(seed=0))
        append_jsonl_line(path, row(seed=1), fsync=True)
        text = path.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["seed_index"] == 1

    def test_append_truncates_a_torn_tail_first(self, tmp_path):
        # A crashed writer's partial record must not corrupt the next
        # append into a malformed mid-file line: the partial (which is
        # deterministic to recompute) is truncated away.
        path = tmp_path / "rows.jsonl"
        append_jsonl_line(path, row(seed=0))
        with path.open("a") as handle:
            handle.write('{"variant": "v", "n": 8, "seed_ind')
        append_jsonl_line(path, row(seed=1))
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["seed_index"] for record in parsed] == [0, 1]

    def test_repair_handles_headless_partial_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"no newline at a')
        assert repair_torn_tail(path)
        assert path.read_text() == ""
        assert not repair_torn_tail(path)

    def test_concurrent_appenders_never_interleave_bytes(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        context = multiprocessing.get_context("spawn")
        processes = [
            context.Process(target=_append_many, args=(str(path), writer))
            for writer in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
            assert process.exitcode == 0
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(parsed) == 4 * 25
        seen = {(record["variant"], record["seed_index"]) for record in parsed}
        assert len(seen) == 4 * 25


class TestTornTailReads:
    def test_reader_skips_and_warns_on_torn_final_record(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        append_jsonl_line(path, row(seed=0))
        with path.open("a") as handle:
            handle.write('{"variant": "v", "n": 8, "se')
        with pytest.warns(UserWarning, match="torn trailing record"):
            rows = read_jsonl(path)
        assert [record["seed_index"] for record in rows] == [0]

    def test_truncated_mid_record_store_stays_resumable(self, tmp_path):
        # Regression for the satellite: truncate rows.jsonl mid-record
        # (killed writer) and assert load() returns the complete rows.
        store = ResultStore(tmp_path, "study", "feedc0ffee12")
        for seed in range(3):
            store.append(row(seed=seed))
        text = store.rows_path.read_text()
        store.rows_path.write_text(text[: len(text) - 17])  # cut into row 2
        with pytest.warns(UserWarning, match="torn trailing record"):
            rows = store.load()
        assert sorted(rows) == [("v", 8, 0), ("v", 8, 1)]

    def test_malformed_middle_line_still_raises(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        append_jsonl_line(path, row(seed=0))
        with path.open("a") as handle:
            handle.write("garbage\n")
        append_jsonl_line(path, row(seed=1))
        with pytest.raises(ExperimentError, match="corrupt row store"):
            read_jsonl(path)
        with pytest.warns(UserWarning, match="corrupt row store"):
            rows = read_jsonl(path, strict=False)
        assert len(rows) == 2


class TestShardUnion:
    def test_load_unions_canon_with_shards(self, tmp_path):
        canon = ResultStore(tmp_path, "study", "feedc0ffee12")
        canon.append(row(seed=0))
        a = ShardedResultStore(tmp_path, "study", "feedc0ffee12",
                               worker_id="wa")
        b = ShardedResultStore(tmp_path, "study", "feedc0ffee12",
                               worker_id="wb")
        a.append(row(seed=1))
        b.append(row(seed=2))
        # Duplicate of canon's cell in a shard: later (shard) copy wins,
        # which is invisible because duplicates are bit-identical.
        b.append(row(seed=0))
        assert sorted(canon.load()) == [("v", 8, 0), ("v", 8, 1), ("v", 8, 2)]
        assert sorted(a.load()) == sorted(b.load()) == sorted(canon.load())
        assert a.shard_path != b.shard_path
        assert len(canon.shard_paths()) == 2

    def test_sharded_append_never_touches_canon(self, tmp_path):
        shard = ShardedResultStore(tmp_path, "study", "feedc0ffee12")
        shard.append(row(seed=0))
        assert not shard.rows_path.exists()
        assert shard.shard_path.exists()

    def test_open_attaches_by_directory(self, tmp_path):
        store = ResultStore(tmp_path, "my-study", "feedc0ffee12")
        store.append(row(seed=0))
        reopened = ResultStore.open(store.directory)
        assert reopened.directory == store.directory
        assert sorted(reopened.load()) == [("v", 8, 0)]
        sharded = ShardedResultStore.open(store.directory, worker_id="w1")
        assert sharded.worker_id == "w1"
        with pytest.raises(ExperimentError):
            ResultStore.open(tmp_path / "noseparator")


class TestCompaction:
    def test_compact_folds_shards_into_canon(self, tmp_path):
        canon = ResultStore(tmp_path, "study", "feedc0ffee12")
        canon.append(row(seed=0))
        shard = ShardedResultStore(tmp_path, "study", "feedc0ffee12",
                                   worker_id="wa")
        shard.append(row(seed=1))
        shard.append(row(seed=0))  # duplicate of canon: not re-appended
        before = canon.load()
        assert canon.compact() == 1
        assert canon.shard_paths() == []
        assert not canon.shards_directory.exists()
        lines = canon.rows_path.read_text().splitlines()
        assert len(lines) == 2  # the duplicate collapsed
        assert canon.load() == before
        assert canon.compact() == 0  # idempotent

    def test_overlapping_shards_merge_each_row_once(self, tmp_path, monkeypatch):
        import repro.experiments.store as store_module

        canon = ResultStore(tmp_path, "study", "feedc0ffee12")
        canon.append(row(seed=0))
        for worker, seeds in (("wa", (1, 2, 3, 0)), ("wb", (2, 3, 4, 4))):
            shard = ShardedResultStore(tmp_path, "study", "feedc0ffee12",
                                       worker_id=worker)
            for seed in seeds:
                shard.append(row(seed=seed))
        before = canon.load()
        batches = []
        batched = store_module.append_jsonl_lines

        def counting(path, payloads, fsync=False):
            batches.append([payload["seed_index"] for payload in payloads])
            batched(path, payloads, fsync=fsync)

        monkeypatch.setattr(store_module, "append_jsonl_lines", counting)
        assert canon.compact() == 4
        # One batched write per shard, holding only its unmerged rows.
        assert batches == [[1, 2, 3], [4]]
        lines = canon.rows_path.read_text().splitlines()
        assert [json.loads(line)["seed_index"] for line in lines] == [0, 1, 2, 3, 4]
        assert canon.load() == before

    def test_compact_repairs_a_torn_canon_tail_before_the_batch(self, tmp_path):
        canon = ResultStore(tmp_path, "study", "feedc0ffee12")
        canon.append(row(seed=0))
        with canon.rows_path.open("a") as handle:
            handle.write('{"variant": "v", "n": 8, "se')
        shard = ShardedResultStore(tmp_path, "study", "feedc0ffee12",
                                   worker_id="wa")
        shard.append(row(seed=1))
        shard.append(row(seed=2))
        with pytest.warns(UserWarning, match="torn trailing record"):
            assert canon.compact() == 2
        parsed = [json.loads(line) for line in canon.rows_path.read_text().splitlines()]
        assert [record["seed_index"] for record in parsed] == [0, 1, 2]

    def test_compact_copies_kept_shard_lines_verbatim(self, tmp_path):
        canon = ResultStore(tmp_path, "study", "feedc0ffee12")
        canon.append(row(seed=0))
        canon_bytes = canon.rows_path.read_bytes()
        # Unsorted keys and extra spaces: a re-encoded row would differ.
        kept = [
            b'{"seed_index": 1,  "variant": "v", "n": 8, "converged": true}\n',
            b'{"n": 8, "variant": "v", "seed_index": 2, "interactions": 7}\n',
        ]
        duplicate = b'{"variant": "v", "n": 8, "seed_index": 0}\n'
        canon.shards_directory.mkdir()
        shard = canon.shards_directory / "wa.jsonl"
        shard.write_bytes(kept[0] + duplicate + kept[1] + b'{"variant": "v", "n')
        with pytest.warns(UserWarning, match="torn trailing record"):
            assert canon.compact() == 2
        assert canon.rows_path.read_bytes() == canon_bytes + b"".join(kept)
        assert not shard.exists()

    def test_batch_append_is_one_complete_run_of_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        append_jsonl_line(path, row(seed=0))
        append_jsonl_lines(path, [row(seed=1), row(seed=2)], fsync=True)
        text = path.read_text()
        assert text.endswith("\n")
        seeds = [json.loads(line)["seed_index"] for line in text.splitlines()]
        assert seeds == [0, 1, 2]

    def test_compact_without_shards_is_a_noop(self, tmp_path):
        store = ResultStore(tmp_path, "study", "feedc0ffee12")
        assert store.compact() == 0


def _append_many(path, writer):
    for index in range(25):
        append_jsonl_line(
            path, row(variant=f"w{writer}", seed=index), fsync=(index % 5 == 0)
        )
