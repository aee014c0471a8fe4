"""Tests for the incremental study ledger and the worker's failure log.

The ledger's contract: every appended record is parsed once, a record
is never consumed before its line is complete, the completed key set
survives compaction and shard recreation, and corruption still raises.
On top of it a drain parses O(cells) records, not O(cells^2), and a cell
that always raises ends ``failed`` after a fixed number of attempts
instead of looping.
"""

import pytest

from repro.core.errors import ExperimentError
from repro.experiments.cli import main
from repro.experiments.store import JsonlTail, ResultStore, append_jsonl_line
from repro.experiments.study import ExperimentSpec
from repro.serving import (
    JobQueue,
    ShardedResultStore,
    StudyLedger,
    StudyService,
    run_worker,
)
from repro.serving import worker as worker_module
from repro.serving.queue import MAX_FAILED_ATTEMPTS

STUDY = ("study", "feedc0ffee12")


def row(seed, variant="v", n=8, engine="array"):
    return {
        "variant": variant, "n": n, "seed_index": seed,
        "engine": engine, "interactions": 100 + seed,
    }


def ledger_for(tmp_path):
    directory = ResultStore(tmp_path, *STUDY).directory
    directory.mkdir(parents=True, exist_ok=True)
    return StudyLedger(directory)


def keys(*seeds):
    return {("v", 8, seed) for seed in seeds}


class TestJsonlTail:
    def test_reads_only_what_was_appended(self, tmp_path):
        path = tmp_path / "log.jsonl"
        tail = JsonlTail(path)
        assert tail.read() == ([], False)  # absent file: nothing, no reset
        append_jsonl_line(path, row(0))
        append_jsonl_line(path, row(1))
        records, reset = tail.read()
        assert [r["seed_index"] for r in records] == [0, 1] and not reset
        assert tail.read() == ([], False)
        append_jsonl_line(path, row(2))
        assert [r["seed_index"] for r in tail.read()[0]] == [2]
        assert tail.records_parsed == 3

    def test_disappearing_file_reports_a_reset(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl_line(path, row(0))
        tail = JsonlTail(path)
        assert len(tail.read()[0]) == 1
        path.unlink()
        assert tail.read() == ([], True)
        append_jsonl_line(path, row(1))
        records, reset = tail.read()
        assert [r["seed_index"] for r in records] == [1] and not reset

    def test_shrunk_file_is_reread_from_the_start(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for seed in range(3):
            append_jsonl_line(path, row(seed))
        tail = JsonlTail(path)
        tail.read()
        with path.open("r+") as handle:  # same inode, fewer bytes
            handle.truncate(0)
        append_jsonl_line(path, row(7))
        records, reset = tail.read()
        assert [r["seed_index"] for r in records] == [7] and reset


class TestLedger:
    def test_second_writer_appends_after_the_first_refresh(self, tmp_path):
        ledger = ledger_for(tmp_path)
        first = ShardedResultStore(tmp_path, *STUDY, worker_id="wa")
        first.append(row(0))
        assert set(ledger.refresh().completed) == keys(0)
        second = ShardedResultStore(tmp_path, *STUDY, worker_id="wb")
        second.append(row(1))
        first.append(row(2))
        assert set(ledger.refresh().completed) == keys(0, 1, 2)
        assert ledger.rows_parsed == 3

    def test_torn_tail_is_read_whole_once_the_line_completes(self, tmp_path):
        ledger = ledger_for(tmp_path)
        shard = ShardedResultStore(tmp_path, *STUDY, worker_id="wa")
        shard.append(row(0))
        line = shard.shard_path.read_text().replace('"seed_index": 0',
                                                    '"seed_index": 1')
        with shard.shard_path.open("a") as handle:
            handle.write(line[:20])  # a writer mid-append
        assert set(ledger.refresh().completed) == keys(0)
        with shard.shard_path.open("a") as handle:
            handle.write(line[20:])
        assert set(ledger.refresh().completed) == keys(0, 1)
        assert ledger.rows_parsed == 2

    def test_compaction_between_refreshes_keeps_the_key_set(self, tmp_path):
        ledger = ledger_for(tmp_path)
        canon = ResultStore(tmp_path, *STUDY)
        canon.append(row(0))
        shard = ShardedResultStore(tmp_path, *STUDY, worker_id="wa")
        shard.append(row(1))
        shard.append(row(2))
        before = set(ledger.refresh().completed)
        assert before == keys(0, 1, 2)
        assert canon.compact() == 2
        assert set(ledger.refresh().completed) == before
        assert dict(ledger.engines) == {key: "array" for key in before}

    def test_recreated_shard_is_reread(self, tmp_path):
        ledger = ledger_for(tmp_path)
        shard = ShardedResultStore(tmp_path, *STUDY, worker_id="wa")
        shard.append(row(0))
        shard.append(row(1))
        ledger.refresh()
        # Unlink and recreate under the same name: a new inode, or a
        # reused one whose bytes no longer match what was read.
        shard.shard_path.unlink()
        shard.append(row(5))
        shard.append(row(6))
        shard.append(row(7))
        assert set(ledger.refresh().completed) == keys(0, 1, 5, 6, 7)
        assert ledger.rows_parsed == 5

    def test_malformed_middle_line_still_raises(self, tmp_path):
        ledger = ledger_for(tmp_path)
        canon = ResultStore(tmp_path, *STUDY)
        canon.append(row(0))
        ledger.refresh()
        with canon.rows_path.open("a") as handle:
            handle.write('{"variant": garbage}\n')
        canon.append(row(1))
        for _ in range(2):  # and keeps raising: nothing was consumed
            with pytest.raises(ExperimentError, match="malformed line 2"):
                ledger.refresh()

    def test_pending_tracks_new_rows_and_new_jobs(self, tmp_path):
        the_spec = ExperimentSpec(
            variant="v", protocol="stable-ranking", n_values=(8,), seeds=2,
        )
        ledger = ledger_for(tmp_path)
        queue = JobQueue(ResultStore(tmp_path, *STUDY).directory)
        first, second = queue.enqueue_units(
            [("cell", the_spec.as_dict(), 8, seed) for seed in (0, 1)]
        )
        assert [job.id for job in ledger.pending()] == [first.id, second.id]
        ResultStore(tmp_path, *STUDY).append(row(0))
        assert [job.id for job in ledger.pending()] == [second.id]
        assert ledger.queue.records_parsed == 2


def cheap_spec(seeds, **overrides):
    settings = dict(
        variant="cheap", protocol="stable-ranking", n_values=(4,),
        seeds=seeds, engine="reference", max_interactions_factor=5.0,
        stop_on_convergence=False,
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


def submit(root, the_spec):
    service = StudyService(root)
    summary = service.submit({"name": "s", "specs": [the_spec.as_dict()]})
    return service, summary


class TestDrainScaling:
    @pytest.mark.parametrize("cells", [40, 160])
    def test_drain_parses_each_record_once(self, tmp_path, monkeypatch,
                                           cells):
        ledgers = []

        class RecordingLedger(StudyLedger):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                ledgers.append(self)

        monkeypatch.setattr(worker_module, "StudyLedger", RecordingLedger)
        loads = []
        real_load = ResultStore.load
        monkeypatch.setattr(
            ResultStore, "load",
            lambda store: loads.append(1) or real_load(store),
        )
        service, summary = submit(tmp_path, cheap_spec(cells))
        assert run_worker(summary["directory"], fsync=False) == cells
        (ledger,) = ledgers
        # One parse per row and per job record: linear, not quadratic.
        assert ledger.rows_parsed <= cells + 2
        assert ledger.queue.records_parsed <= cells + 2
        assert loads == [1]  # the submission's resume scan only
        assert service.progress(summary["study"])["complete"]


class TestFailureAccounting:
    def test_always_failing_cell_ends_failed(self, tmp_path, capsys):
        # Under engine="auto" an unknown protocol parameter passes spec
        # validation but makes every execution of the cell raise.
        the_spec = cheap_spec(2, engine="auto", protocol_params={"bogus": 1})
        service, summary = submit(tmp_path, the_spec)
        assert run_worker(summary["directory"], fsync=False) == 0
        queue = JobQueue(summary["directory"])
        failed = queue.failed()
        assert len(failed) == 2
        for attempts in failed.values():
            assert len(attempts) == MAX_FAILED_ATTEMPTS
            assert {a["error"] for a in attempts} == {"TypeError"}
            (trace,) = {a["traceback"] for a in attempts}
            assert trace.endswith(":build_protocol")
            assert all("bogus" in a["message"] for a in attempts)
            assert all(a["worker"] for a in attempts)
        assert queue.pending([]) == []
        progress = service.progress(summary["study"])
        assert progress["queue"]["failed"] == 2
        assert progress["queue"]["pending"] == 0
        assert not progress["complete"]
        assert [f["attempts"] for f in progress["failures"]] == [3, 3]

        assert main(["list", "--studies", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 pending (0 active, 0 stale, 2 failed)" in out
        assert "after 3 attempts: TypeError" in out
        assert "bogus" in out

        # Deleting the failure log makes the jobs pending again.
        (queue.jobs_path.parent / "failures.jsonl").unlink()
        assert len(queue.pending([])) == 2

    def test_a_failure_releases_the_lease_and_the_drain_goes_on(
        self, tmp_path, monkeypatch
    ):
        service, summary = submit(tmp_path, cheap_spec(3))
        real_execute = worker_module.execute_unit
        calls = []

        def flaky(unit):
            calls.append(unit[3])
            if unit[3] == 1 and calls.count(1) == 1:
                raise RuntimeError("transient")
            return real_execute(unit)

        monkeypatch.setattr(worker_module, "execute_unit", flaky)
        assert run_worker(summary["directory"], fsync=False) == 3
        assert calls == [0, 1, 1, 2]
        queue = JobQueue(summary["directory"])
        assert [len(a) for a in queue.failures().values()] == [1]
        assert queue.failed() == {}
        assert not any((queue.jobs_path.parent / "leases").glob("*.json"))
        assert service.progress(summary["study"])["complete"]


class TestServiceProgress:
    def test_progress_reads_the_ledger_not_full_rows(self, tmp_path,
                                                     monkeypatch):
        service, summary = submit(tmp_path, cheap_spec(3))
        run_worker(summary["directory"], fsync=False, max_jobs=2)

        def forbidden(store):
            raise AssertionError("progress must not reload full rows")

        monkeypatch.setattr(ResultStore, "load", forbidden)
        progress = service.progress(summary["study"])
        assert progress["done"] == 2
        assert progress["by_engine"] == {"reference": 2}
        assert progress["queue"]["pending"] == 1
        monkeypatch.undo()
        run_worker(summary["directory"], fsync=False)
        monkeypatch.setattr(ResultStore, "load", forbidden)
        assert service.progress(summary["study"])["complete"]
