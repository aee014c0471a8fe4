"""Worker-drain tests, up to the multiprocess stress matrix.

The acceptance property of the serving subsystem: however many ``repro
worker`` processes drain one study directory — including one killed
mid-cell whose lease is reclaimed — the merged rows are bit-identical
(modulo row order) to ``Study.run(jobs=1)``.  Correctness rides on every
cell deriving its randomness from its own coordinates, so the tests
compare full row dictionaries, series and engine fields included.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.table_store import ENV_VAR as TABLE_CACHE_ENV
from repro.experiments.study import ExperimentSpec, Study, plan_units
from repro.serving import JobQueue, ShardedResultStore, run_worker

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def spec(**overrides):
    defaults = dict(
        variant="sr",
        protocol="stable-ranking",
        n_values=(8, 16),
        seeds=3,
        max_interactions_factor=2000.0,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def serial_rows(the_spec, tmp_path):
    result = Study(the_spec, name="ref", store=tmp_path / "serial-ref").run()
    return normalized(row.as_dict() for row in result.rows)


def normalized(rows):
    """Study-field-blanked rows in canonical cell order (stored rows
    carry ``study=""``; ResultSet rows carry the study name)."""
    out = []
    for row in rows:
        row = dict(row)
        row["study"] = ""
        out.append(row)
    out.sort(key=lambda row: (row["variant"], row["n"], row["seed_index"]))
    return out


def submit(the_spec, root, name="drain", units=None):
    """Create the study directory and enqueue its missing cells (or the
    given hand-written ``units``)."""
    study = Study(the_spec, name=name, store=root)
    store = study.store
    store.write_spec(
        {
            "study": name,
            "hash": study.content_hash(),
            "specs": [the_spec.as_dict()],
        }
    )
    queue = JobQueue(store.directory)
    if units is None:
        units = plan_units([the_spec], store.load().keys())
    queue.enqueue_units(units)
    return store, queue


def worker_command(directory, lease_timeout="2", extra=()):
    return [
        sys.executable, "-m", "repro", "worker", "--study", str(directory),
        "--lease-timeout", str(lease_timeout), "--quiet", *extra,
    ]


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class TestInProcessWorker:
    def test_single_worker_drains_to_serial_rows(self, tmp_path):
        the_spec = spec()
        store, queue = submit(the_spec, tmp_path / "served")
        jobs = run_worker(store.directory, lease_timeout=5.0)
        assert jobs == len(queue.jobs())
        assert queue.pending(store.load().keys()) == []
        assert normalized(store.load().values()) == serial_rows(
            the_spec, tmp_path
        )

    def test_drained_worker_compacts_shards(self, tmp_path):
        store, _ = submit(spec(n_values=(8,), seeds=2), tmp_path / "served")
        run_worker(store.directory, lease_timeout=5.0)
        assert store.shard_paths() == []
        assert store.rows_path.exists()
        assert len(store.load()) == 2

    def test_legacy_batch_job_drains_like_per_cell_jobs(self, tmp_path):
        # Queues persisted by earlier releases can hold one indivisible
        # ("batch", ...) job per seed group.
        the_spec = spec(n_values=(8,), seeds=3)
        legacy = ("batch", the_spec.as_dict(), 8, (0, 1, 2))
        store, queue = submit(the_spec, tmp_path / "legacy", units=[legacy])
        (job,) = queue.jobs()
        assert job.kind == "batch" and job.seed_indices == (0, 1, 2)
        # One persisted cell does not complete the legacy job.
        assert len(queue.pending([("sr", 8, 1)])) == 1
        assert run_worker(store.directory, lease_timeout=5.0) == 1

        cells, cell_queue = submit(the_spec, tmp_path / "cells")
        assert [job.kind for job in cell_queue.jobs()] == ["cell"] * 3
        assert run_worker(cells.directory, lease_timeout=5.0) == 3
        rows = normalized(store.load().values())
        assert {row["engine"] for row in rows} == {"array"}
        assert rows == normalized(cells.load().values())

    def test_stale_lease_is_reclaimed_and_rerun_to_same_bytes(self, tmp_path):
        the_spec = spec(n_values=(8,), seeds=2)
        store, queue = submit(the_spec, tmp_path / "served")
        # Simulate a crashed worker: claim a job, never heartbeat.
        victim_job = queue.pending([])[0]
        crashed = JobQueue(store.directory, lease_timeout=0.2)
        lease = crashed.claim(victim_job, "crashed")
        stale = time.time() - 60.0
        os.utime(lease.path, (stale, stale))
        jobs = run_worker(
            store.directory, lease_timeout=0.2, poll=0.05
        )
        assert jobs == len(queue.jobs())
        assert normalized(store.load().values()) == serial_rows(
            the_spec, tmp_path
        )

    def test_max_jobs_budget(self, tmp_path):
        store, queue = submit(spec(n_values=(8,), seeds=3),
                              tmp_path / "served")
        assert run_worker(store.directory, max_jobs=1) == 1
        assert len(queue.pending(store.load().keys())) == 2

    def test_table_store_export_ends_with_the_drain(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TABLE_CACHE_ENV, raising=False)
        store, _ = submit(spec(n_values=(8,), seeds=2), tmp_path / "served")
        during = []
        run_worker(
            store.directory, lease_timeout=5.0,
            progress=lambda line: during.append(os.environ.get(TABLE_CACHE_ENV)),
        )
        # Jobs ran with the study's table directory exported...
        assert str(store.directory / "tables") in during
        # ...and later work in this process does not spill into it.
        assert TABLE_CACHE_ENV not in os.environ

    def test_pinned_table_store_is_kept(self, tmp_path, monkeypatch):
        pinned = str(tmp_path / "pinned-tables")
        monkeypatch.setenv(TABLE_CACHE_ENV, pinned)
        store, _ = submit(spec(n_values=(8,), seeds=1), tmp_path / "served")
        during = []
        run_worker(
            store.directory, lease_timeout=5.0,
            progress=lambda line: during.append(os.environ.get(TABLE_CACHE_ENV)),
        )
        assert set(during) == {pinned}
        assert os.environ[TABLE_CACHE_ENV] == pinned

    def test_table_store_export_ends_when_the_drain_raises(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(TABLE_CACHE_ENV, raising=False)
        store, _ = submit(spec(n_values=(8,), seeds=1), tmp_path / "served")

        def interrupt(line):
            raise RuntimeError("progress sink closed")

        with pytest.raises(RuntimeError, match="sink closed"):
            run_worker(store.directory, lease_timeout=5.0, progress=interrupt)
        assert TABLE_CACHE_ENV not in os.environ

    def test_missing_study_directory_raises(self, tmp_path):
        from repro.core.errors import ExperimentError

        with pytest.raises(ExperimentError, match="no study directory"):
            run_worker(tmp_path / "nope-feedc0ffee12")


class TestMultiprocessStress:
    def test_four_workers_and_a_kill_match_serial(self, tmp_path):
        """4+ concurrent ``repro worker`` processes — one SIGKILLed while
        holding a lease mid-cell — drain one shared study directory to a
        result bit-identical to serial execution."""
        the_spec = spec(n_values=(8, 16), seeds=6)
        store, queue = submit(the_spec, tmp_path / "served")
        total_jobs = len(queue.jobs())
        assert total_jobs >= 2

        # A worker that claims a job and is killed mid-cell: its shard
        # has no rows for that job yet, its lease stops heartbeating.
        victim = subprocess.Popen(
            worker_command(store.directory, lease_timeout=2),
            env=worker_env(),
        )
        leases_dir = store.directory / "queue" / "leases"
        deadline = time.time() + 60.0
        while time.time() < deadline and not (
            leases_dir.is_dir() and any(leases_dir.glob("*.json"))
        ):
            time.sleep(0.02)
        assert any(leases_dir.glob("*.json")), "victim never claimed a job"
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        completed_before_kill = set(store.load().keys())

        workers = [
            subprocess.Popen(
                worker_command(store.directory, lease_timeout=2),
                env=worker_env(),
            )
            for _ in range(4)
        ]
        for worker in workers:
            assert worker.wait(timeout=300) == 0

        rows = store.load()
        # No completed row was lost to the kill...
        assert completed_before_kill <= set(rows.keys())
        # ...the queue fully drained (the victim's lease was reclaimed)...
        assert queue.pending(rows.keys()) == []
        # ...and the merged result is bit-identical to a serial run.
        assert normalized(rows.values()) == serial_rows(the_spec, tmp_path)
