"""Tests for the file-based job queue and its lease protocol.

Jobs are idempotent wrappers around planner work units, keyed by cell
identity (so re-submission dedupes); claims are atomic exclusive file
creates; a lease without heartbeats goes stale and can be reclaimed; and
completion is defined by the store's cell keys, never by queue state.
"""

import os
import time

import pytest

from repro.experiments.study import ExperimentSpec, plan_units
from repro.serving.queue import JobQueue, job_for_unit


def spec(**overrides):
    defaults = dict(
        variant="sr",
        protocol="stable-ranking",
        n_values=(8,),
        seeds=3,
        max_interactions_factor=2000.0,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def units_for(the_spec, known=()):
    return plan_units([the_spec], known)


class TestJobIdentity:
    def test_job_wraps_unit_and_lists_cell_keys(self):
        the_spec = spec()
        units = units_for(the_spec)
        jobs = [job_for_unit(unit) for unit in units]
        keys = [key for job in jobs for key in job.cell_keys]
        assert sorted(keys) == [("sr", 8, 0), ("sr", 8, 1), ("sr", 8, 2)]
        for job, unit in zip(jobs, units):
            assert job.unit == unit

    def test_id_ignores_matrix_extent(self):
        # The same cell reached through different matrix extents is the
        # same job: extending a study re-plans without duplicating work.
        narrow = units_for(spec(seeds=1))
        wide = units_for(spec(seeds=4), known=[("sr", 8, 1), ("sr", 8, 2),
                                               ("sr", 8, 3)])
        assert job_for_unit(narrow[0]).id == job_for_unit(wide[0]).id

    def test_id_tracks_trajectory_relevant_fields(self):
        a = job_for_unit(units_for(spec())[0])
        b = job_for_unit(units_for(spec(random_state=7))[0])
        assert a.id != b.id

    def test_round_trip(self):
        job = job_for_unit(units_for(spec())[0])
        assert type(job).from_dict(job.as_dict()) == job

    def test_legacy_batch_unit_is_one_job_over_every_seed(self):
        # Queues persisted by earlier releases can hold ("batch", ...)
        # units; they still parse into one job covering each listed cell.
        the_spec = spec()
        legacy = ("batch", the_spec.as_dict(), 8, (0, 1, 2))
        job = job_for_unit(legacy)
        assert job.kind == "batch"
        assert job.unit == legacy
        assert job.cell_keys == [("sr", 8, 0), ("sr", 8, 1), ("sr", 8, 2)]
        assert type(job).from_dict(job.as_dict()) == job
        cell_ids = {job_for_unit(unit).id for unit in units_for(the_spec)}
        assert job.id not in cell_ids

    def test_unknown_unit_kind_is_rejected(self):
        from repro.core.errors import ExperimentError

        with pytest.raises(ExperimentError, match="unknown work unit kind"):
            job_for_unit(("group", spec().as_dict(), 8, (0, 1)))


class TestQueue:
    def test_enqueue_dedupes_by_job_id(self, tmp_path):
        queue = JobQueue(tmp_path)
        units = units_for(spec())
        assert len(queue.enqueue_units(units)) == 3
        assert queue.enqueue_units(units) == []
        assert len(queue.jobs()) == 3

    def test_pending_is_defined_by_the_completed_set(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue_units(units_for(spec()))
        assert len(queue.pending([])) == 3
        assert len(queue.pending([("sr", 8, 0), ("sr", 8, 2)])) == 1
        done = [("sr", 8, 0), ("sr", 8, 1), ("sr", 8, 2)]
        assert queue.pending(done) == []
        assert queue.stats(done) == {
            "jobs": 3, "pending": 0, "active": 0, "stale": 0, "failed": 0,
        }

    def test_figure2_seed_group_plans_one_job_per_cell(self, tmp_path):
        from repro.experiments.figure2 import figure2_specs

        (figure2,) = figure2_specs(n_values=(64,), seeds=8)
        assert figure2.engine == "auto"
        units = plan_units([figure2], ())
        assert [unit[0] for unit in units] == ["cell"] * 8
        assert [unit[3] for unit in units] == list(range(8))
        queue = JobQueue(tmp_path)
        assert len(queue.enqueue_units(units)) == 8


class TestLeases:
    def test_claim_is_exclusive(self, tmp_path):
        queue = JobQueue(tmp_path, lease_timeout=60.0)
        (job,) = queue.enqueue_units(units_for(spec(seeds=1)))
        lease = queue.claim(job, "worker-a")
        assert lease is not None
        assert queue.lease_state(job) == "active"
        assert queue.claim(job, "worker-b") is None
        lease.release()
        assert queue.lease_state(job) == "free"
        assert queue.claim(job, "worker-b") is not None

    def test_stale_lease_is_reclaimed(self, tmp_path):
        queue = JobQueue(tmp_path, lease_timeout=0.2)
        (job,) = queue.enqueue_units(units_for(spec(seeds=1)))
        lease = queue.claim(job, "crashed-worker")
        assert queue.claim(job, "worker-b") is None  # still fresh
        stale = time.time() - 5.0
        os.utime(lease.path, (stale, stale))
        assert queue.lease_state(job) == "stale"
        reclaimed = queue.claim(job, "worker-b")
        assert reclaimed is not None
        assert reclaimed.worker_id == "worker-b"
        assert queue.lease_state(job) == "active"

    def test_heartbeat_keeps_a_lease_fresh(self, tmp_path):
        queue = JobQueue(tmp_path, lease_timeout=0.3)
        (job,) = queue.enqueue_units(units_for(spec(seeds=1)))
        lease = queue.claim(job, "worker-a")
        deadline = time.time() + 0.6
        while time.time() < deadline:
            lease.heartbeat()
            time.sleep(0.05)
        assert queue.lease_state(job) == "active"

    def test_stats_reports_lease_states(self, tmp_path):
        queue = JobQueue(tmp_path, lease_timeout=0.2)
        jobs = queue.enqueue_units(units_for(spec(seeds=3)))
        queue.claim(jobs[0], "a")
        stale_lease = queue.claim(jobs[1], "b")
        stale = time.time() - 5.0
        os.utime(stale_lease.path, (stale, stale))
        assert queue.stats([]) == {
            "jobs": 3, "pending": 3, "active": 1, "stale": 1, "failed": 0,
        }

    def test_lease_timeout_must_be_positive(self, tmp_path):
        from repro.core.errors import ExperimentError

        with pytest.raises(ExperimentError):
            JobQueue(tmp_path, lease_timeout=0.0)
