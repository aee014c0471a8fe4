"""File-based work queue: cells as idempotent, leased jobs.

The queue lives entirely inside the study directory, so "a queue" needs
no broker — any process that can see the filesystem can submit or drain::

    <study-dir>/queue/
      jobs.jsonl           # append-only job manifest (deduped by job id)
      failures.jsonl       # append-only record of every failed attempt
      leases/<jobid>.json  # one atomic claim file per in-flight job

A *job* wraps one work unit of the study planner
(:func:`repro.experiments.study.plan_units`), a single ``(spec, n, seed)``
cell.  Queues written by earlier releases may also hold legacy ``batch``
jobs over several seeds of one ``(spec, n)``; they still drain, one cell
per seed.  The job id is a content hash over the *cell identity* (spec
identity seed, ``n``, seed indices), so re-submitting an overlapping
matrix never duplicates work.

The lease protocol is at-least-once by design:

* a claim is ``O_CREAT | O_EXCL`` on the lease file — atomic on every
  platform, first writer wins;
* the owner heartbeats by touching the file's mtime; a lease whose mtime
  is older than the timeout is *stale* and may be broken by any worker
  (re-checked immediately before the unlink to shrink the race window);
* completion is defined by the *store*, not by the queue: a job is done
  exactly when all its cell keys are persisted.  There are no "done"
  markers to desynchronize — crash after append, before release, and the
  job simply reads as complete.

Two workers racing a stale lease can, in the worst interleaving, both run
the job.  That is harmless: cells are deterministic in their coordinates,
so duplicate rows are bit-identical and the store's later-duplicate-wins
union collapses them.  Correctness rides on determinism; the leases only
exist to keep the *work* (not the results) from being duplicated.

A job whose execution raises is not retried forever: the worker appends
one record per failed attempt to ``failures.jsonl`` and releases the
lease, and a job with :data:`MAX_FAILED_ATTEMPTS` recorded failures is
*failed* — no longer pending, reported by :meth:`JobQueue.stats`.

The manifest and the failure log are read incrementally
(:class:`~repro.experiments.store.JsonlTail`): one queue object parses
each record once, however often it is asked for pending jobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
import traceback
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ExperimentError
from ..experiments.store import CellKey, JsonlTail, append_jsonl_line

__all__ = [
    "Job", "JobQueue", "Lease", "MAX_FAILED_ATTEMPTS", "job_for_unit",
]

#: Recorded failed attempts after which a job is ``failed`` (not retried).
MAX_FAILED_ATTEMPTS = 3

#: Innermost traceback frames kept in a failure record.
_TRACEBACK_FRAMES = 4


@dataclass(frozen=True)
class Job:
    """One idempotent unit of study work, keyed by cell identity."""

    id: str
    kind: str  # "cell" | legacy "batch"
    payload: dict  # the spec dictionary (ExperimentSpec.as_dict)
    n: int
    seed_indices: Tuple[int, ...]

    @property
    def unit(self) -> tuple:
        """The planner work unit this job wraps (see ``plan_units``)."""
        if self.kind == "batch":
            return ("batch", self.payload, self.n, self.seed_indices)
        return ("cell", self.payload, self.n, self.seed_indices[0])

    @cached_property
    def cell_keys(self) -> List[CellKey]:
        """The store keys this job produces when complete."""
        variant = self.payload["variant"]
        return [(variant, self.n, seed) for seed in self.seed_indices]

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "payload": self.payload,
            "n": self.n,
            "seed_indices": list(self.seed_indices),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Job":
        return cls(
            id=record["id"],
            kind=record["kind"],
            payload=dict(record["payload"]),
            n=int(record["n"]),
            seed_indices=tuple(int(s) for s in record["seed_indices"]),
        )


def job_for_unit(unit: tuple) -> Job:
    """Wrap one planner unit as a :class:`Job` with a content-hash id.

    The id hashes the spec's *identity seed* (trajectory-relevant fields
    only — the same derivation the store directory uses) plus the cell
    coordinates, so the same cells enqueued through different matrix
    extents or submission batches dedupe onto one job.
    """
    from ..experiments.study import ExperimentSpec

    kind, payload, n = unit[0], dict(unit[1]), int(unit[2])
    if kind == "batch":
        seeds = tuple(int(s) for s in unit[3])
    elif kind == "cell":
        seeds = (int(unit[3]),)
    else:
        raise ExperimentError(f"unknown work unit kind {kind!r}")
    identity = ExperimentSpec.from_dict(payload).identity_seed()
    canonical = json.dumps([kind, identity, n, list(seeds)])
    job_id = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    return Job(id=job_id, kind=kind, payload=payload, n=n, seed_indices=seeds)


class Lease:
    """An exclusive claim on one job, kept alive by mtime heartbeats."""

    def __init__(self, path: Path, worker_id: str):
        self._path = Path(path)
        self._worker_id = worker_id

    @property
    def path(self) -> Path:
        return self._path

    @property
    def worker_id(self) -> str:
        return self._worker_id

    def heartbeat(self) -> None:
        """Refresh the claim (touch the lease file's mtime)."""
        try:
            os.utime(self._path)
        except OSError:
            pass  # broken by a reclaimer; the job re-runs, rows dedupe

    def release(self) -> None:
        """Drop the claim (idempotent)."""
        try:
            self._path.unlink()
        except OSError:
            pass


class JobQueue:
    """The file-based job queue of one study directory."""

    def __init__(self, directory, lease_timeout: float = 60.0):
        if lease_timeout <= 0:
            raise ExperimentError("lease_timeout must be positive")
        self._directory = Path(directory)
        self._queue_dir = self._directory / "queue"
        self._jobs_path = self._queue_dir / "jobs.jsonl"
        self._failures_path = self._queue_dir / "failures.jsonl"
        self._leases_dir = self._queue_dir / "leases"
        self._lease_timeout = float(lease_timeout)
        self._manifest = JsonlTail(self._jobs_path)
        self._jobs: Dict[str, Job] = {}
        self._failure_log = JsonlTail(self._failures_path)
        self._failures: Dict[str, List[dict]] = {}

    @property
    def jobs_path(self) -> Path:
        """The append-only job manifest."""
        return self._jobs_path

    @property
    def records_parsed(self) -> int:
        """Manifest and failure records this queue object has parsed."""
        return (
            self._manifest.records_parsed + self._failure_log.records_parsed
        )

    @property
    def lease_timeout(self) -> float:
        """Seconds without a heartbeat after which a lease is stale."""
        return self._lease_timeout

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def enqueue_units(self, units: Sequence[tuple]) -> List[Job]:
        """Append jobs for the given planner units; returns the new jobs.

        Jobs whose id is already in the manifest are skipped, so
        re-submitting a spec (or extending its matrix, which re-plans the
        still-missing cells) is idempotent.
        """
        existing = {job.id for job in self.jobs()}
        added: List[Job] = []
        for unit in units:
            job = job_for_unit(unit)
            if job.id in existing:
                continue
            append_jsonl_line(self._jobs_path, job.as_dict(), fsync=True)
            existing.add(job.id)
            added.append(job)
        return added

    def jobs(self) -> List[Job]:
        """Every job in the manifest, in submission order (deduped)."""
        records, reset = self._manifest.read()
        if reset:
            self._jobs.clear()
        for record in records:
            if record["id"] not in self._jobs:
                self._jobs[record["id"]] = Job.from_dict(record)
        return list(self._jobs.values())

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def record_failure(self, job: Job, worker_id: str,
                       error: BaseException) -> dict:
        """Append one failed attempt of ``job`` to the failure log.

        The record names the worker and the exception, plus a short
        traceback digest: the innermost :data:`_TRACEBACK_FRAMES` frames
        as ``file:line:function``, outermost first.
        """
        frames = traceback.extract_tb(error.__traceback__)
        record = {
            "job": job.id,
            "worker": worker_id,
            "error": type(error).__name__,
            "message": str(error),
            "traceback": " > ".join(
                f"{Path(frame.filename).name}:{frame.lineno}:{frame.name}"
                for frame in frames[-_TRACEBACK_FRAMES:]
            ),
        }
        append_jsonl_line(self._failures_path, record, fsync=True)
        return record

    def failures(self) -> Dict[str, List[dict]]:
        """Every recorded failed attempt, grouped by job id."""
        records, reset = self._failure_log.read()
        if reset:
            self._failures.clear()
        for record in records:
            self._failures.setdefault(record["job"], []).append(record)
        return self._failures

    def failed(self) -> Dict[str, List[dict]]:
        """The failed attempts of every job that reached the cap."""
        return {
            job_id: attempts
            for job_id, attempts in self.failures().items()
            if len(attempts) >= MAX_FAILED_ATTEMPTS
        }

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pending(self, completed: Collection[CellKey]) -> List[Job]:
        """Jobs with a cell missing from ``completed``, except failed ones."""
        if not isinstance(completed, (set, frozenset)):
            completed = set(completed)
        failed = self.failed()
        return [
            job
            for job in self.jobs()
            if job.id not in failed and not completed.issuperset(job.cell_keys)
        ]

    def _lease_path(self, job: Job) -> Path:
        return self._leases_dir / f"{job.id}.json"

    def lease_state(self, job: Job) -> str:
        """``"free"``, ``"active"`` or ``"stale"`` for one job's lease."""
        try:
            age = time.time() - self._lease_path(job).stat().st_mtime
        except OSError:
            return "free"
        return "stale" if age > self._lease_timeout else "active"

    def claim(self, job: Job, worker_id: str) -> Optional[Lease]:
        """Try to claim ``job``; returns a :class:`Lease` or ``None``.

        A fresh claim is an atomic exclusive create.  A stale lease (no
        heartbeat for longer than the timeout — its owner crashed) is
        broken first: the staleness check is repeated immediately before
        the unlink, and the subsequent create is the same atomic race
        every other worker runs, so at most one claimant wins cleanly
        (and a lost double-unlink interleaving only costs duplicate
        bit-identical work, never a wrong result).
        """
        path = self._lease_path(job)
        self._leases_dir.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "job": job.id,
                "worker": worker_id,
                "pid": os.getpid(),
                "host": socket.gethostname(),
            },
            sort_keys=True,
        ).encode()
        for attempt in range(2):
            try:
                descriptor = os.open(
                    path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                if attempt > 0 or self.lease_state(job) != "stale":
                    return None
                try:  # break the stale lease, then retry the atomic create
                    if time.time() - path.stat().st_mtime > self._lease_timeout:
                        path.unlink()
                except OSError:
                    pass
                continue
            try:
                os.write(descriptor, payload)
            finally:
                os.close(descriptor)
            return Lease(path, worker_id)
        return None  # pragma: no cover - both attempts raced

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self, completed: Collection[CellKey]) -> dict:
        """Queue depth, lease states and failed jobs against a
        completed-cell set."""
        jobs = self.jobs()
        if not isinstance(completed, (set, frozenset)):
            completed = set(completed)
        failed_ids = self.failed()
        depth = active = stale = failed = 0
        for job in jobs:
            if completed.issuperset(job.cell_keys):
                continue
            if job.id in failed_ids:
                failed += 1
                continue
            depth += 1
            state = self.lease_state(job)
            if state == "active":
                active += 1
            elif state == "stale":
                stale += 1
        return {
            "jobs": len(jobs),
            "pending": depth,
            "active": active,
            "stale": stale,
            "failed": failed,
        }
