"""``repro worker`` — drain one study's job queue from any process.

A worker is the scale-out unit of the serving subsystem: point any number
of them (processes, hosts sharing a filesystem) at one study directory
and they cooperatively drain its queue.  Each iteration refreshes the
worker's :class:`~repro.serving.ledger.StudyLedger` — parsing only the
rows and jobs appended since the previous iteration, so the per-job cost
does not grow with the study — claims the first pending job whose lease
it wins, executes the unit through exactly the same code path as
``Study.run`` (:func:`repro.experiments.parallel.execute_unit`), appends
the rows to its private shard — fsynced *before* the lease is released,
so a freed job implies durable rows — and moves on.  A heartbeat thread
keeps the lease fresh during long cells; if the worker dies instead, the
lease goes stale and another worker reclaims the job, re-running it to
the same bytes (cells are deterministic in their coordinates).

A job whose execution raises is recorded in the queue's failure log
(:meth:`~repro.serving.queue.JobQueue.record_failure`), its lease is
released and the worker moves on; after
:data:`~repro.serving.queue.MAX_FAILED_ATTEMPTS` recorded failures the
job is ``failed`` and no worker claims it again.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

from ..core.errors import ExperimentError
from ..core.table_store import exported_store_dir
from ..experiments.parallel import execute_unit
from .ledger import StudyLedger
from .store import ShardedResultStore

__all__ = ["run_worker"]


class _Heartbeat:
    """Daemon thread touching the held lease's mtime at a fixed cadence.

    One thread serves the worker's whole drain; :meth:`holding` names
    the lease to keep fresh while a job runs.
    """

    def __init__(self, interval: float):
        self._lease = None
        self._interval = max(0.05, interval)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            lease = self._lease
            if lease is not None:
                lease.heartbeat()

    @contextmanager
    def holding(self, lease):
        self._lease = lease
        try:
            yield
        finally:
            self._lease = None

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def run_worker(
    study_dir,
    lease_timeout: float = 60.0,
    poll: float = 0.5,
    max_jobs: Optional[int] = None,
    follow: bool = False,
    worker_id: Optional[str] = None,
    fsync: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> int:
    """Drain the study's queue; returns the number of jobs completed.

    Parameters
    ----------
    study_dir:
        The study directory (``<name>-<hash12>``), as created by
        ``Study``/``repro serve`` and printed by submission.
    lease_timeout:
        Seconds without a heartbeat before another worker may break a
        claim.  Heartbeats fire every quarter of this.
    poll:
        Sleep between queue scans when every pending job is leased by
        someone else (or, with ``follow``, when the queue is empty).
    max_jobs:
        Stop after this many completed jobs (``None`` = unlimited).
    follow:
        Keep polling for new submissions once the queue is drained
        instead of exiting (the mode ``repro serve --workers N`` uses).
    worker_id:
        Shard / lease owner name; defaults to a fresh per-process token.
    fsync:
        Fsync shard appends before releasing a job's lease (default on).
    progress:
        Called with one human-readable line per worker event.
    """
    if not Path(study_dir).is_dir():
        raise ExperimentError(f"no study directory at {study_dir}")
    store = ShardedResultStore.open(
        study_dir, worker_id=worker_id, fsync=fsync
    )
    ledger = StudyLedger(store.directory, lease_timeout=lease_timeout)
    queue = ledger.queue
    say = progress if progress is not None else (lambda line: None)
    completed_jobs = 0
    # Every worker of one study shares the study's table directory as its
    # persistent tabulation store (first contact tabulates, everyone else
    # mmaps) for the drain, unless the operator pinned REPRO_TABLE_CACHE
    # elsewhere.
    with exported_store_dir(store.directory / "tables"), _Heartbeat(
        interval=lease_timeout / 4.0
    ) as heartbeat:
        while max_jobs is None or completed_jobs < max_jobs:
            candidates = ledger.pending()
            if not candidates:
                if follow:
                    time.sleep(poll)
                    continue
                break
            claimed = None
            for job in candidates:
                lease = queue.claim(job, store.worker_id)
                if lease is not None:
                    claimed = (job, lease)
                    break
            if claimed is None:
                # Every pending job is actively leased by another worker;
                # wait for leases to resolve (or go stale) and rescan.
                time.sleep(poll)
                continue
            job, lease = claimed
            say(
                f"[{store.worker_id}] job {job.id} {job.kind} n={job.n} "
                f"seeds={list(job.seed_indices)}"
            )
            try:
                with heartbeat.holding(lease):
                    rows = execute_unit(job.unit)
                    for row in rows:
                        store.append(row)
            except Exception as error:
                # Recorded before the lease is released, so the next claimant
                # already counts this attempt.
                record = queue.record_failure(job, store.worker_id, error)
                say(
                    f"[{store.worker_id}] job {job.id} failed: "
                    f"{record['error']}: {record['message']}"
                )
                continue
            finally:
                lease.release()
            completed_jobs += 1
            say(f"[{store.worker_id}] job {job.id} done ({len(rows)} rows)")
    # Drained (or hit the job budget): fold this run's shards into the
    # canonical file so a finished study converges back to one rows.jsonl.
    if not ledger.pending():
        merged = store.compact()
        if merged:
            say(f"[{store.worker_id}] compacted {merged} rows into canon")
    return completed_jobs
