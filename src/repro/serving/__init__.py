"""Study serving: sharded stores, a multi-worker job queue, HTTP front end.

Everything below the Study API used to be batch, single-host and
single-writer: one process owned ``rows.jsonl`` end to end.  This package
turns the result store into the coordination point so that scale-out is
*adding workers*:

* :class:`ShardedResultStore` — each writer appends to a private shard
  under the study directory; readers union shards with the canonical
  ``rows.jsonl``; a compaction pass folds shards back into canon;
* :class:`JobQueue` — cells become idempotent jobs keyed by their cell
  identity,
  claimed through atomic lease files with heartbeat + expiry so a crashed
  worker's claim is reclaimed;
* :class:`StudyLedger` — an incremental view of one study directory
  (completed cells, pending and failed jobs) that parses each appended
  record once;
* :func:`run_worker` — ``repro worker --study DIR`` drains one study's
  queue from any number of processes or hosts, recording failed attempts
  and giving up on a job after a fixed number of them;
* :class:`StudyService` / :func:`serve` — ``repro serve``, a small
  stdlib HTTP service that accepts spec submissions, reports progress and
  serves completed rows as JSON or CSV.

The determinism contract carries through unchanged: every cell derives
its randomness from its own ``(spec identity, n, seed)`` coordinates, so
however many workers drain a study — and however often a crashed claim is
re-run — the merged rows are bit-identical to ``Study.run(jobs=1)``.
"""

from .ledger import StudyLedger
from .queue import Job, JobQueue, Lease
from .server import StudyService, make_server, serve
from .store import ShardedResultStore
from .worker import run_worker

__all__ = [
    "Job",
    "JobQueue",
    "Lease",
    "ShardedResultStore",
    "StudyLedger",
    "StudyService",
    "make_server",
    "run_worker",
    "serve",
]
