"""The study ledger: an incremental view of one study directory.

A worker deciding what to run next, and a service answering a progress
poll, need the same two facts: which cells are persisted, and which jobs
are pending.  Re-deriving them with
:meth:`~repro.experiments.store.ResultStore.load` and a fresh manifest
parse costs a full re-read of every shard and the whole job log per
question, which makes a drain quadratic in the study size.
:class:`StudyLedger` keeps one :class:`~repro.experiments.store.JsonlTail`
per row file (``rows.jsonl`` and every shard, re-listed on each refresh)
and a :class:`~repro.serving.queue.JobQueue` whose manifest and failure
log are tailed the same way, so each record is parsed once.

The completed key set only grows.  Compaction appends shard rows to
``rows.jsonl`` before unlinking the shard, and a refresh reads the shards
before the canonical file, so a shard compacted away mid-refresh has its
rows found in canon; a shard recreated under the same name is re-read
from byte 0.  Full rows are never held: only the keys and the engine
that served each cell.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Set

from ..experiments.store import CellKey, JsonlTail, ResultStore
from .queue import Job, JobQueue

__all__ = ["StudyLedger"]


class StudyLedger:
    """Completed cells, their engines and the job queue of one study.

    Parameters
    ----------
    directory:
        The study directory (``<name>-<hash12>``).
    lease_timeout:
        Passed to the ledger's :class:`JobQueue`.
    """

    def __init__(self, directory, lease_timeout: float = 60.0):
        self._store = ResultStore.open(Path(directory))
        self._queue = JobQueue(self._store.directory, lease_timeout)
        self._tails: Dict[Path, JsonlTail] = {}
        self._completed: Set[CellKey] = set()
        self._engines: Dict[CellKey, str] = {}
        self._rows_parsed = 0

    @property
    def queue(self) -> JobQueue:
        """The study's job queue (manifest and failures read by tail)."""
        return self._queue

    @property
    def completed(self) -> Set[CellKey]:
        """Every persisted cell key seen so far (live; only grows)."""
        return self._completed

    @property
    def engines(self) -> Mapping[CellKey, str]:
        """The engine recorded in each persisted cell's row."""
        return self._engines

    @property
    def rows_parsed(self) -> int:
        """Row records parsed over the ledger's lifetime."""
        return self._rows_parsed

    def refresh(self) -> "StudyLedger":
        """Parse the rows appended to any row file since the last call."""
        # Shards first, canon last: see the module docstring.
        paths = self._store.shard_paths() + [self._store.rows_path]
        self._tails = {
            path: self._tails.get(path) or JsonlTail(path) for path in paths
        }
        for tail in self._tails.values():
            rows, _ = tail.read()
            self._rows_parsed += len(rows)
            for row in rows:
                key = (row["variant"], int(row["n"]), int(row["seed_index"]))
                self._completed.add(key)
                self._engines[key] = row.get("engine", "?")
        return self

    def pending(self) -> List[Job]:
        """Refresh, then the queue's pending (not failed) jobs."""
        return self._queue.pending(self.refresh().completed)
