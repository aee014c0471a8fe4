"""Persistent result store for studies.

A :class:`~repro.experiments.study.Study` is a matrix of independent,
deterministically seeded simulation cells, so its natural persistence unit
is the *cell row*: one JSON object per completed ``(variant, n, seed)``
cell, appended to a line-delimited file as soon as the cell finishes.  The
layout under the store root is::

    <root>/
      <study-name>-<hash12>/
        spec.json        # the study's expanded specs + identity hash
        rows.jsonl       # canonical rows, one completed cell per line
        rows.csv         # flat export, rewritten on study completion
        shards/          # per-worker append-only row shards (serving mode)
          <worker>.jsonl
        queue/           # work-queue manifest + leases (serving mode)

``<hash12>`` is a content hash over the specs' *identity* fields — the
protocol, its parameters, the engine, the workload, milestones, budget and
root seed, but **not** the matrix extent (``n_values``, ``seeds``).
Re-running a study therefore loads every already-computed cell instead of
re-simulating it, and *extending* a study (more seeds, more population
sizes) only computes the new cells.  Changing anything that affects a
cell's trajectory re-keys the directory, so stale rows can never be
mistaken for current ones.

Concurrency model
-----------------
The canonical ``rows.jsonl`` has one writer at a time (the study process);
scale-out writers each own a private shard under ``shards/`` (see
:class:`repro.serving.ShardedResultStore`).  Three mechanisms make the
directory safe under concurrent writers and crash-prone readers:

* every append is **one** ``write`` call of the fully encoded line (plus
  an optional ``fsync``), taken under an advisory file lock where the
  platform provides one, so two writers can never interleave bytes;
* a **torn trailing line** — a writer killed mid-append — is repaired on
  the next append to that file (the partial record is truncated away; the
  cell is deterministic, so it simply re-runs) and skipped with a warning
  by readers, so a crash never breaks resume;
* :meth:`ResultStore.load` reads the **union** of the canonical file and
  every shard (later duplicates win — cells are deterministic, so every
  copy holds the same bytes), and :meth:`ResultStore.compact` folds shard
  rows into the canonical file append-only before deleting the shards.

Only the standard library is used; rows are plain dictionaries
(:meth:`~repro.experiments.study.RunRow.as_dict`).
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

try:  # pragma: no cover - exercised implicitly on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..core.errors import ExperimentError

__all__ = [
    "JsonlTail",
    "ResultStore",
    "append_jsonl_line",
    "append_jsonl_lines",
    "read_jsonl",
    "repair_torn_tail",
]

#: Key identifying a cell within a study: (variant, n, seed_index).
CellKey = Tuple[str, int, int]


# ----------------------------------------------------------------------
# Low-level JSONL primitives (shared with the serving queue/shards)
# ----------------------------------------------------------------------
@contextmanager
def _locked(handle):
    """Advisory exclusive lock on an open file (no-op without fcntl)."""
    if fcntl is not None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield
    finally:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def repair_torn_tail(path) -> bool:
    """Truncate a torn trailing record (no final newline) off ``path``.

    A writer killed between ``write`` and the write landing leaves a
    partial final line.  The partial record is unrecoverable but also
    worthless — every row is deterministic in its cell coordinates — so
    the repair simply truncates back to the last complete line.  Returns
    whether anything was removed.  The caller is expected to hold the
    append lock (or be the file's only writer).
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError:
        return False
    if size == 0:
        return False
    with path.open("rb+") as handle:
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) == b"\n":
            return False
        position = size
        chunk = 65536
        while position > 0:
            step = min(chunk, position)
            handle.seek(position - step)
            data = handle.read(step)
            cut = data.rfind(b"\n")
            if cut >= 0:
                handle.truncate(position - step + cut + 1)
                return True
            position -= step
        handle.truncate(0)
    return True


def append_jsonl_line(path, payload: dict, fsync: bool = False) -> None:
    """Atomically append one JSON record to ``path``.

    The record is encoded first and written with a *single* ``write`` call
    under an advisory lock, so concurrent appenders (multiple workers, a
    worker racing compaction) can never interleave bytes.  A torn trailing
    line left by a crashed writer is repaired before appending, keeping
    the file parseable end to end.  With ``fsync=True`` the line is
    durable before the call returns — the serving workers use this so a
    released lease implies persisted rows.
    """
    append_jsonl_lines(path, [payload], fsync=fsync)


def append_jsonl_lines(path, payloads: List[dict], fsync: bool = False) -> None:
    """Atomically append a batch of JSON records to ``path``.

    :func:`append_jsonl_line` for many records at the cost of one: every
    record is encoded up front and the batch lands under one lock, after
    one inode check and one torn-tail repair, in one ``write`` (and one
    ``fsync`` with ``fsync=True``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = b"".join(
        payload.line if isinstance(payload, _EncodedRow)
        else (json.dumps(payload, sort_keys=True) + "\n").encode()
        for payload in payloads
    )
    while True:
        with path.open("ab") as handle:
            with _locked(handle):
                # Compaction may unlink the path between our open and the
                # lock; writing to the unlinked inode would lose the rows.
                try:
                    if os.fstat(handle.fileno()).st_ino != os.stat(path).st_ino:
                        continue
                except OSError:
                    continue
                repair_torn_tail(path)
                handle.seek(0, os.SEEK_END)
                handle.write(data)
                handle.flush()
                if fsync:
                    os.fsync(handle.fileno())
            return


def read_jsonl(path, strict: bool = True) -> List[dict]:
    """Parse a JSONL file, tolerating a torn final record.

    A partial *final* line (a writer killed mid-append) is skipped with a
    :class:`UserWarning` so an interrupted study stays resumable; a
    malformed line anywhere else is real corruption and raises
    :class:`~repro.core.errors.ExperimentError` (``strict=False`` demotes
    those to warnings too, for operator tooling that must not die on one
    bad store).
    """
    path = Path(path)
    if not path.exists():
        return []
    lines = path.read_text().splitlines()
    return [row for _, row in _parse_lines(path, lines, strict)]


def _parse_lines(path, lines, strict: bool = True):
    """Yield ``(line, record)`` for the non-blank JSONL ``lines`` of
    ``path`` with :func:`read_jsonl`'s torn-tail and corruption rules."""
    lines = [line for line in lines if line.strip()]
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                warnings.warn(
                    f"skipping torn trailing record in {path} (a writer "
                    f"was killed mid-append; the cell will re-run)",
                    stacklevel=2,
                )
                return
            message = (
                f"corrupt row store {path} "
                f"(malformed line {index + 1} of {len(lines)})"
            )
            if strict:
                raise ExperimentError(message)
            warnings.warn(message, stacklevel=2)
            continue
        yield line, record


class _EncodedRow(dict):
    """A row's cell-key fields plus its already-encoded JSONL ``line``.

    Compaction hands these to :func:`append_jsonl_lines`, which writes
    ``line`` verbatim: shard lines are already in the canonical encoding,
    so only their keys need parsing, not the whole row re-encoded.
    """

    __slots__ = ("line",)

    def __init__(self, row: dict, line: bytes):
        super().__init__(
            variant=row["variant"], n=row["n"], seed_index=row["seed_index"]
        )
        self.line = line


class JsonlTail:
    """Incremental reader of one append-only JSONL file.

    The reader keeps the file's ``(inode, byte offset)`` and each
    :meth:`read` parses only the complete lines appended since the last
    one.  A partial final line (a writer mid-append, or killed mid-append)
    is left unread until it ends in ``\\n``; the torn-tail repair of
    :func:`append_jsonl_line` truncates only bytes past the offset, so the
    offset stays valid.  A file that disappears, changes inode, shrinks or
    no longer starts with the first line read from it is re-read from
    byte 0, and :meth:`read` reports the reset so callers can rebuild what
    they derived from the old contents.  A malformed complete line raises
    :class:`~repro.core.errors.ExperimentError`, as in :func:`read_jsonl`.
    """

    def __init__(self, path):
        self._path = Path(path)
        self._inode: Optional[int] = None
        self._offset = 0
        self._lines = 0
        self._head = b""  # the file's first line, to detect inode reuse
        #: Records parsed over the reader's lifetime (re-reads count again).
        self.records_parsed = 0

    @property
    def path(self) -> Path:
        return self._path

    def _restart(self, inode: Optional[int]) -> bool:
        """Rewind to byte 0 of ``inode``; returns whether state was lost."""
        lost = self._inode is not None
        self._inode, self._offset, self._lines, self._head = inode, 0, 0, b""
        return lost

    def _moved(self, descriptor: int, status) -> bool:
        """Whether the open file is not the one read so far."""
        if status.st_ino != self._inode or status.st_size < self._offset:
            return True
        if not self._offset:
            return False
        return (
            os.pread(descriptor, len(self._head), 0) != self._head
            or os.pread(descriptor, 1, self._offset - 1) != b"\n"
        )

    def read(self) -> Tuple[List[dict], bool]:
        """``(records, reset)``: the complete records appended since the
        last call, and whether the file restarted (the records then cover
        it from byte 0)."""
        try:
            status = os.stat(self._path)
            if status.st_ino == self._inode and status.st_size == self._offset:
                return [], False
            handle = self._path.open("rb")
        except OSError:
            return [], self._restart(None)
        with handle:
            status = os.fstat(handle.fileno())
            reset = False
            if self._moved(handle.fileno(), status):
                reset = self._restart(status.st_ino)
            handle.seek(self._offset)
            data = handle.read(status.st_size - self._offset)
        end = data.rfind(b"\n") + 1
        records: List[dict] = []
        lines = data[:end].splitlines()
        for number, line in enumerate(lines, self._lines + 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                # The offset stays put, so every later read raises too.
                raise ExperimentError(
                    f"corrupt JSONL file {self._path} "
                    f"(malformed line {number})"
                ) from None
        self._lines += len(lines)
        if end and not self._offset:
            self._head = data[:data.index(b"\n") + 1]
        self._offset += end
        self.records_parsed += len(records)
        return records, reset


class ResultStore:
    """Append-only, resumable on-disk store for one study's rows.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per study (created on demand).
    name:
        The study name (first path component of the study directory).
    content_hash:
        The study's identity hash (second component); computed by
        :meth:`~repro.experiments.study.Study.content_hash`.
    fsync:
        When true, every append is fsynced before returning (durability
        over throughput; the serving workers turn this on).
    """

    def __init__(self, root, name: str, content_hash: str,
                 fsync: bool = False):
        if not name or any(sep in name for sep in "/\\"):
            raise ExperimentError(f"invalid study name {name!r}")
        self._root = Path(root)
        self._directory = self._root / f"{name}-{content_hash}"
        self._rows_path = self._directory / "rows.jsonl"
        self._spec_path = self._directory / "spec.json"
        self._fsync = bool(fsync)

    @classmethod
    def open(cls, directory, **kwargs) -> "ResultStore":
        """A store for an *existing* study directory (``<name>-<hash>``).

        This is how serving workers attach to a study they did not
        create: the submitting process names the directory, the worker
        only needs the path.
        """
        directory = Path(directory)
        if "-" not in directory.name:
            raise ExperimentError(
                f"{directory} is not a study directory (expected "
                f"<name>-<hash12>)"
            )
        name, content_hash = directory.name.rsplit("-", 1)
        return cls(directory.parent, name, content_hash, **kwargs)

    @property
    def directory(self) -> Path:
        """The study's directory inside the store root."""
        return self._directory

    @property
    def rows_path(self) -> Path:
        """The canonical JSONL file holding completed cell rows."""
        return self._rows_path

    @property
    def shards_directory(self) -> Path:
        """Directory holding per-worker append-only row shards."""
        return self._directory / "shards"

    def shard_paths(self) -> List[Path]:
        """Every shard file currently present, in stable (sorted) order."""
        if not self.shards_directory.is_dir():
            return []
        return sorted(self.shards_directory.glob("*.jsonl"))

    # ------------------------------------------------------------------
    # Spec provenance
    # ------------------------------------------------------------------
    def write_spec(self, payload: dict) -> Path:
        """Record the study's expanded spec (idempotent)."""
        self._directory.mkdir(parents=True, exist_ok=True)
        self._spec_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        return self._spec_path

    def read_spec(self) -> Optional[dict]:
        """The recorded spec payload, or ``None`` if absent."""
        if not self._spec_path.exists():
            return None
        return json.loads(self._spec_path.read_text())

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def append(self, row: dict) -> None:
        """Persist one completed cell row (atomic single-write append)."""
        append_jsonl_line(self._rows_path, row, fsync=self._fsync)

    def load(self) -> Dict[CellKey, dict]:
        """All persisted rows keyed by cell; later duplicates win.

        Reads the union of the canonical ``rows.jsonl`` and every shard
        under ``shards/`` (canonical first, shards in sorted order), so
        resume and :class:`~repro.experiments.study.ResultSet` queries see
        one consistent view whether rows were written by a single study
        process or by many serving workers.  Duplicates arise when a study
        is interrupted and re-run with an overlapping matrix, or when a
        reclaimed work-queue job re-runs — the cells are deterministic, so
        any copy is as good as any other.  A torn *final* line in any file
        (a run killed mid-append) is skipped with a warning, so an
        interrupted study stays resumable; a malformed line anywhere else
        is real corruption and raises.
        """
        rows: Dict[CellKey, dict] = {}
        for path in [self._rows_path] + self.shard_paths():
            for row in read_jsonl(path):
                key = (row["variant"], int(row["n"]), int(row["seed_index"]))
                rows[key] = row
        return rows

    def completed(self) -> Iterable[CellKey]:
        """Keys of every persisted cell."""
        return self.load().keys()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Fold shard rows into the canonical file and delete the shards.

        The pass is append-only on ``rows.jsonl`` (never rewritten, so
        concurrent readers and the canonical single writer stay safe):
        every shard line whose cell key is not already canonical is
        appended byte for byte (one batched write per shard; lines are
        parsed only for their keys), then the shard file is removed under
        its append lock — a worker racing one last append either lands it
        before the shard is read (merged now) or recreates the shard
        afterwards (merged by the next pass).  Crashing between merge and
        delete leaves duplicates, which readers resolve by key.  Returns
        the number of rows merged.
        """
        shard_paths = self.shard_paths()
        if not shard_paths:
            return 0
        known = {
            (row["variant"], int(row["n"]), int(row["seed_index"]))
            for row in read_jsonl(self._rows_path)
        }
        merged = 0
        for shard in shard_paths:
            try:
                handle = shard.open("rb+")
            except OSError:
                continue  # pragma: no cover - raced by another compactor
            with handle:
                with _locked(handle):
                    batch = []
                    lines = handle.read().split(b"\n")
                    for line, row in _parse_lines(shard, lines):
                        key = (
                            row["variant"], int(row["n"]),
                            int(row["seed_index"]),
                        )
                        if key not in known:
                            known.add(key)
                            batch.append(_EncodedRow(row, line + b"\n"))
                    if batch:
                        append_jsonl_lines(
                            self._rows_path, batch, fsync=self._fsync
                        )
                        merged += len(batch)
                    try:
                        shard.unlink()
                    except OSError:  # pragma: no cover - raced delete
                        pass
        try:
            self.shards_directory.rmdir()
        except OSError:
            pass  # non-empty (new shard appeared) or already gone
        return merged
