"""``repro serve`` — an HTTP front end over studies, queues and stores.

The service is deliberately small and stdlib-only
(:class:`http.server.ThreadingHTTPServer`): it owns no execution.  A
submission plans the study's missing cells into queue jobs (through the
exact planner ``Study.run`` uses, one job per cell); any number of
``repro worker`` processes drain them; the service answers progress
from one incremental :class:`~repro.serving.ledger.StudyLedger` per study
and result queries from the store's union view.  Endpoints::

    GET  /                        service + study overview
    GET  /studies                 one summary per study under the root
    POST /studies                 submit {"name": ..., "specs": [...]}
    GET  /studies/<id>            progress (done/total, per-backend,
                                  queue depth, failed jobs, shards);
                                  ?watch=SECONDS long-polls until
                                  progress changes
    GET  /studies/<id>/rows       completed rows as JSON
    GET  /studies/<id>/rows.csv   completed rows as flat CSV

``<id>`` is the study directory name (``<name>-<hash12>``), returned by
the submission response.  Submitting the same specs twice — or an
extended matrix — re-plans only the still-missing cells, exactly like
resuming an interrupted ``Study.run``.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional

from ..core.errors import ExperimentError
from ..experiments.store import ResultStore
from ..experiments.study import ExperimentSpec, RunRow, Study, plan_units
from .ledger import StudyLedger

__all__ = ["StudyService", "make_server", "serve"]


class StudyService:
    """The serving logic, independent of HTTP (tests drive it directly).

    Parameters
    ----------
    root:
        The store root; every study is a ``<name>-<hash12>`` directory
        under it, shared with ``Study``/``repro run --out``.
    lease_timeout:
        Passed through to each study's :class:`JobQueue` for depth/lease
        reporting and to spawned workers.
    workers:
        When positive, that many ``repro worker --follow`` subprocesses
        are spawned per submitted study (a convenience for single-host
        serving; remote workers attach by pointing ``repro worker`` at
        the study directory).
    """

    def __init__(self, root, lease_timeout: float = 60.0, workers: int = 0):
        self._root = Path(root)
        self._lease_timeout = float(lease_timeout)
        self._workers = int(workers)
        self._worker_processes: Dict[str, List[subprocess.Popen]] = {}
        self._ledgers: Dict[str, StudyLedger] = {}
        self._ledger_lock = threading.Lock()  # handler threads share them

    @property
    def root(self) -> Path:
        return self._root

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, payload: dict) -> dict:
        """Create/extend a study from a submission and enqueue its cells.

        ``payload`` is either ``{"name": str, "specs": [spec dicts]}``
        with each spec dict in :meth:`ExperimentSpec.as_dict` form, or a
        preset submission ``{"preset": "figure2", ...overrides}`` whose
        remaining keys override the preset's CLI options (``n``,
        ``seeds``, ``engine``, ``topology``, ``max_factor``, ...) — the
        specs are then built by the exact code path ``python -m repro
        run`` uses, including its defaults.  Returns the study summary
        (id, directory, enqueued jobs, progress).
        """
        if not isinstance(payload, dict) or not (
            "specs" in payload or "preset" in payload
        ):
            raise ExperimentError(
                'submission must be {"name": ..., "specs": [...]} or '
                '{"preset": ..., ...overrides}'
            )
        if "preset" in payload:
            # Imported lazily: the CLI imports the serving package for
            # `repro serve`, so a module-level import would be a cycle.
            from ..experiments.cli import preset_specs

            overrides = {
                key: value
                for key, value in payload.items()
                if key not in ("preset", "name", "specs")
            }
            if "specs" in payload:
                raise ExperimentError(
                    "a submission is either raw specs or a preset, not both"
                )
            preset = str(payload["preset"])
            name = str(payload.get("name", preset))
            specs = list(preset_specs(preset, overrides))
        else:
            name = str(payload.get("name", "study"))
            specs = [
                ExperimentSpec.from_dict(spec) for spec in payload["specs"]
            ]
        study = Study(specs, name=name, store=self._root)
        store = study.store
        store.write_spec(
            {
                "study": name,
                "hash": study.content_hash(),
                "specs": [spec.as_dict() for spec in specs],
            }
        )
        known = store.load()
        units = plan_units(specs, known.keys())
        with self._ledger_lock:
            added = self._ledger(store.directory).queue.enqueue_units(units)
        self._ensure_workers(store.directory)
        summary = self.progress(store.directory.name)
        summary["enqueued_jobs"] = len(added)
        return summary

    def _ensure_workers(self, directory: Path) -> None:
        """Keep ``self._workers`` follow-mode workers on this study."""
        if self._workers <= 0:
            return
        procs = [
            proc
            for proc in self._worker_processes.get(directory.name, [])
            if proc.poll() is None
        ]
        while len(procs) < self._workers:
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker",
                        "--study", str(directory), "--follow",
                        "--lease-timeout", str(self._lease_timeout),
                        "--quiet",
                    ]
                )
            )
        self._worker_processes[directory.name] = procs

    def shutdown(self) -> None:
        """Terminate every worker subprocess this service spawned."""
        for procs in self._worker_processes.values():
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
        for procs in self._worker_processes.values():
            for proc in procs:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
        self._worker_processes.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _study_dirs(self) -> List[Path]:
        if not self._root.is_dir():
            return []
        return sorted(
            path
            for path in self._root.iterdir()
            if path.is_dir() and (path / "spec.json").exists()
        )

    def _open(self, study_id: str):
        directory = self._root / study_id
        if not (directory / "spec.json").exists():
            raise ExperimentError(f"unknown study {study_id!r}")
        store = ResultStore.open(directory)
        spec_payload = store.read_spec()
        specs = [
            ExperimentSpec.from_dict(spec)
            for spec in spec_payload.get("specs", [])
        ]
        return store, specs

    def _ledger(self, directory: Path) -> StudyLedger:
        """The study's ledger, opened on first use (hold the lock)."""
        ledger = self._ledgers.get(directory.name)
        if ledger is None:
            ledger = StudyLedger(directory, lease_timeout=self._lease_timeout)
            self._ledgers[directory.name] = ledger
        return ledger

    def studies(self) -> List[dict]:
        """One progress summary per study directory under the root."""
        return [self.progress(path.name) for path in self._study_dirs()]

    def progress(self, study_id: str) -> dict:
        """Done/total cells, per-backend breakdown, queue depth, failed
        jobs, shards.

        The matrix (and so ``total``) comes from the latest recorded
        spec.json — an extension submission rewrites it, so progress
        always tracks the widest requested matrix.  Cells and jobs come
        from the study's ledger, which parses only what was appended
        since the previous call.  ``failures`` lists each failed job with
        its attempt count and last error.
        """
        store, specs = self._open(study_id)
        matrix = [
            (spec.variant, n, seed)
            for spec in specs
            for n in spec.n_values
            for seed in range(spec.seeds)
        ]
        with self._ledger_lock:
            ledger = self._ledger(store.directory).refresh()
            completed, engines = ledger.completed, ledger.engines
            done = [key for key in matrix if key in completed]
            by_engine: Dict[str, int] = {}
            for key in done:
                by_engine[engines[key]] = by_engine.get(engines[key], 0) + 1
            queue = ledger.queue
            stats = queue.stats(completed)
            failed = queue.failed()
            failures = []
            for job in queue.jobs():
                attempts = failed.get(job.id)
                if attempts and not completed.issuperset(job.cell_keys):
                    failures.append({
                        "job": job.id,
                        "n": job.n,
                        "seeds": list(job.seed_indices),
                        "attempts": len(attempts),
                        "error": (
                            f"{attempts[-1]['error']}: "
                            f"{attempts[-1]['message']}"
                        ),
                    })
        return {
            "study": study_id,
            "name": store.read_spec().get("study", study_id),
            "directory": str(store.directory),
            "total": len(matrix),
            "done": len(done),
            "complete": len(done) == len(matrix),
            "by_engine": dict(sorted(by_engine.items())),
            "queue": stats,
            "failures": failures,
            "shards": len(store.shard_paths()),
        }

    def watch(self, study_id: str, timeout: float = 25.0,
              interval: float = 0.25) -> dict:
        """Long-poll :meth:`progress` until ``done`` changes or timeout."""
        baseline = self.progress(study_id)
        if baseline["complete"]:
            return baseline
        deadline = time.monotonic() + max(0.0, timeout)
        while time.monotonic() < deadline:
            time.sleep(interval)
            current = self.progress(study_id)
            if current["done"] != baseline["done"] or current["complete"]:
                return current
        return self.progress(study_id)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def rows(self, study_id: str) -> List[dict]:
        """Every completed row, in canonical (variant, n, seed) order."""
        store, _ = self._open(study_id)
        persisted = store.load()
        return [persisted[key] for key in sorted(persisted)]

    def rows_csv(self, study_id: str) -> str:
        """The completed rows as flat CSV text (series omitted)."""
        store, _ = self._open(study_id)
        name = store.read_spec().get("study", study_id)
        flat = []
        for payload in self.rows(study_id):
            row = RunRow.from_dict(payload)
            row.study = name
            flat.append(row.flat_dict())
        fieldnames: List[str] = []
        for row in flat:
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames)
        writer.writeheader()
        for row in flat:
            writer.writerow({key: row.get(key, "") for key in fieldnames})
        return buffer.getvalue()


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON routing over the service (one instance per request)."""

    service: StudyService = None  # set by make_server on the subclass
    quiet = True

    # ------------------------------------------------------------------
    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload, status: int = 200) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._send(status, body, "application/json")

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _query(self) -> Dict[str, str]:
        if "?" not in self.path:
            return {}
        query = {}
        for chunk in self.path.split("?", 1)[1].split("&"):
            if "=" in chunk:
                key, value = chunk.split("=", 1)
                query[key] = value
        return query

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            if path in ("", "/index.html"):
                self._send_json(
                    {
                        "service": "repro-serve",
                        "studies": self.service.studies(),
                    }
                )
            elif path == "/studies":
                self._send_json(self.service.studies())
            elif path.startswith("/studies/"):
                parts = path[len("/studies/"):].split("/")
                study_id = parts[0]
                tail = parts[1] if len(parts) > 1 else ""
                if tail in ("", "progress"):
                    watch = self._query().get("watch")
                    if watch is not None:
                        self._send_json(
                            self.service.watch(
                                study_id, timeout=float(watch)
                            )
                        )
                    else:
                        self._send_json(self.service.progress(study_id))
                elif tail == "rows":
                    self._send_json(
                        {
                            "study": study_id,
                            "rows": self.service.rows(study_id),
                        }
                    )
                elif tail == "rows.csv":
                    body = self.service.rows_csv(study_id).encode()
                    self._send(200, body, "text/csv")
                else:
                    self._error(404, f"unknown resource {tail!r}")
            else:
                self._error(404, f"unknown path {path!r}")
        except ExperimentError as error:
            self._error(404, str(error))
        except Exception as error:  # pragma: no cover - defensive
            self._error(500, f"{type(error).__name__}: {error}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/studies":
            self._error(404, f"unknown path {path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
            summary = self.service.submit(payload)
            self._send_json(summary, status=201)
        except (ExperimentError, json.JSONDecodeError, TypeError,
                ValueError) as error:
            self._error(400, str(error))
        except Exception as error:  # pragma: no cover - defensive
            self._error(500, f"{type(error).__name__}: {error}")


def make_server(
    root,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_timeout: float = 60.0,
    workers: int = 0,
    quiet: bool = True,
):
    """Build a ready-to-serve HTTP server; returns ``(httpd, service)``.

    ``port=0`` binds an ephemeral port (``httpd.server_address[1]`` holds
    the real one) — what the tests and smoke jobs use.
    """
    service = StudyService(root, lease_timeout=lease_timeout,
                           workers=workers)
    handler = type(
        "BoundHandler", (_Handler,), {"service": service, "quiet": quiet}
    )
    httpd = ThreadingHTTPServer((host, port), handler)
    httpd.daemon_threads = True
    return httpd, service


def serve(
    root,
    host: str = "127.0.0.1",
    port: int = 8765,
    lease_timeout: float = 60.0,
    workers: int = 0,
    quiet: bool = False,
) -> int:
    """Run the front end until interrupted (the ``repro serve`` command)."""
    httpd, service = make_server(
        root, host=host, port=port, lease_timeout=lease_timeout,
        workers=workers, quiet=quiet,
    )
    bound_host, bound_port = httpd.server_address[:2]
    print(f"repro serve on http://{bound_host}:{bound_port} "
          f"(store root: {root}, workers per study: {workers})", flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        httpd.server_close()
        service.shutdown()
    return 0
