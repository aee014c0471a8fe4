"""Tests for the study pool's start method and its row identity.

``run_units`` forks its workers on Linux from a single-threaded caller
and spawns them otherwise.  Either way the rows must equal a serial run
byte for byte.  The equivalence checks run in a fresh interpreter, so
the pool starts from a cold parent: no engine cache, no table-store
binding, nothing imported beyond what the script imports.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.core.errors import ExperimentError
import repro.experiments.parallel as parallel
from repro.experiments.figure2 import figure2_specs
from repro.experiments.study import Study

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


class TestStartMethod:
    def test_fork_on_linux_with_one_thread(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        assert parallel._start_method() == "fork"

    def test_spawn_while_a_second_thread_is_alive(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "linux")
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert threading.active_count() >= 2
            assert parallel._start_method() == "spawn"
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("platform", ["darwin", "win32"])
    def test_spawn_off_linux(self, monkeypatch, platform):
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        assert parallel._start_method() == "spawn"

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_run_units_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ExperimentError, match="jobs must be positive"):
            parallel.run_units([], jobs=jobs)


#: Runs a two-worker study from a cold interpreter, then the serial one,
#: and prints which start method the pool used.  ``THREAD`` keeps a
#: background thread alive across the parallel run.
EQUIVALENCE_SCRIPT = textwrap.dedent(
    """
    import json, threading
    import repro.experiments.parallel as parallel
    from repro.experiments.study import ExperimentSpec, Study

    spec = ExperimentSpec(
        variant="stable-ranking", protocol="stable-ranking",
        n_values=(8, 16), seeds=3, max_interactions_factor=2000.0,
    )
    release = threading.Event()
    if THREAD:
        threading.Thread(target=release.wait, daemon=True).start()
    method = parallel._start_method()
    parallel_rows = [r.as_dict() for r in Study(spec, jobs=2).run().rows]
    release.set()
    serial_rows = [r.as_dict() for r in Study(spec, jobs=1).run().rows]
    print(json.dumps({
        "method": method,
        "cells": len(serial_rows),
        "equal": json.dumps(parallel_rows) == json.dumps(serial_rows),
    }))
    """
)


def run_cold(thread: bool) -> dict:
    script = f"THREAD = {thread!r}\n" + EQUIVALENCE_SCRIPT
    env = {k: v for k, v in os.environ.items() if k != "REPRO_TABLE_CACHE"}
    env["PYTHONPATH"] = str(REPO_SRC)
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


class TestColdParentEquivalence:
    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="fork path is Linux-only"
    )
    def test_forked_pool_from_cold_parent_matches_serial(self):
        outcome = run_cold(thread=False)
        assert outcome == {"method": "fork", "cells": 6, "equal": True}

    def test_spawned_pool_with_live_thread_matches_serial(self):
        outcome = run_cold(thread=True)
        assert outcome == {"method": "spawn", "cells": 6, "equal": True}


class TestTableStorePerStudy:
    def test_second_study_in_one_process_spills_into_its_own_store(
        self, tmp_path, monkeypatch
    ):
        # Same spec, same process, two stores: the engine cache of the
        # first study must not capture the second one's spills.
        monkeypatch.delenv("REPRO_TABLE_CACHE", raising=False)
        specs = figure2_specs(n_values=(8,), seeds=2)
        first = Study(specs, name="figure2", store=tmp_path / "a")
        second = Study(specs, name="figure2", store=tmp_path / "b")
        first_rows = [r.as_dict() for r in first.run().rows]
        second_rows = [r.as_dict() for r in second.run().rows]
        assert first_rows == second_rows
        for root in ("a", "b"):
            tables = [
                path
                for path in (tmp_path / root).rglob("*")
                if path.is_file() and "tables" in path.parts
            ]
            assert tables, f"no table-store files under store {root!r}"
