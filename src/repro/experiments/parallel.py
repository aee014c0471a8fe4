"""Multiprocess fan-out for study cells.

A study's cells are independent by construction — every cell derives its
randomness from its own ``(spec identity, n, seed_index)`` coordinates —
so executing them in worker processes is semantically invisible: the rows
coming back are bit-identical to a serial run, whatever the scheduling.
This module keeps the mechanics in one place:

* workers are started with ``fork`` on Linux when the caller has one live
  thread, and with ``spawn`` everywhere else (see :func:`_start_method`).
  A forked worker starts its first cell within milliseconds because it
  inherits the parent's imported modules and its engine caches, which
  are exact tabulations and so cannot change a row; it inherits no
  result-store state, since only the parent appends rows.  A spawned
  worker re-imports :mod:`repro` and starts cold;
* each worker keeps the per-process engine caches of
  :mod:`repro.experiments.study` warm, so repeated cells of one variant
  amortize the transition tabulation exactly like a serial sweep;
* results stream back as they finish (``imap_unordered``) and are handed
  to the caller's callback immediately — the study appends them to its
  store, which is what makes an interrupted parallel run resumable.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.errors import ExperimentError
from .study import execute_batch, execute_cell

__all__ = ["execute_unit", "run_units", "unit_cell_keys"]

#: Tagged work unit: ``("cell", payload, n, seed_index)`` runs one cell.
#: Units are produced by :func:`repro.experiments.study.plan_units` and
#: consumed both here (pool fan-out) and by the serving work queue, whose
#: jobs wrap one unit each (:mod:`repro.serving.queue`).  Queues persisted
#: by earlier releases can also hold ``("batch", payload, n,
#: seed_indices)`` seed groups; they run one cell per seed.
UnitArgs = tuple


def execute_unit(unit: UnitArgs) -> List[dict]:
    """Run one tagged work unit; returns its finished row dictionaries.

    This is the single execution entry point shared by every scheduling
    mode — serial loops, pool workers and queue-draining ``repro worker``
    processes all call it — which is what keeps the produced rows
    independent of *where* a unit ran.
    """
    kind = unit[0]
    if kind == "batch":
        _, payload, n, seed_indices = unit
        return execute_batch(payload, n, list(seed_indices))
    _, payload, n, seed_index = unit
    return [execute_cell(payload, n, seed_index)]


def unit_cell_keys(unit: UnitArgs) -> List[Tuple[str, int, int]]:
    """The store cell keys a unit produces when it completes."""
    kind, payload, n = unit[0], unit[1], int(unit[2])
    variant = payload["variant"]
    if kind == "batch":
        return [(variant, n, int(seed)) for seed in unit[3]]
    return [(variant, n, int(unit[3]))]


def _start_method() -> str:
    """The pool's start method: ``fork`` or ``spawn``.

    ``fork`` only on Linux, where it is the platform default, and only
    while this process has a single live thread: a second thread could
    hold a lock (logging, an I/O buffer, the import lock) at the moment
    of the fork and leave it locked forever in the child.  Everything
    else, including macOS where forking is unsafe with system libraries,
    uses ``spawn``.
    """
    if sys.platform.startswith("linux") and threading.active_count() == 1:
        return "fork"
    return "spawn"


def run_units(
    units: Sequence[UnitArgs],
    jobs: int = 1,
    callback: Optional[Callable[[dict], None]] = None,
) -> List[dict]:
    """Execute tagged work units, optionally across worker processes.

    Parameters
    ----------
    units:
        The pending work units, in matrix order.
    jobs:
        ``1`` executes serially in this process (no multiprocessing
        import cost, easiest to debug); ``> 1`` fans out over a pool of
        that many workers, forked or spawned as :func:`_start_method`
        decides.  Values below 1 raise
        :class:`~repro.core.errors.ExperimentError`.
    callback:
        Called with each finished row as soon as it is available (in
        completion order under parallel execution).

    Returns
    -------
    list of dict
        The finished rows.  Order follows completion, not submission —
        callers that need a canonical order sort by the rows' cell keys
        (the :class:`~repro.experiments.study.Study` does).
    """
    if jobs < 1:
        raise ExperimentError("jobs must be positive")
    units = list(units)
    if not units:
        return []
    if jobs == 1 or len(units) == 1:
        rows = []
        for unit in units:
            for row in execute_unit(unit):
                rows.append(row)
                if callback is not None:
                    callback(row)
        return rows

    context = multiprocessing.get_context(_start_method())
    rows = []
    with context.Pool(processes=min(jobs, len(units))) as pool:
        for unit_rows in pool.imap_unordered(execute_unit, units, chunksize=1):
            for row in unit_rows:
                rows.append(row)
                if callback is not None:
                    callback(row)
    return rows

