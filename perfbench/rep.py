"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts one of these per repetition so that every repetition
pays its own interpreter start, imports and cold stores, and no
in-process cache survives from one repetition to the next.  The record
(setup and timed-region measurements, check results and, when traced,
the merged span aggregates) is written as JSON to ``--out``.

Run by hand to debug one repetition::

    PYTHONPATH=src python3 perfbench/rep.py --workload figure2 \
        --random-state 1000 --workdir .perfbench_work/debug \
        --out .perfbench_work/debug.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def cpu_seconds():
    """User+sys seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb():
    """Peak RSS of this process or its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def table_bytes(workdir):
    """Bytes on disk under every study's ``tables`` directory."""
    total = 0
    for path in Path(workdir).rglob("*"):
        if "tables" in path.relative_to(workdir).parts and path.is_file():
            total += path.stat().st_size
    return total


def traced_aggregate(tracer):
    """This process's aggregate merged with every worker's trace file."""
    import perfbench_trace

    snapshots = [tracer.snapshot()]
    tracer.stop_flushing()
    own = f"trace-{os.getpid()}.json"
    for path in sorted(Path(tracer.directory).glob("trace-*.json")):
        if path.name != own:
            snapshots.append(json.loads(path.read_text()))
    return perfbench_trace.merge(snapshots)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--random-state", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawn-time", type=float, default=None,
                        help="time.time() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--full-check", action="store_true",
                        help="also run the checks made once per run")
    args = parser.parse_args(argv)
    spawned = args.spawn_time if args.spawn_time is not None else time.time()

    from workloads import WORKLOAD_CLASSES

    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    workload = WORKLOAD_CLASSES[args.workload](args.random_state, args.workdir)
    workload.setup()
    record = {"setup_s": time.time() - spawned}
    if not args.setup_only:
        tracer = getattr(sys.modules.get("perfbench_trace"), "TRACER", None)
        if tracer is not None:
            tracer.reset()
        cpu_before = cpu_seconds()
        start = time.perf_counter()
        workload.timed()
        wall = time.perf_counter() - start
        record["cpu_s"] = cpu_seconds() - cpu_before
        record["peak_rss_mb"] = peak_rss_mb()
        record["wall_s"] = wall
        if tracer is not None:
            record["trace"] = traced_aggregate(tracer)
        # Seconds from the start of the timed region to each finished job.
        record["marks"] = [done - start for done in workload.completions]
        record["table_bytes"] = table_bytes(args.workdir)
        attempted, ok, problems = workload.check(full=args.full_check)
        record.update(
            attempted=attempted,
            ok=ok,
            problems=problems,
            cells=len(workload.rows),
            interactions=sum(row["interactions"] for row in workload.rows),
            jobs=workload.jobs,
        )
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
