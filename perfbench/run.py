"""Seed-steady end-to-end benchmark of the repro study stack.

One workload per invocation, measured through the public entry points a
user calls (``Study.run(jobs=N)`` and a ``run_worker`` drain; see
``workloads.py``)::

    python3 perfbench/run.py --workload figure2 --seed 1 --seconds 25 --trace 0

Each repetition runs in a fresh process (``rep.py``) on the inputs
derived from ``--seed`` (the same inputs for every repetition of a run),
with a fresh store root and ``REPRO_TABLE_CACHE`` removed from the
environment, so every repetition is cold.  Repetitions continue until
``--seconds`` have passed.  Timings of one-process workloads sum each
step's fastest repetition, those of figure2's worker pool are medians
over repetitions (see ``end_to_end``); set-up time and memory are
medians.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 32, "failed": 0,
     "metrics": {"wall_s": {"value": 4.2, "unit": "s"}, ...}}

``--trace 0`` reports every end-to-end metric of ``spec.END_TO_END``.
``--trace 1`` runs each repetition twice on the same inputs, untraced and
then with the span tracer of ``trace/`` in every process, and reports the
per-layer metrics of ``spec.PER_LAYER`` together with the tracing
overhead (``trace.overhead_frac``).

``--spread`` runs every workload ``spec.SPREAD_RUNS`` times at each of
the two seeds of ``spec.SPREAD_SEEDS``, prints each end-to-end metric's
median per seed with the relative spread between the two, and rewrites
``BENCHMARK.json`` and ``perfbench/layers.json`` (layer map, machine
metadata and the measured spreads)::

    python3 perfbench/run.py --spread
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: Scratch space for repetitions, inside the checkout (removed per run).
WORK_ROOT = ROOT / ".perfbench_work"
#: Seconds one repetition may take before it is killed.
REP_TIMEOUT = 150.0
#: Set-ups measured per run (extra set-up-only repetitions if needed).
MIN_SETUPS = 3
#: Environment variables removed from every repetition.
SCRUBBED_ENV = ("REPRO_TABLE_CACHE", "PERFBENCH_TRACE_DIR")


class RepFailed(RuntimeError):
    pass


def run_rep(workload, random_state, workdir, trace=False, setup_only=False,
            full_check=False):
    """Run one repetition in a fresh process and return its record."""
    rep_dir = workdir / f"rep-{uuid.uuid4().hex[:8]}"
    rep_dir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    paths = [str(ROOT / "src")]
    if trace:
        paths.append(str(HERE / "trace"))
        env["PERFBENCH_TRACE_DIR"] = str(rep_dir / "trace")
        (rep_dir / "trace").mkdir()
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    out = rep_dir / "record.json"
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload,
        "--random-state", str(random_state),
        "--workdir", str(rep_dir / "work"),
        "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    if full_check:
        command.append("--full-check")
    command += ["--spawn-time", repr(time.time())]
    process = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RepFailed(f"{workload} repetition exceeded {REP_TIMEOUT} s")
    finally:
        # Pool workers of a failed repetition must not outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0 or not out.exists():
        raise RepFailed(f"{workload} repetition exited with code {code}")
    record = json.loads(out.read_text())
    shutil.rmtree(rep_dir, ignore_errors=True)
    print(f"{workload} random_state={random_state} trace={int(trace)} "
          f"setup_s={record['setup_s']:.3f} wall_s={record.get('wall_s', 0):.3f} "
          f"cpu_s={record.get('cpu_s', 0):.3f}",
          file=sys.stderr)
    return record


def tail_mean(values, share=0.05):
    """Mean of the largest ``share`` of ``values`` (at least one value):
    the mean beyond the 95th percentile, which averages every sample in
    the tail where a percentile reads a single one."""
    count = max(1, round(len(values) * share))
    return statistics.fmean(sorted(values)[-count:])


def job_ms(rep):
    """A repetition's job latencies: the time each job held one of the
    ``jobs`` worker slots, from the completion ``jobs`` places earlier
    (when that slot freed up) to its own.  The first ``jobs`` jobs also
    carry the entry point's start-up (pool spawn, worker start) and are
    left out."""
    marks, jobs = rep["marks"], rep["jobs"]
    return [(marks[k] - marks[k - jobs]) * 1000.0
            for k in range(jobs, len(marks))]


def steps(rep):
    """A repetition's timed region cut at each job's completion: the
    intervals sum to its ``wall_s``."""
    marks = rep["marks"]
    return [b - a for a, b in zip([0.0] + marks, marks + [rep["wall_s"]])]


def by_position(series, pick):
    """``pick`` of the values at each position of equally long ``series``."""
    if len({len(values) for values in series}) != 1:
        raise RepFailed("repetitions of one run finished different job counts")
    return [pick(column) for column in zip(*series)]


def end_to_end(reps, setups):
    """Every end-to-end metric from the untraced repetitions.

    The repetitions of a run share their inputs.  The host's CPU speed
    switches between a fast and a ~1.5x slower mode with other tenants'
    load, for a few seconds at a time, so a whole repetition is often
    caught partly in each.  On a one-process workload (``jobs == 1``)
    the jobs run in the same order in every repetition, so each step of
    the timed region (start to first job, job to job, last job to the
    end) is timed once per repetition: ``wall_s`` is the sum of every
    step's fastest repetition, job latencies are the fastest per job,
    and ``cpu_s`` is ``wall_s`` times the median CPU-to-wall ratio.
    With a worker pool the completion order varies, so timings are
    medians over repetitions, and so is each rank of the sorted job
    latencies.
    """
    def median(key):
        return statistics.median(key(rep) for rep in reps)

    if all(rep["jobs"] == 1 for rep in reps):
        wall = sum(by_position([steps(rep) for rep in reps], min))
        cpu = wall * median(lambda rep: rep["cpu_s"] / rep["wall_s"])
        latencies = by_position([job_ms(rep) for rep in reps], min)
    else:
        wall = median(lambda rep: rep["wall_s"])
        cpu = median(lambda rep: rep["cpu_s"])
        latencies = by_position(
            [sorted(job_ms(rep)) for rep in reps], statistics.median)
    # Shared inputs: every repetition completes the same cells and work.
    work = reps[0]
    return {
        "wall_s": wall,
        "cells_per_s": work["cells"] / wall,
        "interactions_per_s": work["interactions"] / wall,
        "cpu_s": cpu,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median(lambda rep: rep["peak_rss_mb"]),
        "ok_frac": sum(rep["ok"] for rep in reps)
        / sum(rep["attempted"] for rep in reps),
        "job_mean_ms": statistics.fmean(latencies),
        "job_tail95_ms": tail_mean(latencies),
    }


def per_layer(traced, untraced):
    """Every per-layer metric from one traced repetition and its untraced
    twin (same inputs)."""
    trace = traced["trace"]
    spans, counts = trace["spans"], trace["counts"]

    def calls(layer):
        return spans.get(layer, [0, 0.0, 0.0])[0]

    def total(layer):
        return spans.get(layer, [0, 0.0, 0.0])[1]

    def own(layer):
        return spans.get(layer, [0, 0.0, 0.0])[2]

    def count(name):
        return counts.get(name, 0)

    wall = traced["wall_s"]
    walked = count("walk.interactions")
    return {
        "scheduler.pairs": count("scheduler.pairs"),
        "scheduler.sample_s": total("scheduler"),
        "tabulation.transitions": calls("tabulation"),
        "tabulation.s": total("tabulation"),
        "kernel.calls": calls("kernel"),
        "kernel.s": total("kernel"),
        "kernel.share": count("kernel.interactions") / walked if walked else 0.0,
        "walk.self_s": own("walk"),
        "convergence.checks": calls("convergence"),
        "convergence.s": total("convergence"),
        "metrics.records": calls("metrics"),
        "metrics.s": total("metrics"),
        "table_store.spills": count("table_store.spills"),
        "table_store.loads": count("table_store.loads"),
        "table_store.s": total("table_store"),
        "table_store.bytes": traced["table_bytes"],
        "aggregate.events": count("aggregate.events"),
        "aggregate.run_s": total("aggregate"),
        "group.events": count("group.events"),
        "group.model_states": trace["maxima"].get("group.model_states", 0),
        "group.run_s": total("group"),
        "backends.resolve_calls": calls("backends"),
        "backends.resolve_s": total("backends"),
        "study.plan_s": total("study.plan"),
        "study.cell_s": total("study.cell"),
        "study.self_s": own("study.run"),
        "parallel.busy_frac": total("study.cell") / (traced["jobs"] * wall),
        "store.appends": calls("store.append"),
        "store.append_s": total("store.append"),
        "store.loads": calls("store.load"),
        "store.load_s": total("store.load"),
        "store.rows_read": count("store.rows_read"),
        "store.compact_s": total("store.compact"),
        "queue.pending_s": total("queue.pending"),
        "queue.claims": count("queue.claims"),
        "queue.claims_won": count("queue.claims_won"),
        "queue.claim_s": total("queue.claim"),
        "worker.idle_s": (
            max(0.0, total("worker") - total("study.cell"))
            if calls("worker") else 0.0
        ),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.overhead_frac": wall / untraced["wall_s"] - 1.0,
    }


def measure(workload, seed, seconds, trace):
    """Run repetitions for ``seconds`` and return the result object."""
    workdir = WORK_ROOT / f"{workload}-{seed}-{uuid.uuid4().hex[:8]}"
    workdir.mkdir(parents=True)
    reps, samples = [], []
    started = time.monotonic()
    try:
        while not samples or time.monotonic() - started < seconds:
            plain = run_rep(workload, seed, workdir, full_check=not reps)
            reps.append(plain)
            if trace:
                traced = run_rep(workload, seed, workdir, trace=True)
                reps.append(traced)
                samples.append(per_layer(traced, plain))
            else:
                samples.append(plain)
        if trace:
            units = {name: unit for name, unit, _ in spec.PER_LAYER}
            values = {
                name: statistics.median(sample[name] for sample in samples)
                for name in units
            }
        else:
            setups = [rep["setup_s"] for rep in reps]
            while len(setups) < MIN_SETUPS:
                setups.append(run_rep(
                    workload, seed, workdir, setup_only=True
                )["setup_s"])
            units = {name: unit for name, unit, _, _ in spec.END_TO_END}
            values = end_to_end(reps, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    attempted = sum(rep["attempted"] for rep in reps)
    failed = attempted - sum(rep["ok"] for rep in reps)
    for rep in reps:
        for problems in rep["problems"]:
            print(f"check failed: {problems}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }


def machine():
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numba": "present" if has_numba else "absent",
    }


def write_benchmark_json(spreads):
    """Rewrite ``BENCHMARK.json`` (contract keys only) and
    ``perfbench/layers.json`` (layer map, machine, seed spreads)."""
    workloads = []
    for name, why in spec.WORKLOADS.items():
        spread = spreads.get(name)
        if spread:
            why += f". Seed spread: wall_s {spread['wall_s']:.1%}"
        if len(why) > 200:
            raise ValueError(f"rationale of {name} exceeds 200 characters")
        workloads.append({"name": name, "why": why})
    benchmark = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": spec.RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in spec.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in spec.PER_LAYER
        ],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark, indent=2) + "\n")
    layers = {
        "machine": machine(),
        "layers": [
            {
                "layer": layer,
                "modules": modules,
                "per_layer_metrics": metrics,
                "moves": moves,
                "on": on,
                "flat_on": flat,
            }
            for layer, (modules, metrics, moves, on, flat) in spec.LAYERS.items()
        ],
        "seed_spread": spreads,
        "notes": spec.NOTES,
    }
    (HERE / "layers.json").write_text(json.dumps(layers, indent=2) + "\n")


def spread(seconds):
    """Run every workload ``SPREAD_RUNS`` times at each spread seed; print
    each seed's median of every metric and the spread between them."""
    spreads = {}
    for workload in spec.WORKLOADS:
        sets = [
            [measure(workload, seed, seconds, trace=False)
             for _ in range(spec.SPREAD_RUNS)]
            for seed in spec.SPREAD_SEEDS
        ]
        results = [result for runs in sets for result in runs]
        spreads[workload] = {}
        for name, unit, _, bound in spec.END_TO_END:
            values = [
                statistics.median(
                    result["metrics"][name]["value"] for result in runs)
                for runs in sets
            ]
            mean = statistics.fmean(values)
            relative = (max(values) - min(values)) / mean if mean else 0.0
            spreads[workload][name] = relative
            shown = "  ".join(f"{value:12.5g}" for value in values)
            print(f"{workload:9s} {name:20s} {unit:6s} {shown}  "
                  f"spread {relative:6.1%} (bound {bound:.1%})")
        for result in results:
            if not result["correct"]:
                print(f"{workload}: {result['failed']} of "
                      f"{result['attempted']} cells failed their check")
    write_benchmark_json(spreads)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Seed-steady end-to-end benchmark of the repro study stack."
    )
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", action="store_true",
                        help="run every workload at two seeds and rewrite "
                        "BENCHMARK.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.spread:
        return spread(args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RepFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
