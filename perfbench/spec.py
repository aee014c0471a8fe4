"""The benchmark's vocabulary: workloads, metrics and the layer map.

Everything a result line or ``BENCHMARK.json`` names is defined here once,
so the runner, the traced run, the JSON writer and the tests agree on
names, units and directions.  Later performance work cites these names
verbatim (``figure2/interactions_per_s``, ``kernel.share`` ...).
"""

from __future__ import annotations

import re

#: Metric and workload names: a letter or digit, then letters, digits,
#: ``_``, ``.`` and ``-``, at most 64 characters.
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")

#: Units: letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``, at most 16.
UNIT_PATTERN = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

#: Seconds one run keeps starting repetitions for.
RUN_SECONDS = 25

#: The two workload seeds the ``--spread`` mode compares, and the runs
#: at each whose median it compares: single runs on a shared host differ
#: by up to a third when the host changes speed between them.
SPREAD_SEEDS = (1, 2)
SPREAD_RUNS = 3

#: Findings behind the workload choices, written to ``layers.json``.
NOTES = {
    "figure2_engine": (
        "figure2 pins engine=array: under auto a figure2 seed group routes to "
        "array-batched, whose lockstep wall time follows its slowest seed "
        "lane (n=64 x 8 took 4.35-7.87 s across root seeds 0-3, n=64 x 32 "
        "7.9-10.9 s; the same seed repeated took 4.30-4.38 s)"
    ),
    "figure2_cells": (
        "figure2 cells run a fixed 50 n^2 interactions "
        "(stop_on_convergence=False): at n=64 the preset's cells converge "
        "between about 51 n^2 and the 200 n^2 budget (per-cell CV 0.29), "
        "so a run's work and above all its slowest cells would follow the "
        "seed"
    ),
    "drain_cells": (
        "drain uses fixed-work cells (stop_on_convergence=False, 200 n^2 "
        "budget, 240 samples): the figure2 preset's own n=4 cells stop at "
        "seed-dependent times, so row bytes and re-read cost vary by seed"
    ),
    "sizes": (
        "figure3 runs 16 seeds (not 100), epidemic 50 (not 200) and drain "
        "80 cells (not 300) so that a run holds six or more repetitions: "
        "with 25, 100 and 200 a run held two to four, and the per-step "
        "fastest of so few still read the host's slow mode (figure3 wall_s "
        "IQR/median over 5 seeds 0.19 at 25 seeds, 0.04 at 16)"
    ),
    "figure3_jobs": (
        "figure3 runs Study.run(jobs=1): with jobs=2 its two pool workers "
        "fill both vCPUs, pool start-up is part of every repetition, and "
        "the completion order varies, so the per-step estimator of `noise` "
        "does not apply (refused driver check: cells_per_s IQR/median 0.26 "
        "and 0.21 over two 10-seed sets); figure2 keeps jobs=2 for the "
        "pool path and the median estimator"
    ),
    "job_latency": (
        "job_mean_ms/job_tail95_ms: per finished job, the time since the job "
        "that finished `jobs` places earlier (when its worker slot freed up), "
        "from the entry point's progress callback; on jobs=1 workloads the "
        "fastest repetition of each job, on figure2 the median repetition "
        "at each rank of the sorted latencies (a run's repetitions share "
        "their inputs). The first `jobs` jobs of a "
        "repetition also carry pool spawn or worker start and are left out. "
        "On drain a job is a queued cell; the Study.run workloads have no "
        "queue, so there a job is one cell. The mean replaces a p50: the "
        "host runs in a fast and a ~1.5x slower CPU mode, and a pooled p50 "
        "of equal-work cells flips between the two (epidemic p50 IQR/median "
        "0.30 over 10 seeds). The tail mean (slowest 5% of jobs) replaces a "
        "p95: figure3 runs its n=8192 cells last, so its p95 read the host's "
        "mode in the last second of each repetition (IQR/median 0.15 over 5 "
        "seeds, 0.09 for the tail mean; with jobs=1 and per-job fastest "
        "0.05 at 16 seeds)"
    ),
    "noise": (
        "on the shared 2-vCPU host the CPU speed switches between a fast and "
        "a ~1.5x slower mode every few seconds, in wall and cpu time alike "
        "(one figure3 input: repetitions 4.7-7.3 s). On jobs=1 workloads "
        "the jobs run in the same order in every repetition, so wall_s is "
        "the sum over the timed region's steps (start, each job, end) of "
        "each step's fastest repetition: over 32 repetitions of one figure3 "
        "input, groups of 8 gave IQR/median 0.05 for it, 0.14 for the "
        "median repetition and 0.09 for the fastest one. figure2 (jobs=2) "
        "reports the median repetition. Timing bounds are 0.25. The speed "
        "also drifts over half an "
        "hour: two 10-seed sets 30 min apart gave figure2 median wall_s "
        "5.18 s and 3.50 s, more than any bound absorbs"
    ),
}

#: name -> one-line rationale (at most 200 characters each).
WORKLOADS = {
    "figure2": (
        "Study.run(jobs=2) figure2 n=64 x16 seeds, engine=array, 50 n^2 "
        "interactions per cell, cold store: SoA kernel, walk, cadence-n "
        "checks, series, tabulation"
    ),
    "figure3": (
        "Study.run(jobs=1) figure3 n=128..8192 x16 seeds (112 cells), auto "
        "-> aggregate: event loop, milestone checks, per-cell dispatch and "
        "row appends; no agent engine"
    ),
    "epidemic": (
        "Study.run(jobs=1) epidemic n=10^6 x50 seeds, auto -> group: the "
        "only group-engine and group-snapshot workload; single-process "
        "baseline"
    ),
    "drain": (
        "untimed StudyService.submit of 80 fixed-work n=4 reference cells, "
        "timed in-process run_worker(fsync=False): per-job serving cost, "
        "store re-reads, claims"
    ),
}

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
#: Timings get the widest bound: on a shared 2-vCPU host the CPU speed
#: itself drifts by about 10% between runs (cpu_s tracks wall_s).
#: ok_frac's bound is below the share of a single failed cell in any run.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cells_per_s", "1/s", "higher", 0.25),
    ("interactions_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.001),
    ("job_mean_ms", "ms", "lower", 0.25),
    ("job_tail95_ms", "ms", "lower", 0.25),
]

#: (name, unit, better) of the traced run's per-layer metrics.
PER_LAYER = [
    ("scheduler.pairs", "count", "lower"),
    ("scheduler.sample_s", "s", "lower"),
    ("tabulation.transitions", "count", "lower"),
    ("tabulation.s", "s", "lower"),
    ("kernel.calls", "count", "lower"),
    ("kernel.s", "s", "lower"),
    ("kernel.share", "ratio", "higher"),
    ("walk.self_s", "s", "lower"),
    ("convergence.checks", "count", "lower"),
    ("convergence.s", "s", "lower"),
    ("metrics.records", "count", "lower"),
    ("metrics.s", "s", "lower"),
    ("table_store.spills", "count", "lower"),
    ("table_store.loads", "count", "lower"),
    ("table_store.s", "s", "lower"),
    ("table_store.bytes", "bytes", "lower"),
    ("aggregate.events", "count", "lower"),
    ("aggregate.run_s", "s", "lower"),
    ("group.events", "count", "lower"),
    ("group.model_states", "count", "lower"),
    ("group.run_s", "s", "lower"),
    ("backends.resolve_calls", "count", "lower"),
    ("backends.resolve_s", "s", "lower"),
    ("study.plan_s", "s", "lower"),
    ("study.cell_s", "s", "lower"),
    ("study.self_s", "s", "lower"),
    ("parallel.busy_frac", "ratio", "higher"),
    ("store.appends", "count", "lower"),
    ("store.append_s", "s", "lower"),
    ("store.loads", "count", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.rows_read", "count", "lower"),
    ("store.compact_s", "s", "lower"),
    ("queue.pending_s", "s", "lower"),
    ("queue.claims", "count", "lower"),
    ("queue.claims_won", "count", "higher"),
    ("queue.claim_s", "s", "lower"),
    ("worker.idle_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

#: layer -> (modules, per-layer metrics, end-to-end metric it moves,
#: workloads it should move it on, workloads it should leave flat).
LAYERS = {
    "pair sampling": (
        ["core/scheduler.py"],
        ["scheduler.pairs", "scheduler.sample_s"],
        "interactions_per_s", ["figure2"], ["figure3", "epidemic"],
    ),
    "tabulation": (
        ["protocol transition calls from the engines"],
        ["tabulation.transitions", "tabulation.s"],
        "wall_s", ["figure2", "drain"], ["figure3"],
    ),
    "SoA kernel": (
        ["core/soa.py", "protocols/ranking/soa_kernel.py"],
        ["kernel.calls", "kernel.s", "kernel.share"],
        "interactions_per_s", ["figure2"], ["figure3", "epidemic", "drain"],
    ),
    "table walk": (
        ["core/array_engine.py"],
        ["walk.self_s"],
        "interactions_per_s", ["figure2"], ["figure3", "epidemic", "drain"],
    ),
    "convergence checks": (
        ["has_converged"],
        ["convergence.checks", "convergence.s"],
        "interactions_per_s", ["figure2"], ["figure3", "epidemic"],
    ),
    "metrics": (
        ["core/metrics.py"],
        ["metrics.records", "metrics.s"],
        "wall_s", ["figure2", "drain"], ["figure3", "epidemic"],
    ),
    "table store": (
        ["core/table_store.py", "EngineCache.spill", "EngineCache.load_persisted"],
        ["table_store.spills", "table_store.loads", "table_store.s",
         "table_store.bytes"],
        "wall_s", ["figure2", "epidemic"], ["figure3"],
    ),
    "aggregate engine": (
        ["core/aggregate.py"],
        ["aggregate.events", "aggregate.run_s"],
        "cells_per_s", ["figure3"], ["figure2", "epidemic", "drain"],
    ),
    "group engine": (
        ["core/group_engine.py"],
        ["group.events", "group.model_states", "group.run_s"],
        "cells_per_s", ["epidemic"], ["figure2", "figure3", "drain"],
    ),
    "routing": (
        ["core/backends.py"],
        ["backends.resolve_calls", "backends.resolve_s"],
        "cells_per_s", ["figure3"], ["epidemic"],
    ),
    "study fan-out": (
        ["experiments/study.py", "experiments/parallel.py"],
        ["study.plan_s", "study.cell_s", "study.self_s", "parallel.busy_frac"],
        "wall_s", ["figure2", "figure3"], ["epidemic"],
    ),
    "result store": (
        ["experiments/store.py", "serving/store.py"],
        ["store.appends", "store.append_s", "store.loads", "store.load_s",
         "store.rows_read", "store.compact_s"],
        "job_tail95_ms", ["drain", "figure3"], ["figure2"],
    ),
    "queue and worker": (
        ["serving/queue.py", "serving/worker.py"],
        ["queue.pending_s", "queue.claims", "queue.claims_won",
         "queue.claim_s", "worker.idle_s"],
        "job_tail95_ms", ["drain"], ["figure2", "figure3", "epidemic"],
    ),
}
