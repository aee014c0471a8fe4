"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of each layer of :mod:`repro` from the
outside (the library itself is not modified): every wrapped call is one
span.  Spans are aggregated in memory per layer as ``[calls, total_s,
self_s]``, where a layer's total counts only its outermost spans and self
time is a span's duration minus the time its child spans cover.  Counters
(pairs sampled, events, rows read, ...) are recorded at the same
boundaries from return values and public properties.

:func:`activate` installs the wrappers and arranges for the process's
aggregate to be written to ``$PERFBENCH_TRACE_DIR/trace-<pid>.json`` when
the process ends — including spawn-pool workers, which the pool stops
with SIGTERM.  ``sitecustomize.py`` beside this file calls it at
interpreter start-up when that variable is set, so the wrappers reach
every process of a traced repetition.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import signal
from time import perf_counter

ENV_DIR = "PERFBENCH_TRACE_DIR"


class Tracer:
    """Per-process span and counter aggregates."""

    def __init__(self, directory=None):
        self.directory = directory
        self.spans = {}
        self.counts = {}
        self.maxima = {}
        self._stack = []
        self._depth = {}
        self._flush = True

    def wrap(self, layer, function, after=None):
        """``function`` wrapped as a span of ``layer``.

        ``after(args, result)`` runs once the call returned, to record
        counters from its arguments or result.
        """
        stats = self.spans.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        depth = self._depth

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            level = depth.get(layer, 0)
            depth[layer] = level + 1
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[layer] = level
                stats[0] += 1
                if level == 0:
                    stats[1] += elapsed
                stats[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def reset(self):
        """Zero every aggregate (the wrappers keep their stats lists)."""
        for stats in self.spans.values():
            stats[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.maxima.clear()

    def snapshot(self):
        return {
            "spans": {layer: list(stats) for layer, stats in self.spans.items()},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def stop_flushing(self):
        """Keep this process's aggregate out of the trace directory."""
        self._flush = False

    def flush(self):
        if not self._flush or self.directory is None:
            return
        path = os.path.join(self.directory, f"trace-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle)


def merge(snapshots):
    """Sum span and counter aggregates across processes (maxima: max)."""
    merged = {"spans": {}, "counts": {}, "maxima": {}}
    for snapshot in snapshots:
        for layer, stats in snapshot["spans"].items():
            into = merged["spans"].setdefault(layer, [0, 0.0, 0.0])
            for index, value in enumerate(stats):
                into[index] += value
        for name, value in snapshot["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        for name, value in snapshot["maxima"].items():
            merged["maxima"][name] = max(merged["maxima"].get(name, 0), value)
    return merged


def _patch_method(tracer, cls, name, layer, after=None):
    """Wrap a method defined on ``cls`` itself (KeyError if it moved)."""
    setattr(cls, name, tracer.wrap(layer, cls.__dict__[name], after))


def _patch_function(tracer, modules, name, layer, after=None):
    """Wrap one module-level function once and rebind every import of it."""
    wrapped = tracer.wrap(layer, getattr(modules[0], name), after)
    for module in modules:
        setattr(module, name, wrapped)


def install(tracer):
    """Wrap the public functions of every layer the benchmark reports."""
    import repro.core as core
    import repro.serving as serving
    from repro.core import (
        aggregate,
        array_engine,
        backends,
        group_engine,
        metrics,
        scheduler,
        table_store,
    )
    from repro.experiments import parallel, store, study
    from repro.protocols.primitives.one_way_epidemic import (
        OneWayEpidemicKernel,
        OneWayEpidemicProtocol,
    )
    from repro.protocols.ranking.soa_kernel import StableRankingKernel
    from repro.protocols.ranking.space_efficient import SpaceEfficientRanking
    from repro.protocols.ranking.stable_ranking import StableRanking
    from repro.serving import queue, server, worker
    from repro.serving import store as sharded

    add, peak = tracer.add, tracer.peak
    method = functools.partial(_patch_method, tracer)
    function = functools.partial(_patch_function, tracer)

    method(scheduler.UniformPairScheduler, "sample_chunk", "scheduler",
           lambda args, result: add("scheduler.pairs", len(result)))
    for protocol in (StableRanking, SpaceEfficientRanking,
                     OneWayEpidemicProtocol):
        method(protocol, "transition", "tabulation")
        method(protocol, "has_converged", "convergence")
    for kernel in (StableRankingKernel, OneWayEpidemicKernel):
        method(kernel, "apply_chunk", "kernel",
               lambda args, result: add("kernel.interactions",
                                        result.processed))
    method(array_engine.ArraySimulator, "run", "walk",
           lambda args, result: add("walk.interactions",
                                    result.interactions))
    method(metrics.MetricsCollector, "record", "metrics")

    method(array_engine.EngineCache, "spill", "table_store")
    method(array_engine.EngineCache, "load_persisted", "table_store")
    entry = table_store.TableStoreEntry
    for name in ("write_pair_spill", "write_dense", "write_group_model"):
        method(entry, name, "table_store",
               lambda args, result: add("table_store.spills", int(bool(result))))
    method(entry, "load_pair_spills", "table_store",
           lambda args, result: add("table_store.loads", len(result)))
    for name in ("load_dense", "load_group_model"):
        method(entry, name, "table_store",
               lambda args, result: add("table_store.loads",
                                        int(result is not None)))

    method(aggregate.EventDrivenSimulator, "run", "aggregate",
           lambda args, result: add("aggregate.events", args[0].events))

    def group_counts(args, result):
        add("group.events", args[0].events)
        peak("group.model_states", args[0].tabulated_states)

    method(group_engine.GroupCountSimulator, "run", "group", group_counts)

    function([backends, core], "resolve_backend", "backends")
    function([study, server], "plan_units", "study.plan")
    function([study, parallel], "execute_cell", "study.cell")
    function([study, parallel], "execute_batch", "study.cell")
    method(study.Study, "run", "study.run")

    method(store.ResultStore, "append", "store.append")
    method(sharded.ShardedResultStore, "append", "store.append")
    method(store.ResultStore, "load", "store.load",
           lambda args, result: add("store.rows_read", len(result)))
    method(store.ResultStore, "compact", "store.compact")

    method(queue.JobQueue, "pending", "queue.pending")

    def claim_counts(args, result):
        add("queue.claims", 1)
        add("queue.claims_won", int(result is not None))

    method(queue.JobQueue, "claim", "queue.claim", claim_counts)
    function([worker, serving], "run_worker", "worker")


#: The process's tracer once :func:`activate` ran, else ``None``.
TRACER = None


def activate(directory):
    """Install the wrappers and write the aggregate when the process ends."""
    global TRACER
    import multiprocessing.util

    TRACER = Tracer(directory)
    install(TRACER)
    atexit.register(TRACER.flush)
    # Spawn-pool workers leave through os._exit (no atexit): normally via
    # multiprocessing's finalizers, and via SIGTERM when the pool is
    # terminated at the end of ``with Pool(...)``.
    multiprocessing.util.Finalize(None, TRACER.flush, exitpriority=0)

    def on_term(signum, frame):
        TRACER.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    return TRACER
