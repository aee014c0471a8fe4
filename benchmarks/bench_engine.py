"""Micro-benchmarks of the simulation engines themselves.

Not a paper artifact — these measure the raw throughput of the agent-level
reference simulator, the vectorized array engine and the exact event-driven
engine, which is what makes the paper-scale sweeps feasible in Python.

Workloads come in matched reference/array pairs (same protocol, same ``n``,
same interaction budget) so ``benchmarks/run_benchmarks.py`` can compute
engine speedups from the recorded timings:

``stable_ranking_throughput``
    20k-interaction slices of a ``StableRanking`` n=128 trajectory from the
    designated initial configuration, measured on the array engine both
    with the SoA kernel (``array``) and without (``array-nokernel``).
    Both variants measure the *tabulated* steady state — the shared
    :class:`EngineCache` is pre-warmed kernel-less on the same seed, so
    the rounds exercise the warm table path rather than the one-time
    transition tabulation.  With the kernel attached, every chunk goes to
    the kernel first, so the pair between the two series is the kernel's
    contribution on pre-tabulated slices (see ``docs/engines.md``).
``stable_ranking_full_run``
    Complete runs to convergence, one fresh seed per round, with the
    tabulation shared across rounds — the shape of the paper's repeated
    experiment sweeps.  This includes every cost the engine has (novel-pair
    tabulation, write-heavy early phase), so its speedup is the most
    conservative figure.  Measured twice on the array engine: with the
    protocol-provided SoA kernel (the default) and with
    ``use_soa_kernel=False`` (tagged ``array-nokernel``), which isolates
    the kernel's contribution on the walk-bound mid-run regime.
``stable_ranking_study_cell``
    A many-seed StableRanking n=128 study cell (100 seeds under
    ``REPRO_BENCH_FULL=1``, 32 otherwise) to convergence, one seed at a
    time on the array engine with a cold cache — the way a study runs
    the cell's seeds.
``stable_ranking_figure2_cell``
    Figure 2 cells at the end-to-end benchmark's settings (n=64, 50 n²
    interactions, 240-sample metric collector, cadence n, no stop): one
    round is the eight cells one of its two workers runs, seed by seed on
    one fresh cache, so the round pays the cold tabulation, every kernel
    call and every snapshot that worker pays.
``stable_ranking_tail``
    The stabilization tail (population ranked down to the last two agents),
    which dominates the ``Θ(n² log n)`` total of paper-scale runs.  Nearly
    every pair is a no-op there, and the SoA kernel consumes those chunks
    in column operations.
``epidemic_throughput``
    The one-way epidemic at n=256 — a 4-state protocol on the lazy table
    path with its exemplar SoA kernel.
``burman_throughput`` / ``cai_throughput`` / ``token_counter_throughput``
    The three comparison baselines at n=64 (matched reference/array pairs,
    pre-warmed caches, 20,000-interaction slices no study runs).  Burman
    and Cai have no SoA kernel, so every pair takes the ordered walk, and
    the token counter — whose GS leader-election substrate consumes
    randomness — on the declared object fallback, so its pair documents
    the fallback's cost rather than a speedup.
"""

import os

import numpy as np

from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.baselines.cai_ranking import CaiRanking
from repro.baselines.token_counter_ranking import TokenCounterRanking
from repro.core.array_engine import ArraySimulator, EngineCache
from repro.core.configuration import Configuration
from repro.core.metrics import MetricsCollector, standard_ranking_probes
from repro.core.simulation import Simulator
from repro.experiments.study import PROTOCOLS
from repro.experiments.workloads import figure2_initial_configuration
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking.aggregate_space_efficient import (
    AggregateSpaceEfficientRanking,
)
from repro.protocols.ranking.stable_ranking import StableRanking

STABLE_N = 128
STABLE_INTERACTIONS = 20_000
FULL_RUN_BUDGET = 50_000_000
TAIL_INTERACTIONS = 200_000
EPIDEMIC_N = 256
EPIDEMIC_INTERACTIONS = 50_000
BASELINE_N = 64
BASELINE_INTERACTIONS = 20_000


def _tag(benchmark, *, workload, engine, protocol, n, interactions=None):
    benchmark.extra_info["workload"] = workload
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["protocol"] = protocol
    benchmark.extra_info["n"] = n
    if interactions is not None:
        benchmark.extra_info["interactions_per_round"] = interactions


def _tail_snapshot(n):
    """A configuration with all but two agents ranked (the run's tail)."""
    simulator = Simulator(StableRanking(n), random_state=42)
    while True:
        simulator.run(max_interactions=20_000, stop_on_convergence=False)
        ranked = sum(
            1 for state in simulator.configuration.states if state.rank is not None
        )
        if ranked >= n - 2:
            return [state.copy() for state in simulator.configuration.states]


# ----------------------------------------------------------------------
# StableRanking n=128: trajectory-slice throughput
# ----------------------------------------------------------------------
def test_reference_simulator_throughput(benchmark):
    """Interactions per second of the agent-level simulator (StableRanking)."""
    protocol = StableRanking(STABLE_N)
    simulator = Simulator(protocol, random_state=0)

    def run():
        simulator.run(
            max_interactions=STABLE_INTERACTIONS, stop_on_convergence=False
        )

    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    _tag(
        benchmark,
        workload="stable_ranking_throughput",
        engine="reference",
        protocol="stable-ranking",
        n=STABLE_N,
        interactions=STABLE_INTERACTIONS,
    )


def test_array_engine_stable_ranking_throughput(benchmark):
    """Array-engine throughput (SoA kernel active) on the same workload.

    The cache is pre-warmed with the kernel *disabled* so the pair cache
    holds the trajectory's tabulation — the same steady state the
    kernel-less variant below measures.  The measured simulator runs with
    the kernel attached, which takes every chunk first and hands the
    pairs it declines to the walk or the table path.
    """
    cache = EngineCache()
    ArraySimulator(
        StableRanking(STABLE_N), random_state=0, cache=cache,
        use_soa_kernel=False,
    ).run(max_interactions=6 * STABLE_INTERACTIONS, stop_on_convergence=False)
    simulator = ArraySimulator(StableRanking(STABLE_N), random_state=0, cache=cache)

    def run():
        simulator.run(
            max_interactions=STABLE_INTERACTIONS, stop_on_convergence=False
        )

    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    _tag(
        benchmark,
        workload="stable_ranking_throughput",
        engine="array",
        protocol="stable-ranking",
        n=STABLE_N,
        interactions=STABLE_INTERACTIONS,
    )


def test_array_engine_stable_ranking_throughput_nokernel(benchmark):
    """Tabulated-path throughput with the SoA kernel disabled.

    The cache is pre-warmed on the same seed, so rounds measure the
    ordered walk's pair-cache lookups without the one-time tabulation
    cost — the regime repeated sweeps amortize into.
    """
    cache = EngineCache()
    ArraySimulator(
        StableRanking(STABLE_N), random_state=0, cache=cache,
        use_soa_kernel=False,
    ).run(max_interactions=6 * STABLE_INTERACTIONS, stop_on_convergence=False)
    simulator = ArraySimulator(
        StableRanking(STABLE_N), random_state=0, cache=cache,
        use_soa_kernel=False,
    )

    def run():
        simulator.run(
            max_interactions=STABLE_INTERACTIONS, stop_on_convergence=False
        )

    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    _tag(
        benchmark,
        workload="stable_ranking_throughput",
        engine="array-nokernel",
        protocol="stable-ranking",
        n=STABLE_N,
        interactions=STABLE_INTERACTIONS,
    )


# ----------------------------------------------------------------------
# StableRanking n=128: full runs to convergence
# ----------------------------------------------------------------------
def test_reference_full_run(benchmark):
    """Complete StableRanking n=128 runs on the reference simulator."""
    seeds = iter(range(1000, 2000))
    interactions = []

    def run():
        result = Simulator(StableRanking(STABLE_N), random_state=next(seeds)).run(
            max_interactions=FULL_RUN_BUDGET
        )
        assert result.converged
        interactions.append(result.interactions)

    benchmark.pedantic(run, rounds=3, iterations=1)
    _tag(
        benchmark,
        workload="stable_ranking_full_run",
        engine="reference",
        protocol="stable-ranking",
        n=STABLE_N,
    )
    benchmark.extra_info["mean_interactions"] = float(np.mean(interactions))


def test_array_engine_full_run(benchmark):
    """Complete StableRanking n=128 runs on the array engine (shared cache).

    The protocol-provided SoA kernel is active (the default), so the
    write-heavy mid-run regime — coin toggles, liveness-counter churn,
    phase waves — runs on the vectorized fast path instead of the walk.
    """
    cache = EngineCache()
    seeds = iter(range(1000, 2000))
    # One cold run takes the brunt of the tabulation, as a sweep's first
    # repetition would.
    ArraySimulator(
        StableRanking(STABLE_N), random_state=next(seeds), cache=cache
    ).run(max_interactions=FULL_RUN_BUDGET)
    interactions = []

    def run():
        result = ArraySimulator(
            StableRanking(STABLE_N), random_state=next(seeds), cache=cache
        ).run(max_interactions=FULL_RUN_BUDGET)
        assert result.converged
        interactions.append(result.interactions)

    benchmark.pedantic(run, rounds=3, iterations=1)
    _tag(
        benchmark,
        workload="stable_ranking_full_run",
        engine="array",
        protocol="stable-ranking",
        n=STABLE_N,
    )
    benchmark.extra_info["mean_interactions"] = float(np.mean(interactions))


def test_array_engine_full_run_nokernel(benchmark):
    """The same full runs with the SoA kernel disabled (walk-bound)."""
    cache = EngineCache()
    seeds = iter(range(1000, 2000))
    ArraySimulator(
        StableRanking(STABLE_N), random_state=next(seeds), cache=cache,
        use_soa_kernel=False,
    ).run(max_interactions=FULL_RUN_BUDGET)
    interactions = []

    def run():
        result = ArraySimulator(
            StableRanking(STABLE_N), random_state=next(seeds), cache=cache,
            use_soa_kernel=False,
        ).run(max_interactions=FULL_RUN_BUDGET)
        assert result.converged
        interactions.append(result.interactions)

    benchmark.pedantic(run, rounds=3, iterations=1)
    _tag(
        benchmark,
        workload="stable_ranking_full_run",
        engine="array-nokernel",
        protocol="stable-ranking",
        n=STABLE_N,
    )
    benchmark.extra_info["mean_interactions"] = float(np.mean(interactions))


# ----------------------------------------------------------------------
# StableRanking n=128: stabilization tail
# ----------------------------------------------------------------------
def test_reference_tail_throughput(benchmark):
    """Reference throughput on the two-unranked stabilization tail."""
    snapshot = _tail_snapshot(STABLE_N)
    simulator = Simulator(
        StableRanking(STABLE_N),
        configuration=Configuration([s.copy() for s in snapshot]),
        random_state=1,
    )

    def run():
        simulator.run(max_interactions=TAIL_INTERACTIONS, stop_on_convergence=False)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    _tag(
        benchmark,
        workload="stable_ranking_tail",
        engine="reference",
        protocol="stable-ranking",
        n=STABLE_N,
        interactions=TAIL_INTERACTIONS,
    )


def test_array_engine_tail_throughput(benchmark):
    """Array-engine throughput on the same tail (tabulated path)."""
    snapshot = _tail_snapshot(STABLE_N)
    cache = EngineCache()
    ArraySimulator(
        StableRanking(STABLE_N),
        configuration=Configuration([s.copy() for s in snapshot]),
        random_state=1,
        cache=cache,
    ).run(max_interactions=5 * TAIL_INTERACTIONS, stop_on_convergence=False)
    simulator = ArraySimulator(
        StableRanking(STABLE_N),
        configuration=Configuration([s.copy() for s in snapshot]),
        random_state=1,
        cache=cache,
    )

    def run():
        simulator.run(max_interactions=TAIL_INTERACTIONS, stop_on_convergence=False)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    _tag(
        benchmark,
        workload="stable_ranking_tail",
        engine="array",
        protocol="stable-ranking",
        n=STABLE_N,
        interactions=TAIL_INTERACTIONS,
    )


# ----------------------------------------------------------------------
# StableRanking n=128: the many-seed study cell
# ----------------------------------------------------------------------
# One study cell = many seeds of one (protocol, n) coordinate, each run
# by its own ArraySimulator over one shared cache.  The cache starts
# fresh inside the measured round, so the cold tabulation is paid like a
# worker process meeting the cell for the first time.
STUDY_SEED_COUNT = (
    100
    if os.environ.get("REPRO_BENCH_FULL", "0") not in ("", "0", "false", "no")
    else 32
)
STUDY_BUDGET = 200 * STABLE_N * STABLE_N


def _study_cell_seeds():
    return list(range(2000, 2000 + STUDY_SEED_COUNT))


def _run_study_cell_serial(cache):
    for seed in _study_cell_seeds():
        result = ArraySimulator(
            StableRanking(STABLE_N),
            random_state=seed,
            cache=cache,
            convergence_interval=STABLE_N,
        ).run(max_interactions=STUDY_BUDGET)
        assert result.converged


def _tag_study_cell(benchmark, engine):
    _tag(
        benchmark,
        workload="stable_ranking_study_cell",
        engine=engine,
        protocol="stable-ranking",
        n=STABLE_N,
    )
    benchmark.extra_info["seeds"] = STUDY_SEED_COUNT


def test_study_cell_per_seed_array(benchmark):
    """The many-seed cell, one seed at a time on a fresh cache."""
    benchmark.pedantic(
        lambda: _run_study_cell_serial(EngineCache()), rounds=1, iterations=1
    )
    _tag_study_cell(benchmark, "array")


# ----------------------------------------------------------------------
# StableRanking n=64: figure2 cells at study settings
# ----------------------------------------------------------------------
FIGURE2_N = 64
FIGURE2_BUDGET = 50 * FIGURE2_N * FIGURE2_N
FIGURE2_SAMPLES = 240
FIGURE2_SEEDS = 8


def _run_figure2_cells(cache):
    for seed in range(3000, 3000 + FIGURE2_SEEDS):
        protocol = PROTOCOLS["stable-ranking-figure2"](
            FIGURE2_N, c_wait=2.0, c_live=4.0
        )
        metrics = MetricsCollector(
            standard_ranking_probes(),
            interval=FIGURE2_BUDGET // FIGURE2_SAMPLES,
        )
        ArraySimulator(
            protocol,
            configuration=figure2_initial_configuration(protocol),
            random_state=seed,
            metrics=metrics,
            cache=cache,
            convergence_interval=FIGURE2_N,
        ).run(max_interactions=FIGURE2_BUDGET, stop_on_convergence=False)


def test_array_engine_figure2_cell(benchmark):
    """Eight figure2 cells with their snapshots, on a fresh cache."""
    benchmark.pedantic(
        lambda: _run_figure2_cells(EngineCache()), rounds=5, iterations=1
    )
    _tag(
        benchmark,
        workload="stable_ranking_figure2_cell",
        engine="array",
        protocol="stable-ranking",
        n=FIGURE2_N,
        interactions=FIGURE2_SEEDS * FIGURE2_BUDGET,
    )


# ----------------------------------------------------------------------
# One-way epidemic n=256 (lazy tables + SoA kernel)
# ----------------------------------------------------------------------
def test_epidemic_simulation_throughput(benchmark):
    """Interactions per second for the cheapest protocol (one-way epidemic)."""
    simulator = Simulator(OneWayEpidemicProtocol(EPIDEMIC_N), random_state=1)

    def run():
        simulator.run(
            max_interactions=EPIDEMIC_INTERACTIONS, stop_on_convergence=False
        )

    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    _tag(
        benchmark,
        workload="epidemic_throughput",
        engine="reference",
        protocol="one-way-epidemic",
        n=EPIDEMIC_N,
        interactions=EPIDEMIC_INTERACTIONS,
    )


def test_array_engine_epidemic_throughput(benchmark):
    """Array engine on the same epidemic workload."""
    simulator = ArraySimulator(OneWayEpidemicProtocol(EPIDEMIC_N), random_state=1)
    assert simulator.mode == "lazy"

    def run():
        simulator.run(
            max_interactions=EPIDEMIC_INTERACTIONS, stop_on_convergence=False
        )

    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    _tag(
        benchmark,
        workload="epidemic_throughput",
        engine="array",
        protocol="one-way-epidemic",
        n=EPIDEMIC_N,
        interactions=EPIDEMIC_INTERACTIONS,
    )


# ----------------------------------------------------------------------
# Comparison baselines at n=64: matched reference/array pairs
# ----------------------------------------------------------------------
_BASELINES = {
    "burman-style-ranking": ("burman_throughput", BurmanStyleRanking),
    "cai-ranking": ("cai_throughput", CaiRanking),
    "token-counter-ranking": ("token_counter_throughput", TokenCounterRanking),
}


def _run_baseline(benchmark, protocol_name, engine):
    workload, factory = _BASELINES[protocol_name]
    if engine == "reference":
        simulator = Simulator(factory(BASELINE_N), random_state=0)
    else:
        cache = EngineCache()
        ArraySimulator(
            factory(BASELINE_N), random_state=0, cache=cache
        ).run(
            max_interactions=6 * BASELINE_INTERACTIONS,
            stop_on_convergence=False,
        )
        simulator = ArraySimulator(
            factory(BASELINE_N), random_state=0, cache=cache
        )

    def run():
        simulator.run(
            max_interactions=BASELINE_INTERACTIONS, stop_on_convergence=False
        )

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    _tag(
        benchmark,
        workload=workload,
        engine=engine,
        protocol=protocol_name,
        n=BASELINE_N,
        interactions=BASELINE_INTERACTIONS,
    )


def test_reference_burman_throughput(benchmark):
    """Reference throughput of the Burman-style baseline (n=64)."""
    _run_baseline(benchmark, "burman-style-ranking", "reference")


def test_array_engine_burman_throughput(benchmark):
    """Array-engine throughput of the same workload: the ordered walk."""
    _run_baseline(benchmark, "burman-style-ranking", "array")


def test_reference_cai_throughput(benchmark):
    """Reference throughput of the Cai collision-increment baseline (n=64)."""
    _run_baseline(benchmark, "cai-ranking", "reference")


def test_array_engine_cai_throughput(benchmark):
    """Array-engine throughput of the Cai baseline: the ordered walk."""
    _run_baseline(benchmark, "cai-ranking", "array")


def test_reference_token_counter_throughput(benchmark):
    """Reference throughput of the token-counter baseline (n=64)."""
    _run_baseline(benchmark, "token-counter-ranking", "reference")


def test_array_engine_token_counter_throughput(benchmark):
    """Array engine on the token counter: the declared object fallback.

    The GS leader-election substrate consumes randomness, so this measures
    the fallback's overhead relative to the reference (expected ≈ 1x) —
    the figure behind the auto resolver routing this protocol to the
    reference engine.
    """
    _run_baseline(benchmark, "token-counter-ranking", "array")


# ----------------------------------------------------------------------
# Event-driven aggregate engine (unchanged reference point)
# ----------------------------------------------------------------------
def test_aggregate_engine_full_run(benchmark):
    """Full SpaceEfficientRanking executions at n = 4096 via the event engine."""
    seeds = iter(range(10_000))

    def run():
        engine = AggregateSpaceEfficientRanking(4096, random_state=next(seeds))
        outcome = engine.run(max_interactions=10**14)
        assert outcome.converged
        return outcome

    benchmark.pedantic(run, rounds=3, iterations=1)
    _tag(
        benchmark,
        workload="aggregate_full_run",
        engine="aggregate",
        protocol="space-efficient-ranking",
        n=4096,
    )


# ----------------------------------------------------------------------
# Group-count engine: million-agent scale rows
# ----------------------------------------------------------------------
GROUP_SIZES = (8192, 100_000, 1_000_000)
GROUP_EVENT_BUDGET = 256


def _count_profile(protocol, model):
    """Collapse the designated initial configuration to (state, count) pairs.

    Protocols without a ``count_profile`` declaration still have compact
    fresh starts; the collapse happens once, outside the timed rounds, so
    the rows measure the engine rather than n object materializations.
    """
    profile = protocol.count_profile()
    if profile is not None:
        return profile
    codec = model.codec
    counts = {}
    for state in protocol.initial_configuration():
        code = codec.encode(state)
        counts[code] = counts.get(code, 0) + 1
    return [(codec.prototype(code), count) for code, count in counts.items()]


def _run_group_full(benchmark, factory, protocol_name, n, workload):
    from repro.core.group_engine import GroupCountSimulator, GroupTransitionModel

    protocol = factory(n)
    model = GroupTransitionModel(protocol)
    profile = _count_profile(protocol, model)
    seeds = iter(range(100))
    interactions = []

    def run():
        simulator = GroupCountSimulator(
            protocol, state_counts=profile, model=model,
            random_state=next(seeds),
        )
        result = simulator.run(max_interactions=10**18)
        assert result.converged
        interactions.append(result.interactions)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    _tag(
        benchmark,
        workload=workload,
        engine="group",
        protocol=protocol_name,
        n=n,
    )
    benchmark.extra_info["mean_interactions"] = float(np.mean(interactions))


def _run_group_budgeted(benchmark, factory, protocol_name, n, workload):
    from repro.core.group_engine import GroupCountSimulator, GroupTransitionModel

    protocol = factory(n)
    model = GroupTransitionModel(protocol)
    profile = _count_profile(protocol, model)

    def run():
        simulator = GroupCountSimulator(
            protocol, state_counts=profile, model=model, random_state=0
        )
        result = simulator.run(
            max_interactions=10**18, max_events=GROUP_EVENT_BUDGET
        )
        assert result.events == GROUP_EVENT_BUDGET

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    _tag(
        benchmark,
        workload=workload,
        engine="group",
        protocol=protocol_name,
        n=n,
    )
    benchmark.extra_info["events_per_round"] = GROUP_EVENT_BUDGET


def test_group_epidemic_full_run_8192(benchmark):
    """Full epidemic at n=8192 on the group-count engine (n-1 events)."""
    _run_group_full(
        benchmark, OneWayEpidemicProtocol, "one-way-epidemic", 8192,
        "group_epidemic_full_run_8192",
    )


def test_reference_epidemic_full_run_8192(benchmark):
    """The matched agent-level run — the speedup denominator at n=8192."""
    seeds = iter(range(100))
    interactions = []

    def run():
        result = Simulator(
            OneWayEpidemicProtocol(8192), random_state=next(seeds)
        ).run(max_interactions=10**9)
        assert result.converged
        interactions.append(result.interactions)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    _tag(
        benchmark,
        workload="group_epidemic_full_run_8192",
        engine="reference",
        protocol="one-way-epidemic",
        n=8192,
    )
    benchmark.extra_info["mean_interactions"] = float(np.mean(interactions))


def test_group_epidemic_full_run_100k(benchmark):
    _run_group_full(
        benchmark, OneWayEpidemicProtocol, "one-way-epidemic", 100_000,
        "group_epidemic_full_run_100000",
    )


def test_group_epidemic_full_run_1m(benchmark):
    """The ISSUE's acceptance cell: a full epidemic at one million agents."""
    _run_group_full(
        benchmark, OneWayEpidemicProtocol, "one-way-epidemic", 1_000_000,
        "group_epidemic_full_run_1000000",
    )


def test_group_stable_ranking_event_throughput(benchmark):
    """Budgeted StableRanking slices at n=10^6 (Θ(n)-state protocols run
    the count process exactly but cannot tabulate to convergence)."""
    _run_group_budgeted(
        benchmark, StableRanking, "stable-ranking", 1_000_000,
        "group_stable_ranking_events_1000000",
    )


def test_group_burman_event_throughput(benchmark):
    _run_group_budgeted(
        benchmark, BurmanStyleRanking, "burman-style-ranking", 1_000_000,
        "group_burman_events_1000000",
    )


def test_group_cai_event_throughput(benchmark):
    _run_group_budgeted(
        benchmark, CaiRanking, "cai-ranking", 1_000_000,
        "group_cai_events_1000000",
    )


# ----------------------------------------------------------------------
# Aggregate engine at paper-and-beyond scale (the space-efficient rows)
# ----------------------------------------------------------------------
def _run_aggregate_full(benchmark, n, rounds):
    seeds = iter(range(10_000))
    interactions = []

    def run():
        engine = AggregateSpaceEfficientRanking(n, random_state=next(seeds))
        outcome = engine.run(max_interactions=10**15)
        assert outcome.converged
        interactions.append(outcome.interactions)

    benchmark.pedantic(run, rounds=rounds, iterations=1)
    _tag(
        benchmark,
        workload=f"aggregate_full_run_{n}",
        engine="aggregate",
        protocol="space-efficient-ranking",
        n=n,
    )
    benchmark.extra_info["mean_interactions"] = float(np.mean(interactions))


def test_aggregate_engine_full_run_8192(benchmark):
    """Full SpaceEfficientRanking at n=8192 (the paper's largest size)."""
    _run_aggregate_full(benchmark, 8192, rounds=3)


def test_aggregate_engine_full_run_100k(benchmark):
    _run_aggregate_full(benchmark, 100_000, rounds=3)


def test_aggregate_engine_full_run_1m(benchmark):
    """The ISSUE's acceptance cell: space-efficient ranking at n=10^6 on
    its count-level engine, single-digit seconds per full run."""
    _run_aggregate_full(benchmark, 1_000_000, rounds=1)
