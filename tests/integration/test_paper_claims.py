"""Trend checks of the paper's quantitative claims on the default presets.

Theorem 1 bounds the stabilization time of ``SpaceEfficientRanking`` by
``O(n² log n)`` interactions.  The ``scaling`` preset measures it on the
exact aggregate engine; if the bound is tight, the per-``n`` mean of
``interactions / (n² log₂ n)`` stays flat across the n-ladder.

Theorem 2 bounds ``StableRanking``'s state count by ``n + O(log² n)``,
and every deterministic protocol declares its count in
``state_space_size()``.  The array engine interns only the states its runs
visit, so the codec of a cache shared by complete runs counts the visited
concrete states, which must stay within the declared count.

The one-way epidemic, the paper's Lemma 14 primitive, has an exact
completion law on the ring and on the complete graph; the array engine's
mean completion time is z-tested against it.
"""

import math
from statistics import NormalDist, mean

import numpy as np
import pytest

from repro.analysis.theory import (
    complete_epidemic_expected_interactions,
    ring_epidemic_expected_interactions,
)
from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.baselines.cai_ranking import CaiRanking
from repro.core.array_engine import ArraySimulator, EngineCache
from repro.experiments.scaling import scaling_specs
from repro.experiments.study import Study
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking.stable_ranking import StableRanking
from repro.topologies import build_topology

#: Largest allowed max/min ratio of the per-n normalized means.  At the
#: preset defaults (n = 64…1024, 20 seeds, random_state 0) the means are
#: 4.039, 3.983, 3.961, 4.060 and 3.922: a ratio of 1.035.
THEOREM1_FLATNESS = 1.15

#: Two-sided significance level of the epidemic z-tests.
ALPHA = 0.001
EPIDEMIC_RUNS = 300


def test_theorem1_normalized_stabilization_time_is_flat_in_n(tmp_path):
    result = Study(scaling_specs(), name="scaling", store=tmp_path).run()
    spec = result.specs[0]
    normalized = {}
    for n in spec.n_values:
        rows = result.filter(n=n).rows
        assert len(rows) == spec.seeds
        assert all(row.converged for row in rows)
        normalized[n] = mean(
            row.interactions / (n * n * math.log2(n)) for row in rows
        )
    assert max(normalized.values()) / min(normalized.values()) <= THEOREM1_FLATNESS, (
        normalized
    )


@pytest.mark.parametrize(
    "factory,n",
    [
        (StableRanking, 32),
        (StableRanking, 64),
        (BurmanStyleRanking, 16),
        (BurmanStyleRanking, 32),
        (CaiRanking, 16),
        (CaiRanking, 32),
        (OneWayEpidemicProtocol, 64),
    ],
)
def test_visited_states_stay_within_the_declared_state_space(factory, n):
    # Four complete runs through one cache.  With these seeds the codec
    # holds 1,126 / 2,580 StableRanking states at n = 32 / 64 (declared
    # 6,328 / 9,108), 688 / 1,053 Burman states at n = 16 / 32 (declared
    # 2,688 / 4,120), all n Cai labels and 2 of the epidemic's 4.
    cache = EngineCache()
    for seed in range(4):
        result = ArraySimulator(
            factory(n), random_state=seed, cache=cache
        ).run(max_interactions=400 * n * n)
        assert result.converged
    declared = factory(n).state_space_size()
    assert 0 < cache.codec.size <= declared, (cache.codec.size, declared)


def _epidemic_law(family, n):
    """Exact mean and variance of the one-way epidemic's completion time.

    Completion is a sum of independent geometric waits, one per newly
    informed agent.  On the ring every wait has success probability
    ``1/n`` (2 of the ``2n`` directed slots grow the informed arc); on the
    complete graph, with ``k`` informed agents, ``k(n-k)/(n(n-1))``.
    """
    informed = np.arange(1, n, dtype=np.float64)
    if family == "ring":
        p = np.full(n - 1, 1.0 / n)
        expected = ring_epidemic_expected_interactions(n)
    else:
        p = informed * (n - informed) / (n * (n - 1.0))
        expected = complete_epidemic_expected_interactions(n)
    assert expected == pytest.approx(float(np.sum(1.0 / p)), rel=1e-12)
    return expected, float(np.sum((1.0 - p) / p**2))


@pytest.mark.parametrize("n", (32, 64))
@pytest.mark.parametrize("family", ("ring", "complete"))
def test_epidemic_mean_completion_time_matches_the_exact_law(family, n):
    # Checking convergence after every interaction stops each run at its
    # exact completion; chunks of n pairs keep the final block, which the
    # engine replays at that cadence, short.
    protocol = OneWayEpidemicProtocol(n)
    topology = build_topology(family, n)
    cache = EngineCache()
    times = []
    for seed in range(EPIDEMIC_RUNS):
        result = ArraySimulator(
            protocol, random_state=seed, convergence_interval=1,
            chunk_size=n, topology=topology, cache=cache,
        ).run(max_interactions=10**9)
        assert result.converged
        times.append(result.interactions)
    expected, variance = _epidemic_law(family, n)
    z = (mean(times) - expected) / math.sqrt(variance / EPIDEMIC_RUNS)
    assert abs(z) < NormalDist().inv_cdf(1.0 - ALPHA / 2), (
        f"{family} n={n}: mean completion {mean(times):.1f} vs exact "
        f"{expected:.1f} (ratio {mean(times) / expected:.4f}, z = {z:.2f})"
    )
