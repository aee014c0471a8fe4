"""Statistical cross-validation of the group-count engine.

The group engine's correctness claim is exactness *in distribution*: the
lumped count process visits the same multiset trajectory law as the
agent-level reference simulator, so any observable that is a function of
the counts must have the same distribution under both engines.  These
tests check that claim empirically with two-sample tests on matched
ensembles of independently seeded runs:

* Kolmogorov–Smirnov on exact stabilization times (the reference runs
  with ``convergence_interval=1``, so both sides record the exact first
  interaction at which the goal holds) — through the shared differential
  harness's scipy-free KS helper, so the comparison runs on the minimal
  tier-1 environment;
* chi-square (contingency) on the distribution of the informed count
  after a fixed interaction budget (scipy-only; skipped without it);
* a z-test of the mean epidemic completion time at ``n = 10^5`` against
  its exact value — the completion time is a sum of independent
  geometrics, so its mean and variance are known in closed form and no
  reference ensemble is needed.

The protocols used here (the one-way epidemic and the Cai baseline) have
small state spaces that every seed revisits, so one shared
:class:`~repro.core.group_engine.GroupTransitionModel` serves the whole
ensemble and the suite stays fast.  The significance level is 0.001 with
fixed seeds: the test is deterministic, and the ensembles were checked to
pass comfortably — a failure means a real distribution change, not noise.
"""

from statistics import NormalDist

import numpy as np
import pytest

from harness.differential import assert_ks_consistent
from repro.analysis.theory import complete_epidemic_expected_interactions
from repro.baselines.cai_ranking import CaiRanking
from repro.core.group_engine import GroupCountSimulator, GroupTransitionModel
from repro.core.simulation import Simulator
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol

ALPHA = 0.001


def reference_stabilization_time(protocol, seed):
    """Exact first interaction at which the protocol's goal holds."""
    simulator = Simulator(
        protocol,
        configuration=protocol.initial_configuration(),
        random_state=seed,
        convergence_interval=1,
    )
    result = simulator.run(max_interactions=10**9)
    assert result.converged
    return result.interactions


def group_stabilization_time(protocol, seed, model):
    simulator = GroupCountSimulator(
        protocol,
        configuration=protocol.initial_configuration(),
        model=model,
        random_state=seed,
    )
    result = simulator.run(max_interactions=10**9)
    assert result.converged
    return result.interactions


class TestStabilizationTimeDistributions:
    @pytest.mark.parametrize("n,runs", [(8, 300), (16, 200), (32, 120)])
    def test_epidemic_times_match_reference(self, n, runs):
        protocol = OneWayEpidemicProtocol(n)
        model = GroupTransitionModel(protocol)
        reference = [
            reference_stabilization_time(OneWayEpidemicProtocol(n), seed)
            for seed in range(runs)
        ]
        group = [
            group_stabilization_time(OneWayEpidemicProtocol(n), seed, model)
            for seed in range(1000, 1000 + runs)
        ]
        assert_ks_consistent(
            reference,
            group,
            alpha=ALPHA,
            context=f"epidemic stabilization times at n={n}",
        )

    @pytest.mark.parametrize("n,runs", [(8, 200), (16, 120)])
    def test_cai_ranking_times_match_reference(self, n, runs):
        protocol = CaiRanking(n)
        model = GroupTransitionModel(protocol)
        reference = [
            reference_stabilization_time(CaiRanking(n), seed)
            for seed in range(runs)
        ]
        group = [
            group_stabilization_time(CaiRanking(n), seed, model)
            for seed in range(1000, 1000 + runs)
        ]
        assert_ks_consistent(
            reference,
            group,
            alpha=ALPHA,
            context=f"Cai stabilization times at n={n}",
        )


class TestFixedBudgetMarginals:
    def test_epidemic_informed_count_after_fixed_budget(self):
        """Chi-square on the informed count after exactly T interactions."""
        stats = pytest.importorskip("scipy.stats")
        n, T, runs = 16, 3 * 16, 400
        reference_counts = []
        for seed in range(runs):
            protocol = OneWayEpidemicProtocol(n)
            simulator = Simulator(
                protocol,
                configuration=protocol.initial_configuration(),
                random_state=seed,
            )
            simulator.run(max_interactions=T, stop_on_convergence=False)
            reference_counts.append(
                protocol.informed_count(simulator.configuration)
            )
        shared_protocol = OneWayEpidemicProtocol(n)
        model = GroupTransitionModel(shared_protocol)
        group_counts = []
        for seed in range(1000, 1000 + runs):
            protocol = OneWayEpidemicProtocol(n)
            simulator = GroupCountSimulator(
                protocol,
                state_counts=protocol.count_profile(),
                model=model,
                random_state=seed,
            )
            simulator.run(max_interactions=T)
            group_counts.append(simulator.goal.measure())
        # Contingency chi-square over the informed-count marginals, with
        # sparse tail bins pooled to keep expected cell counts healthy.
        values = sorted(set(reference_counts) | set(group_counts))
        table = np.array(
            [
                [sum(1 for c in sample if c == value) for value in values]
                for sample in (reference_counts, group_counts)
            ]
        )
        pooled = [table[:, 0]]
        for column in table.T[1:]:
            if pooled[-1].sum() < 10:
                pooled[-1] = pooled[-1] + column
            else:
                pooled.append(column)
        table = np.array(pooled).T
        result = stats.chi2_contingency(table)
        assert result.pvalue > ALPHA, (
            f"informed-count marginals diverge after T={T}: "
            f"chi2={result.statistic:.2f} p={result.pvalue:.2e}"
        )


class TestExactEpidemicMean:
    def test_completion_time_mean_at_scale_matches_the_exact_value(self):
        """z-test of the mean completion time against the sum of geometrics.

        With ``k`` informed agents the wait for the next informing is
        geometric with ``p_k = k(n-k)/(n(n-1))``, independently across
        ``k``, so completion has mean ``Σ 1/p_k`` and variance
        ``Σ (1-p_k)/p_k²`` exactly.  At ``n = 10^5`` every run is one
        99,999-event single-pair batch spanning two blocks.
        """
        n, runs = 100_000, 400
        protocol = OneWayEpidemicProtocol(n)
        model = GroupTransitionModel(protocol)
        profile = protocol.count_profile()
        times = []
        for seed in range(runs):
            result = GroupCountSimulator(
                protocol, state_counts=profile, model=model,
                random_state=seed,
            ).run(max_interactions=10**12)
            assert result.converged
            times.append(result.interactions)
        informed = np.arange(1, n, dtype=np.float64)
        p = informed * (n - informed) / (n * (n - 1.0))
        mean = complete_epidemic_expected_interactions(n)
        assert mean == pytest.approx(float(np.sum(1.0 / p)), rel=1e-12)
        variance = float(np.sum((1.0 - p) / p**2))
        z = (np.mean(times) - mean) / np.sqrt(variance / runs)
        assert abs(z) < NormalDist().inv_cdf(1.0 - ALPHA / 2), (
            f"mean completion {np.mean(times):.0f} vs exact {mean:.0f} "
            f"(z = {z:.2f}, alpha = {ALPHA})"
        )
