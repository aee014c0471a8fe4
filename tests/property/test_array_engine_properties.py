"""Property-based tests for the array engine against the reference.

The array engine's contract is one sentence — *a run with seed ``k`` is
bit-identical to the reference run with seed ``k``* — whatever the
protocol, the population size, the budget, and whatever else the shared
engine cache has already tabulated.  Hypothesis draws random
protocol/population/seed matrices (duplicate seeds included: the same
stream must produce the same trajectory twice), budgets that cut runs
off mid-flight or let seeds converge at staggered times, and protocols
spanning every engine mode — dense complete tables (epidemic, Cai at
small ``n``), lazy tabulation (StableRanking, Burman) and the *mid-run*
demotion of a run that starts consuming randomness at a state threshold
(:class:`LateRandomProtocol`).

Budgets stay small: the properties are about tabulation, cache sharing
and demotion edges, not throughput.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from harness.differential import assert_identical, run_serial
from harness.protocols import LateRandomProtocol
from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.baselines.cai_ranking import CaiRanking
from repro.core.array_engine import EngineCache
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking.stable_ranking import StableRanking

PROTOCOLS = [
    StableRanking,
    OneWayEpidemicProtocol,
    BurmanStyleRanking,
    CaiRanking,
]

seed_lists = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1),
    min_size=1,
    max_size=4,
)


@given(
    factory=st.sampled_from(PROTOCOLS),
    n=st.sampled_from([2, 5, 16, 33]),
    seeds=seed_lists,
    budget_factor=st.integers(min_value=1, max_value=40),
    stop=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_shared_cache_seed_equals_reference_seed(
    factory, n, seeds, budget_factor, stop
):
    budget = budget_factor * n * n
    cache = EngineCache()
    for seed in seeds:
        expected = run_serial(
            "reference", factory, n, seed, budget=budget,
            stop_on_convergence=stop,
        )
        actual = run_serial(
            "array", factory, n, seed, budget=budget,
            stop_on_convergence=stop, cache=cache,
        )
        assert_identical(
            expected, actual,
            context=f"{factory.__name__} n={n} seed={seed} budget={budget}",
        )


@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=2, max_size=5
    ),
    threshold=st.integers(min_value=3, max_value=40),
    budget=st.integers(min_value=50, max_value=4_000),
)
@settings(max_examples=15, deadline=None)
def test_mid_run_demotion_keeps_reference_identity(seeds, threshold, budget):
    """Runs demote to the object path at seed-dependent times.

    ``LateRandomProtocol`` counters grow deterministically until the
    threshold, then transitions start consuming rng — so each seed hits
    ``RandomnessConsumed`` at a different step, and the engine must
    re-execute the raising pair on the object path with the generator
    state the reference has.  The seeds share one cache, so later seeds
    start from tables an earlier, demoted run left behind.
    """
    n = 8

    def factory(population):
        protocol = LateRandomProtocol(population)
        protocol.THRESHOLD = threshold
        return protocol

    cache = EngineCache()
    for seed in seeds:
        expected = run_serial(
            "reference", factory, n, seed, budget=budget,
            stop_on_convergence=False,
        )
        actual = run_serial(
            "array", factory, n, seed, budget=budget,
            stop_on_convergence=False, cache=cache,
        )
        assert_identical(
            expected, actual,
            context=f"late-random seed={seed} threshold={threshold}",
        )


@given(
    n=st.sampled_from([4, 16]),
    seeds=st.lists(
        st.integers(min_value=0, max_value=500), min_size=3, max_size=6
    ),
)
@settings(max_examples=10, deadline=None)
def test_staggered_convergence_stops_exactly(n, seeds):
    """Runs long enough that seeds converge at different interactions;
    each must keep the reference stopping point."""
    budget = 3000 * n * n
    cache = EngineCache()
    for seed in seeds:
        expected = run_serial("reference", StableRanking, n, seed, budget=budget)
        actual = run_serial(
            "array", StableRanking, n, seed, budget=budget, cache=cache
        )
        assert_identical(expected, actual, context=f"n={n} seed={seed}")
        assert actual.converged
