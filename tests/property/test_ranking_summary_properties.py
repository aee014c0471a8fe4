"""Property tests for ``Configuration.ranking_summary``.

The Figure 2 probes read the one-pass summary instead of the three list
queries it replaces, so on every configuration a run can record (fresh,
adversarial, with injected duplicate ranks, mid-run, on baseline states
without a ``phase`` field or on states with neither field) it must equal
``(ranked_count(), average_phase(), len(duplicate_ranks()))`` exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cai_ranking import CaiState
from repro.core.configuration import Configuration
from repro.core.metrics import MetricsCollector, standard_ranking_probes
from repro.core.simulation import Simulator
from repro.core.state import AgentState
from repro.experiments.workloads import (
    adversarial_configuration,
    duplicate_rank_configuration,
    fresh_configuration,
)
from repro.protocols.primitives.one_way_epidemic import EpidemicState
from repro.protocols.ranking.stable_ranking import StableRanking

SIZES = st.integers(min_value=2, max_value=24)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
optional = st.none() | st.integers(min_value=0, max_value=40)


def assert_summary_matches(configuration):
    expected = (
        configuration.ranked_count(),
        configuration.average_phase(),
        len(configuration.duplicate_ranks()),
    )
    summary = configuration.ranking_summary()
    assert summary == expected
    assert type(summary[1]) is float
    # The standard probes read the summary, alone and through a collector.
    probes = standard_ranking_probes()
    alone = [probe(configuration) for probe in probes.values()]
    assert alone == [float(value) for value in expected]
    collector = MetricsCollector(probes, interval=1)
    collector.record(0, configuration)
    assert [series.values for series in collector.series.values()] == [
        [value] for value in alone
    ]


@given(n=SIZES, seed=SEEDS)
@settings(max_examples=60, deadline=None)
def test_fresh_and_adversarial_configurations(n, seed):
    protocol = StableRanking(n)
    assert_summary_matches(fresh_configuration(protocol))
    assert_summary_matches(adversarial_configuration(protocol, seed))


@given(n=SIZES, seed=SEEDS, data=st.data())
@settings(max_examples=60, deadline=None)
def test_duplicate_rank_configurations(n, seed, data):
    duplicates = data.draw(st.integers(min_value=1, max_value=n // 2))
    configuration = duplicate_rank_configuration(n, duplicates, seed)
    assert_summary_matches(configuration)
    assert configuration.ranking_summary()[2] == duplicates
    # No agent holds a phase: the average is 0.0.
    assert configuration.ranking_summary()[1] == 0.0


@given(n=SIZES, seed=SEEDS, steps=st.integers(min_value=0, max_value=3000))
@settings(max_examples=40, deadline=None)
def test_mid_run_configurations(n, seed, steps):
    protocol = StableRanking(n)
    simulator = Simulator(
        protocol,
        configuration=adversarial_configuration(protocol, seed),
        random_state=seed,
    )
    simulator.run(steps, stop_on_convergence=False)
    assert_summary_matches(simulator.configuration)


@given(
    states=st.lists(
        st.builds(AgentState, rank=optional, phase=optional, coin=optional),
        min_size=1, max_size=30,
    )
)
@settings(max_examples=150, deadline=None)
def test_arbitrary_agent_states(states):
    # Ranks collide freely, held two, three or more times.
    assert_summary_matches(Configuration(states))


@given(ranks=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                      max_size=20))
@settings(max_examples=100, deadline=None)
def test_states_without_a_phase_field(ranks):
    # Baseline states (Cai's labels) carry a rank and no phase at all.
    configuration = Configuration([CaiState(rank) for rank in ranks])
    assert_summary_matches(configuration)
    assert configuration.ranking_summary()[1] == 0.0


@given(flags=st.lists(st.booleans(), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_states_without_rank_or_phase(flags):
    configuration = Configuration(
        [EpidemicState(informed=flag, active=True) for flag in flags]
    )
    assert configuration.ranking_summary() == (0, 0.0, 0)
    assert_summary_matches(configuration)


def test_summary_of_a_known_configuration():
    states = [
        AgentState(rank=3), AgentState(rank=3), AgentState(rank=3),
        AgentState(rank=1), AgentState(rank=1), AgentState(rank=2),
        AgentState(phase=2), AgentState(phase=5), AgentState(),
    ]
    assert Configuration(states).ranking_summary() == (6, 3.5, 2)
