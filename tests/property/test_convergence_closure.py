"""Property tests behind ``PopulationProtocol.convergence_is_closed``.

A protocol may declare its converged set closed only if no interaction
leads out of it.  The array engine relies on the declaration to check
convergence at block ends instead of every ``n`` interactions, so a
wrong ``True`` would silently move recorded stopping times.  Each test
here starts from an arbitrary configuration satisfying the protocol's
``has_converged`` — as broad as the predicate allows, not just the
configurations a fresh run reaches — and runs at least ``4n`` random
interactions, requiring the predicate after every one of them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from harness.protocols import LateRandomProtocol
from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.baselines.cai_ranking import CaiRanking, CaiState
from repro.baselines.token_counter_ranking import TokenCounterRanking
from repro.core.configuration import Configuration
from repro.core.state import AgentState
from repro.protocols.primitives.one_way_epidemic import (
    EpidemicState,
    OneWayEpidemicProtocol,
)
from repro.protocols.ranking.stable_ranking import StableRanking

SIZES = st.integers(min_value=2, max_value=12)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
#: Fields ``StableRanking.has_converged`` does not constrain.
UNCHECKED = ("is_leader", "le_count", "coin_count", "le_level", "aux")
junk = st.none() | st.integers(min_value=0, max_value=40)


def assert_stays_converged(protocol, configuration, seed):
    assert protocol.has_converged(configuration)
    n = protocol.n
    rng = np.random.default_rng(seed)
    states = configuration.states
    for _ in range(4 * n):
        i, j = rng.choice(n, size=2, replace=False)
        protocol.transition(states[i], states[j], rng)
        assert protocol.has_converged(configuration), (i, j)


@st.composite
def stable_ranking_converged(draw):
    n = draw(SIZES)
    ranks = draw(st.permutations(range(1, n + 1)))
    states = []
    for rank in ranks:
        extra = {name: draw(junk) for name in UNCHECKED}
        states.append(AgentState(rank=rank, **extra))
    return n, Configuration(states)


@settings(max_examples=60, deadline=None)
@given(stable_ranking_converged(), SEEDS)
def test_stable_ranking_converged_set_is_closed(case, seed):
    n, configuration = case
    protocol = StableRanking(n)
    assert protocol.convergence_is_closed()
    assert_stays_converged(protocol, configuration, seed)


@settings(max_examples=60, deadline=None)
@given(SIZES.flatmap(lambda n: st.permutations(range(1, n + 1))), SEEDS)
def test_cai_converged_set_is_closed(labels, seed):
    protocol = CaiRanking(len(labels))
    assert protocol.convergence_is_closed()
    configuration = Configuration([CaiState(rank=label) for label in labels])
    assert_stays_converged(protocol, configuration, seed)


@st.composite
def epidemic_converged(draw):
    n = draw(SIZES)
    m = draw(st.integers(min_value=1, max_value=n))
    states = []
    for _ in range(n):
        active = draw(st.booleans())
        # Every active agent is informed; inactive ones are arbitrary.
        informed = True if active else draw(st.booleans())
        states.append(EpidemicState(informed=informed, active=active))
    return OneWayEpidemicProtocol(n, m), Configuration(states)


@settings(max_examples=60, deadline=None)
@given(epidemic_converged(), SEEDS)
def test_epidemic_converged_set_is_closed(case, seed):
    protocol, configuration = case
    assert protocol.convergence_is_closed()
    assert_stays_converged(protocol, configuration, seed)


def test_burman_converged_set_is_not_closed():
    # Burman's predicate accepts a valid ranking in which two agents still
    # carry the leader's next-rank counter; when they meet, the
    # two-leaders error fires a reset and leaves the converged set.  So
    # the protocol must keep the default (no closure declaration).
    n = 4
    protocol = BurmanStyleRanking(n)
    assert not protocol.convergence_is_closed()
    states = [AgentState(rank=rank) for rank in range(1, n + 1)]
    states[0].aux = n + 1
    states[1].aux = n + 1
    configuration = Configuration(states)
    assert protocol.has_converged(configuration)
    protocol.transition(states[0], states[1], np.random.default_rng(0))
    assert not protocol.has_converged(configuration)


def test_closure_is_opt_in():
    assert not TokenCounterRanking(8).convergence_is_closed()
    assert not LateRandomProtocol(8).convergence_is_closed()
