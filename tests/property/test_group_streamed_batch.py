"""Differential test: the group engine's streamed single-pair batch ≡ one array pass.

``GroupCountSimulator._run_batch`` draws the waiting times of a
single-productive-pair stretch through ``_stream_waits``, block by block.
The oracle below is the whole-array computation it replaced: one ``int64``
weight array over the whole stretch, one ``rng.geometric`` call, one
``cumsum``.  With the block size patched down to 7, both must agree on the
batch length, the applied events, the elapsed interactions, the
interaction count at every milestone event, and the generator state.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import group_engine
from repro.core.configuration import Configuration
from repro.core.group_engine import CountGoal, GroupCountSimulator
from repro.core.protocol import PopulationProtocol, TransitionResult
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol

BLOCK = 7


@contextmanager
def small_blocks(size=BLOCK):
    with mock.patch.object(group_engine, "_BATCH_BLOCK", size):
        yield


def whole_array_waits(rng, count_i, count_j, length, total_pairs, remaining,
                      marks):
    """The single-pass computation, with ``_stream_waits``'s signature.

    On the diagonal ``count_j = (c_i - 1, d_i)``, so ``first * second`` is
    the former ``count_i * (count_i - 1)``.
    """
    steps = np.arange(length, dtype=np.int64)
    first = count_i[0] + count_i[1] * steps
    second = count_j[0] + count_j[1] * steps
    weights = first * second
    exhausted = np.nonzero(weights <= 0)[0]
    if exhausted.shape[0]:
        length = int(exhausted[0])
        weights = weights[:length]
    if length == 0:
        return 0, 0, 0, []
    waits = rng.geometric(weights / total_pairs)
    cumulative = np.cumsum(waits)
    applied = int(np.searchsorted(cumulative, remaining, side="right"))
    elapsed = int(cumulative[applied - 1]) if applied else 0
    marked = [int(cumulative[mark]) for mark in marks if mark < applied]
    return length, applied, elapsed, marked


def both_ways(seed, *args):
    """``(streamed, oracle)`` outcomes and generator states from one seed."""
    streamed_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    streamed = group_engine._stream_waits(streamed_rng, *args)
    oracle = whole_array_waits(oracle_rng, *args)
    return (
        (streamed, streamed_rng.bit_generator.state),
        (oracle, oracle_rng.bit_generator.state),
    )


@st.composite
def batches(draw):
    """A single-pair stretch whose counts stay non-negative, as in the engine."""
    diagonal = draw(st.booleans())
    first = (draw(st.integers(1, 60)), draw(st.integers(-2, 2)))
    if diagonal:
        second = (first[0] - 1, first[1])
    else:
        second = (draw(st.integers(1, 60)), draw(st.integers(-2, 2)))
    longest = 45
    for count, delta in (first,) if diagonal else (first, second):
        if delta < 0:
            longest = min(longest, count // -delta)
    length = draw(st.integers(1, max(1, longest)))
    steps = np.arange(length)
    heaviest = int(np.max(
        (first[0] + first[1] * steps) * (second[0] + second[1] * steps)
    ))
    heaviest = max(heaviest, 1)
    total_pairs = draw(st.one_of(
        st.integers(heaviest, 3 * heaviest),
        st.integers(heaviest, 1000 * heaviest),
    ))
    remaining = draw(st.one_of(st.integers(0, 200), st.integers(0, 50_000),
                               st.just(10**15)))
    marks = sorted(draw(st.lists(st.integers(0, length + 2), max_size=6)))
    return first, second, length, total_pairs, remaining, marks


@given(batch=batches(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
# Lengths at block multiples ±1, with the budget never crossed.
@example(batch=((5, 1), (60, -1), 13, 10_000, 10**15, [0, 6, 7, 12]), seed=1)
@example(batch=((5, 1), (60, -1), 14, 10_000, 10**15, [13]), seed=2)
@example(batch=((5, 1), (60, -1), 15, 10_000, 10**15, [14]), seed=3)
# Diagonal exhaustion three events into the second block (weight hits 0 at
# k = 9: (10 - k)(9 - k)).
@example(batch=((10, -1), (9, -1), 10, 200, 10**15, [0, 6, 7, 8, 9]), seed=4)
# A budget clamp in the fourth block; marks on the first and last event of
# the second and third blocks.
@example(batch=((3, 1), (40, -1), 30, 20_000, 1300, [7, 13, 14, 20]), seed=5)
def test_streamed_batch_matches_the_whole_array_pass(batch, seed):
    with small_blocks():
        streamed, oracle = both_ways(seed, *batch)
    assert streamed == oracle


@pytest.mark.parametrize("length", [6, 7, 8, 13, 14, 15, 20, 21, 22])
@pytest.mark.parametrize("block", [BLOCK, group_engine._BATCH_BLOCK])
def test_block_multiples_consume_the_stream_like_one_call(length, block):
    marks = [0, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, length - 1]
    with small_blocks(block):
        for remaining in (0, 1, 10**15):
            streamed, oracle = both_ways(length, (4, 1), (50, -2), length,
                                         5000, remaining, sorted(marks))
            assert streamed == oracle


def test_diagonal_exhaustion_inside_a_block_cuts_the_batch():
    # (12 - k)(11 - k) is 0 at k = 11, the fifth event of the second block.
    with small_blocks():
        streamed, oracle = both_ways(7, (12, -1), (11, -1), 12, 132, 10**15,
                                     [10, 11])
    assert streamed == oracle
    length, applied, _, marked = streamed[0]
    assert (length, applied, len(marked)) == (11, 11, 1)


def test_budget_clamp_in_a_later_block_still_draws_the_whole_batch():
    stretch = ((2, 1), (60, -1), 50, 4000)
    unclamped = np.random.default_rng(11)
    arrivals = whole_array_waits(unclamped, *stretch, 10**15, range(50))[3]
    # One interaction before the 20th arrival: the clamp falls in block 3.
    marks = [0, 6, 7, 13, 14, 49]
    with small_blocks():
        streamed, oracle = both_ways(11, *stretch, arrivals[19] - 1, marks)
    assert streamed == oracle
    assert streamed[0] == (
        50, 19, arrivals[18], [arrivals[k] for k in (0, 6, 7, 13, 14)]
    )
    # Every block was drawn: the generator is where the unclamped pass left it.
    assert streamed[1] == unclamped.bit_generator.state


# ---------------------------------------------------------------------------
# Whole runs: streamed blocks of 7 ≡ the whole-array pass inside the engine
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class DuelState:
    leader: bool = True
    rank: object = None

    def copy(self):
        return DuelState(self.leader, self.rank)


class FollowerGoal(CountGoal):
    def __init__(self, n):
        self._followers = 0
        self._n = n

    def on_count(self, state, delta):
        if not state.leader:
            self._followers += delta

    def measure(self):
        return self._followers

    def target(self):
        return self._n - 1


class DuelProtocol(PopulationProtocol):
    """``(L, L) → (L, F)``: the one productive pair is on the diagonal."""

    name = "duel"

    def __init__(self, n, goal=True):
        super().__init__(n)
        self._goal = goal

    def initial_state(self):
        return DuelState()

    def initial_configuration(self):
        return Configuration([DuelState() for _ in range(self.n)])

    def transition(self, u, v, rng):
        if u.leader and v.leader:
            v.leader = False
            return TransitionResult(changed=True)
        return TransitionResult(changed=False)

    def has_converged(self, configuration):
        return sum(state.leader for state in configuration.states) == 1

    def consumes_randomness(self):
        return False

    def codec_fields(self):
        return ("leader",)

    def count_goal(self, codec):
        return FollowerGoal(self.n) if self._goal else None


def run_outcome(protocol, seed, budget, milestones):
    profile = protocol.count_profile()
    if profile is not None:
        simulator = GroupCountSimulator(protocol, state_counts=profile,
                                        random_state=seed)
    else:
        simulator = GroupCountSimulator(
            protocol, configuration=protocol.initial_configuration(),
            random_state=seed,
        )
    if simulator.goal is None:
        milestones = None
    first = simulator.run(max_interactions=budget, milestones=milestones)
    resumed = simulator.run(max_interactions=budget + 5)
    return (
        first, resumed, sorted(simulator.state_counts().values()),
        simulator._rng.bit_generator.state,
    )


PROTOCOLS = {
    "epidemic": lambda n: OneWayEpidemicProtocol(n),
    "epidemic-half": lambda n: OneWayEpidemicProtocol(n, m=max(1, n // 2)),
    "duel": lambda n: DuelProtocol(n),
    "duel-no-goal": lambda n: DuelProtocol(n, goal=False),
}


@given(
    name=st.sampled_from(sorted(PROTOCOLS)),
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    budget_factor=st.sampled_from([0.05, 0.3, 1.0, 3.0, 100.0]),
    fractions=st.lists(st.integers(0, 8), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_runs_on_streamed_blocks_match_the_whole_array_pass(
    name, n, seed, budget_factor, fractions
):
    protocol = PROTOCOLS[name](n)
    budget = int(budget_factor * n * n)
    milestones = {
        f"f{eighths}": (eighths * (n - 1)) // 8 for eighths in fractions
    }
    with small_blocks():
        streamed = run_outcome(protocol, seed, budget, milestones)
        with mock.patch.object(group_engine, "_stream_waits",
                               whole_array_waits):
            oracle = run_outcome(protocol, seed, budget, milestones)
    assert streamed == oracle
