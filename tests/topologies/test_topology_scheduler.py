"""Scheduler-level determinism contracts for the topology subsystem.

The study layer's bit-identity guarantees all reduce to two facts pinned
here: (1) the complete-graph :class:`TopologyScheduler` consumes the rng
exactly like :class:`UniformPairScheduler`, and (2) for every family the
buffered ``sample()`` path and the whole-chunk ``sample_chunk()`` path
read the same stream — the same invariant the reference and array
engines rely on for the uniform scheduler.
"""

import numpy as np
import pytest

from repro.core.errors import ProtocolError
from repro.core.scheduler import PairScheduler, UniformPairScheduler
from repro.topologies import TopologyScheduler, build_topology, topology_names


FAMILIES = sorted(topology_names())


def test_topology_scheduler_is_a_pair_scheduler():
    scheduler = TopologyScheduler(build_topology("ring", 8))
    assert isinstance(scheduler, PairScheduler)
    assert scheduler.n == 8
    assert scheduler.topology.family == "ring"


def test_complete_topology_matches_uniform_scheduler_bitwise():
    uniform = UniformPairScheduler(16, np.random.default_rng(9))
    restricted = TopologyScheduler(
        build_topology("complete", 16), np.random.default_rng(9)
    )
    for _ in range(10_000):
        assert uniform.sample() == restricted.sample()


@pytest.mark.parametrize("name", FAMILIES)
def test_buffered_and_chunked_paths_read_the_same_stream(name):
    n = 16
    chunk = 64
    buffered = TopologyScheduler(
        build_topology(name, n), np.random.default_rng(3), chunk_size=chunk
    )
    chunked = TopologyScheduler(
        build_topology(name, n), np.random.default_rng(3), chunk_size=chunk
    )
    singles = [buffered.sample() for _ in range(4 * chunk)]
    chunks = np.concatenate([chunked.sample_chunk(chunk) for _ in range(4)])
    assert singles == [tuple(pair) for pair in chunks]


@pytest.mark.parametrize("name", FAMILIES)
def test_bulk_take_reads_the_chunked_stream(name):
    n = 16
    chunk = 64
    taker = TopologyScheduler(
        build_topology(name, n), np.random.default_rng(5), chunk_size=chunk
    )
    chunked = TopologyScheduler(
        build_topology(name, n), np.random.default_rng(5), chunk_size=chunk
    )
    pairs = []
    while len(pairs) < 3 * chunk:
        pairs.extend(zip(*taker.take(45)))
    chunks = np.concatenate([chunked.sample_chunk(chunk) for _ in range(3)])
    assert pairs == [tuple(pair) for pair in chunks.tolist()]


@pytest.mark.parametrize("name", FAMILIES)
def test_sampled_pairs_stay_on_the_edge_set(name):
    n = 12
    topology = build_topology(name, n)
    pairs, _ = topology.pair_distribution()
    allowed = {(int(i), int(j)) for i, j in pairs}
    scheduler = TopologyScheduler(topology, np.random.default_rng(1))
    drawn = scheduler.sample_chunk(512)
    assert {(int(i), int(j)) for i, j in drawn} <= allowed


def test_delayed_scheduler_conserves_pairs_one_in_one_out():
    scheduler = TopologyScheduler(
        build_topology("delayed", 8, {"base": "ring", "delay": "fixed"}),
        np.random.default_rng(2),
    )
    out = scheduler.sample_chunk(256)
    assert out.shape == (256, 2)
    # With a fixed delay the queue is FIFO: the output is the base stream
    # shifted by the (deterministic) warm-up, so exactly `count` pairs
    # emerge per `count` requested and none are dropped.
    pending = scheduler._stream.pending
    assert pending >= 0


def test_tiny_population_rejected_like_uniform():
    with pytest.raises(ProtocolError):
        UniformPairScheduler(1)
    # The topology itself refuses n < 2 before the scheduler is reached.
    from repro.core.errors import ExperimentError

    with pytest.raises(ExperimentError):
        build_topology("ring", 1)


def test_sample_chunk_rejects_negative_counts():
    scheduler = TopologyScheduler(build_topology("ring", 8))
    with pytest.raises(ValueError):
        scheduler.sample_chunk(-1)
