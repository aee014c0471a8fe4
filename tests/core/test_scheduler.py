"""Unit tests for the uniform random pair scheduler."""

import numpy as np
import pytest

from repro.core.errors import ProtocolError
from repro.core.scheduler import UniformPairScheduler


class TestSchedulerBasics:
    def test_rejects_tiny_population(self):
        with pytest.raises(ProtocolError):
            UniformPairScheduler(1)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            UniformPairScheduler(4, chunk_size=0)

    def test_total_ordered_pairs(self):
        assert UniformPairScheduler(7).total_ordered_pairs == 42

    def test_sample_returns_distinct_ordered_pair(self):
        scheduler = UniformPairScheduler(5, random_state=0)
        for _ in range(500):
            initiator, responder = scheduler.sample()
            assert 0 <= initiator < 5
            assert 0 <= responder < 5
            assert initiator != responder

    def test_sample_chunk_shape_and_distinctness(self):
        scheduler = UniformPairScheduler(6, random_state=1)
        chunk = scheduler.sample_chunk(1000)
        assert chunk.shape == (1000, 2)
        assert np.all(chunk[:, 0] != chunk[:, 1])
        assert chunk.min() >= 0 and chunk.max() < 6

    def test_sample_chunk_rejects_negative(self):
        with pytest.raises(ValueError):
            UniformPairScheduler(4).sample_chunk(-1)

    def test_pairs_iterator(self):
        scheduler = UniformPairScheduler(4, random_state=2)
        pairs = scheduler.pairs()
        seen = [next(pairs) for _ in range(10)]
        assert len(seen) == 10

    def test_reproducibility_with_same_seed(self):
        first = UniformPairScheduler(8, random_state=42)
        second = UniformPairScheduler(8, random_state=42)
        assert [first.sample() for _ in range(50)] == [second.sample() for _ in range(50)]


class TestSampleChunkEdgeCases:
    def test_count_zero_returns_empty_chunk(self):
        chunk = UniformPairScheduler(5, random_state=0).sample_chunk(0)
        assert chunk.shape == (0, 2)

    def test_count_one(self):
        chunk = UniformPairScheduler(5, random_state=0).sample_chunk(1)
        assert chunk.shape == (1, 2)
        assert chunk[0, 0] != chunk[0, 1]

    def test_minimal_population_only_produces_both_ordered_pairs(self):
        scheduler = UniformPairScheduler(2, random_state=3)
        chunk = scheduler.sample_chunk(2000)
        pairs = {tuple(pair) for pair in chunk.tolist()}
        assert pairs == {(0, 1), (1, 0)}
        # Both orderings should appear in roughly equal proportion.
        first = int(np.sum(chunk[:, 0] == 0))
        assert abs(first - 1000) < 150

    def test_chunk_pairs_are_always_distinct(self):
        for n in (2, 3, 5, 17):
            chunk = UniformPairScheduler(n, random_state=n).sample_chunk(5000)
            assert np.all(chunk[:, 0] != chunk[:, 1])
            assert chunk.min() >= 0 and chunk.max() < n

    def test_ordered_pairs_are_uniform(self):
        """Every ordered pair appears with probability ~1/(n(n-1))."""
        n = 5
        scheduler = UniformPairScheduler(n, random_state=11)
        chunk = scheduler.sample_chunk(40_000)
        counts = np.zeros((n, n))
        np.add.at(counts, (chunk[:, 0], chunk[:, 1]), 1)
        assert np.all(counts.diagonal() == 0)
        expected = len(chunk) / (n * (n - 1))
        off_diagonal = counts[~np.eye(n, dtype=bool)]
        assert np.all(np.abs(off_diagonal - expected) < 0.12 * expected)

    def test_sample_chunk_consumes_same_stream_as_buffered_sampling(self):
        """One sample_chunk call equals chunk_size buffered sample() calls.

        The array engine's same-seed equality with the reference simulator
        rests on this: both issue identical generator calls.
        """
        chunked = UniformPairScheduler(7, random_state=13, chunk_size=64)
        buffered = UniformPairScheduler(7, random_state=13, chunk_size=64)
        chunk = chunked.sample_chunk(64)
        singles = [buffered.sample() for _ in range(64)]
        assert [tuple(pair) for pair in chunk.tolist()] == singles


class TestBulkTake:
    """``take`` reads the stream ``sample`` and ``sample_chunk`` define."""

    def test_take_matches_sample_chunk_across_chunk_boundaries(self):
        chunked = UniformPairScheduler(9, random_state=21, chunk_size=64)
        taker = UniformPairScheduler(9, random_state=21, chunk_size=64)
        expected = np.concatenate([chunked.sample_chunk(64) for _ in range(5)])
        initiators, responders = [], []
        for count in (10, 54, 1, 100, 63, 80, 500, 500):
            got_i, got_r = taker.take(count)
            # A call stops at the end of the buffer, never past it.
            assert 1 <= len(got_i) == len(got_r) <= count
            assert all(type(value) is int for value in got_i + got_r)
            initiators += got_i
            responders += got_r
        assert len(initiators) == 5 * 64
        assert initiators == expected[:, 0].tolist()
        assert responders == expected[:, 1].tolist()
        assert (
            taker.rng.bit_generator.state == chunked.rng.bit_generator.state
        )

    def test_take_stops_at_the_buffer_end(self):
        scheduler = UniformPairScheduler(5, random_state=2, chunk_size=16)
        scheduler.take(10)
        assert len(scheduler.take(100)[0]) == 6
        assert len(scheduler.take(100)[0]) == 16

    def test_take_and_sample_interleave_on_one_stream(self):
        mixed = UniformPairScheduler(6, random_state=8, chunk_size=32)
        singles = UniformPairScheduler(6, random_state=8, chunk_size=32)
        pairs = []
        while len(pairs) < 200:
            pairs.append(mixed.sample())
            pairs.extend(zip(*mixed.take(7)))
        assert pairs == [singles.sample() for _ in range(len(pairs))]


class TestSchedulerUniformity:
    def test_marginals_are_roughly_uniform(self):
        """Each ordered pair should appear with probability ~1/(n(n-1))."""
        n = 4
        scheduler = UniformPairScheduler(n, random_state=7)
        counts = np.zeros((n, n))
        samples = 24_000
        for _ in range(samples):
            i, j = scheduler.sample()
            counts[i, j] += 1
        expected = samples / (n * (n - 1))
        off_diagonal = counts[~np.eye(n, dtype=bool)]
        assert np.all(counts.diagonal() == 0)
        # Allow 15% relative deviation — generous for 24k samples over 12 cells.
        assert np.all(np.abs(off_diagonal - expected) < 0.15 * expected)

    def test_chunked_and_single_sampling_agree_statistically(self):
        n = 5
        scheduler = UniformPairScheduler(n, random_state=3)
        chunk = scheduler.sample_chunk(30_000)
        initiator_counts = np.bincount(chunk[:, 0], minlength=n)
        expected = len(chunk) / n
        assert np.all(np.abs(initiator_counts - expected) < 0.1 * expected)
