"""Interaction schedulers.

The paper uses the *uniform random scheduler*: in each discrete time step an
ordered pair of distinct agents is chosen uniformly at random from the
``n·(n-1)`` possibilities.  :class:`UniformPairScheduler` implements exactly
that.  Because sampling one pair per Python call is slow, the scheduler also
provides chunked sampling backed by numpy, which the simulator uses to
amortize the random-number generation cost over many interactions.

:class:`PairScheduler` is the seam other schedulers plug into: it owns the
buffered one-at-a-time API (``sample`` / ``pairs``) and defines the single
abstract primitive ``sample_chunk``.  ``sample()`` and the bulk ``take()``
refill one buffer through ``sample_chunk(chunk_size)``, so any subclass
automatically satisfies the
determinism contract the engines rely on — the reference simulator (buffered
singles) and the array engines (whole chunks) issue *identical* generator
calls and therefore see the same pair stream on the same seed.  The
graph-restricted scheduler lives in :mod:`repro.topologies.scheduler` and
subclasses this seam.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from .errors import ProtocolError
from .rng import RandomState, make_rng

__all__ = ["PairScheduler", "UniformPairScheduler"]


class PairScheduler:
    """Base class for interaction-pair schedulers.

    Subclasses implement :meth:`sample_chunk`; the buffered single-pair API
    is provided here and is *defined* as draining chunks of ``chunk_size``
    pairs.  That definition is the bit-identity contract between engines:
    consuming the stream pair-by-pair via :meth:`sample` (or in runs via
    :meth:`take`) advances the underlying generator exactly as consuming
    it chunk-by-chunk via :meth:`sample_chunk` does (provided both sides
    use the same ``chunk_size``).  The buffer holds each refilled chunk as
    two Python lists, converted once, so the per-pair reads are plain
    list indexing.
    """

    def __init__(
        self,
        n: int,
        random_state: RandomState = None,
        chunk_size: int = 4096,
    ):
        if n < 2:
            raise ProtocolError(f"need at least 2 agents to interact, got n={n}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self._n = n
        self._rng = make_rng(random_state)
        self._chunk_size = chunk_size
        self._initiators: List[int] = []
        self._responders: List[int] = []
        self._cursor = 0

    @property
    def n(self) -> int:
        """Population size."""
        return self._n

    @property
    def rng(self) -> np.random.Generator:
        """The underlying random generator (shared with protocol transitions)."""
        return self._rng

    @property
    def chunk_size(self) -> int:
        """Pairs pre-sampled per refill (the bit-identity granularity)."""
        return self._chunk_size

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_chunk(self, count: int) -> np.ndarray:
        """Return ``count`` ordered pairs as a ``(count, 2)`` integer array.

        This is the one primitive subclasses implement.  It bypasses the
        internal buffer and is consumed directly by array-based engines.
        """
        raise NotImplementedError

    def _refill(self) -> None:
        """Refill the internal buffer with a fresh chunk of ordered pairs."""
        chunk = self.sample_chunk(self._chunk_size)
        self._initiators = chunk[:, 0].tolist()
        self._responders = chunk[:, 1].tolist()
        self._cursor = 0

    def sample(self) -> Tuple[int, int]:
        """Return the next ordered pair ``(initiator, responder)``."""
        cursor = self._cursor
        if cursor >= len(self._initiators):
            self._refill()
            cursor = 0
        self._cursor = cursor + 1
        return self._initiators[cursor], self._responders[cursor]

    def take(self, count: int) -> Tuple[List[int], List[int]]:
        """The next pairs as ``(initiators, responders)`` lists.

        Returns ``min(count, pairs left in the buffer)`` pairs, refilling
        the buffer first if it is empty, so a call never crosses a refill
        and never holds more than one chunk.  Callers loop until they have
        the pairs they need; the stream is the one :meth:`sample` reads.
        """
        cursor = self._cursor
        if cursor >= len(self._initiators):
            self._refill()
            cursor = 0
        stop = min(cursor + count, len(self._initiators))
        self._cursor = stop
        return self._initiators[cursor:stop], self._responders[cursor:stop]

    def put_back(self, count: int) -> None:
        """Return the last ``count`` pairs of the latest :meth:`take` to
        the buffer, so the next call reads them again.

        ``count`` must not exceed the pairs that :meth:`take` returned,
        and nothing may read the stream in between.
        """
        self._cursor -= count

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """Infinite iterator over ordered pairs."""
        while True:
            yield self.sample()


class UniformPairScheduler(PairScheduler):
    """Samples ordered pairs of distinct agents uniformly at random.

    Parameters
    ----------
    n:
        Population size.
    random_state:
        Seed or generator for the underlying randomness.
    chunk_size:
        Number of pairs pre-sampled per numpy call.  Larger chunks amortize
        overhead better but delay nothing semantically: the sequence of pairs
        is identical in distribution to one-at-a-time sampling.
    """

    @property
    def total_ordered_pairs(self) -> int:
        """Number of possible ordered pairs, ``n·(n-1)``."""
        return self._n * (self._n - 1)

    def sample_chunk(self, count: int) -> np.ndarray:
        """Return ``count`` uniform ordered pairs of distinct agents."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        initiators = self._rng.integers(0, self._n, size=count)
        responders = self._rng.integers(0, self._n - 1, size=count)
        # Map the responder draw from {0, …, n-2} to {0, …, n-1} \ {initiator}
        # so each ordered pair of *distinct* agents is equally likely.
        responders = responders + (responders >= initiators)
        return np.stack([initiators, responders], axis=1)
