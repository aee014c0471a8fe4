"""Random number generation helpers.

Population protocol simulations are Monte-Carlo experiments, so every entry
point in the library accepts either an integer seed or an already constructed
:class:`numpy.random.Generator`.  This module centralizes that normalization
and provides deterministic seed spawning for repeated or parallel runs.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "RandomState",
    "make_rng",
    "spawn_seeds",
    "spawn_rngs",
    "cell_seed_sequences",
]

#: Anything accepted where a source of randomness is expected.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def make_rng(random_state: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` for OS entropy, an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, np.random.SeedSequence):
        return np.random.default_rng(random_state)
    if random_state is None or isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(random_state)
    raise TypeError(
        f"random_state must be None, int, SeedSequence or Generator, "
        f"got {type(random_state).__name__}"
    )


def spawn_seeds(random_state: RandomState, count: int) -> list[np.random.SeedSequence]:
    """Derive ``count`` independent seed sequences from ``random_state``.

    The derivation is deterministic for a fixed integer seed, which makes
    repeated experiments reproducible while keeping the child streams
    statistically independent.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(random_state, np.random.SeedSequence):
        base = random_state
    elif isinstance(random_state, np.random.Generator):
        # Derive a seed from the generator's stream; this consumes entropy
        # from the generator, which is intended.
        base = np.random.SeedSequence(int(random_state.integers(0, 2**63 - 1)))
    else:
        base = np.random.SeedSequence(random_state)
    return list(base.spawn(count))


def spawn_rngs(random_state: RandomState, count: int) -> list[np.random.Generator]:
    """Return ``count`` independent generators derived from ``random_state``."""
    return [np.random.default_rng(seq) for seq in spawn_seeds(random_state, count)]


def cell_seed_sequences(
    identity_seed: int, n: int, seed_index: int, count: int = 3
) -> list[np.random.SeedSequence]:
    """``count`` independent seed sequences for one experiment cell.

    The canonical derivation of a study cell's randomness from its
    coordinates: entropy ``[identity_seed, n, seed_index]`` through
    :class:`numpy.random.SeedSequence`, spawned into ``count`` children
    (workload, run, events in the experiment layer's convention).  It is
    deterministic and process-stable (unlike ``hash()``), which makes
    parallel studies bit-identical to serial ones, and it depends only on
    the cell's own coordinates — never on which cells run alongside it or
    in which process.
    """
    base = np.random.SeedSequence([int(identity_seed), int(n), int(seed_index)])
    return list(base.spawn(count))


def geometric(rng: np.random.Generator, success_probability: float) -> int:
    """Sample the number of Bernoulli trials up to and including the first success.

    A thin wrapper around :meth:`numpy.random.Generator.geometric` that guards
    against degenerate probabilities.  Used by the event-driven simulators to
    skip runs of no-op interactions exactly.
    """
    if not 0.0 < success_probability <= 1.0:
        raise ValueError(
            f"success_probability must be in (0, 1], got {success_probability}"
        )
    if success_probability == 1.0:
        return 1
    return int(rng.geometric(success_probability))


def choice_weighted(
    rng: np.random.Generator,
    items: Sequence,
    weights: Iterable[float],
) -> object:
    """Pick one element of ``items`` with probability proportional to ``weights``."""
    weights = np.asarray(list(weights), dtype=float)
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("weights must have a positive sum")
    index = rng.choice(len(items), p=weights / total)
    return items[int(index)]
