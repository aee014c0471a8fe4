"""``certified_waits`` equals the scalar waiting-time formula bit for bit.

The aggregate engine's vectorized runs draw their geometric waits with
``np.log1p``; the scalar loops and ``step_event`` use
``1 + int(math.log1p(-u) / math.log1p(-p))``.  The helper recomputes every
quotient near an integer with the scalar formula, so the two agree on any
input, and keep agreeing when ``np.log1p`` is off by a few ulps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregate import certified_waits
from repro.experiments.figure3 import figure3_specs
from repro.experiments.study import Study
from repro.protocols.ranking.aggregate_space_efficient import (
    AggregateSpaceEfficientRanking,
)


def scalar_waits(uniforms, success):
    return [
        1 + int(math.log1p(-u) / math.log1p(-p))
        for u, p in zip(uniforms, success)
    ]


def vector_waits(uniforms, success):
    return certified_waits(
        np.array(uniforms, dtype=float), np.array(success, dtype=float)
    ).tolist()


def nudge(value, ulps):
    """``value`` moved by ``ulps`` units in the last place."""
    direction = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, direction)
    return value


#: Success probabilities as the engine forms them: ``total / n(n−1)``.
probabilities = st.integers(min_value=2, max_value=10**6).flatmap(
    lambda n: st.integers(min_value=1, max_value=n * (n - 1) - 1).map(
        lambda total: total / (n * (n - 1))
    )
)

uniforms = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@given(st.lists(st.tuples(uniforms, probabilities), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_random_inputs(draws):
    u, p = zip(*draws)
    assert vector_waits(u, p) == scalar_waits(u, p)


@given(
    probability=probabilities,
    wait=st.integers(min_value=0, max_value=10**7),
    ulps=st.integers(min_value=-8, max_value=8),
)
@settings(max_examples=300, deadline=None)
def test_quotients_next_to_an_integer(probability, wait, ulps):
    """A uniform whose quotient is ``wait`` up to a few ulps either side."""
    u = -math.expm1(wait * math.log1p(-probability))
    u = nudge(u, ulps)
    if not 0.0 <= u < 1.0:
        return
    assert vector_waits([u], [probability]) == scalar_waits([u], [probability])


@pytest.mark.parametrize("n", [2, 3, 64, 8192, 10**6])
def test_edges(n):
    pairs = n * (n - 1)
    rarest = 1 / pairs
    u = [0.0, 5e-324, 2.0**-53, 0.5, nudge(1.0, -1), 1 - 2.0**-40]
    for p in (rarest, 0.5, nudge(1.0, -1), (pairs - 1) / pairs):
        assert vector_waits(u, [p] * len(u)) == scalar_waits(u, [p] * len(u))


def off_by(ulps):
    """``np.log1p`` with every result moved by ``ulps`` ulps."""
    exact = np.log1p

    def log1p(x):
        result = exact(x)
        direction = np.inf if ulps > 0 else -np.inf
        for _ in range(abs(ulps)):
            result = np.nextafter(result, direction)
        return result

    return log1p


@pytest.mark.parametrize("ulps", [-64, -3, 3, 64])
def test_an_inexact_log1p_changes_no_wait_and_no_row(ulps, monkeypatch):
    """The guard, not the host's ``log1p``, carries the exactness."""
    rng = np.random.default_rng(ulps + 100)
    p = rng.integers(1, 8192 * 8191, size=4000) / (8192 * 8191)
    u = rng.random(4000)
    # Quotients exactly on and one ulp beside an integer.
    q = rng.integers(1, 10**4, size=200) / (8192 * 8191)
    near = -np.expm1(rng.integers(1, 10**3, size=200) * np.log1p(-q))
    u = np.concatenate([u, near, np.nextafter(near, 0), np.nextafter(near, 1)])
    p = np.concatenate([p, q, q, q])
    expected = scalar_waits(u.tolist(), p.tolist())

    def figure3_rows():
        spec = figure3_specs(n_values=(512,), repetitions=2, random_state=5)[0]
        rows = [row.as_dict() for row in Study(spec, name="ulps").run().rows]
        return rows, [list(row["milestones"]) for row in rows]

    rows = figure3_rows()
    monkeypatch.setattr(np, "log1p", off_by(ulps))
    unguarded = 1 + np.trunc(np.log1p(-u) / np.log1p(-p)).astype(np.int64)
    assert unguarded.tolist() != expected  # the skew shows without the guard
    assert certified_waits(u, p).tolist() == expected
    assert figure3_rows() == rows

    # The engine really takes vectorized runs in such a cell.
    engine = AggregateSpaceEfficientRanking(512, random_state=5)
    calls = []
    waits_within = engine._waits_within
    engine._waits_within = lambda *args: calls.append(1) or waits_within(*args)
    engine.run(10**9)
    assert calls
