"""Trend checks of the paper's quantitative claims on the default presets.

Theorem 1 bounds the stabilization time of ``SpaceEfficientRanking`` by
``O(n² log n)`` interactions.  The ``scaling`` preset measures it on the
exact aggregate engine; if the bound is tight, the per-``n`` mean of
``interactions / (n² log₂ n)`` stays flat across the n-ladder.
"""

import math
from statistics import mean

from repro.experiments.scaling import scaling_specs
from repro.experiments.study import Study

#: Largest allowed max/min ratio of the per-n normalized means.  At the
#: preset defaults (n = 64…1024, 20 seeds, random_state 0) the means are
#: 4.039, 3.983, 3.961, 4.060 and 3.922: a ratio of 1.035.
THEOREM1_FLATNESS = 1.15


def test_theorem1_normalized_stabilization_time_is_flat_in_n(tmp_path):
    result = Study(scaling_specs(), name="scaling", store=tmp_path).run()
    spec = result.specs[0]
    normalized = {}
    for n in spec.n_values:
        rows = result.filter(n=n).rows
        assert len(rows) == spec.seeds
        assert all(row.converged for row in rows)
        normalized[n] = mean(
            row.interactions / (n * n * math.log2(n)) for row in rows
        )
    assert max(normalized.values()) / min(normalized.values()) <= THEOREM1_FLATNESS, (
        normalized
    )
