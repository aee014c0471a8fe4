"""Golden Figure 3 rows: the aggregate engine's output, pinned field by field.

The rows below are ``figure3_specs(n_values=(128, 1024), repetitions=3,
random_state=0)`` run through ``Study.run``.  Any change to the aggregate
engine's event-class order, uniform consumption or milestone bookkeeping
changes at least one of them.
"""

import json

from repro.experiments.figure3 import figure3_specs
from repro.experiments.study import Study

GOLDEN_ROWS = json.loads("""[
    {"converged": true, "engine": "aggregate", "exactness": "distribution", "extras": {}, "interactions": 524438, "milestones": {"ranked_0.5": 11362, "ranked_0.75": 27291, "ranked_0.875": 45295, "ranked_0.9375": 72440}, "n": 128, "protocol": "space-efficient-ranking", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "figure3"},
    {"converged": true, "engine": "aggregate", "exactness": "distribution", "extras": {}, "interactions": 521275, "milestones": {"ranked_0.5": 12315, "ranked_0.75": 29107, "ranked_0.875": 53290, "ranked_0.9375": 89972}, "n": 128, "protocol": "space-efficient-ranking", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "figure3"},
    {"converged": true, "engine": "aggregate", "exactness": "distribution", "extras": {}, "interactions": 402594, "milestones": {"ranked_0.5": 11164, "ranked_0.75": 24100, "ranked_0.875": 46109, "ranked_0.9375": 66733}, "n": 128, "protocol": "space-efficient-ranking", "resets": 0, "seed_index": 2, "series": {}, "study": "golden", "topology": "complete", "variant": "figure3"},
    {"converged": true, "engine": "aggregate", "exactness": "distribution", "extras": {}, "interactions": 36231622, "milestones": {"ranked_0.5": 705862, "ranked_0.75": 1478357, "ranked_0.875": 2215446, "ranked_0.9375": 3140046}, "n": 1024, "protocol": "space-efficient-ranking", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "figure3"},
    {"converged": true, "engine": "aggregate", "exactness": "distribution", "extras": {}, "interactions": 42232894, "milestones": {"ranked_0.5": 677160, "ranked_0.75": 1351406, "ranked_0.875": 2122947, "ranked_0.9375": 3041297}, "n": 1024, "protocol": "space-efficient-ranking", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "figure3"},
    {"converged": true, "engine": "aggregate", "exactness": "distribution", "extras": {}, "interactions": 35980262, "milestones": {"ranked_0.5": 705065, "ranked_0.75": 1405728, "ranked_0.875": 2274678, "ranked_0.9375": 3176968}, "n": 1024, "protocol": "space-efficient-ranking", "resets": 0, "seed_index": 2, "series": {}, "study": "golden", "topology": "complete", "variant": "figure3"}
]""")


def test_figure3_rows_match_the_golden_rows():
    spec = figure3_specs(n_values=(128, 1024), repetitions=3, random_state=0)[0]
    rows = sorted(
        (row.as_dict() for row in Study(spec, name="golden").run().rows),
        key=lambda row: (row["n"], row["seed_index"]),
    )
    assert rows == GOLDEN_ROWS
    # Row dicts compare equal whatever their key order; the milestone
    # insertion order reaches the stores too, so pin it separately.
    for row, golden in zip(rows, GOLDEN_ROWS):
        assert list(row["milestones"]) == list(golden["milestones"])
