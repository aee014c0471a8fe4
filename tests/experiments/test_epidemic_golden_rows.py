"""Golden epidemic rows: the group engine's output, pinned field by field.

The rows below are ``epidemic_specs(n_values=(2, 3, 1000, 100_000),
repetitions=2, max_interactions_factor=f, random_state=0)`` run through
``Study.run`` for each budget factor ``f`` in :data:`BUDGET_FACTORS`.  The
small factors clamp cells at every population size (a budget of 0, 1 or 2
interactions at ``n`` = 2 and 3, 10^4 at ``n`` = 1000, 10^6 at
``n`` = 10^5), so the clamp, the milestone bookkeeping and the draw order
of the single-pair batch are all pinned.
"""

import json

from repro.experiments.epidemic import epidemic_specs
from repro.experiments.study import Study

BUDGET_FACTORS = (100.0, 0.3, 0.01, 1e-4)

GOLDEN_ROWS = json.loads("""[
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 1.0}, "interactions": 3, "milestones": {"ranked_0.5": 0, "ranked_0.75": 3, "ranked_0.875": 3, "ranked_1.0": 3}, "n": 2, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 1.0}, "interactions": 1, "milestones": {"ranked_0.5": 0, "ranked_0.75": 1, "ranked_0.875": 1, "ranked_1.0": 1}, "n": 2, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 2.0}, "interactions": 4, "milestones": {"ranked_0.5": 2, "ranked_0.75": 4, "ranked_0.875": 4, "ranked_1.0": 4}, "n": 3, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 2.0}, "interactions": 4, "milestones": {"ranked_0.5": 1, "ranked_0.75": 4, "ranked_0.875": 4, "ranked_1.0": 4}, "n": 3, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 999.0}, "interactions": 13605, "milestones": {"ranked_0.5": 7193, "ranked_0.75": 8296, "ranked_0.875": 9171, "ranked_1.0": 13605}, "n": 1000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 999.0}, "interactions": 12939, "milestones": {"ranked_0.5": 6722, "ranked_0.75": 7834, "ranked_0.875": 8722, "ranked_1.0": 12939}, "n": 1000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 99999.0}, "interactions": 2451682, "milestones": {"ranked_0.5": 1188791, "ranked_0.75": 1298320, "ranked_0.875": 1383038, "ranked_1.0": 2451682}, "n": 100000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 99999.0}, "interactions": 2322301, "milestones": {"ranked_0.5": 1110752, "ranked_0.75": 1220823, "ranked_0.875": 1305836, "ranked_1.0": 2322301}, "n": 100000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 1, "milestones": {"ranked_0.5": 0}, "n": 2, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 1.0}, "interactions": 1, "milestones": {"ranked_0.5": 0, "ranked_0.75": 1, "ranked_0.875": 1, "ranked_1.0": 1}, "n": 2, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 2, "milestones": {}, "n": 3, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 2, "milestones": {}, "n": 3, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 999.0}, "interactions": 14521, "milestones": {"ranked_0.5": 7272, "ranked_0.75": 8333, "ranked_0.875": 9221, "ranked_1.0": 14521}, "n": 1000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 999.0}, "interactions": 17555, "milestones": {"ranked_0.5": 7413, "ranked_0.75": 8492, "ranked_0.875": 9295, "ranked_1.0": 17555}, "n": 1000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 99999.0}, "interactions": 2408317, "milestones": {"ranked_0.5": 1276054, "ranked_0.75": 1385243, "ranked_0.875": 1471029, "ranked_1.0": 2408317}, "n": 100000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 99999.0}, "interactions": 2442724, "milestones": {"ranked_0.5": 1282974, "ranked_0.75": 1392947, "ranked_0.875": 1477991, "ranked_1.0": 2442724}, "n": 100000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 0, "milestones": {"ranked_0.5": 0}, "n": 2, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 0, "milestones": {"ranked_0.5": 0}, "n": 2, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 0, "milestones": {}, "n": 3, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 0, "milestones": {}, "n": 3, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 768.0}, "interactions": 10000, "milestones": {"ranked_0.5": 8762, "ranked_0.75": 9913}, "n": 1000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 954.0}, "interactions": 10000, "milestones": {"ranked_0.5": 6917, "ranked_0.75": 8141, "ranked_0.875": 8946}, "n": 1000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 99999.0}, "interactions": 2495390, "milestones": {"ranked_0.5": 1419557, "ranked_0.75": 1529642, "ranked_0.875": 1614725, "ranked_1.0": 2495390}, "n": 100000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": true, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 1.0, "events": 99999.0}, "interactions": 2441780, "milestones": {"ranked_0.5": 1150964, "ranked_0.75": 1261457, "ranked_0.875": 1345952, "ranked_1.0": 2441780}, "n": 100000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 0, "milestones": {"ranked_0.5": 0}, "n": 2, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 0, "milestones": {"ranked_0.5": 0}, "n": 2, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 0, "milestones": {}, "n": 3, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 0, "milestones": {}, "n": 3, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 100, "milestones": {}, "n": 1000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 0.0}, "interactions": 100, "milestones": {}, "n": 1000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 38021.0}, "interactions": 1000000, "milestones": {}, "n": 100000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 0, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"},
    {"converged": false, "engine": "group", "exactness": "distribution", "extras": {"distinct_states": 2.0, "events": 2528.0}, "interactions": 1000000, "milestones": {}, "n": 100000, "protocol": "one-way-epidemic", "resets": 0, "seed_index": 1, "series": {}, "study": "golden", "topology": "complete", "variant": "epidemic"}
]""")


def test_epidemic_rows_match_the_golden_rows():
    rows = []
    for factor in BUDGET_FACTORS:
        spec = epidemic_specs(
            n_values=(2, 3, 1000, 100_000), repetitions=2,
            max_interactions_factor=factor, random_state=0,
        )[0]
        rows += sorted(
            (row.as_dict() for row in Study(spec, name="golden").run().rows),
            key=lambda row: (row["n"], row["seed_index"]),
        )
    assert rows == GOLDEN_ROWS
    # Row dicts compare equal whatever their key order; the milestone
    # insertion order reaches the stores too, so pin it separately.
    for row, golden in zip(rows, GOLDEN_ROWS):
        assert list(row["milestones"]) == list(golden["milestones"])
