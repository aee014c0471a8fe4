"""Golden rows for the cell paths the other golden tests do not pin.

The Figure 2, Figure 3 and epidemic golden tests pin the array engine's
series path, the aggregate engine and the group engine.  The cases below
pin the remaining ways a cell reaches its row, each through ``Study.run``:

* ``storm-array`` / ``storm-reference``: a ``fault_storm`` cell, a
  segmented run with per-event milestones and recovery extras, on both
  agent engines;
* ``ring``: a ``topology_sweep`` cell on a ring, which sets the row's
  ``topology`` field (the complete baseline rides along);
* ``figure3-array``: Figure 3 on the array engine, the agent-level
  ``run_until`` milestone loop;
* ``faults-array``: ``fault_injection`` cells on the array engine, whose
  corrupted starts send the most chunks between the SoA kernel and the
  table path;
* ``extractors``: a spec with every extractor;
* ``series-reference``: a reference cell with metric series that runs on
  past convergence (``stop_on_convergence=False``);
* ``drain-reference``: the cell of the perfbench ``drain`` workload
  (n = 4, 240 samples, one snapshot every 13 interactions), where a
  stepping block carries hundreds of snapshots.

A row is pinned as the SHA-256 of its JSON in the key order the store
writes (so the insertion order of milestones and extras is pinned too),
next to its scalar fields, which make a failure readable.
"""

import hashlib
import json

import pytest

from repro.experiments.fault_injection import fault_injection_specs
from repro.experiments.fault_storm import fault_storm_specs
from repro.experiments.figure3 import figure3_specs
from repro.experiments.study import EXTRACTORS, ExperimentSpec, Study
from repro.experiments.topology_sweep import topology_sweep_specs


def case_specs(case):
    if case in ("storm-array", "storm-reference"):
        return fault_storm_specs(
            n_values=(16,), repetitions=2, faults=("duplicate_rank", "scramble"),
            events=2, period_factor=80.0, engine=case.split("-")[1],
        )
    if case == "ring":
        return topology_sweep_specs(
            topologies=("ring",), n_values=(16,), repetitions=2,
        )
    if case == "figure3-array":
        return figure3_specs(n_values=(32,), repetitions=2, engine="array")
    if case == "faults-array":
        return fault_injection_specs(n_values=(32,), repetitions=2, engine="array")
    if case == "extractors":
        return (
            ExperimentSpec(
                variant="extractors", protocol="stable-ranking",
                n_values=(16,), seeds=2, workload="duplicate_rank",
                extractors=tuple(EXTRACTORS),
            ),
        )
    if case == "series-reference":
        return (
            ExperimentSpec(
                variant="series", protocol="stable-ranking-figure2",
                n_values=(16,), seeds=2, engine="reference",
                workload="figure2", max_interactions_factor=30.0,
                samples=24, stop_on_convergence=False,
            ),
        )
    if case == "drain-reference":
        return (
            ExperimentSpec(
                variant="drain", protocol="stable-ranking-figure2",
                n_values=(4,), seeds=2, engine="reference",
                workload="figure2",
                protocol_params={"c_wait": 2.0, "c_live": 4.0},
                max_interactions_factor=200.0, samples=240,
                stop_on_convergence=False,
            ),
        )
    raise AssertionError(case)


#: case -> {(variant, n, seed_index): (engine, topology, converged,
#: interactions, resets, milestone names, extras names, row digest)}.
GOLDEN = {
    'storm-array': {
        ('storm_duplicate_rank', 16, 0): (
            'array', 'complete', True, 49808, 6,
            ['converged_initial', 'event1_recovered', 'event2_recovered'],
            ['events_fired', 'events_recovered', 'mean_recovery_interactions'],
            '6f5a4c2185d5dc698fe8f1a95460e6fa8b71a80adc2902c896c1970e3a32469a',
        ),
        ('storm_duplicate_rank', 16, 1): (
            'array', 'complete', True, 53600, 10,
            ['converged_initial', 'event1_recovered', 'event2_recovered'],
            ['events_fired', 'events_recovered', 'mean_recovery_interactions'],
            '578c297f1345a1c82251eb408dc65408d8406cb86ac2478d8bde2990bead78b0',
        ),
        ('storm_scramble', 16, 0): (
            'array', 'complete', True, 47248, 15,
            ['converged_initial', 'event1_recovered', 'event2_recovered'],
            ['events_fired', 'events_recovered', 'mean_recovery_interactions'],
            'cef44865db66d8e6e5fa1a3534a3cc405c29a35e32a1fd73319ff2acd8f1eb26',
        ),
        ('storm_scramble', 16, 1): (
            'array', 'complete', True, 48576, 13,
            ['converged_initial', 'event1_recovered', 'event2_recovered'],
            ['events_fired', 'events_recovered', 'mean_recovery_interactions'],
            '2f557570dba1263f2ddc11bdd67efde571f02dfd8bfc97c83b7b234e4bc9a392',
        ),
    },
    'storm-reference': {
        ('storm_duplicate_rank', 16, 0): (
            'reference', 'complete', True, 47888, 11,
            ['converged_initial', 'event1_recovered', 'event2_recovered'],
            ['events_fired', 'events_recovered', 'mean_recovery_interactions'],
            '7ffe056e2c1351c89a74930346f7de889ae7d1d315d47766850c41a912c474a6',
        ),
        ('storm_duplicate_rank', 16, 1): (
            'reference', 'complete', True, 47312, 22,
            ['event1_recovered', 'event2_recovered'],
            ['events_fired', 'events_recovered', 'mean_recovery_interactions'],
            'd4a4c92cdc9e5565252e28d5fbd05a4becb0fa9e59e66cd9f15d1367f3f4de74',
        ),
        ('storm_scramble', 16, 0): (
            'reference', 'complete', True, 51920, 22,
            ['converged_initial', 'event1_recovered', 'event2_recovered'],
            ['events_fired', 'events_recovered', 'mean_recovery_interactions'],
            '0e9ced269366f022c86d86ef32856997c59e5cead12951ac2861ee31adfd668f',
        ),
        ('storm_scramble', 16, 1): (
            'reference', 'complete', True, 49216, 6,
            ['converged_initial', 'event1_recovered', 'event2_recovered'],
            ['events_fired', 'events_recovered', 'mean_recovery_interactions'],
            '07d194eb002fd634f1547d4d3a191b217066db852ba62ae9545e15b3ac5deb34',
        ),
    },
    'faults-array': {
        ('adversarial', 32, 0): (
            'array', 'complete', True, 42880, 1,
            [],
            [],
            'd22e93fad83645d34812ea76f05c6837a43503f003e814b44849ef591205450d',
        ),
        ('adversarial', 32, 1): (
            'array', 'complete', True, 46784, 2,
            [],
            [],
            '1e0df80e4834c91dbb97a70e814926971a39aca48af1a9a1891dc9e8b14ae9af',
        ),
        ('duplicate_rank', 32, 0): (
            'array', 'complete', True, 45472, 4,
            [],
            [],
            'be0bb0c42fb632628771290a5dbd7370ee8d422e1ae97f1bbe0104d9a9412e22',
        ),
        ('duplicate_rank', 32, 1): (
            'array', 'complete', True, 49536, 1,
            [],
            [],
            '0c53f6c46d99dac71e89fe8e287723e75a1469585195327951559cca2f36cac1',
        ),
        ('missing_rank', 32, 0): (
            'array', 'complete', True, 30432, 2,
            [],
            [],
            'a16c90b4b66760d4e948cb6d8f1d458680ec3342c82347f82fa04e6dbd9e1143',
        ),
        ('missing_rank', 32, 1): (
            'array', 'complete', True, 47008, 5,
            [],
            [],
            'dcd900d39870458acd8fd9fd07e9db6b66d4429ee1b66584b6ee89ee318ca46e',
        ),
    },
    'ring': {
        ('complete', 16, 0): (
            'array', 'complete', True, 96, 0,
            [],
            [],
            '190622f0a997cc1c7bb1e3816ce43d3a166d8c1d9d8afe6fdd3151ffd5686438',
        ),
        ('complete', 16, 1): (
            'array', 'complete', True, 80, 0,
            [],
            [],
            'bfddf6dadfc370861d9b1944d94c4d03f9a05cc900f9aae47c205f1e45bd9906',
        ),
        ('ring', 16, 0): (
            'array', 'ring', True, 272, 0,
            [],
            [],
            'e11208f1efe5d104395a78544f579447fe5b26339247a2423bbf46b0bf4494ff',
        ),
        ('ring', 16, 1): (
            'array', 'ring', True, 240, 0,
            [],
            [],
            '0fabd4b1b515cf06a5b38803524ee9f96842fa0851f807d36d435ee95cacfddf',
        ),
    },
    'figure3-array': {
        ('figure3', 32, 0): (
            'array', 'complete', True, 7232, 0,
            ['ranked_0.5', 'ranked_0.75', 'ranked_0.875', 'ranked_0.9375'],
            [],
            '8d5bb68f50fe0a0323717e5ed7b9df38c2e9332b0d5ba4a94c6355caf1f4ec70',
        ),
        ('figure3', 32, 1): (
            'array', 'complete', True, 7232, 0,
            ['ranked_0.5', 'ranked_0.75', 'ranked_0.875', 'ranked_0.9375'],
            [],
            'f7803ca650ec7c671a8494e4d2dcc9594f6aaa514c15f2d64f036e95edf74d55',
        ),
    },
    'extractors': {
        ('extractors', 16, 0): (
            'array', 'complete', True, 7568, 1,
            [],
            ['ranked_agents', 'duplicate_ranks', 'overhead_states'],
            '8e098ab4d8a51f2e90920ea846e7b03b234324e79fcd30a5f0086f798d1356fa',
        ),
        ('extractors', 16, 1): (
            'array', 'complete', True, 15952, 10,
            [],
            ['ranked_agents', 'duplicate_ranks', 'overhead_states'],
            '772878b64e9d8222374d209b22cb54c0349ed456a95b3a228ab4c6bafe35046e',
        ),
    },
    'series-reference': {
        ('series', 16, 0): (
            'reference', 'complete', False, 7680, 5,
            [],
            [],
            '819893d34448d0b2335ff6b65aa154203881789aa47f5b25f55d01445f19cdfb',
        ),
        ('series', 16, 1): (
            'reference', 'complete', False, 7680, 6,
            [],
            [],
            '57efae2e0e496c42b6920aaa3293a31ac79ba26127b91d1d7f4d131665eaaf99',
        ),
    },
    'drain-reference': {
        ('drain', 4, 0): (
            'reference', 'complete', True, 3200, 22,
            [],
            [],
            'a73db7b7d594d49d7831fd597014adf92ced083e9ba22849a95fe77465682cb0',
        ),
        ('drain', 4, 1): (
            'reference', 'complete', True, 3200, 8,
            [],
            [],
            '856c468811350dbe324f97d64406b5af749e222b795cdd69239cc16f8df27c45',
        ),
    },
}


def row_digest(row: dict) -> str:
    payload = json.dumps(row, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def summarize(row: dict) -> tuple:
    return (
        row["engine"], row["topology"], row["converged"],
        row["interactions"], row["resets"], list(row["milestones"]),
        list(row["extras"]), row_digest(row),
    )


def case_rows(case) -> dict:
    rows = Study(case_specs(case), name="golden").run().rows
    return {row.key: summarize(row.as_dict()) for row in rows}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cell_rows_match_the_golden_rows(case):
    found = case_rows(case)
    expected = GOLDEN[case]
    assert sorted(found) == sorted(expected)
    for key, value in expected.items():
        assert found[key][:7] == value[:7], key
        assert found[key][7] == value[7], f"{key}: row fields changed"
