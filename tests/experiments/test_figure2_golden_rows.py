"""Golden Figure 2 rows: the array engine's series output, pinned.

Each case below is ``figure2_specs(engine="array", random_state=0)`` at
the listed population sizes, budget factor and sample count, run through
``Study.run`` with ``stop_on_convergence`` set both ways.  A row carries
its full metric series (about 240 points per probe), so it is pinned as
the SHA-256 of its canonical JSON next to its scalar fields; the scalars
make a failure readable, the digest pins every series point.

The cases cover the preset's 240-sample collector (intervals 213 and
3413 with the 200 n² budget at n = 16 and 64; 53 and 853 with the
50 n² budget of the end-to-end benchmark) and a 333-interaction
interval.  None of these divides the engine's 4096-pair buffer, so
snapshots fall at shifting offsets inside its blocks.  Converging cells
stop inside a block that the engine rewinds and replays.

The digests were captured before the engine took snapshots inside SoA
kernel blocks, when it still cut its blocks at every snapshot.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.figure2 import figure2_specs
from repro.experiments.study import Study

#: (case, n_values, budget factor in n², samples) -> interval budget // samples.
CASES = (
    ("preset", (16, 64), 200.0, 240),
    ("fixed-work", (16, 64), 50.0, 240),
    ("interval-333-n16", (16,), 313.0, 240),
    ("interval-333-n64", (64,), 200.0, 2460),
)

#: (case, stop_on_convergence, n, seed_index) ->
#: (converged, interactions, resets, series points, row digest).
GOLDEN = {
    ("preset", True, 16, 0): (True, 14512, 5, 70,
        "ed9066f088e9cf096112a9b5b58f6007a152bd1570eb7d1d52a2c890881cef81"),
    ("preset", True, 16, 1): (True, 13232, 2, 64,
        "b75d31ed73d12c5bb0cc11ee5d32a956c0fa77379e54e84dc9dc4a2fb04acd1c"),
    ("preset", True, 64, 0): (True, 232704, 4, 70,
        "7b9a847da1e2582a52cfd357bc8e369c02fb3f7e0c89e5001268f1eb5908e5c5"),
    ("preset", True, 64, 1): (True, 241024, 5, 72,
        "a29c1a450d7b5ebd85c490d93aad6733c85f54c75b619f20a28a707eab747226"),
    ("preset", False, 16, 0): (True, 51200, 5, 242,
        "c25031f9b79bb8e4a1ac42fd6ecff52fb410e0b66901d6faf17944d79405dc1a"),
    ("preset", False, 16, 1): (True, 51200, 3, 242,
        "58e576e05d77f7d8e146b839d26b0fa1d2105e87af965bffb6d25690eaca59ba"),
    ("preset", False, 64, 0): (True, 819200, 15, 242,
        "d75e668461235808b5ce6b41bfc3f983057d36166db13f57e0a7ba96bf19eb3d"),
    ("preset", False, 64, 1): (True, 819200, 3, 242,
        "270865432520b375ef18db29882db911e4c59f7e0662e96e8fb2a88c104b4238"),
    ("fixed-work", True, 16, 0): (True, 8464, 3, 161,
        "0940567935b51127676e6c25c0db8719cb9c41b03c3c3db4489c6d652acccb1e"),
    ("fixed-work", True, 16, 1): (False, 12800, 5, 243,
        "3b5a421b2ce3cdda46220c2a8f27365fd7fd844666290b5240a5e26fdf12de58"),
    ("fixed-work", True, 64, 0): (False, 204800, 11, 242,
        "d8cd96ff6a5f4a2a00528babd35f1bd73beccf1d255bf2c70618c99592d59f9d"),
    ("fixed-work", True, 64, 1): (False, 204800, 2, 242,
        "64d20aa283a1809224ebf4f5231186e435818ac798d6978f3835fd0adea65e63"),
    ("fixed-work", False, 16, 0): (False, 12800, 5, 243,
        "2298df6e14cf5592c7a3466502010045a9c166d8ce0f1abe0878227305da2381"),
    ("fixed-work", False, 16, 1): (False, 12800, 7, 243,
        "c5344205fe9a75e69b2709ac2069ac558cc36670597c35bd94b0314ee70ac06f"),
    ("fixed-work", False, 64, 0): (False, 204800, 5, 242,
        "9a6445ce533de54118a713d161d13027f34197f59f15e7a0261d1cd3b56ab6af"),
    ("fixed-work", False, 64, 1): (False, 204800, 20, 242,
        "fe616213c0186cc1d38a8ed2372a3f7b81be1809d78e2cf3d9fcab9f9b8bbae1"),
    ("interval-333-n16", True, 16, 0): (True, 9120, 3, 29,
        "d62839f4f787d8d7ec4607fa8767c5b13a9a2ea2f1195b62d527188ac8b19802"),
    ("interval-333-n16", True, 16, 1): (True, 11680, 5, 37,
        "6fba6a56ac17d7e5539645f1fc131211966d59a34b5ce00d5f03cb3ad4af213a"),
    ("interval-333-n16", False, 16, 0): (True, 80128, 46, 242,
        "90d65dfad1b2f31ea37e54b2119ad70f7c502d82c3c4348359600ff099b0ac2c"),
    ("interval-333-n16", False, 16, 1): (True, 80128, 2, 242,
        "ef6cf521ed2a88a64eb5e8f9d5f0aeafb46565d8cedcc5123b14df654a18bd10"),
    ("interval-333-n64", True, 64, 0): (True, 252544, 16, 760,
        "67031b086d16ff148e81b5accbd0f56e6a54b78990d400c7732a0d8dce988744"),
    ("interval-333-n64", True, 64, 1): (True, 232320, 4, 699,
        "43cd25a27b2650994064d3f53a0bd2641e500d9f0a03ca5f3ff4bebcc25198e9"),
    ("interval-333-n64", False, 64, 0): (True, 819200, 5, 2462,
        'fcdf0861af2c0e2c6e088e6657be6a0f7149ba19d42643d81272596b752a8ae0'),
    ('interval-333-n64', False, 64, 1): (True, 819200, 3, 2462,
        'faf9730ce9b8a1c3c8d4de86528454e3a903076b4e337ffcb905456127bf6fa7'),
}


def row_digest(row: dict) -> str:
    payload = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def case_rows(case, n_values, factor, samples, stop):
    spec = figure2_specs(
        n_values=n_values, seeds=2, engine="array",
        max_normalized_interactions=factor, samples=samples, random_state=0,
    )[0]
    spec = dataclasses.replace(spec, stop_on_convergence=stop)
    rows = Study(spec, name="golden").run().rows
    return sorted(
        (row.as_dict() for row in rows),
        key=lambda row: (row["n"], row["seed_index"]),
    )


def summarize(case, stop, row):
    key = (case, stop, row["n"], row["seed_index"])
    points = len(row["series"]["ranked_agents"]["interactions"])
    return key, (
        row["converged"], row["interactions"], row["resets"], points,
        row_digest(row),
    )


@pytest.mark.parametrize("stop", [True, False])
@pytest.mark.parametrize("case, n_values, factor, samples", CASES)
def test_figure2_rows_match_the_golden_rows(case, n_values, factor, samples, stop):
    found = dict(
        summarize(case, stop, row)
        for row in case_rows(case, n_values, factor, samples, stop)
    )
    expected = {key: value for key, value in GOLDEN.items()
                if key[:2] == (case, stop)}
    assert sorted(found) == sorted(expected)
    for key, value in expected.items():
        assert found[key][:4] == value[:4], key
        assert found[key][4] == value[4], f"{key}: series or fields changed"
