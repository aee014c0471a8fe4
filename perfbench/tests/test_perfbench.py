"""Tests of the benchmark's own definitions and output checks.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

import copy
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH), str(BENCH / "trace")):
    if path not in sys.path:
        sys.path.insert(0, path)

import perfbench_trace  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.epidemic import epidemic_specs  # noqa: E402
from repro.experiments.figure2 import figure2_specs  # noqa: E402
from repro.experiments.study import Study  # noqa: E402


def test_names_and_units_use_the_allowed_charset():
    names = (
        list(spec.WORKLOADS)
        + [name for name, _, _, _ in spec.END_TO_END]
        + [name for name, _, _ in spec.PER_LAYER]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_PATTERN.match(name), name
    for _, unit, better, bound in spec.END_TO_END:
        assert spec.UNIT_PATTERN.match(unit), unit
        assert better in ("lower", "higher")
        assert 0 < bound <= 0.25
    for _, unit, better in spec.PER_LAYER:
        assert spec.UNIT_PATTERN.match(unit), unit
        assert better in ("lower", "higher")


@pytest.mark.parametrize("name", ["wall s", "_wall", "wall/s", "x" * 65, ""])
def test_name_pattern_rejects_bad_names(name):
    assert not spec.NAME_PATTERN.match(name)


def test_layer_map_names_only_defined_metrics_and_workloads():
    per_layer = {name for name, _, _ in spec.PER_LAYER}
    end_to_end = {name for name, _, _, _ in spec.END_TO_END}
    for modules, metrics, moves, on, flat in spec.LAYERS.values():
        assert set(metrics) <= per_layer
        assert moves in end_to_end
        assert set(on) | set(flat) <= set(spec.WORKLOADS)
        assert not set(on) & set(flat)


def test_benchmark_json_follows_the_definitions():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert benchmark["run_seconds"] == spec.RUN_SECONDS
    assert [w["name"] for w in benchmark["workloads"]] == list(spec.WORKLOADS)
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [m["name"] for m in benchmark["end_to_end"]] == [
        name for name, _, _, _ in spec.END_TO_END
    ]
    assert [m["name"] for m in benchmark["per_layer"]] == [
        name for name, _, _ in spec.PER_LAYER
    ]


def test_tracer_self_time_excludes_child_spans():
    tracer = perfbench_trace.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def work(depth):
        time.sleep(0.01)
        if depth:
            outer(depth - 1)
        inner()

    outer = tracer.wrap("outer", work)
    outer(1)
    calls, total, own = tracer.spans["outer"]
    assert calls == 2
    # The nested outer span is inside the first one: total counts it once.
    assert 0.06 <= total < 0.2
    assert 0.02 <= own < total - 0.03
    assert tracer.spans["inner"][0] == 2


def test_trace_merge_sums_counts_and_keeps_maxima():
    first = {"spans": {"a": [1, 1.0, 0.5]}, "counts": {"n": 2},
             "maxima": {"m": 3}}
    second = {"spans": {"a": [2, 2.0, 1.0]}, "counts": {"n": 5},
              "maxima": {"m": 1}}
    merged = perfbench_trace.merge([first, second])
    assert merged == {"spans": {"a": [3, 3.0, 1.5]}, "counts": {"n": 7},
                      "maxima": {"m": 3}}


@pytest.fixture(scope="module")
def epidemic_rows():
    study_spec = epidemic_specs(n_values=(1000,), repetitions=2)[0]
    rows = [row.as_dict() for row in Study([study_spec]).run().rows]
    return study_spec, rows


@pytest.fixture(scope="module")
def figure2_rows():
    study_spec = figure2_specs(n_values=(8,), seeds=2, engine="array")[0]
    rows = [row.as_dict() for row in Study([study_spec]).run().rows]
    return study_spec, rows


def test_milestone_check_accepts_real_rows_and_rejects_tampered_ones(
    epidemic_rows,
):
    study_spec, rows = epidemic_rows
    fractions = study_spec.milestone_fractions
    bound = 10**9
    for row in rows:
        assert workloads.check_milestone_row(row, fractions, "group", bound) == []

    swapped = copy.deepcopy(rows[0])
    first, last = f"ranked_{fractions[0]}", f"ranked_{fractions[-1]}"
    milestones = swapped["milestones"]
    milestones[first], milestones[last] = milestones[last], milestones[first]
    assert workloads.check_milestone_row(swapped, fractions, "group", bound)

    dropped = copy.deepcopy(rows[0])
    del dropped["milestones"][last]
    assert workloads.check_milestone_row(dropped, fractions, "group", bound)

    slow = rows[0]["milestones"][last] - 1
    assert workloads.check_milestone_row(rows[0], fractions, "group", slow)
    assert workloads.check_milestone_row(rows[0], fractions, "aggregate", bound)


def test_replay_check_accepts_real_rows_and_rejects_tampered_ones(figure2_rows):
    study_spec, rows = figure2_rows
    for row in rows:
        assert workloads.check_series_row(row, study_spec, "array") == []
        replay = workloads.replay_reference(study_spec, 8, row["seed_index"])
        assert workloads.check_replay(row, replay) == []

    tampered = copy.deepcopy(rows[0])
    tampered["interactions"] += 1
    replay = workloads.replay_reference(study_spec, 8, 0)
    assert workloads.check_replay(tampered, replay)
    assert workloads.check_series_row(tampered, study_spec, "array")

    tampered = copy.deepcopy(rows[0])
    tampered["series"]["ranked_agents"]["values"][-1] += 1.0
    assert workloads.check_replay(tampered, replay)


def test_row_comparison_ignores_study_and_order_but_not_content(figure2_rows):
    _, rows = figure2_rows
    renamed = [dict(row, study="elsewhere") for row in reversed(rows)]
    assert workloads.check_same_rows(renamed, rows) == {}

    tampered = copy.deepcopy(rows)
    tampered[1]["resets"] += 1
    assert list(workloads.check_same_rows(tampered, rows)) == [
        ("figure2", 8, 1)
    ]
    assert list(workloads.check_same_rows(rows[:1], rows)) == [
        ("figure2", 8, 1)
    ]
