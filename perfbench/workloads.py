"""The four benchmark workloads and the checks on their outputs.

Each workload drives a public entry point of :mod:`repro` the way a user
does: ``Study.run`` for the figure2, figure3 and epidemic presets, and a
``StudyService.submit`` followed by an in-process ``run_worker`` drain for
the serving path.  A workload's inputs are a pure function of its
``random_state`` (derived from the benchmark seed), and every repetition
gets a fresh study directory, so stores and tables start cold.

The check functions take row dictionaries (``RunRow.as_dict()`` form) and
return a list of problems, empty when the row is correct.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

import numpy as np

from repro.core.array_engine import make_simulator
from repro.core.metrics import MetricsCollector, standard_ranking_probes
from repro.core.rng import cell_seed_sequences
from repro.core.table_store import ENV_VAR as TABLE_CACHE_ENV
from repro.experiments.epidemic import epidemic_specs
from repro.experiments.figure2 import figure2_specs
from repro.experiments.figure3 import figure3_specs
from repro.experiments.study import WORKLOADS as INITIAL_CONFIGURATIONS
from repro.experiments.study import ExperimentSpec, Study
from repro.protocols.primitives.one_way_epidemic import epidemic_upper_bound
from repro.serving import StudyService
from repro.serving import worker as serving_worker

SERIES = ("ranked_agents", "average_phase", "duplicate_ranks")


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_series_row(row, spec, engine):
    """Problems of one Figure 2 style row (series recorded, agent engine)."""
    n = row["n"]
    budget = int(spec.max_interactions_factor * n * n)
    # One sample per interval from interaction 0, plus the closing one.
    most_samples = budget // max(1, budget // spec.samples) + 2
    problems = []
    if row["engine"] != engine:
        problems.append(f"engine {row['engine']!r} != {engine!r}")
    if not 0 < row["interactions"] <= budget:
        problems.append(f"interactions {row['interactions']} outside (0, {budget}]")
    if not row["converged"] and row["interactions"] != budget:
        problems.append("stopped before the budget without converging")
    for name in SERIES:
        series = row["series"].get(name)
        if series is None:
            problems.append(f"series {name!r} missing")
            continue
        points, values = series["interactions"], series["values"]
        if len(points) != len(values) or not points:
            problems.append(f"series {name!r} is ragged or empty")
            continue
        if points[0] != 0 or points[-1] != row["interactions"]:
            problems.append(f"series {name!r} does not span the run")
        if any(b <= a for a, b in zip(points, points[1:])):
            problems.append(f"series {name!r} sample points not increasing")
        if len(points) > most_samples:
            problems.append(f"series {name!r} has {len(points)} samples")
    ranked = row["series"].get("ranked_agents", {}).get("values", [])
    if any(not 0 <= value <= n for value in ranked):
        problems.append("ranked_agents outside [0, n]")
    if row["converged"] and ranked and ranked[-1] != n:
        problems.append("converged with unranked agents")
    return problems


def check_milestone_row(row, fractions, engine, completion_bound=None):
    """Problems of one milestone row (Figure 3 or epidemic)."""
    problems = []
    if row["engine"] != engine:
        problems.append(f"engine {row['engine']!r} != {engine!r}")
    times = []
    for fraction in fractions:
        value = row["milestones"].get(f"ranked_{fraction}")
        if value is None:
            break
        times.append(value)
    if row["converged"] and len(times) != len(fractions):
        problems.append(f"converged with {len(times)}/{len(fractions)} milestones")
    if len(times) != len(row["milestones"]):
        problems.append("milestones missing or unexpected")
    if any(b < a for a, b in zip(times, times[1:])):
        problems.append("milestones decrease with the fraction")
    if times and times[0] <= 0:
        problems.append("milestone at or before the start")
    if times and times[-1] > row["interactions"]:
        problems.append("milestone after the run ended")
    if (completion_bound is not None and len(times) == len(fractions)
            and times[-1] > completion_bound):
        problems.append(f"completion {times[-1]} above bound {completion_bound}")
    return problems


def replay_reference(spec, n, seed_index):
    """Re-run one cell on the reference engine from its own seed sequences."""
    workload_seq, run_seq, _ = cell_seed_sequences(
        spec.identity_seed(), n, seed_index, 3
    )
    protocol = spec.build_protocol(n)
    configuration = INITIAL_CONFIGURATIONS[spec.workload](
        protocol, np.random.default_rng(workload_seq), **spec.workload_params
    )
    budget = int(spec.max_interactions_factor * n * n)
    metrics = MetricsCollector(
        standard_ranking_probes(), interval=max(1, budget // spec.samples)
    )
    simulator = make_simulator(
        protocol,
        engine="reference",
        configuration=configuration,
        random_state=np.random.default_rng(run_seq),
        metrics=metrics,
        convergence_interval=n,
    )
    result = simulator.run(
        max_interactions=budget, stop_on_convergence=spec.stop_on_convergence
    )
    return {
        "converged": result.converged,
        "interactions": result.interactions,
        "resets": result.resets,
        "series": {
            name: {
                "interactions": list(recorded.interactions),
                "values": list(recorded.values),
            }
            for name, recorded in metrics.series.items()
        },
    }


def check_replay(row, replay):
    """Problems where a row differs from its reference-engine replay."""
    return [
        f"{field} differs from the reference replay"
        for field in ("converged", "interactions", "resets", "series")
        if row[field] != replay[field]
    ]


def _without_study(row):
    return {key: value for key, value in row.items() if key != "study"}


def check_same_rows(rows, expected):
    """Per-row problems of ``rows`` against ``expected``, ignoring the
    ``study`` field and row order; returns ``{cell key: [problems]}``."""
    def key(row):
        return (row["variant"], row["n"], row["seed_index"])

    wanted = {key(row): _without_study(row) for row in expected}
    problems = {}
    for row in rows:
        cell = key(row)
        if cell not in wanted:
            problems[cell] = ["row not in the in-process study"]
        elif _without_study(row) != wanted.pop(cell):
            problems[cell] = ["row differs from the in-process study"]
    for cell in wanted:
        problems[cell] = ["row missing from the drain"]
    return problems


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One repetition: ``setup`` (untimed), ``timed``, then ``check``.

    ``completions`` collects a ``perf_counter`` timestamp per finished
    cell (from the entry point's progress callback) for the per-job
    latency percentiles.
    """

    #: Worker processes the entry point runs with.
    jobs = 1

    def __init__(self, random_state, workdir):
        self.random_state = int(random_state)
        self.workdir = Path(workdir)
        self.completions = []
        self.rows = []

    def _progress(self, *args):
        self.completions.append(time.perf_counter())

    def setup(self):
        raise NotImplementedError

    def timed(self):
        raise NotImplementedError

    def check(self, full=False):
        """``(attempted, ok)`` cell counts plus a sample of problems.

        ``full`` adds the checks a run makes once rather than per
        repetition (the figure2 reference replay, the drain's comparison
        with an in-process ``Study.run``).
        """
        raise NotImplementedError


class StudyWorkload(Workload):
    """A preset's spec run through ``Study.run(jobs=...)``."""

    name = ""

    def build_spec(self):
        raise NotImplementedError

    def setup(self):
        self.spec = self.build_spec()
        self.study = Study(
            [self.spec], name=self.name, store=str(self.workdir / "store"),
            jobs=self.jobs,
        )

    def timed(self):
        result = self.study.run(progress=self._progress)
        self.rows = [row.as_dict() for row in result.rows]

    def row_problems(self, row, full):
        raise NotImplementedError

    def check(self, full=False):
        problems = [self.row_problems(row, full) for row in self.rows]
        attempted = len(self.study.cells())
        ok = sum(1 for found in problems if not found)
        return attempted, ok, [found for found in problems if found][:5]


class Figure2(StudyWorkload):
    """The figure2 preset's cells as fixed-work trajectories.

    Every cell runs exactly ``BUDGET * n**2`` interactions
    (``stop_on_convergence=False``).  The preset's own cells stop at
    convergence, between about 51 n² and the 200 n² budget at n=64, so
    the work of a run, and above all its slowest cells, follow the seed.
    """

    name = "figure2"
    jobs = 2
    N = 64
    SEEDS = 16
    #: Interactions per cell in units of n², below the fastest observed
    #: convergence at n=64.
    BUDGET = 50.0

    def build_spec(self):
        spec = figure2_specs(
            n_values=(self.N,), seeds=self.SEEDS, engine="array",
            max_normalized_interactions=self.BUDGET,
            random_state=self.random_state,
        )[0]
        return dataclasses.replace(spec, stop_on_convergence=False)

    def row_problems(self, row, full):
        problems = check_series_row(row, self.spec, "array")
        if full and row["seed_index"] == self.random_state % self.SEEDS:
            replay = replay_reference(self.spec, row["n"], row["seed_index"])
            problems += check_replay(row, replay)
        return problems


class Figure3(StudyWorkload):
    name = "figure3"
    jobs = 1
    SEEDS = 16

    def build_spec(self):
        return figure3_specs(
            repetitions=self.SEEDS, random_state=self.random_state
        )[0]

    def row_problems(self, row, full):
        return check_milestone_row(
            row, self.spec.milestone_fractions, "aggregate"
        )


class Epidemic(StudyWorkload):
    name = "epidemic"
    jobs = 1
    N = 1_000_000
    SEEDS = 50

    def build_spec(self):
        return epidemic_specs(
            n_values=(self.N,), repetitions=self.SEEDS,
            random_state=self.random_state,
        )[0]

    def row_problems(self, row, full):
        n = row["n"]
        return check_milestone_row(
            row, self.spec.milestone_fractions, "group",
            completion_bound=epidemic_upper_bound(n, n, 1.0),
        )


class Drain(Workload):
    """Submit fixed-work cells untimed, then time one in-process drain."""

    N = 4
    CELLS = 80

    def setup(self):
        self.spec = ExperimentSpec(
            variant="drain",
            protocol="stable-ranking-figure2",
            n_values=(self.N,),
            seeds=self.CELLS,
            engine="reference",
            workload="figure2",
            protocol_params={"c_wait": 2.0, "c_live": 4.0},
            max_interactions_factor=200.0,
            stop_on_convergence=False,
            samples=240,
            random_state=self.random_state,
        )
        self.service = StudyService(self.workdir / "served")
        summary = self.service.submit(
            {"name": "drain", "specs": [self.spec.as_dict()]}
        )
        self.study_id = summary["study"]
        self.directory = summary["directory"]

    def _on_line(self, line):
        if line.endswith(" rows)"):
            self._progress()

    def timed(self):
        serving_worker.run_worker(
            self.directory, fsync=False, progress=self._on_line
        )
        # run_worker points the table store at the study directory for the
        # rest of the process; keep later work off it.
        os.environ.pop(TABLE_CACHE_ENV, None)

    def check(self, full=False):
        self.rows = self.service.rows(self.study_id)
        if full:
            expected = Study([self.spec], name="drain-check").run()
            problems = list(check_same_rows(
                self.rows, [row.as_dict() for row in expected.rows]
            ).values())
        else:
            problems = [
                found for found in (
                    check_series_row(row, self.spec, "reference")
                    for row in self.rows
                ) if found
            ]
            problems += [["row missing from the drain"]] * (
                self.CELLS - len(self.rows)
            )
        attempted = self.CELLS
        ok = max(0, attempted - len(problems))
        return attempted, ok, problems[:5]


WORKLOAD_CLASSES = {
    "figure2": Figure2,
    "figure3": Figure3,
    "epidemic": Epidemic,
    "drain": Drain,
}
