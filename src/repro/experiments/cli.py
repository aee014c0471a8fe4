"""``python -m repro`` — every paper figure and benchmark from one command.

The CLI is a thin veneer over the declarative study API: each experiment
name maps to a preset that builds :class:`~repro.experiments.study
.ExperimentSpec` objects from the command-line arguments, runs them
through a :class:`~repro.experiments.study.Study` (with multiprocess seed
fan-out via ``--jobs`` and a persistent, resumable result store under
``--out``), and renders the familiar text table for the figure.

Examples::

    python -m repro list
    python -m repro run figure2 --n 256 --out results/
    python -m repro run figure3 --n 128,256 --seeds 50 --jobs 8
    python -m repro run scaling --n 8 --seeds 2
    python -m repro run comparison --n 16,32 --seeds 5 --workload corrupted
    python -m repro run fault_injection --n 32 --seeds 10 --jobs 4
    python -m repro run fault_storm --n 32,64 --seeds 5 --jobs 4
    python -m repro list --scenarios
    python -m repro serve --port 8765 --out results/
    python -m repro worker --study results/figure2-<hash12>
    python -m repro list --studies results/

Re-invoking a finished study is free: every completed ``(variant, n,
seed)`` cell is loaded from the store (see
:mod:`repro.experiments.store`) instead of being re-simulated.  The
``serve``/``worker`` pair is the scale-out mode (see
:mod:`repro.serving` and ``docs/serving.md``): ``serve`` accepts spec
submissions over HTTP and enqueues their cells, any number of ``worker``
processes drain one study's queue, and ``list --studies`` is the
operator's view of queue depth, shards and completion.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from ..core.backends import engine_choices
from ..core.errors import ExperimentError
from ..scenarios import get_scenario, scenario_names
from ..topologies import describe_topology, topology_names
from . import comparison as _comparison
from . import epidemic as _epidemic
from . import fault_injection as _fault
from . import fault_storm as _storm
from . import figure2 as _figure2
from . import figure3 as _figure3
from . import scaling as _scaling
from . import topology_sweep as _topo
from .study import ResultSet, Study

__all__ = ["main", "build_study", "preset_specs"]


def _parse_ints(values: Optional[List[str]], default: Sequence[int]) -> tuple:
    if not values:
        return tuple(default)
    parsed = []
    for chunk in values:
        for piece in str(chunk).split(","):
            piece = piece.strip()
            if piece:
                parsed.append(int(piece))
    return tuple(parsed)


def _parse_strs(value: Optional[str], default: Sequence[str]) -> tuple:
    if value is None:
        return tuple(default)
    return tuple(piece.strip() for piece in value.split(",") if piece.strip())


def _parse_floats(value: Optional[str], default: Sequence[float]) -> tuple:
    if value is None:
        return tuple(default)
    return tuple(float(piece) for piece in value.split(",") if piece.strip())


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
def _figure2_specs(args):
    return _figure2.figure2_specs(
        n_values=_parse_ints(args.n, (256,)),
        seeds=args.seeds if args.seeds is not None else 1,
        samples=args.samples,
        max_normalized_interactions=args.max_factor or 200.0,
        engine=args.engine or "auto",
        random_state=args.seed,
    )


def _figure2_render(result: ResultSet, args) -> str:
    blocks = []
    for n in result.specs[0].n_values:
        legacy = _figure2.figure2_result_from_rows(result, n=n)
        blocks.append(_figure2.format_figure2(legacy, plot=not args.no_plot))
    return "\n\n".join(blocks)


def _figure3_specs(args):
    return _figure3.figure3_specs(
        n_values=_parse_ints(args.n, _figure3.PAPER_POPULATION_SIZES),
        fractions=_parse_floats(args.fractions, _figure3.PAPER_FRACTIONS),
        repetitions=args.seeds if args.seeds is not None else 100,
        engine=args.engine or "auto",
        max_interactions_factor=args.max_factor or 500.0,
        random_state=args.seed,
    )


def _figure3_render(result: ResultSet, args) -> str:
    return _figure3.format_figure3(_figure3.figure3_result_from_rows(result))


def _epidemic_specs(args):
    return _epidemic.epidemic_specs(
        n_values=_parse_ints(args.n, _epidemic.EPIDEMIC_POPULATION_SIZES),
        fractions=_parse_floats(args.fractions, _epidemic.EPIDEMIC_FRACTIONS),
        repetitions=args.seeds if args.seeds is not None else 25,
        engine=args.engine or "auto",
        max_interactions_factor=args.max_factor or 100.0,
        random_state=args.seed,
    )


def _epidemic_render(result: ResultSet, args) -> str:
    return _epidemic.format_epidemic(
        _epidemic.epidemic_result_from_rows(result)
    )


def _scaling_specs(args):
    return _scaling.scaling_specs(
        n_values=_parse_ints(args.n, (64, 128, 256, 512, 1024)),
        repetitions=args.seeds if args.seeds is not None else 20,
        engine=args.engine or "auto",
        max_interactions_factor=args.max_factor or 2000.0,
        random_state=args.seed,
    )


def _scaling_render(result: ResultSet, args) -> str:
    return _scaling.format_scaling(_scaling.scaling_result_from_rows(result))


def _comparison_specs(args):
    return _comparison.comparison_specs(
        n_values=_parse_ints(args.n, (16, 32, 64)),
        repetitions=args.seeds if args.seeds is not None else 5,
        workload=args.workload,
        protocols=(
            _parse_strs(args.protocols, _comparison.PROTOCOL_FAMILIES)
            if args.protocols
            else None
        ),
        max_interactions_factor=int(args.max_factor or 400),
        engine=args.engine or "auto",
        random_state=args.seed,
    )


def _comparison_render(result: ResultSet, args) -> str:
    legacy = _comparison.comparison_result_from_rows(result, workload=args.workload)
    return _comparison.format_comparison(legacy)


def _fault_specs(args):
    return _fault.fault_injection_specs(
        n_values=_parse_ints(args.n, (32, 64)),
        repetitions=args.seeds if args.seeds is not None else 5,
        faults=_parse_strs(args.faults, _fault.FAULT_MODELS),
        max_interactions_factor=int(args.max_factor or 400),
        engine=args.engine or "auto",
        random_state=args.seed,
    )


def _fault_render(result: ResultSet, args) -> str:
    return _fault.format_fault_injection(
        _fault.fault_injection_result_from_rows(result)
    )


def _fault_storm_specs(args):
    return _storm.fault_storm_specs(
        n_values=_parse_ints(args.n, (32, 64)),
        repetitions=args.seeds if args.seeds is not None else 3,
        scenario=args.scenario or "fault_storm",
        faults=_parse_strs(args.faults, _storm.STORM_FAULTS),
        events=args.events if args.events is not None else 3,
        period_factor=(
            args.period_factor if args.period_factor is not None else 80.0
        ),
        max_interactions_factor=args.max_factor,
        engine=args.engine or "auto",
        random_state=args.seed,
    )


def _fault_storm_render(result: ResultSet, args) -> str:
    return _storm.format_fault_storm(
        _storm.fault_storm_result_from_rows(result)
    )


def _topology_sweep_specs(args):
    return _topo.topology_sweep_specs(
        topologies=_parse_strs(
            getattr(args, "topology", None), _topo.SWEEP_TOPOLOGIES
        ),
        n_values=_parse_ints(args.n, _topo.SWEEP_POPULATION_SIZES),
        repetitions=args.seeds if args.seeds is not None else 10,
        engine=args.engine or "auto",
        max_interactions_factor=args.max_factor or 50.0,
        random_state=args.seed,
    )


def _topology_sweep_render(result: ResultSet, args) -> str:
    return _topo.format_topology_sweep(
        _topo.topology_sweep_result_from_rows(result)
    )


EXPERIMENTS = {
    "figure2": {
        "help": "Figure 2: ranked agents + average phase vs time (worst case start)",
        "specs": _figure2_specs,
        "render": _figure2_render,
    },
    "figure3": {
        "help": "Figure 3: normalized times to rank fractions of the agents",
        "specs": _figure3_specs,
        "render": _figure3_render,
    },
    "epidemic": {
        "help": "One-way epidemic scaling to n=10^6 vs the Lemma 14 bound",
        "specs": _epidemic_specs,
        "render": _epidemic_render,
    },
    "scaling": {
        "help": "Stabilization-time scaling (Theorem 1 shape check)",
        "specs": _scaling_specs,
        "render": _scaling_render,
    },
    "comparison": {
        "help": "StableRanking vs the Cai and Burman-style baselines",
        "specs": _comparison_specs,
        "render": _comparison_render,
    },
    "fault_injection": {
        "help": "Recovery times under injected transient faults (Theorem 2)",
        "specs": _fault_specs,
        "render": _fault_render,
    },
    "fault_storm": {
        "help": "Recovery under periodic mid-run fault injection (scenario API)",
        "specs": _fault_storm_specs,
        "render": _fault_storm_render,
    },
    "topology_sweep": {
        "help": "Epidemic completion on ring/grid/power-law vs complete, "
                "with the Herman ring band overlay",
        "specs": _topology_sweep_specs,
        "render": _topology_sweep_render,
    },
}


def _scenario_matrix_lines() -> List[str]:
    """One line per registered scenario: initial condition + schedule shape."""
    lines = ["", "scenarios (initial condition + event schedule):"]
    width = max(len(name) for name in scenario_names())
    for name in scenario_names():
        scenario = get_scenario(name)
        if scenario.is_static:
            shape = "static (no events)"
        else:
            # A custom scenario whose schedule has no runnable defaults
            # must not break the whole listing.
            try:
                schedule = scenario.schedule(64)
            except (ExperimentError, TypeError) as error:
                lines.append(f"  {name:<{width}}  unavailable ({error})")
                continue
            kinds = sorted({event.kind for event in schedule})
            shape = (
                f"{len(schedule)} x {'/'.join(kinds)} "
                f"(default schedule at n=64)"
            )
        lines.append(
            f"  {name:<{width}}  workload={scenario.workload:<14} {shape}"
        )
        if scenario.description:
            lines.append(f"  {'':<{width}}  {scenario.description}")
    return lines


def _topology_matrix_lines(n: int = 64) -> List[str]:
    """One line per registered topology family: kind + degree profile.

    Built at a fixed default size so the random families show concrete
    edge counts; a family whose defaults cannot build at that size must
    not break the whole listing.
    """
    lines = ["", f"topologies (interaction graphs, shown at n={n}):"]
    width = max(len(name) for name in topology_names())
    for name in topology_names():
        try:
            info = describe_topology(name, n)
        except ExperimentError as error:
            lines.append(f"  {name:<{width}}  unavailable ({error})")
            continue
        lines.append(
            f"  {name:<{width}}  kind={info['kind']:<9} "
            f"pairs={info['pairs']:<6} "
            f"degree min/mean/max = {info['deg_min']}/"
            f"{info['deg_mean']:.1f}/{info['deg_max']}"
        )
        lines.append(f"  {'':<{width}}  {info['description']}")
    return lines


def _capability_matrix_lines(parser: argparse.ArgumentParser) -> List[str]:
    """One line per (preset, variant): the backend each protocol resolves to.

    Uses every preset's *default* arguments, so the matrix shows what
    ``python -m repro run <experiment>`` would actually do — including the
    ``auto`` negotiation through the backend registry.
    """
    lines = ["", "resolved backends (engine -> backend per protocol):"]
    for name in sorted(EXPERIMENTS):
        args = parser.parse_args(["run", name])
        try:
            specs = EXPERIMENTS[name]["specs"](args)
        except ExperimentError as error:  # pragma: no cover - defensive
            lines.append(f"  {name}: unavailable ({error})")
            continue
        for spec in specs:
            resolved = sorted({spec.resolve_backend(n) for n in spec.n_values})
            lines.append(
                f"  {name}/{spec.variant}: {spec.protocol} "
                f"[{spec.engine}] -> {', '.join(resolved)}"
            )
    return lines


def build_study(experiment: str, args) -> Study:
    """Build the :class:`Study` for a named experiment preset."""
    if experiment not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {experiment!r}; see `python -m repro list`"
        )
    specs = EXPERIMENTS[experiment]["specs"](args)
    store = None if args.no_store else args.out
    return Study(specs, name=experiment, store=store, jobs=args.jobs)


def preset_specs(experiment: str, overrides: Optional[dict] = None) -> tuple:
    """Build a preset's specs programmatically (the HTTP submission path).

    ``overrides`` maps CLI option names — with dashes or underscores
    (``{"n": "64", "seeds": 2, "max_factor": 30}``) — onto the preset's
    ``run`` arguments; anything the parser would reject raises
    :class:`ExperimentError` instead of exiting the process.  Used by
    ``repro serve`` to accept ``{"preset": "figure2", ...overrides}``
    submissions with exactly the CLI's defaulting rules.
    """
    if experiment not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {experiment!r}; known: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        )
    parser = _build_parser()
    args = parser.parse_args(["run", experiment])
    for key, value in dict(overrides or {}).items():
        name = str(key).replace("-", "_")
        if name in ("experiment", "out", "no_store", "jobs"):
            raise ExperimentError(
                f"preset override {key!r} is not a spec option"
            )
        if not hasattr(args, name):
            raise ExperimentError(
                f"unknown preset override {key!r} for {experiment!r}"
            )
        default = getattr(args, name)
        if name == "n":
            # argparse collects --n with action="append"; accept ints,
            # strings ("64,128") or lists of either.
            items = value if isinstance(value, (list, tuple)) else [value]
            value = [str(item) for item in items]
        elif isinstance(default, bool):
            value = bool(value)
        elif isinstance(default, int) and not isinstance(value, bool):
            value = int(value)
        elif isinstance(default, float):
            value = float(value)
        elif default is not None or value is not None:
            if name in ("seeds", "events"):
                value = int(value)
            elif name in ("max_factor", "period_factor"):
                value = float(value)
            elif value is not None:
                value = str(value)
        setattr(args, name, value)
    try:
        return tuple(EXPERIMENTS[experiment]["specs"](args))
    except (TypeError, ValueError) as error:
        raise ExperimentError(
            f"invalid overrides for preset {experiment!r}: {error}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's figures and benchmarks.",
    )
    commands = parser.add_subparsers(dest="command")

    list_parser = commands.add_parser(
        "list", help="list the available experiments"
    )
    list_parser.add_argument(
        "--scenarios", action="store_true",
        help="also print the scenario matrix (workload + event schedule)",
    )
    list_parser.add_argument(
        "--topologies", action="store_true",
        help="also print the topology matrix (interaction-graph families "
             "and their degree profiles)",
    )
    list_parser.add_argument(
        "--studies", metavar="DIR", default=None,
        help="list the studies under a store root instead: per-study "
             "queue depth, failed jobs, shard count and completed/total "
             "cells",
    )

    run = commands.add_parser("run", help="run one experiment preset")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument(
        "--n", action="append", metavar="N[,N...]",
        help="population size(s); repeatable or comma-separated",
    )
    run.add_argument("--seeds", type=int, default=None,
                     help="independent seeded runs per (variant, n) cell")
    run.add_argument("--engine", default=None,
                     help=f"simulation engine ({' | '.join(engine_choices())}); "
                          "auto (the default) resolves each cell to the "
                          "fastest capable backend")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the cell fan-out (default 1)")
    run.add_argument("--out", default="results",
                     help="result-store root directory (default: results/)")
    run.add_argument("--no-store", action="store_true",
                     help="do not persist results (also disables resume)")
    run.add_argument("--seed", type=int, default=0, help="root random seed")
    run.add_argument("--max-factor", type=float, default=None,
                     help="interaction budget per run, in units of n²")
    run.add_argument("--samples", type=int, default=240,
                     help="figure2: metric snapshots across the budget")
    run.add_argument("--fractions", default=None,
                     help="figure3/epidemic: comma-separated milestone "
                          "fractions")
    run.add_argument("--workload", default="fresh",
                     choices=("fresh", "corrupted"),
                     help="comparison: starting configuration family")
    run.add_argument("--protocols", default=None,
                     help="comparison: comma-separated protocol names")
    run.add_argument("--faults", default=None,
                     help="fault_injection/fault_storm: comma-separated "
                          "fault models / event kinds")
    run.add_argument("--scenario", default=None,
                     help="fault_storm: event-bearing scenario to run "
                          "(see `python -m repro list --scenarios`)")
    run.add_argument("--topology", default=None,
                     help="topology_sweep: comma-separated topology "
                          "families to sweep next to the complete "
                          "baseline (see `python -m repro list "
                          "--topologies`)")
    run.add_argument("--events", type=int, default=None,
                     help="fault_storm: number of scheduled events")
    run.add_argument("--period-factor", type=float, default=None,
                     help="fault_storm: event spacing in units of n²")
    run.add_argument("--no-plot", action="store_true",
                     help="figure2: omit the ASCII plots")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-cell progress lines")

    worker = commands.add_parser(
        "worker",
        help="drain one study's job queue (scale-out execution mode)",
    )
    worker.add_argument("--study", required=True, metavar="DIR",
                        help="the study directory (<name>-<hash12>)")
    worker.add_argument("--lease-timeout", type=float, default=60.0,
                        help="seconds without a heartbeat before another "
                             "worker may reclaim a job (default 60)")
    worker.add_argument("--poll", type=float, default=0.5,
                        help="seconds between queue scans while waiting "
                             "(default 0.5)")
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after this many completed jobs")
    worker.add_argument("--follow", action="store_true",
                        help="keep polling for new submissions once the "
                             "queue is drained instead of exiting")
    worker.add_argument("--no-fsync", action="store_true",
                        help="skip fsync on shard appends (throughput "
                             "over durability)")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress lines")

    serve = commands.add_parser(
        "serve",
        help="HTTP front end: submit specs, stream progress, fetch rows",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="port to bind (0 picks an ephemeral port)")
    serve.add_argument("--out", default="results",
                       help="result-store root directory (default: "
                            "results/)")
    serve.add_argument("--workers", type=int, default=0,
                       help="worker subprocesses to spawn per submitted "
                            "study (default 0: drain with `repro worker`)")
    serve.add_argument("--lease-timeout", type=float, default=60.0,
                       help="lease timeout passed to spawned workers")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request log lines")

    cache = commands.add_parser(
        "cache",
        help="inspect, pre-warm or clear the persistent table store",
    )
    cache_actions = cache.add_subparsers(dest="cache_command")
    cache_list = cache_actions.add_parser(
        "list", help="one line per persisted protocol entry"
    )
    cache_list.add_argument("--dir", default=None, metavar="DIR",
                            help="table-store directory (default: "
                                 "$REPRO_TABLE_CACHE)")
    cache_warm = cache_actions.add_parser(
        "warm",
        help="populate the store by running seeds of one protocol",
    )
    cache_warm.add_argument("--protocol", required=True,
                            help="protocol registry name (e.g. "
                                 "stable-ranking, one-way-epidemic)")
    cache_warm.add_argument("--n", type=int, required=True, action="append",
                            help="population size; repeatable")
    cache_warm.add_argument("--dir", default=None, metavar="DIR",
                            help="table-store directory (default: "
                                 "$REPRO_TABLE_CACHE)")
    cache_warm.add_argument("--seeds", type=int, default=4,
                            help="warming trajectories per n (default 4)")
    cache_warm.add_argument("--jobs", type=int, default=1,
                            help="worker processes for the warming fan-out")
    cache_warm.add_argument("--engine", default="auto",
                            help="engine to warm through (default auto)")
    cache_warm.add_argument("--max-factor", type=float, default=None,
                            help="interaction budget per trajectory, in "
                                 "units of n²")
    cache_clear = cache_actions.add_parser(
        "clear", help="delete every entry of the table store"
    )
    cache_clear.add_argument("--dir", default=None, metavar="DIR",
                             help="table-store directory (default: "
                                  "$REPRO_TABLE_CACHE)")
    return parser


def _print_table_store_stats() -> None:
    """One line of table-store traffic for the finished command, if any.

    Printed unconditionally (not gated by ``--quiet``): the line is the
    observable proof that a run was served from — or contributed to — a
    persistent store, which scripts (and CI) grep for.  Loads counted in
    worker processes stay in those processes; this reports the calling
    process's traffic, which is exactly the serial/in-process path.
    """
    from ..core.table_store import consume_session_stats

    stats = consume_session_stats()
    parts = []
    if stats["pairs_loaded"] or stats["spills_loaded"]:
        parts.append(
            f"loaded {stats['pairs_loaded']} pairs "
            f"from {stats['spills_loaded']} spill(s)"
        )
    if stats["dense_loaded"]:
        parts.append(f"loaded {stats['dense_loaded']} dense table(s)")
    if stats["group_loaded"]:
        parts.append(f"loaded {stats['group_loaded']} group model(s)")
    if stats["pairs_spilled"]:
        parts.append(
            f"spilled {stats['pairs_spilled']} pairs "
            f"to {stats['spills_written']} file(s)"
        )
    if stats["artifacts_discarded"]:
        parts.append(
            f"discarded {stats['artifacts_discarded']} corrupt artifact(s)"
        )
    if parts:
        print("table store: " + "; ".join(parts))


def _cache_command(args) -> int:
    """``repro cache list|warm|clear`` — operate on a table store."""
    import os
    from pathlib import Path

    from ..core.table_store import ENV_VAR, TableStore, resolve_store_dir

    if args.cache_command is None:
        print(
            "usage: python -m repro cache {list,warm,clear} [options]",
            file=sys.stderr,
        )
        return 2
    directory = Path(args.dir) if args.dir else resolve_store_dir()
    if directory is None:
        print(
            f"error: no table store; pass --dir or set {ENV_VAR}",
            file=sys.stderr,
        )
        return 1

    if args.cache_command == "list":
        entries = TableStore(directory).entries()
        if not entries:
            print(f"no table-store entries under {directory}")
            return 0
        print(f"table store at {directory}:")
        for entry in entries:
            info = entry.describe()
            print(
                f"  {info['name']}  "
                f"pairs {info['pairs']} ({info['spills']} spills)  "
                f"dense {info['dense_states'] or 0}  "
                f"group {info['group_states'] or 0}  "
                f"{info['bytes']} bytes"
            )
        return 0

    if args.cache_command == "clear":
        TableStore(directory).clear()
        print(f"cleared table store at {directory}")
        return 0

    # warm: run seed trajectories of the named protocol with the store
    # attached; every engine cache spills its tabulation on finalize, so
    # the trajectories themselves are the warming mechanism (exactly what
    # a later study replays, so warmth is guaranteed to transfer).
    from .parallel import run_units
    from .study import PROTOCOLS, ExperimentSpec, plan_units

    if args.protocol not in PROTOCOLS:
        print(
            f"error: unknown protocol {args.protocol!r}; known: "
            f"{', '.join(sorted(PROTOCOLS))}",
            file=sys.stderr,
        )
        return 1
    spec_kwargs = dict(
        variant="warm",
        protocol=args.protocol,
        n_values=tuple(args.n),
        seeds=args.seeds,
        engine=args.engine,
    )
    if args.max_factor is not None:
        spec_kwargs["max_interactions_factor"] = args.max_factor
    try:
        spec = ExperimentSpec(**spec_kwargs)
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = str(directory)
    try:
        units = plan_units([spec], ())
        rows = run_units(units, jobs=args.jobs, callback=None)
    finally:
        if previous is None:
            del os.environ[ENV_VAR]
        else:
            os.environ[ENV_VAR] = previous
    print(
        f"warmed {args.protocol} at n={','.join(str(n) for n in args.n)}: "
        f"{len(rows)} trajectories into {directory}"
    )
    _print_table_store_stats()
    return 0


def _list_studies(root: str) -> int:
    """``repro list --studies DIR`` — the operator's view of the stores."""
    from ..serving.server import StudyService

    summaries = StudyService(root).studies()
    if not summaries:
        print(f"no studies under {root}")
        return 0
    width = max(len(summary["study"]) for summary in summaries)
    print(f"studies under {root}:")
    for summary in summaries:
        queue = summary["queue"]
        state = "complete" if summary["complete"] else (
            f"queue {queue['pending']} pending"
            f" ({queue['active']} active, {queue['stale']} stale,"
            f" {queue['failed']} failed)"
        )
        engines = ", ".join(
            f"{engine}:{count}"
            for engine, count in summary["by_engine"].items()
        )
        print(
            f"  {summary['study']:<{width}}  "
            f"cells {summary['done']}/{summary['total']}  "
            f"shards {summary['shards']}  {state}"
            + (f"  [{engines}]" if engines else "")
        )
        for failure in summary["failures"]:
            print(
                f"    failed job {failure['job']} n={failure['n']} "
                f"seeds={failure['seeds']} after {failure['attempts']} "
                f"attempts: {failure['error']}"
            )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list" and args.studies is not None:
        try:
            return _list_studies(args.studies)
        except ExperimentError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    if args.command == "worker":
        from ..serving.worker import run_worker

        try:
            jobs = run_worker(
                args.study,
                lease_timeout=args.lease_timeout,
                poll=args.poll,
                max_jobs=args.max_jobs,
                follow=args.follow,
                fsync=not args.no_fsync,
                progress=None if args.quiet else (
                    lambda line: print(line, flush=True)
                ),
            )
        except ExperimentError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if not args.quiet:
            print(f"worker drained {jobs} job(s) from {args.study}")
        _print_table_store_stats()
        return 0

    if args.command == "cache":
        try:
            return _cache_command(args)
        except ExperimentError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    if args.command == "serve":
        from ..serving.server import serve

        return serve(
            args.out,
            host=args.host,
            port=args.port,
            lease_timeout=args.lease_timeout,
            workers=args.workers,
            quiet=args.quiet,
        )

    if args.command == "list" or args.command is None:
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print(f"  {name:<{width}}  {EXPERIMENTS[name]['help']}")
        if args.command == "list":
            if getattr(args, "scenarios", False):
                for line in _scenario_matrix_lines():
                    print(line)
            if getattr(args, "topologies", False):
                for line in _topology_matrix_lines():
                    print(line)
            for line in _capability_matrix_lines(parser):
                print(line)
        if args.command is None:
            print("\nusage: python -m repro run <experiment> [options]")
        return 0

    try:
        study = build_study(args.experiment, args)
    except ExperimentError as error:
        parser.error(str(error))
        return 2  # pragma: no cover - parser.error raises SystemExit

    def progress(row, done, total):
        if not args.quiet:
            print(
                f"[{done}/{total}] {row['variant']} n={row['n']} "
                f"seed={row['seed_index']} interactions={row['interactions']} "
                f"converged={row['converged']}",
                flush=True,
            )

    try:
        result = study.run(progress=progress)
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    exit_code = 0
    try:
        print(EXPERIMENTS[args.experiment]["render"](result, args))
    except ExperimentError as error:
        # Rendering can legitimately fail (e.g. a seed missed a milestone
        # within budget); the computed rows are still valid and persisted,
        # so report the problem but keep the store pointers visible.
        print(f"error: {error}", file=sys.stderr)
        exit_code = 1
    _print_table_store_stats()
    if study.store is not None:
        result.to_json(study.store.directory / "result.json")
        print(f"\nresult store: {study.store.directory}")
        print(f"  rows:   {study.store.rows_path}")
        print(f"  csv:    {study.store.directory / 'rows.csv'}")
        print(f"  json:   {study.store.directory / 'result.json'}")
    return exit_code
