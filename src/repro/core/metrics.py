"""Metric collection for simulations.

Experiments such as the paper's Figure 2 need time series of configuration
statistics ("number of ranked agents", "average phase of unranked agents")
sampled on a fixed interaction schedule.  :class:`MetricsCollector` owns a
set of named probes, a sampling interval and the recorded series; the
simulator calls :meth:`MetricsCollector.maybe_record` after every interaction
and the collector decides whether a snapshot is due.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .configuration import Configuration

__all__ = ["MetricsCollector", "TimeSeries", "standard_ranking_probes"]

Probe = Callable[[Configuration], float]


@dataclass
class TimeSeries:
    """A recorded metric: interaction counts and the sampled values."""

    name: str
    interactions: List[int] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, interaction: int, value: float) -> None:
        """Record ``value`` observed after ``interaction`` interactions."""
        self.interactions.append(interaction)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def last(self) -> Optional[float]:
        """The most recent value, or ``None`` if nothing was recorded."""
        return self.values[-1] if self.values else None

    def as_rows(self) -> List[tuple]:
        """Return ``(interaction, value)`` rows, e.g. for CSV export."""
        return list(zip(self.interactions, self.values))


class MetricsCollector:
    """Samples configuration probes on a fixed interaction schedule.

    Parameters
    ----------
    probes:
        Mapping from series name to a probe function evaluated on the
        configuration at sampling time.
    interval:
        Record a snapshot every ``interval`` interactions.  The snapshot at
        interaction 0 (the initial configuration) is always recorded when the
        simulator starts.
    """

    def __init__(self, probes: Dict[str, Probe], interval: int):
        if interval < 1:
            raise ValueError(f"interval must be positive, got {interval}")
        self._probes = dict(probes)
        self._interval = interval
        self._series: Dict[str, TimeSeries] = {
            name: TimeSeries(name) for name in self._probes
        }
        self._next_due = 0

    @property
    def interval(self) -> int:
        """The sampling interval in interactions."""
        return self._interval

    @property
    def next_due(self) -> int:
        """The next interaction count at which a snapshot is due.

        Chunked engines use this to take snapshots on exactly the
        interactions the per-step ``maybe_record`` protocol of the
        reference simulator would record.
        """
        return self._next_due

    @property
    def series(self) -> Dict[str, TimeSeries]:
        """The recorded time series keyed by probe name."""
        return self._series

    def record(self, interaction: int, configuration: Configuration) -> None:
        """Force a snapshot at ``interaction`` regardless of the schedule."""
        for name, probe in self._probes.items():
            self._series[name].append(interaction, float(probe(configuration)))
        self._next_due = interaction + self._interval

    def checkpoint(self) -> tuple:
        """A mark of what has been recorded so far, for :meth:`rollback`."""
        return self._next_due, [len(series) for series in self._series.values()]

    def rollback(self, checkpoint: tuple) -> None:
        """Discard the snapshots recorded since ``checkpoint``.

        Engines that rewind part of a run (the array engine's replayed
        convergence block) drop the snapshots taken in it, so the replay
        records each of them exactly once.
        """
        next_due, lengths = checkpoint
        for series, length in zip(self._series.values(), lengths):
            del series.interactions[length:]
            del series.values[length:]
        self._next_due = next_due

    def maybe_record(self, interaction: int, configuration: Configuration) -> bool:
        """Record a snapshot if one is due; return whether it was recorded."""
        if interaction < self._next_due:
            return False
        self.record(interaction, configuration)
        return True

    def close(self, interaction: int, configuration: Configuration) -> None:
        """Record a closing snapshot unless one was taken at ``interaction``,
        so series always end at the final state of a run."""
        first = next(iter(self._series.values()), None)
        if first is None or first.interactions[-1:] != [interaction]:
            self.record(interaction, configuration)

    def get(self, name: str) -> TimeSeries:
        """Return the series recorded under ``name``."""
        return self._series[name]


def standard_ranking_probes() -> Dict[str, Probe]:
    """Probes used by the ranking experiments (Figure 2 of the paper).

    Returns
    -------
    dict
        ``ranked_agents``: number of agents holding a rank.
        ``average_phase``: mean phase counter of unranked phase agents.
        ``duplicate_ranks``: number of distinct ranks held more than once.
    """
    return {
        "ranked_agents": lambda config: float(config.ranked_count()),
        "average_phase": lambda config: float(config.average_phase()),
        "duplicate_ranks": lambda config: float(len(config.duplicate_ranks())),
    }


def merge_series(series: Sequence[TimeSeries]) -> TimeSeries:
    """Concatenate several series that share a name (for chunked runs)."""
    if not series:
        raise ValueError("need at least one series to merge")
    merged = TimeSeries(series[0].name)
    for part in series:
        merged.interactions.extend(part.interactions)
        merged.values.extend(part.values)
    return merged
