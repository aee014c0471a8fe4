"""Metric collection for simulations.

Experiments such as the paper's Figure 2 need time series of configuration
statistics ("number of ranked agents", "average phase of unranked agents")
sampled on a fixed interaction schedule.  :class:`MetricsCollector` owns a
set of named probes, a sampling interval and the recorded series.  The
schedule is defined per interaction (:meth:`MetricsCollector.maybe_record`
after every step); the engines read :attr:`MetricsCollector.next_due` and
:meth:`~MetricsCollector.record` each snapshot on exactly that interaction
without stopping their stepping loops there.

Probes that read several statistics of one pass over the states share it
through :class:`SummaryProbe`: the collector evaluates each summary once
per snapshot, however many probes read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .configuration import Configuration

__all__ = [
    "MetricsCollector", "SummaryProbe", "TimeSeries", "standard_ranking_probes",
]

Probe = Callable[[Configuration], float]


class SummaryProbe:
    """A probe that reads entry ``index`` of ``summary(configuration)``.

    Called on its own it evaluates the summary; a :class:`MetricsCollector`
    evaluates each distinct summary once per snapshot and hands every
    probe built on it its entry.
    """

    __slots__ = ("summary", "index")

    def __init__(self, summary: Callable[[Configuration], Sequence[float]],
                 index: int):
        self.summary = summary
        self.index = index

    def __call__(self, configuration: Configuration) -> float:
        return float(self.summary(configuration)[self.index])


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
        # Each distinct summary is evaluated once per snapshot; a series
        # reads its probe, or entry ``index`` of summary number ``slot``.
        self._summaries = list(dict.fromkeys(
            probe.summary for probe in self._probes.values()
            if isinstance(probe, SummaryProbe)
        ))
        self._readers = [
            (self._series[name], None, self._summaries.index(probe.summary),
             probe.index) if isinstance(probe, SummaryProbe)
            else (self._series[name], probe, None, None)
            for name, probe in self._probes.items()
        ]
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
        summaries = [summary(configuration) for summary in self._summaries]
        for series, probe, slot, index in self._readers:
            value = probe(configuration) if slot is None else summaries[slot][index]
            series.interactions.append(interaction)
            series.values.append(float(value))
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

        All three read :meth:`Configuration.ranking_summary`, one pass over
        the states per snapshot.
    """
    summary = Configuration.ranking_summary
    return {
        "ranked_agents": SummaryProbe(summary, 0),
        "average_phase": SummaryProbe(summary, 1),
        "duplicate_ranks": SummaryProbe(summary, 2),
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
