"""Unit tests for metric collection."""

import pytest

from repro.core.configuration import Configuration
from repro.core.metrics import (
    MetricsCollector, SummaryProbe, TimeSeries, standard_ranking_probes,
)
from repro.core.state import AgentState


def simple_config(ranked, phases=()):
    states = [AgentState(rank=r) for r in range(1, ranked + 1)]
    states += [AgentState(phase=p) for p in phases]
    return Configuration(states)


class TestTimeSeries:
    def test_append_and_last(self):
        series = TimeSeries("x")
        assert series.last() is None
        series.append(0, 1.0)
        series.append(10, 2.5)
        assert len(series) == 2
        assert series.last() == 2.5
        assert series.as_rows() == [(0, 1.0), (10, 2.5)]


class TestMetricsCollector:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            MetricsCollector({}, interval=0)

    def test_records_on_schedule(self):
        collector = MetricsCollector({"ranked": lambda c: c.ranked_count()}, interval=10)
        config = simple_config(3)
        assert collector.maybe_record(0, config)
        assert not collector.maybe_record(5, config)
        assert collector.maybe_record(10, config)
        assert collector.get("ranked").interactions == [0, 10]

    def test_force_record_resets_schedule(self):
        collector = MetricsCollector({"ranked": lambda c: c.ranked_count()}, interval=10)
        config = simple_config(2)
        collector.record(3, config)
        assert not collector.maybe_record(8, config)
        assert collector.maybe_record(13, config)

    def test_standard_probes(self):
        probes = standard_ranking_probes()
        config = simple_config(2, phases=(3, 5))
        assert probes["ranked_agents"](config) == 2.0
        assert probes["average_phase"](config) == pytest.approx(4.0)
        assert probes["duplicate_ranks"](config) == 0.0
        config[0].rank = 2
        assert probes["duplicate_ranks"](config) == 1.0

    def test_shared_summary_runs_once_per_snapshot(self):
        calls = []

        def summary(config):
            calls.append(config)
            return (config.ranked_count(), 7)

        probes = {
            "ranked": SummaryProbe(summary, 0),
            "lone": lambda config: -1,
            "seven": SummaryProbe(summary, 1),
        }
        collector = MetricsCollector(probes, interval=5)
        config = simple_config(3)
        collector.record(0, config)
        collector.record(5, config)
        assert len(calls) == 2
        assert [collector.get(name).values for name in probes] == [
            [3.0, 3.0], [-1.0, -1.0], [7.0, 7.0]
        ]
        # Called on its own, a summary probe evaluates its summary.
        assert probes["seven"](config) == 7.0 and len(calls) == 3

    def test_probes_added_to_the_standard_dict_are_recorded(self):
        probes = standard_ranking_probes()
        probes["phase_agents"] = lambda config: len(config.phase_values())
        del probes["average_phase"]
        collector = MetricsCollector(probes, interval=1)
        config = simple_config(2, phases=(3, 5, 8))
        collector.record(0, config)
        assert {name: series.values for name, series in collector.series.items()} == {
            "ranked_agents": [2.0], "duplicate_ranks": [0.0], "phase_agents": [3.0],
        }
