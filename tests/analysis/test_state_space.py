"""Tests for the empirical state-space accounting (experiment E4)."""

import math

from repro.analysis.state_space import (
    StateUsageTracker,
    measure_state_usage,
    overhead_state_table,
)
from repro.baselines.cai_ranking import CaiRanking
from repro.core.configuration import Configuration
from repro.core.state import AgentState
from repro.protocols.ranking.space_efficient import SpaceEfficientRanking
from repro.protocols.ranking.stable_ranking import StableRanking


class TestStateUsageTracker:
    def test_initial_configuration_is_recorded(self):
        config = Configuration([AgentState(rank=1), AgentState(rank=2), AgentState(rank=2)])
        tracker = StateUsageTracker(config)
        assert tracker.total_states == 2  # ranks 1 and 2 (deduplicated)
        assert tracker.rank_state_count == 2
        assert tracker.overhead_state_count == 0

    def test_non_rank_states_count_as_overhead(self):
        config = Configuration([AgentState(rank=1), AgentState(phase=1, coin=0)])
        tracker = StateUsageTracker(config)
        assert tracker.overhead_state_count == 1

    def test_ignore_fields_collapses_states(self):
        config = Configuration(
            [AgentState(leader_done=0, le_level=1), AgentState(leader_done=0, le_level=2)]
        )
        assert StateUsageTracker(config).total_states == 2
        assert StateUsageTracker(config, ignore_fields=("le_level",)).total_states == 1

    def test_on_event_records_new_states(self):
        config = Configuration([AgentState(rank=1), AgentState(rank=2)])
        tracker = StateUsageTracker(config)
        config[1].rank = 3
        tracker.on_event(1, 0, 1, None)
        assert tracker.total_states == 3


class TestMeasureStateUsage:
    def test_space_efficient_ranking_layer_overhead_is_logarithmic(self):
        n = 64
        report = measure_state_usage(
            SpaceEfficientRanking(n),
            max_interactions=400 * n * n,
            random_state=0,
            ignore_fields=("le_level", "le_count"),
        )
        assert report.converged
        assert report.rank_states == n
        assert report.overhead_states <= 8 * math.ceil(math.log2(n))

    def test_cai_uses_exactly_n_states(self):
        n = 16
        report = measure_state_usage(CaiRanking(n), max_interactions=50 * n**3, random_state=1)
        assert report.converged
        assert report.total_states == n
        assert report.overhead_states == 0

    def test_stable_ranking_overhead_grows_polylogarithmically(self):
        reports = {}
        for n in (16, 64):
            reports[n] = measure_state_usage(
                StableRanking(n), max_interactions=3000 * n * n, random_state=2
            )
            assert reports[n].converged
        growth = reports[64].overhead_states / max(reports[16].overhead_states, 1)
        assert growth < 64 / 16  # far slower than linear growth in n
        # ...yet well above the non-self-stabilizing protocol, which needs
        # only its Θ(log n) ranking layer on top of the n rank states.
        space_efficient = measure_state_usage(
            SpaceEfficientRanking(64),
            max_interactions=600 * 64 * 64,
            random_state=1,
            ignore_fields=("le_level", "le_count"),
        )
        assert space_efficient.converged
        assert space_efficient.overhead_states < reports[64].overhead_states


class TestOverheadTable:
    def test_table_rows_and_ordering(self):
        rows = overhead_state_table([64, 1024, 65536])
        assert len(rows) == 3
        for row in rows:
            assert row["cai_ranking"] == 0
            assert row["space_efficient_ranking"] < row["stable_ranking"]
            assert row["stable_ranking"] < row["burman_style_ranking"]
        # Exponential improvement over the Burman-style baseline at large n.
        largest = rows[-1]
        assert largest["burman_style_ranking"] / largest["stable_ranking"] > 10
