"""Unit tests for :mod:`repro.core.configuration`."""

import pytest

from repro.core.configuration import Configuration
from repro.core.errors import ConfigurationError
from repro.core.state import AgentState, Role


def ranking(n, missing=None, duplicate=None):
    """Helper building a ranking configuration with optional defects."""
    states = []
    for rank in range(1, n + 1):
        if missing is not None and rank == missing:
            states.append(AgentState(phase=1))
        elif duplicate is not None and rank == duplicate:
            states.append(AgentState(rank=duplicate - 1 if duplicate > 1 else 2))
        else:
            states.append(AgentState(rank=rank))
    return Configuration(states)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            Configuration([])

    def test_uniform_factory(self):
        config = Configuration.uniform(5, AgentState)
        assert len(config) == 5
        assert config.population_size == 5

    def test_uniform_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            Configuration.uniform(0, AgentState)

    def test_of_states(self):
        config = Configuration.of_states(AgentState(rank=i) for i in range(1, 4))
        assert config.ranks() == [1, 2, 3]

    def test_indexing_and_iteration(self):
        config = ranking(4)
        assert config[0].rank == 1
        config[0] = AgentState(rank=9)
        assert config[0].rank == 9
        assert len(list(config)) == 4


class TestRankingQueries:
    def test_valid_ranking(self):
        assert ranking(6).is_valid_ranking()

    def test_missing_rank_is_invalid(self):
        config = ranking(6, missing=3)
        assert not config.is_valid_ranking()
        assert config.ranked_count() == 5
        assert config.unranked_count() == 1

    def test_duplicate_detection(self):
        config = ranking(6, duplicate=4)
        assert config.duplicate_ranks() == [3]
        assert not config.is_valid_ranking()

    def test_leader_index(self):
        config = ranking(5)
        assert config.leader_index() == 0
        config[0].rank = 7
        assert config.leader_index() is None

    def test_assigned_ranks_order(self):
        config = Configuration([AgentState(rank=3), AgentState(), AgentState(rank=1)])
        assert config.assigned_ranks() == [3, 1]


class TestRoleQueries:
    def test_role_counts(self):
        config = Configuration(
            [AgentState(rank=1), AgentState(phase=2), AgentState(phase=3), AgentState(wait_count=1)]
        )
        counts = config.role_counts()
        assert counts[Role.RANKED] == 1
        assert counts[Role.PHASE] == 2
        assert counts[Role.WAITING] == 1

    def test_agents_with_role(self):
        config = Configuration([AgentState(rank=1), AgentState(phase=2)])
        assert config.agents_with_role(Role.PHASE) == [1]

    def test_average_phase(self):
        config = Configuration([AgentState(phase=2), AgentState(phase=4), AgentState(rank=1)])
        assert config.average_phase() == pytest.approx(3.0)

    def test_average_phase_empty(self):
        assert ranking(3).average_phase() == 0.0


class TestCopyAndSummary:
    def test_copy_is_deep_for_agent_states(self):
        config = ranking(3)
        clone = config.copy()
        clone[0].rank = 99
        assert config[0].rank == 1

    def test_summary_contains_core_fields(self):
        summary = ranking(4).summary()
        assert summary["n"] == 4
        assert summary["ranked"] == 4
        assert summary["valid_ranking"] is True
        assert "roles" in summary

    def test_count_where(self):
        config = ranking(5, missing=2)
        assert config.count_where(lambda s: s.phase is not None) == 1


# ----------------------------------------------------------------------
# Ranking probes against their defining formulas
# ----------------------------------------------------------------------
from collections import Counter  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: Random rank vectors: unranked agents (``None``) and ranks drawn from a
#: small range, so duplicates are common.
RANK_VECTORS = st.lists(
    st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    min_size=1, max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(RANK_VECTORS)
def test_ranked_count_and_duplicates_match_their_definitions(ranks):
    config = Configuration(
        [AgentState() if rank is None else AgentState(rank=rank) for rank in ranks]
    )
    assigned = [rank for rank in ranks if rank is not None]
    assert config.ranked_count() == sum(1 for rank in ranks if rank is not None)
    assert config.duplicate_ranks() == sorted(
        rank for rank, count in Counter(assigned).items() if count > 1
    )
    assert config.unranked_count() == len(ranks) - len(assigned)
    # The Figure 2 probes turn both into floats; those must not move.
    assert float(config.ranked_count()) == float(len(assigned))
