"""The shared transition results stay at their default field values.

``StableRanking``, ``Ranking+`` and the ``Ranking`` rules return shared
module-level instances for their common outcomes instead of allocating one
per interaction.  That is only sound while no caller assigns to a result's
fields, so these tests drive the protocols through the reference engine,
keep every result an ``on_event`` hook sees, and then check the shared
instances against freshly built defaults.
"""

import pytest

from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.core.protocol import CHANGED, NOOP, TransitionResult
from repro.core.simulation import Simulator
from repro.experiments.workloads import adversarial_configuration
from repro.protocols.ranking import ranking_plus, rules
from repro.protocols.ranking.space_efficient import SpaceEfficientRanking
from repro.protocols.ranking.stable_ranking import StableRanking

INTERACTIONS = 20_000


def _shared_defaults():
    return [
        (NOOP, TransitionResult()),
        (CHANGED, TransitionResult(changed=True)),
        (ranking_plus.UNCHANGED, ranking_plus.RankingPlusOutcome()),
        (ranking_plus.CHANGED, ranking_plus.RankingPlusOutcome(changed=True)),
        (rules.UNCHANGED, rules.RankingOutcome()),
    ]


def _configuration(name, protocol):
    if name == "stable-adversarial":
        return adversarial_configuration(protocol, random_state=5)
    return protocol.initial_configuration()


@pytest.mark.parametrize(
    "name,protocol_class",
    [
        ("stable-adversarial", StableRanking),
        ("burman-fresh", BurmanStyleRanking),
        ("space-efficient-fresh", SpaceEfficientRanking),
    ],
)
def test_shared_results_are_never_mutated(name, protocol_class):
    protocol = protocol_class(16)
    kept = []
    simulator = Simulator(
        protocol,
        _configuration(name, protocol),
        random_state=7,
        on_event=lambda interaction, i, j, result: kept.append(result),
    )
    simulator.run(INTERACTIONS, stop_on_convergence=False)
    assert len(kept) > 0
    for shared, default in _shared_defaults():
        assert shared == default


def test_stable_ranking_reports_changes_through_the_shared_instance():
    protocol = StableRanking(16)
    kept = []
    simulator = Simulator(
        protocol,
        adversarial_configuration(protocol, random_state=5),
        random_state=7,
        on_event=lambda interaction, i, j, result: kept.append(result),
    )
    simulator.run(INTERACTIONS, stop_on_convergence=False)
    shared = sum(result is CHANGED for result in kept)
    allocated = [result for result in kept if result is not CHANGED]
    assert shared > 0
    # Only rank assignments and resets get a result of their own.
    assert allocated
    assert all(
        result.rank_assigned is not None or result.reset_triggered
        for result in allocated
    )
