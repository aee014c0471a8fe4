"""Cross-engine differential matrix under restricted topologies.

The acceptance matrix for the topology subsystem: for three protocols,
across ring / grid2d / power_law / delayed, at population sizes 2, 16
and 64, every capable trajectory engine (reference and array) produces
bit-identical runs from the same seed.  The runs are budget-capped, not
convergence-gated: the ranking protocols rely on complete-graph mixing
and legitimately do not stabilize on a restricted graph, but their
trajectories must still agree to the bit.
"""

import pytest

from harness.differential import assert_matches_reference
from repro.baselines.cai_ranking import CaiRanking
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking.stable_ranking import StableRanking
from repro.topologies import build_topology

PROTOCOLS = {
    "epidemic": OneWayEpidemicProtocol,
    "stable-ranking": StableRanking,
    "cai": CaiRanking,
}

SEEDS = (0, 1, 3)


def _build(family: str, n: int):
    # power_law needs n > m: drop to the m=1 tree at the degenerate n=2.
    if family == "power_law" and n <= 2:
        return build_topology(family, n, {"m": 1})
    return build_topology(family, n)


class TestTopologyTrajectoryMatrix:
    @pytest.mark.parametrize("family", ["ring", "grid2d", "power_law", "delayed"])
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_fixed_budget_bit_identity(self, protocol, family, n):
        budget = 10 * n * n if n > 2 else 400
        assert_matches_reference(
            PROTOCOLS[protocol],
            n,
            SEEDS,
            budget=budget,
            stop_on_convergence=False,
            topology=_build(family, n),
        )

    @pytest.mark.parametrize("family", ["ring", "grid2d", "power_law"])
    def test_epidemic_convergence_stop_bit_identity(self, family):
        # The epidemic does complete on every connected topology, so the
        # convergence-stop decision itself (which interaction the engines
        # stop on) is also pinned across engines.
        n = 16
        results = assert_matches_reference(
            OneWayEpidemicProtocol,
            n,
            SEEDS,
            budget=200 * n * n,
            topology=_build(family, n),
        )
        assert all(t.converged for t in results["reference"])

    def test_complete_topology_object_matches_no_topology(self):
        # Passing the explicit complete topology must not perturb the
        # stream: the run is bit-identical to the default scheduler path.
        n = 16
        plain = assert_matches_reference(
            StableRanking, n, SEEDS, budget=5 * n * n,
            stop_on_convergence=False,
        )
        routed = assert_matches_reference(
            StableRanking, n, SEEDS, budget=5 * n * n,
            stop_on_convergence=False,
            topology=build_topology("complete", n),
        )
        assert plain["reference"] == routed["reference"]
