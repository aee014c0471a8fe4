"""Persisted-warm runs are bit-identical to cold runs, as a property.

The table store's headline claim is that it changes *when* transition
tables are computed, never *what* trajectories an engine produces.  This
suite states that as a property over protocols × seeds for each backend
family that persists through the store:

* ``array`` (serial, lazy mode): a fresh cache pointed at a
  populated store replays bit-identically to a plain cold cache, and a
  seed group sharing one warm cache matches the cold group and the
  reference seed by seed;
* ``group``: a :class:`GroupTransitionModel` restored from its persisted
  snapshot samples the exact event sequence of the model that wrote it.

Budgets stay small — the property is about key remapping, probe-class
recomputation and snapshot replay ordering, not throughput.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness.differential import assert_identical, run_serial
from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.core.array_engine import EngineCache
from repro.core.group_engine import GroupCountSimulator, GroupTransitionModel
from repro.core.table_store import TableStore
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking.stable_ranking import StableRanking

#: Large (StableRanking, Burman) and small (epidemic) state spaces.
PROTOCOLS = [StableRanking, OneWayEpidemicProtocol, BurmanStyleRanking]

protocol_indices = st.integers(min_value=0, max_value=len(PROTOCOLS) - 1)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
seed_lists = st.lists(seeds, min_size=1, max_size=4)


@settings(max_examples=10, deadline=None)
@given(index=protocol_indices, seed=seeds)
def test_serial_store_warm_matches_cold(tmp_path_factory, index, seed):
    factory = PROTOCOLS[index]
    n = 24
    budget = 60 * n * n
    store = tmp_path_factory.mktemp("tables")

    writer = EngineCache(persist_dir=store)
    cold = run_serial("array", factory, n, seed, budget=budget, cache=writer)
    writer.spill()

    warm = run_serial(
        "array", factory, n, seed, budget=budget,
        cache=EngineCache(persist_dir=store),
    )
    assert_identical(
        cold, warm, context=f"{factory.__name__} seed={seed}"
    )



@settings(max_examples=8, deadline=None)
@given(index=protocol_indices, group=seed_lists)
def test_seed_group_through_one_warm_cache_matches_cold_and_reference(
    tmp_path_factory, index, group
):
    # A study shares one cache per variant across its seeds: a seed group
    # replayed through a single store-warm cache must match the cold
    # group seed by seed, and the reference run of each seed.
    factory = PROTOCOLS[index]
    n = 24
    budget = 40 * n * n
    store = tmp_path_factory.mktemp("tables")

    writer = EngineCache(persist_dir=store)
    cold = [
        run_serial("array", factory, n, seed, budget=budget, cache=writer)
        for seed in group
    ]
    writer.spill()

    warm_cache = EngineCache(persist_dir=store)
    for seed, cold_run in zip(group, cold):
        warm = run_serial(
            "array", factory, n, seed, budget=budget, cache=warm_cache
        )
        assert_identical(
            cold_run, warm, context=f"{factory.__name__} warm seed={seed}"
        )
        anchor = run_serial("reference", factory, n, seed, budget=budget)
        assert_identical(
            anchor, warm, context=f"{factory.__name__} reference seed={seed}"
        )


def _run_group(protocol, seed, model):
    simulator = GroupCountSimulator(
        protocol,
        state_counts=protocol.count_profile(),
        model=model,
        random_state=np.random.default_rng(seed),
    )
    n = protocol.n
    outcome = simulator.run(max_interactions=50 * n * n)
    return (
        bool(outcome.converged),
        int(outcome.interactions),
        int(outcome.events),
        int(outcome.distinct_states),
    )


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_group_model_snapshot_replays_exactly(tmp_path_factory, seed):
    n = 256
    store = TableStore(tmp_path_factory.mktemp("tables"))

    protocol = OneWayEpidemicProtocol(n)
    model = GroupTransitionModel(protocol)
    cold = _run_group(protocol, seed, model)
    entry = store.entry_for(protocol)
    assert entry.write_group_model(*model.snapshot())

    replay_protocol = OneWayEpidemicProtocol(n)
    snapshot = store.entry_for(replay_protocol).load_group_model()
    assert snapshot is not None
    restored = GroupTransitionModel.from_snapshot(replay_protocol, *snapshot)
    assert restored.tabulated_states == model.tabulated_states
    warm = _run_group(replay_protocol, seed, restored)
    assert warm == cold
