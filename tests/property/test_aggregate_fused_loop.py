"""Differential test: the aggregate engine's regime loops ≡ its specification.

``AggregateSpaceEfficientRanking.run`` applies events through one tight
loop per event regime (conversion, assignment, hand-over) that keeps the
state in locals, and through ``step_event`` outside them.
``event_weights`` / ``step_event`` / ``apply_event`` remain the readable
specification of the same process.  For any population, start, budget and
milestone set, both must leave the same result, the same aggregate state
and the same uniform cursor.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregate import AggregateResult, EventDrivenSimulator
from repro.protocols.ranking.aggregate_space_efficient import (
    AggregateSpaceEfficientRanking,
)


def specification_run(engine, max_interactions, milestones, applied=None):
    """``run`` written against the specification: one ``step_event`` at a time.

    ``applied`` (a list), when given, collects the applied event names.
    """
    reached = {}
    budget_end = engine.interactions + max_interactions

    def check():
        for name, predicate in milestones.items():
            if name not in reached and predicate():
                reached[name] = engine.interactions

    check()
    while not engine.is_done() and engine.interactions < budget_end:
        name = engine.step_event(limit=budget_end)
        if name is None:
            break
        if applied is not None:
            applied.append(name)
        check()
    return AggregateResult(
        converged=engine.is_done(),
        interactions=engine.interactions,
        events=engine.events,
        milestones=reached,
    )


def snapshot(engine):
    """Every piece of state the next event depends on, in comparable form."""
    return (
        list(engine._phase_counts.items()),  # insertion order fixes class order
        engine._total_phase,
        sorted(engine._assigned),
        engine.unconverted,
        engine.leader_mode,
        engine._leader_rank,
        engine._leader_wait,
        engine.interactions,
        engine.events,
        engine._uniform_pos,
        list(engine._uniforms),
    )


def build(n, seed, start):
    if start == "start-ranking":
        return AggregateSpaceEfficientRanking.from_start_ranking(n, random_state=seed)
    return AggregateSpaceEfficientRanking(n, random_state=seed)


def milestones_for(engine, fractions, observed, calls):
    milestones = engine.milestone_predicates(fractions)
    if observed:
        # Non-threshold predicates over the live state, neither monotone
        # nor a ranked-count bound: the fused loop must evaluate them after
        # every event, as the specification does.
        def leader_waiting():
            calls.append(engine.events)
            return engine.leader_mode == "wait"

        milestones["leader_waiting"] = leader_waiting
        milestones["two_phases"] = lambda: len(engine.phase_counts) >= 2
    return milestones


#: Tiny populations reach the rare classes (a conversion bumped to phase 2,
#: a conversion by the waiting leader), so they are drawn often.
populations = st.one_of(
    st.integers(min_value=4, max_value=8), st.integers(min_value=4, max_value=512)
)


@given(
    n=populations,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    start=st.sampled_from(["figure3", "start-ranking"]),
    budget_factor=st.one_of(st.none(), st.floats(min_value=0.0, max_value=8.0)),
    fractions=st.lists(
        st.floats(min_value=0.0, max_value=1.0), max_size=5, unique=True
    ),
    observed=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_fused_run_equals_the_step_event_loop(
    n, seed, start, budget_factor, fractions, observed
):
    budget = 10**12 if budget_factor is None else int(budget_factor * n * n)
    fused, specified = build(n, seed, start), build(n, seed, start)
    fused_calls, specified_calls = [], []

    fused_result = fused.run(
        budget, milestones=milestones_for(fused, fractions, observed, fused_calls)
    )
    specified_result = specification_run(
        specified,
        budget,
        milestones_for(specified, fractions, observed, specified_calls),
    )

    assert fused_result == specified_result
    assert list(fused_result.milestones) == list(specified_result.milestones)
    assert snapshot(fused) == snapshot(specified)
    assert fused_calls == specified_calls


@given(
    n=st.integers(min_value=4, max_value=256),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    start=st.sampled_from(["figure3", "start-ranking"]),
    first_factor=st.floats(min_value=0.0, max_value=4.0),
)
@settings(max_examples=40, deadline=None)
def test_a_clamped_run_resumes_on_the_specification_trajectory(
    n, seed, start, first_factor
):
    """A budget-clamped fused run hands back a state the spec continues from."""
    fused, specified = build(n, seed, start), build(n, seed, start)
    first = int(first_factor * n * n)
    fused.run(first, milestones=fused.milestone_predicates((0.5,)))
    specification_run(specified, first, specified.milestone_predicates((0.5,)))
    assert snapshot(fused) == snapshot(specified)

    # Continue the fused engine with step_event and the specification
    # engine with the fused loop: the trajectories must stay together.
    specification_run(fused, 10**12, {})
    specified.run(10**12)
    assert snapshot(fused) == snapshot(specified)
    assert fused.is_done()


def test_rare_event_classes_are_covered():
    """Deterministic sweep over the tiny populations that reach every class."""
    applied = []
    for n in (4, 5, 6):
        for seed in range(150):
            fused, specified = build(n, seed, "figure3"), build(n, seed, "figure3")
            fused_result = fused.run(
                10**9, milestones=fused.milestone_predicates((0.5, 1.0))
            )
            specified_result = specification_run(
                specified,
                10**9,
                specified.milestone_predicates((0.5, 1.0)),
                applied,
            )
            assert fused_result == specified_result
            assert snapshot(fused) == snapshot(specified)
    kinds = {name.split(":")[0] for name in applied}
    assert kinds >= {
        "convert_by_leader", "convert_by_waiting", "wait_tick", "assign",
        "bump", "merge", "convert_join", "convert_plain", "convert_bumped",
        "convert_plain_responder",
    }


def regime(engine):
    """The regime the next event starts from, read from the public state."""
    phases = len(engine.phase_counts)
    if engine.leader_mode == "rank" and phases == 1:
        return "conversion" if engine.unconverted else "assignment"
    if engine.leader_mode == "wait" and not engine.unconverted and phases in (1, 2):
        return "hand-over"
    return "other"


def event_counts_by_regime(n, seed, start):
    """Each event's interaction count, grouped by the regime it started in."""
    engine = build(n, seed, start)
    counts = {}
    while not engine.is_done():
        state = regime(engine)
        if engine.step_event() is None:
            break
        counts.setdefault(state, []).append(engine.interactions)
    return counts


@pytest.mark.parametrize("start", ["figure3", "start-ranking"])
@pytest.mark.parametrize("n", [8, 64, 512])
def test_budgets_on_and_beside_an_event_in_every_regime(n, start):
    """A budget ending exactly on an event applies it and draws nothing more.

    For a few events of every regime, budgets equal to the event's
    interaction count and one either side must leave the specification's
    result, state and uniform cursor, and both runs must then finish on the
    same trajectory.
    """
    expected = {"assignment", "hand-over"}
    if start == "figure3":
        expected.add("conversion")
    for seed in (0, 1, 2):
        counts = event_counts_by_regime(n, seed, start)
        assert expected <= set(counts)
        for interactions in counts.values():
            stride = max(1, len(interactions) // 3)
            for event_end in interactions[::stride]:
                for budget in (event_end - 1, event_end, event_end + 1):
                    fused, specified = build(n, seed, start), build(n, seed, start)
                    fused_result = fused.run(
                        budget,
                        milestones=fused.milestone_predicates((0.5, 0.9375)),
                    )
                    specified_result = specification_run(
                        specified,
                        budget,
                        specified.milestone_predicates((0.5, 0.9375)),
                    )
                    assert fused_result == specified_result
                    assert snapshot(fused) == snapshot(specified)

                    assert fused.run(10**12) == specification_run(
                        specified, 10**12, {}
                    )
                    assert snapshot(fused) == snapshot(specified)


@given(
    n=populations,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    start=st.sampled_from(["figure3", "start-ranking"]),
    batch=st.sampled_from([7, 65]),
    min_run=st.sampled_from([1, AggregateSpaceEfficientRanking._MIN_RUN]),
    budget_factor=st.one_of(st.none(), st.floats(min_value=0.0, max_value=8.0)),
    fractions=st.lists(
        st.floats(min_value=0.0, max_value=1.0), max_size=5, unique=True
    ),
)
@settings(max_examples=60, deadline=None)
def test_vectorized_runs_across_odd_refills(
    n, seed, start, batch, min_run, budget_factor, fractions
):
    """Odd uniform batches make runs end at a refill and skip the discarded
    last uniform; a minimum run of 1 vectorizes every run it can."""
    budget = 10**12 if budget_factor is None else int(budget_factor * n * n)
    fused, specified = build(n, seed, start), build(n, seed, start)
    fused._UNIFORM_BATCH = specified._UNIFORM_BATCH = batch
    fused._MIN_RUN = min_run
    fused_result = fused.run(budget, milestones=fused.milestone_predicates(fractions))
    specified_result = specification_run(
        specified, budget, specified.milestone_predicates(fractions)
    )
    assert fused_result == specified_result
    assert list(fused_result.milestones) == list(specified_result.milestones)
    assert snapshot(fused) == snapshot(specified)


def events_by_run_regime(n, seed):
    """``(regime, interactions, ranked count)`` after each figure3 event,
    with the two-phase hand-over told apart from the one-phase one."""
    engine = build(n, seed, "figure3")
    events = []
    while not engine.is_done():
        state = regime(engine)
        if state == "hand-over":
            state += f"-{len(engine.phase_counts)}"
        if engine.step_event() is None:
            break
        events.append((state, engine.interactions, engine.ranked_count()))
    return events


@pytest.mark.parametrize("n, seed", [(1024, 3), (2048, 4)])
def test_stops_and_clamps_inside_vectorized_runs(n, seed, monkeypatch):
    """In each vectorized regime, a budget on (and beside) an event in the
    middle of a run, and a milestone reached there, leave the
    specification's result, state and uniform cursor."""
    cuts = []
    waits_within = EventDrivenSimulator._waits_within

    def recording(self, pos, success, room):
        fits, elapsed = waits_within(self, pos, success, room)
        cuts.append(0 < fits < len(success))
        return fits, elapsed

    monkeypatch.setattr(EventDrivenSimulator, "_waits_within", recording)
    events = events_by_run_regime(n, seed)

    def compare(budget, fractions):
        fused, specified = build(n, seed, "figure3"), build(n, seed, "figure3")
        del cuts[:]
        fused_result = fused.run(
            budget, milestones=fused.milestone_predicates(fractions)
        )
        clamped = any(cuts)
        specified_result = specification_run(
            specified, budget, specified.milestone_predicates(fractions)
        )
        assert fused_result == specified_result
        assert list(fused_result.milestones) == list(specified_result.milestones)
        assert snapshot(fused) == snapshot(specified)
        assert fused.run(10**12) == specification_run(specified, 10**12, {})
        assert snapshot(fused) == snapshot(specified)
        return fused_result, clamped

    for name in ("conversion", "assignment", "hand-over-2"):
        stretch = [event for event in events if event[0] == name]
        _, interactions, ranked = stretch[len(stretch) // 2]
        for budget in (interactions - 1, interactions, interactions + 1):
            _, clamped = compare(budget, (0.5, 0.9375))
            assert clamped, (name, budget)
        # A milestone at that event's ranked count: in the assignment
        # regime it cuts a run in the middle.
        result, _ = compare(10**12, ((ranked - 0.5) / n,))
        assert result.milestones == {f"ranked_{(ranked - 0.5) / n}": min(
            at for _, at, count in events if count >= ranked
        )}
