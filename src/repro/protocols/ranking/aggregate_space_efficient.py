"""Exact event-driven simulation of ``SpaceEfficientRanking``.

The paper's Figure 3 measures, for populations up to ``n = 8192`` and 100
repetitions per size, how many interactions it takes to rank constant
fractions of the agents.  Simulating each of the ``Θ(n²)`` interactions
individually in Python is out of reach at that scale, but almost all of those
interactions are no-ops: the protocol only changes state when the (unaware or
waiting) leader, a lagging phase agent, or a still-unconverted
leader-electing agent is involved.

:class:`AggregateSpaceEfficientRanking` therefore simulates the *same
stochastic process* on group counts (see
:class:`~repro.core.aggregate.EventDrivenSimulator`): it tracks the number of
unconverted leader-electing agents, the number of phase agents per phase
value, the leader's mode (holding a rank or waiting) and the set of assigned
ranks, and enumerates every productive ordered-pair class together with its
exact probability weight.  Runs of no-op interactions are skipped with
geometrically distributed waiting times, so a full execution costs ``O(n)``
events instead of ``Θ(n² log n)`` interactions.

:meth:`~AggregateSpaceEfficientRanking.event_weights` and
:meth:`~AggregateSpaceEfficientRanking.apply_event` are the readable
specification of that process.  ``run`` executes it through a fused loop
(:meth:`~AggregateSpaceEfficientRanking._fused_events`) that computes the
total weight in closed form and applies events inline; it picks the same
classes from the same uniform draws, so its results are bit-identical
(see ``docs/engines.md``).

Two deliberate simplifications versus the agent-level reference.  The
only test that compares the two is a mean check of the 50% milestone at
n = 64, within three standard errors plus 10%
(``tests/protocols/test_aggregate_space_efficient.py``,
``TestCrossValidationAgainstReference``); no distribution test backs them
yet:

* interactions between two still-unconverted leader-electing agents are
  treated as no-ops (their internal leader-election dynamics cannot elect a
  second leader before the conversion epidemic absorbs them, w.h.p.);
* the vanishing-probability path in which a stale ranked agent assigns a
  duplicate rank to a phase agent whose phase lags several phases behind is
  not modeled (it requires an unconverted agent to survive ``Θ(n²)``
  interactions, while conversion completes within ``O(n log n)`` w.h.p.).
  Concretely, assignment events are only offered while the candidate rank
  ``f_{k+1} + leader_rank`` is still unassigned; a leader meeting a lagging
  phase agent after that rank was handed out is treated as a no-op instead
  of producing an unrepresentable duplicate.  Without this gate the
  duplicate would be silently merged into the assigned-rank set and an
  agent would vanish from the aggregate bookkeeping.
"""

from __future__ import annotations

from math import ceil, log1p
from typing import Dict

from ...core.aggregate import EventDrivenSimulator
from ...core.errors import ConfigurationError, SimulationLimitExceeded
from ...core.rng import RandomState
from .phases import PhaseSchedule, wait_count_init

__all__ = ["AggregateSpaceEfficientRanking"]


class AggregateSpaceEfficientRanking(EventDrivenSimulator):
    """Event-driven simulation of ``SpaceEfficientRanking``.

    The default initial configuration is the one used by the paper's
    Figure 3: one unaware leader already holding rank 1 and all other agents
    still in a leader-election state.

    Parameters
    ----------
    n:
        Population size.
    c_wait:
        Wait-counter constant (default 2, as in the paper's simulations).
    random_state:
        Seed or generator.
    """

    def __init__(self, n: int, c_wait: float = 2.0, random_state: RandomState = None):
        super().__init__(n, random_state)
        self._schedule = PhaseSchedule(n)
        self._wait_init = wait_count_init(n, c_wait)

        # Precomputed schedule tables: the event loop runs ~3n times per
        # execution, so per-event schedule method calls would dominate.
        phase_count = self._schedule.phase_count
        self._phase_limit = phase_count
        self._f = [0] * (phase_count + 2)
        for phase in range(1, phase_count + 2):
            self._f[phase] = self._schedule.f(phase)
        self._rpp = [0] * (phase_count + 1)
        for phase in range(1, phase_count + 1):
            self._rpp[phase] = self._schedule.ranks_per_phase(phase)

        # Figure 3 initial configuration.
        self._unconverted = n - 1
        self._phase_counts: Dict[int, int] = {}
        self._total_phase = 0
        self._leader_mode = "rank"
        self._leader_rank = 1
        self._leader_wait = 0
        self._assigned: set[int] = set()

    # ------------------------------------------------------------------
    # Alternative initial configurations
    # ------------------------------------------------------------------
    @classmethod
    def from_start_ranking(
        cls, n: int, c_wait: float = 2.0, random_state: RandomState = None
    ) -> "AggregateSpaceEfficientRanking":
        """Start from ``C_SR``: a waiting leader and ``n - 1`` phase-1 agents."""
        simulator = cls(n, c_wait=c_wait, random_state=random_state)
        simulator._unconverted = 0
        simulator._phase_counts = {1: n - 1}
        simulator._total_phase = n - 1
        simulator._leader_mode = "wait"
        simulator._leader_wait = simulator._wait_init
        simulator._leader_rank = 0
        simulator._assigned = set()
        return simulator

    # ------------------------------------------------------------------
    # Aggregate state accessors
    # ------------------------------------------------------------------
    @property
    def schedule(self) -> PhaseSchedule:
        """The phase schedule."""
        return self._schedule

    @property
    def phase_counts(self) -> Dict[int, int]:
        """Number of phase agents per phase value (copy)."""
        return dict(self._phase_counts)

    @property
    def unconverted(self) -> int:
        """Number of agents still in a leader-election state."""
        return self._unconverted

    @property
    def leader_mode(self) -> str:
        """``"rank"`` while the leader holds a rank, ``"wait"`` while waiting."""
        return self._leader_mode

    def ranked_count(self) -> int:
        """Number of ranked agents (including the leader when it holds a rank)."""
        return len(self._assigned) + (1 if self._leader_mode == "rank" else 0)

    def ranked_fraction(self) -> float:
        """Fraction of agents currently holding a rank."""
        return self.ranked_count() / self.n

    def is_done(self) -> bool:
        return len(self._assigned) + (self._leader_mode == "rank") == self._n

    # ------------------------------------------------------------------
    # Event decomposition
    # ------------------------------------------------------------------
    def event_weights(self) -> Dict[str, float]:
        weights: Dict[str, float] = {}
        phase_counts = self._phase_counts
        unconverted = self._unconverted
        assigned = self._assigned
        f = self._f
        phase_limit = self._phase_limit

        leader_ranked = self._leader_mode == "rank"
        rank = self._leader_rank if leader_ranked and self._leader_rank >= 1 else 0
        if leader_ranked:
            if unconverted:
                weights["convert_by_leader"] = unconverted
        else:  # waiting leader
            if self._total_phase:
                weights["wait_tick"] = self._total_phase
            if unconverted:
                weights["convert_by_waiting"] = unconverted

        # One fused pass over the phase groups: the leader assigning to a
        # phase-k agent, a phase-k agent meeting the holder of rank f_k
        # (advancing its phase), and a leader-electing agent converted by a
        # phase-k agent (Protocol 1, lines 7-9).
        rpp = self._rpp
        double_unconverted = 2 * unconverted
        for phase, count in phase_counts.items():
            if (
                rank
                and phase <= phase_limit
                and rank <= rpp[phase]
                and f[phase + 1] + rank not in assigned
            ):
                weights[f"assign:{phase}"] = count
            if phase < phase_limit and f[phase] in assigned:
                weights[f"bump:{phase}"] = count
            if unconverted:
                weights[f"convert_join:{phase}"] = double_unconverted * count

        # Two phase agents with different phases adopt the maximum.
        if len(phase_counts) > 1:
            phases = sorted(phase_counts)
            for i, low in enumerate(phases):
                count_low = phase_counts[low]
                for high in phases[i + 1:]:
                    weight = 2 * count_low * phase_counts[high]
                    weights[f"merge:{low}:{high}"] = weight

        if unconverted:
            # Conversions by ranked agents and the remaining leader-electing
            # pool, split by the same-interaction follow-up they trigger.
            ranked_others = len(assigned)
            weights["convert_plain"] = unconverted * (ranked_others + 1)
            bumper = 1 if self.n in assigned else 0
            if bumper:
                weights["convert_bumped"] = unconverted * bumper
            remaining = ranked_others - bumper
            if remaining:
                weights["convert_plain_responder"] = unconverted * remaining
        return weights

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    #: Number of phase arguments of each event kind (``"merge:2:3"``).
    _EVENT_ARITY = {"assign": 1, "bump": 1, "merge": 2, "convert_join": 1}

    def apply_event(self, name: str) -> None:
        kind, _, argument = name.partition(":")
        try:
            phases = [int(part) for part in argument.split(":")] if argument else []
        except ValueError:
            phases = None
        # Every phase-argument event involves an agent of each named phase.
        if (
            phases is None
            or len(phases) != self._EVENT_ARITY.get(kind, 0)
            or any(phase not in self._phase_counts for phase in phases)
        ):
            raise ConfigurationError(f"inapplicable aggregate event {name!r}")
        if kind == "assign":
            self._apply_assignment(phases[0])
        elif kind == "bump":
            self._remove_phase_agent(phases[0])
            self._add_phase_agent(phases[0] + 1)
        elif kind == "merge":
            self._remove_phase_agent(phases[0])
            self._add_phase_agent(phases[1])
        elif kind == "convert_join":
            self._unconverted -= 1
            self._add_phase_agent(phases[0])
        elif name == "wait_tick":
            self._tick_wait()
        elif name == "convert_by_leader":
            self._unconverted -= 1
            self._follow_up_leader_meets_new_phase_agent()
        elif name == "convert_by_waiting":
            self._unconverted -= 1
            self._add_phase_agent(1)
            self._tick_wait()
        elif name in ("convert_plain", "convert_plain_responder"):
            self._unconverted -= 1
            self._add_phase_agent(1)
        elif name == "convert_bumped":
            self._unconverted -= 1
            self._add_phase_agent(2)
        else:
            raise ConfigurationError(f"unknown aggregate event {name!r}")

    # ------------------------------------------------------------------
    # Internal state updates
    # ------------------------------------------------------------------
    def _add_phase_agent(self, phase: int) -> None:
        if phase > self._phase_limit:
            phase = self._phase_limit
        self._phase_counts[phase] = self._phase_counts.get(phase, 0) + 1
        self._total_phase += 1

    def _remove_phase_agent(self, phase: int) -> None:
        count = self._phase_counts.get(phase, 0)
        if count <= 0:
            raise ConfigurationError(f"no phase-{phase} agents to remove")
        if count == 1:
            del self._phase_counts[phase]
        else:
            self._phase_counts[phase] = count - 1
        self._total_phase -= 1

    def _tick_wait(self) -> None:
        self._leader_wait -= 1
        if self._leader_wait <= 0:
            self._leader_mode = "rank"
            self._leader_rank = 1

    def _apply_assignment(self, phase: int) -> None:
        """The unaware leader assigns the next rank of ``phase`` (lines 4-9)."""
        boundary = self._rpp[phase]
        assigned_rank = self._f[phase + 1] + self._leader_rank
        if assigned_rank in self._assigned:  # pragma: no cover - guarded by event_weights
            raise ConfigurationError(
                f"rank {assigned_rank} would be assigned twice (phase {phase})"
            )
        self._remove_phase_agent(phase)
        self._assigned.add(assigned_rank)
        if self._leader_rank < boundary:
            self._leader_rank += 1
        elif phase < self._phase_limit:
            self._leader_mode = "wait"
            self._leader_wait = self._wait_init
            self._leader_rank = 0
        # In the final phase the leader keeps its rank and the run finishes.

    def _follow_up_leader_meets_new_phase_agent(self) -> None:
        """A converted agent (phase 1) immediately interacts with the leader.

        Protocol 1 runs ``Ranking(u, v)`` in the same interaction after the
        conversion of lines 7-9, so when the leader initiated the conversion
        it may directly assign a rank to the fresh phase-1 agent.
        """
        boundary = self._rpp[1]
        rank = self._leader_rank
        if 1 <= rank <= boundary and self._f[2] + rank not in self._assigned:
            self._assigned.add(self._f[2] + rank)
            if rank < boundary:
                self._leader_rank += 1
            elif self._phase_limit > 1:
                self._leader_mode = "wait"
                self._leader_wait = self._wait_init
                self._leader_rank = 0
        else:
            self._add_phase_agent(1)

    # ------------------------------------------------------------------
    # Fused event loop (the production path behind ``run``)
    # ------------------------------------------------------------------
    def _event_loop(self, budget_end, milestones, reached) -> None:
        pending = [
            (name, predicate)
            for name, predicate in milestones.items()
            if name not in reached
        ]
        if all(
            isinstance(predicate, _RankedAtLeast) and predicate.simulator is self
            for _, predicate in pending
        ):
            self._fused_events(
                budget_end,
                [(name, predicate.count) for name, predicate in pending],
                reached,
            )
        else:
            # Arbitrary predicates read the live state after every event,
            # which the specification loop provides on the same trajectory.
            super()._event_loop(budget_end, milestones, reached)

    def _fused_events(
        self, budget_end: int, thresholds: list, reached: Dict[str, int]
    ) -> None:
        """Apply events with the state in locals until done or stopped.

        Samples exactly what :meth:`step_event` samples — same class order,
        same uniform draws — but computes the total weight in closed form and
        applies the chosen event inline.  ``thresholds`` lists
        ``(milestone name, ranked count)`` pairs, recorded in order as the
        ranked counter reaches them.  Stops when done, on a dead
        configuration, or when a waiting time is clamped at ``budget_end``.
        """
        n = self._n
        total_pairs = self._total_pairs
        counts = self._phase_counts
        assigned = self._assigned
        f = self._f
        rpp = self._rpp
        limit = self._phase_limit
        wait_init = self._wait_init
        rng = self._rng
        batch = self._UNIFORM_BATCH

        unconverted = self._unconverted
        total_phase = self._total_phase
        leader_ranked = self._leader_mode == "rank"
        rank = self._leader_rank
        wait = self._leader_wait
        interactions = self._interactions
        events = self._events
        uniforms = self._uniforms
        pos = self._uniform_pos
        ranked = len(assigned) + leader_ranked
        next_milestone = min((count for _, count in thresholds), default=n + 1)
        try:
            while ranked != n and interactions < budget_end:
                # Class weights in event_weights() order: leader classes,
                # then per phase (assign, bump, convert_join), then merges,
                # then the conversions by ranked agents.
                live = rank if leader_ranked and rank >= 1 else 0
                assign_bump = 0
                square_sum = 0
                for phase, count in counts.items():
                    square_sum += count * count
                    if (live and phase <= limit and live <= rpp[phase]
                            and f[phase + 1] + live not in assigned):
                        assign_bump += count
                    if phase < limit and f[phase] in assigned:
                        assign_bump += count
                # Closed forms: convert_join sums to 2u·total_phase, merges
                # to total_phase² − Σ c_p², the conversions by ranked agents
                # to u·(|assigned| + 1) + u·|assigned|.
                leader_end = unconverted
                if not leader_ranked:
                    leader_end += total_phase
                phase_end = leader_end + assign_bump + 2 * unconverted * total_phase
                merge_end = phase_end + total_phase * total_phase - square_sum
                total = merge_end + unconverted * (2 * len(assigned) + 1)
                if not total:
                    break
                success_probability = total / total_pairs
                if success_probability > 1.0:
                    raise SimulationLimitExceeded(
                        "event weights exceed the number of ordered pairs "
                        f"({float(total)} > {total_pairs}); "
                        "the event decomposition is inconsistent"
                    )
                if pos + 2 > len(uniforms):
                    uniforms = rng.random(batch).tolist()
                    pos = 0
                if success_probability >= 1.0:
                    waiting = 1
                else:
                    waiting = 1 + int(
                        log1p(-uniforms[pos]) / log1p(-success_probability)
                    )
                    pos += 1
                if interactions + waiting > budget_end:
                    interactions = budget_end
                    break
                interactions += waiting
                threshold = uniforms[pos] * total
                pos += 1
                if threshold >= total:
                    # Every weight is a positive integer, so this lands in
                    # the last positive class, as in step_event.
                    threshold = total - 0.5

                # Apply the chosen class: the leader may assign a rank to a
                # phase agent of ``assign_phase``, one phase agent leaves
                # ``drop`` and one enters ``grow`` (0 = none).
                assign_phase = drop = grow = 0
                if threshold < leader_end:
                    if leader_ranked:  # convert_by_leader
                        unconverted -= 1
                        if (1 <= rank <= rpp[1]
                                and f[2] + rank not in assigned):
                            assign_phase = 1
                        else:
                            grow = 1
                    else:
                        if threshold >= total_phase:  # convert_by_waiting
                            unconverted -= 1
                            grow = 1
                        wait -= 1  # wait_tick
                        if wait <= 0:
                            leader_ranked = True
                            ranked += 1
                            rank = 1
                elif threshold < phase_end:
                    cumulative = leader_end
                    join_weight = 2 * unconverted
                    for phase, count in counts.items():
                        if (live and phase <= limit and live <= rpp[phase]
                                and f[phase + 1] + live not in assigned):
                            cumulative += count
                            if threshold < cumulative:
                                assign_phase = drop = phase
                                break
                        if phase < limit and f[phase] in assigned:
                            cumulative += count
                            if threshold < cumulative:  # bump
                                drop = phase
                                grow = phase + 1
                                break
                        cumulative += join_weight * count
                        if threshold < cumulative:  # convert_join
                            unconverted -= 1
                            grow = phase
                            break
                elif threshold < merge_end:
                    cumulative = phase_end
                    phases = sorted(counts)
                    for index, low in enumerate(phases):
                        double_low = 2 * counts[low]
                        for high in phases[index + 1:]:
                            cumulative += double_low * counts[high]
                            if threshold < cumulative:
                                drop = low
                                grow = high
                                break
                        if drop:
                            break
                else:
                    # convert_plain, convert_bumped, convert_plain_responder:
                    # only the bumped conversion lands in phase 2.
                    plain_end = merge_end + unconverted * (len(assigned) + 1)
                    bumped = (n in assigned
                              and plain_end <= threshold < plain_end + unconverted)
                    grow = 2 if bumped else 1
                    unconverted -= 1

                if assign_phase:
                    new_rank = f[assign_phase + 1] + rank
                    if new_rank in assigned:  # pragma: no cover - weights guard it
                        raise ConfigurationError(
                            f"rank {new_rank} would be assigned twice "
                            f"(phase {assign_phase})"
                        )
                    assigned.add(new_rank)
                    ranked += 1
                    if rank < rpp[assign_phase]:
                        rank += 1
                    elif assign_phase < limit:
                        leader_ranked = False
                        ranked -= 1
                        wait = wait_init
                        rank = 0
                if drop:
                    count = counts.get(drop, 0)
                    if count == 1:
                        del counts[drop]
                    elif count > 1:
                        counts[drop] = count - 1
                    else:  # pragma: no cover - guarded by the weights
                        raise ConfigurationError(f"no phase-{drop} agents to remove")
                    total_phase -= 1
                if grow:
                    if grow > limit:
                        grow = limit
                    counts[grow] = counts.get(grow, 0) + 1
                    total_phase += 1
                events += 1

                if ranked >= next_milestone:
                    for name, count in thresholds:
                        if name not in reached and ranked >= count:
                            reached[name] = interactions
                    next_milestone = min(
                        (count for name, count in thresholds if name not in reached),
                        default=n + 1,
                    )
        finally:
            self._unconverted = unconverted
            self._total_phase = total_phase
            self._leader_mode = "rank" if leader_ranked else "wait"
            self._leader_rank = rank
            self._leader_wait = wait
            self._interactions = interactions
            self._events = events
            self._uniforms = uniforms
            self._uniform_pos = pos

    # ------------------------------------------------------------------
    # Convenience for experiments
    # ------------------------------------------------------------------
    def milestone_predicates(self, fractions) -> Dict[str, object]:
        """Milestone predicates "at least ``fraction`` of the agents ranked".

        Each predicate is a plain callable; the fused event loop reads its
        integer threshold instead of calling it after every event.
        """
        return {
            f"ranked_{fraction}": _RankedAtLeast(self, ceil(fraction * self.n))
            for fraction in fractions
        }


class _RankedAtLeast:
    """Milestone predicate "at least ``count`` agents of ``simulator`` ranked".

    ``ranked_count() >= fraction * n`` holds exactly when the integer
    ranked count reaches ``ceil(fraction * n)``, so ``count`` is that
    ceiling.
    """

    __slots__ = ("simulator", "count")

    def __init__(self, simulator: AggregateSpaceEfficientRanking, count: int):
        self.simulator = simulator
        self.count = count

    def __call__(self) -> bool:
        return self.simulator.ranked_count() >= self.count
