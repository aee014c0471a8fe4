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
specification of that process.  ``run`` executes it through one tight loop
per *event regime*, the three kinds of state a run spends almost all of its
events in:

* (a) conversion — the leader holds a rank, there is one phase, and
  unconverted agents remain (``_conversion_events``);
* (b) assignment — the leader holds a rank, there is one phase, nobody is
  unconverted, and the leader's assignment is the only positive class
  (``_assignment_events``);
* (c) hand-over — the leader waits, nobody is unconverted, and there are
  one or two phases (``_handover_events``).

Inside a regime the state is a few integers, so each loop computes the
class weights and the chosen class in O(1).  Most events of a regime
repeat one effect, so a loop first resolves a *run* of such events with
numpy, from the uniform batch's array: (a) speculates one agent converted
into the current phase per event, (b) knows its run of rank hand-outs up
front, and (c) resolves the two-phase hand-over's shifts by a fixpoint
(``_conversion_run``, ``_handover_run``).  Waits come from
:func:`~repro.core.aggregate.certified_waits`, equal to the scalar
formula bit for bit.  The event that ends a run takes the loop's
single-event body.  A loop returns when its regime ends: the leader's
mode flips, the phase set changes, the unconverted pool empties, the
ranked count reaches the next milestone threshold (or ``n``), or the
budget clamps.  ``run`` then reads the next regime from the state.  Any
other state (tiny ``n``, three phases, a start without phase agents)
takes its next event through ``step_event``.  The loops pick the same
classes from the same uniform draws as ``step_event``, so the results are
bit-identical (see ``docs/engines.md``).

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

import numpy as np

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

    def _leader_starts_waiting(self) -> None:
        """The leader hands out the last rank of its phase and waits."""
        self._leader_mode = "wait"
        self._leader_wait = self._wait_init
        self._leader_rank = 0

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
            self._leader_starts_waiting()
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
                self._leader_starts_waiting()
        else:
            self._add_phase_agent(1)

    # ------------------------------------------------------------------
    # Regime loops (the production path behind ``run``)
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
            self._regime_events(
                budget_end,
                [(name, predicate.count) for name, predicate in pending],
                reached,
            )
        else:
            # Arbitrary predicates read the live state after every event,
            # which the specification loop provides on the same trajectory.
            super()._event_loop(budget_end, milestones, reached)

    def _regime_events(
        self, budget_end: int, thresholds: list, reached: Dict[str, int]
    ) -> None:
        """Run each state's regime loop until done, dead or clamped.

        ``thresholds`` lists ``(milestone name, ranked count)`` pairs.  A
        regime loop returns at the first event that lifts the ranked count
        to ``stop`` (the next threshold, or ``n``), so the milestones it
        crosses are recorded at that event's interaction count, in
        ``thresholds`` order.  States outside the regimes take one
        :meth:`step_event` each.
        """
        n = self._n
        next_milestone = min((count for _, count in thresholds), default=n + 1)
        while True:
            ranked = len(self._assigned) + (self._leader_mode == "rank")
            if ranked >= next_milestone:
                for name, count in thresholds:
                    if name not in reached and ranked >= count:
                        reached[name] = self._interactions
                next_milestone = min(
                    (count for name, count in thresholds if name not in reached),
                    default=n + 1,
                )
            if ranked == n or self._interactions >= budget_end:
                return
            regime = self._regime_loop()
            if regime is not None:
                regime(budget_end, min(next_milestone, n))
            elif self.step_event(limit=budget_end) is None:
                return

    def _regime_loop(self):
        """The loop that runs the current state's regime, or ``None``."""
        counts = self._phase_counts
        if self._leader_mode == "rank":
            if len(counts) != 1:
                return None
            if self._unconverted:
                return self._conversion_events
            # Assignment: the leader's assign class must be the only
            # positive one, so the phase agents' bump class must be closed.
            (phase, _), = counts.items()
            f = self._f
            rank = self._leader_rank
            if (phase <= self._phase_limit
                    and 1 <= rank <= self._rpp[phase]
                    and f[phase + 1] + rank not in self._assigned
                    and not (phase < self._phase_limit
                             and f[phase] in self._assigned)):
                return self._assignment_events
            return None
        if not self._unconverted and 1 <= len(counts) <= 2:
            return self._handover_events
        return None

    def _inconsistent(self, total: int) -> SimulationLimitExceeded:
        return SimulationLimitExceeded(
            "event weights exceed the number of ordered pairs "
            f"({float(total)} > {self._total_pairs}); "
            "the event decomposition is inconsistent"
        )

    def _store_phase(self, phase: int, count: int, drop: int, grow: int) -> None:
        """Write back a one-phase regime's count, then its pending move.

        ``drop`` and ``grow`` (0 = none) are the phases an agent leaves
        and enters in an event that changed the phase set; they go through
        the specification's updates so the dict keeps its insertion order.
        """
        if count:
            self._phase_counts[phase] = count
        else:
            del self._phase_counts[phase]
        self._total_phase = count
        if drop:
            self._remove_phase_agent(drop)
        if grow:
            self._add_phase_agent(grow)

    #: Shortest run of events worth a vectorized pass: shorter runs pay
    #: numpy's per-call cost for too few events.  On perfbench figure3,
    #: 16 is 5% slower and 64 or 128 are within noise (docs/benchmarks.md).
    _MIN_RUN = 32

    @staticmethod
    def _conversion_bounds(unconverted, count, assign_open, bump_open,
                           assigned_count):
        """Regime (a)'s class boundaries, on ints or on arrays of them:
        the ends of ``assign``, ``bump``, ``convert_join`` and
        ``convert_plain``, and the total weight (see
        ``_conversion_events``); ``convert_by_leader`` ends at
        ``unconverted``."""
        assign_end = unconverted + assign_open * count
        bump_end = assign_end + bump_open * count
        join_end = bump_end + 2 * unconverted * count
        plain_end = join_end + unconverted * (assigned_count + 1)
        return (assign_end, bump_end, join_end, plain_end,
                plain_end + unconverted * assigned_count)

    @staticmethod
    def _handover_bounds(ticks, bump_x, bump_y, count_x, count_y):
        """Regime (c)'s class boundaries, on ints or on arrays of them:
        the ends of ``bump:x`` and ``bump:y``, and the total weight (see
        ``_handover_events``); ``wait_tick`` ends at ``ticks``."""
        bump_x_end = ticks + bump_x * count_x
        bump_y_end = bump_x_end + bump_y * count_y
        return bump_x_end, bump_y_end, bump_y_end + 2 * count_x * count_y

    def _conversion_run(self, pos, run, unconverted, count, assign_open,
                        bump_open, assigned_count, phase, bumped_phase, top,
                        room):
        """Regime (a)'s speculated run: ``(events, interactions)``.

        Event ``i`` of the run, if every earlier one converted an agent
        into ``phase``, sees ``unconverted − i`` unconverted agents and
        ``count + i`` phase agents.  The run is the prefix of events whose
        pick lands in such a class, resolved against the budget by
        ``_waits_within``.
        """
        step = np.arange(run)
        u = unconverted - step
        c = count + step
        _, bump_end, join_end, plain_end, total = self._conversion_bounds(
            u, c, assign_open, bump_open, assigned_count
        )
        picks = self._uniform_array[pos + 1:pos + 2 * run:2] * total
        picks = np.where(picks >= total, total - 0.5, picks)
        lands = np.where(
            top & (picks >= plain_end) & (picks < plain_end + u),
            bumped_phase, 1,
        )
        ends = ((picks < bump_end) | ((picks >= join_end) & (lands != phase))
                | (total >= self._total_pairs))
        settled = int(ends.argmax()) if ends.any() else run
        return self._waits_within(pos, total[:settled] / self._total_pairs, room)

    def _handover_run(self, pos, run, count_x, count_y, low_is_x, low, bump_x,
                      bump_y, shift_x, shift_y, ticks, wait, shifting, total,
                      room):
        """Regime (c)'s two-phase run: ``(events, interactions, ticks,
        shifts)``.

        Ticks leave the weights alone and a shift moves one agent from the
        lower phase to the higher, so event ``i``'s classes follow from the
        number ``s_i`` of shifts before it.  ``s`` is resolved by a
        fixpoint, as :class:`OneWayEpidemicKernel` resolves infection
        times: classify every event under a guess of ``s``, recount the
        shifts, and repeat until the count confirms the guess up to the
        first event that ends the run.  A round fixes at least the first
        event the guess got wrong, so the fixpoint exists; from a guess at
        the current shift rate it takes two or three rounds.

        Both phases keep an agent up to that event, so the merge class is
        positive and a pick ``U·total`` that rounds up to ``total`` lands
        in it unclamped; and ``total ≤ 2T + T²/2 < n(n−1)`` (``T < n``,
        ``n > 3``), so every wait is drawn.
        """
        picks = self._uniform_array[pos + 1:pos + 2 * run:2]
        before = np.arange(run) * shifting // total
        while True:
            moved = before if low_is_x else -before
            bump_x_end, bump_y_end, totals = self._handover_bounds(
                ticks, bump_x, bump_y, count_x - moved, count_y + moved
            )
            thresholds = picks * totals
            tick = thresholds < ticks
            shift = thresholds >= bump_y_end
            if shift_x:
                shift |= ~tick & (thresholds < bump_x_end)
            if shift_y:
                shift |= (thresholds >= bump_x_end) & (thresholds < bump_y_end)
            after = np.add.accumulate(shift, dtype=np.int64)
            # The run ends at a bump into a new phase, at the shift that
            # empties the lower phase or at the tick that ends the wait.
            others = ~(tick | shift)
            first = int(others.argmax())
            if not others[first]:
                first = run
            first = min(first, int(after.searchsorted(low)))
            if first and first - after[first - 1] >= wait:
                first = int(tick.nonzero()[0][wait - 1])
            checked = min(first, run - 1)
            if not np.count_nonzero(after[:checked] != before[1:checked + 1]):
                break
            before[1:] = after[:-1]
        fits, elapsed = self._waits_within(
            pos, totals[:first] / self._total_pairs, room
        )
        return (fits, elapsed, int(np.count_nonzero(tick[:fits])),
                int(after[fits - 1]) if fits else 0)

    def _conversion_events(self, budget_end: int, stop: int) -> None:
        """Regime (a): the leader holds a rank, one phase, agents unconverted.

        Class weights, in ``event_weights`` order, with ``u`` unconverted
        agents, ``c`` phase agents and ``a`` assigned ranks::

            convert_by_leader        u
            assign:phase             c    if the leader's next rank is open
            bump:phase               c    if f[phase] is assigned
            convert_join:phase       2u·c
            convert_plain            u·(a + 1)
            convert_bumped           u    if rank n is assigned
            convert_plain_responder  u·(a − [n assigned])

        Ends when no agent is unconverted, the leader starts waiting, the
        phase set changes, the phase empties or the ranked count reaches
        ``stop``.
        """
        total_pairs = self._total_pairs
        f = self._f
        rpp = self._rpp
        limit = self._phase_limit
        n = self._n
        assigned = self._assigned
        bumped_phase = min(2, limit)
        bounds = self._conversion_bounds

        (phase, count), = self._phase_counts.items()
        unconverted = self._unconverted
        rank = self._leader_rank
        interactions = self._interactions
        events = self._events
        uniforms = self._uniforms
        available = len(uniforms)
        pos = self._uniform_pos
        assigned_count = len(assigned)
        ranked = assigned_count + 1
        drop = grow = 0
        # The gates below change only when a rank is assigned.
        assign_open = (phase <= limit and 1 <= rank <= rpp[phase]
                       and f[phase + 1] + rank not in assigned)
        follow_open = 1 <= rank <= rpp[1] and f[2] + rank not in assigned
        bump_open = phase < limit and f[phase] in assigned
        top = n in assigned
        vectorize = True
        while interactions < budget_end:
            assign_end, bump_end, join_end, plain_end, total = bounds(
                unconverted, count, assign_open, bump_open, assigned_count
            )
            # Speculate a run of the dominant effect, one agent converted
            # into this phase: a join, or a conversion landing here.
            settled = 2 * unconverted * count
            if phase == 1:
                settled += unconverted * (2 * assigned_count + 1 - top)
            if phase == bumped_phase:
                settled += unconverted * top
            run = min(unconverted - 1, (available - pos) // 2,
                      2 * total // (total - settled))
            if vectorize and run >= self._MIN_RUN:
                fits, elapsed = self._conversion_run(
                    pos, run, unconverted, count, assign_open, bump_open,
                    assigned_count, phase, bumped_phase, top,
                    budget_end - interactions,
                )
                if fits:
                    interactions += elapsed
                    pos += 2 * fits
                    events += fits
                    unconverted -= fits
                    count += fits
                    # The next event ended the run: it takes the scalar path.
                    vectorize = False
                    continue
            vectorize = True
            success_probability = total / total_pairs
            if pos + 2 > available:
                uniforms = self._refill_uniforms()
                available = len(uniforms)
                pos = 0
            if success_probability < 1.0:
                waiting = 1 + int(
                    log1p(-uniforms[pos]) / log1p(-success_probability)
                )
                pos += 1
            elif success_probability == 1.0:
                waiting = 1
            else:
                raise self._inconsistent(total)
            if interactions + waiting > budget_end:
                interactions = budget_end
                break
            interactions += waiting
            threshold = uniforms[pos] * total
            pos += 1
            if threshold >= total:
                # Every weight is an integer: land in the last positive class.
                threshold = total - 0.5
            events += 1

            if threshold < assign_end:
                # convert_by_leader assigns to the fresh phase-1 agent when
                # it can; otherwise the fresh agent joins phase 1.
                if threshold < unconverted:
                    unconverted -= 1
                    if not follow_open:
                        if phase != 1:
                            grow = 1
                            break
                        count += 1
                        if not unconverted:
                            break
                        continue
                    assign_phase = 1
                else:
                    count -= 1
                    assign_phase = phase
                assigned.add(f[assign_phase + 1] + rank)
                assigned_count += 1
                ranked += 1
                if rank < rpp[assign_phase]:
                    rank += 1
                elif assign_phase < limit:
                    rank = 0
                    self._leader_starts_waiting()
                    break
                if not count or not unconverted or ranked >= stop:
                    break
                assign_open = (phase <= limit and rank <= rpp[phase]
                               and f[phase + 1] + rank not in assigned)
                follow_open = rank <= rpp[1] and f[2] + rank not in assigned
                bump_open = phase < limit and f[phase] in assigned
                top = n in assigned
                continue
            if threshold < bump_end:
                drop = phase
                grow = phase + 1
                break
            if threshold < join_end:
                unconverted -= 1
                count += 1
            else:
                # convert_plain, convert_bumped, convert_plain_responder:
                # only the bumped conversion lands in phase 2.
                grow = 1
                if top and plain_end <= threshold < plain_end + unconverted:
                    grow = min(2, limit)
                unconverted -= 1
                if grow != phase:
                    break
                grow = 0
                count += 1
            if not unconverted:
                break

        self._unconverted = unconverted
        self._leader_rank = rank
        self._interactions = interactions
        self._events = events
        self._uniforms = uniforms
        self._uniform_pos = pos
        self._store_phase(phase, count, drop, grow)

    def _assignment_events(self, budget_end: int, stop: int) -> None:
        """Regime (b): the leader assigns ranks to the only phase's agents.

        ``assign:phase`` is the only positive class, with the phase count
        as its weight, so each event draws its waiting time, skips the
        pick's uniform and hands out the next rank.  Ends when the leader
        starts waiting, the phase empties, the next rank is taken or the
        ranked count reaches ``stop``.
        """
        total_pairs = self._total_pairs
        f = self._f
        limit = self._phase_limit
        assigned = self._assigned

        (phase, count), = self._phase_counts.items()
        base = f[phase + 1]
        boundary = self._rpp[phase]
        rank = self._leader_rank
        interactions = self._interactions
        events = self._events
        uniforms = self._uniforms
        available = len(uniforms)
        pos = self._uniform_pos
        ranked = len(assigned) + 1
        vectorize = True
        while interactions < budget_end:
            # The events before the one that ends the regime: event i
            # hands out rank base + rank + i at weight count − i.
            run = min(boundary - rank, count - 1, stop - ranked - 1,
                      (available - pos) // 2)
            if vectorize and run >= self._MIN_RUN:
                taken = assigned.intersection(
                    range(base + rank + 1, base + rank + run + 1)
                )
                if taken:
                    run = min(taken) - base - rank - 1
                fits, elapsed = self._waits_within(
                    pos, np.arange(count, count - run, -1) / total_pairs,
                    budget_end - interactions,
                )
                if fits:
                    interactions += elapsed
                    pos += 2 * fits
                    events += fits
                    count -= fits
                    assigned.update(range(base + rank, base + rank + fits))
                    ranked += fits
                    rank += fits
                    vectorize = False
                    continue
            vectorize = True
            if pos + 2 > available:
                uniforms = self._refill_uniforms()
                available = len(uniforms)
                pos = 0
            # count ≤ n − 1 < n(n − 1): the waiting time is always drawn.
            waiting = 1 + int(
                log1p(-uniforms[pos]) / log1p(-count / total_pairs)
            )
            pos += 1
            if interactions + waiting > budget_end:
                interactions = budget_end
                break
            interactions += waiting
            pos += 1  # the pick's uniform: one class, nothing to choose
            events += 1
            count -= 1
            assigned.add(base + rank)
            ranked += 1
            if rank < boundary:
                rank += 1
            else:
                if phase < limit:
                    rank = 0
                    self._leader_starts_waiting()
                # In the final phase the leader keeps its rank, and its
                # next rank is taken: nothing is left to assign.
                break
            if not count or ranked >= stop or base + rank in assigned:
                break

        self._leader_rank = rank
        self._interactions = interactions
        self._events = events
        self._uniforms = uniforms
        self._uniform_pos = pos
        self._store_phase(phase, count, 0, 0)

    def _handover_events(self, budget_end: int, stop: int) -> None:
        """Regime (c): the leader waits, nobody unconverted, one or two phases.

        With phases ``x`` and ``y`` in dict order (``y`` absent: count 0)
        and ``T`` phase agents, the classes in ``event_weights`` order are
        ``wait_tick`` (``T``), ``bump:x`` (``c_x`` if ``f[x]`` is
        assigned), ``bump:y`` (likewise) and the merge of the lower phase
        into the higher (``2·c_x·c_y``).  No rank is assigned, so the bump
        gates hold for the whole regime.  Ends when the leader's wait runs
        out or an event changes the phase set; the ranked count rises only
        when the wait runs out, so ``stop`` needs no check here.
        """
        total_pairs = self._total_pairs
        f = self._f
        limit = self._phase_limit
        assigned = self._assigned
        counts = self._phase_counts
        bounds = self._handover_bounds

        phases = list(counts)
        x = phases[0]
        y = phases[1] if len(phases) == 2 else 0
        count_x = counts[x]
        count_y = counts[y] if y else 0
        bump_x = x < limit and f[x] in assigned
        bump_y = 0 < y < limit and f[y] in assigned
        ticks = self._total_phase
        wait = self._leader_wait
        interactions = self._interactions
        events = self._events
        uniforms = self._uniforms
        available = len(uniforms)
        pos = self._uniform_pos
        drop = grow = 0
        # Shifts move an agent from the lower phase to the higher: every
        # merge, and a bump of the lower phase when the two are adjacent.
        # Every other bump ends the regime.
        low_is_x = x < y
        shift_x = bump_x and x + 1 == y
        shift_y = bump_y and y + 1 == x
        vectorize = bool(y) and self._n > 3
        while interactions < budget_end:
            bump_x_end, bump_y_end, total = bounds(
                ticks, bump_x, bump_y, count_x, count_y
            )
            if vectorize:
                # The run ends at the first bump into a new phase, at the
                # shift that empties the lower phase, or at the last tick.
                low = count_x if low_is_x else count_y
                shifting = (total - bump_y_end + shift_x * count_x
                            + shift_y * count_y)
                ending = total - ticks - shifting
                if low > 1:
                    ending += shifting / (low - 1)
                else:
                    ending += shifting
                run = min((available - pos) // 2,
                          2 * total / (ending + ticks / wait))
                if run >= self._MIN_RUN:
                    fits, elapsed, ticked, shifted = self._handover_run(
                        pos, int(run), count_x, count_y, low_is_x, low, bump_x,
                        bump_y, shift_x, shift_y, ticks, wait, shifting,
                        total, budget_end - interactions,
                    )
                    if fits:
                        interactions += elapsed
                        pos += 2 * fits
                        events += fits
                        wait -= ticked
                        if low_is_x:
                            count_x -= shifted
                            count_y += shifted
                        else:
                            count_y -= shifted
                            count_x += shifted
                        vectorize = False
                        continue
            vectorize = bool(y) and self._n > 3
            success_probability = total / total_pairs
            if pos + 2 > available:
                uniforms = self._refill_uniforms()
                available = len(uniforms)
                pos = 0
            if success_probability < 1.0:
                waiting = 1 + int(
                    log1p(-uniforms[pos]) / log1p(-success_probability)
                )
                pos += 1
            elif success_probability == 1.0:
                waiting = 1
            else:
                raise self._inconsistent(total)
            if interactions + waiting > budget_end:
                interactions = budget_end
                break
            interactions += waiting
            threshold = uniforms[pos] * total
            pos += 1
            if threshold >= total:
                threshold = total - 0.5
            events += 1

            if threshold < ticks:
                wait -= 1
                if wait <= 0:
                    self._leader_mode = "rank"
                    self._leader_rank = 1
                    break
            elif threshold < bump_x_end:
                if x + 1 != y or count_x == 1:
                    drop, grow = x, x + 1
                    break
                count_x -= 1
                count_y += 1
            elif threshold < bump_y_end:
                if y + 1 != x or count_y == 1:
                    drop, grow = y, y + 1
                    break
                count_y -= 1
                count_x += 1
            elif x < y:
                if count_x == 1:
                    drop, grow = x, y
                    break
                count_x -= 1
                count_y += 1
            else:
                if count_y == 1:
                    drop, grow = y, x
                    break
                count_y -= 1
                count_x += 1

        counts[x] = count_x
        if y:
            counts[y] = count_y
        self._leader_wait = wait
        self._interactions = interactions
        self._events = events
        self._uniforms = uniforms
        self._uniform_pos = pos
        if drop:
            self._remove_phase_agent(drop)
            self._add_phase_agent(grow)

    # ------------------------------------------------------------------
    # Convenience for experiments
    # ------------------------------------------------------------------
    def milestone_predicates(self, fractions) -> Dict[str, object]:
        """Milestone predicates "at least ``fraction`` of the agents ranked".

        Each predicate is a plain callable; the regime loops read its
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
