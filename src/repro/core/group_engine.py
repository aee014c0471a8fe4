"""Codec-derived exact group-count simulation of deterministic protocols.

The hand-written :class:`~repro.protocols.ranking.aggregate_space_efficient.
AggregateSpaceEfficientRanking` engine shows what count-level simulation buys:
``O(n)`` productive events instead of ``Θ(n² log n)`` interactions.  Its event
decomposition, however, was derived by hand and speaks only one protocol.
This module derives the same kind of engine *automatically* for any protocol
whose transition function is a pure function of the two participating states
(``consumes_randomness() is False``): the :class:`~repro.core.codec.StateCodec`
interns every distinct state, :func:`~repro.core.codec.evaluate_pair`
tabulates ordered state pairs on demand, and the simulator runs the exact
geometric no-op-skipping event process on a state-count vector.

Exactness
---------
The count process is the lumped Markov chain of the agent-level process: for
a deterministic protocol the multiset of states is itself Markov, and every
ordered pair ``(i, j)`` of states is realized by ``c[i]·c[j]`` ordered agent
pairs (``c[i]·(c[i]-1)`` on the diagonal).  Transitions whose successor
multiset equals the argument multiset — including agent-level *swaps*
``(i, j) → (j, i)`` — never change a count and are skipped along with the
plain no-ops; the waiting time to the next count-changing interaction is
geometric with success probability ``W / (n·(n-1))`` where ``W`` is the total
weight of count-changing ("productive") pairs.  Every count observable, and
every hitting time of a count event measured in interactions, therefore has
*exactly* the agent-level distribution ("distribution" exactness class);
individual agent trajectories are not modeled.

Tabulation is lazy, permanent, and shared: a :class:`GroupTransitionModel`
holds the productive-pair table for a protocol instance, simulators attach to
it, and the invariant is that every state that has ever been occupied by any
attached simulator is tabulated against every other ever-occupied state.
The cost is ``O(D²)`` transition evaluations where ``D`` is the number of
distinct states actually visited — four for the one-way epidemic, bounded by
``max_states`` (default 4096) in general — and it is paid *once* per model,
so the 200-seed sweeps of a study cell amortize it.

Two sampling paths keep the per-event cost low:

* the general path factorizes the productive-pair weights by initiator row
  (``rw[i] = c[i]·(S[i] - diag[i])`` with ``S[i]`` the sum of responder
  counts over row ``i``, maintained incrementally through column adjacency)
  and draws one integer uniform ``u ∈ [0, W)``; the row is found by
  ``searchsorted`` on ``cumsum(rw)`` and the residual is reused to pick the
  responder inside the row — all in exact int64 arithmetic, no floating
  renormalization;
* when exactly one productive pair has positive weight and the states it
  touches are touched by no other productive pair, a whole run of events is
  batched: one streamed pass over blocks of ``_BATCH_BLOCK`` events builds
  each block's weights vectorized, draws its waiting times with one
  ``rng.geometric`` call, and reads the budget crossing and the milestones
  off running sums, so memory stays ``O(block)`` whatever the batch length.
  The one-way epidemic completes its whole ``n - m`` informings as a single
  batch, which is what makes ``n = 10^6`` sweeps take milliseconds instead
  of minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .codec import StateCodec, evaluate_pair
from .errors import (
    CodecError,
    ConfigurationError,
    SimulationLimitExceeded,
    StateSpaceTooLarge,
)
from .protocol import PopulationProtocol
from .rng import RandomState, make_rng

__all__ = [
    "CountGoal",
    "RankingCountGoal",
    "GroupTransitionModel",
    "GroupRunResult",
    "GroupCountSimulator",
    "DEFAULT_MAX_STATES",
]

#: Tabulation budget: distinct ever-occupied states before the run aborts.
DEFAULT_MAX_STATES = 4096

#: Events per block of the streamed single-pair batch: a handful of float64
#: and int64 buffers of this length stay cache-resident and amortize numpy's
#: per-call overhead, and no buffer ever grows with ``n``.
_BATCH_BLOCK = 1 << 16


class CountGoal:
    """Progress and termination observable over state counts.

    The group engine never sees individual agents, so convergence must be
    expressed over counts.  A goal keeps whatever tallies it needs, updated
    through :meth:`on_count` as states gain or lose population.

    Contract (both are load-bearing for the engine's batch path):

    * :meth:`measure` is *additive* in the count deltas — feeding the same
      deltas in any order or grouping yields the same measure — and
      :meth:`target` is constant along a run;
    * ``done()`` implies ``measure() == target()``, so the engine knows the
      goal cannot silently complete while the measure is strictly below (or
      moving away from) the target.
    """

    def on_count(self, state: object, delta: int) -> None:
        """Account for ``delta`` agents entering (``> 0``) or leaving ``state``."""
        raise NotImplementedError

    def measure(self) -> int:
        """Current progress scalar (e.g. number of ranked agents)."""
        raise NotImplementedError

    def target(self) -> int:
        """Value of :meth:`measure` at which the goal can be complete."""
        raise NotImplementedError

    def done(self) -> bool:
        """Whether the goal is reached (default: measure equals target)."""
        return self.measure() == self.target()


class RankingCountGoal(CountGoal):
    """Membership in the paper's legal set ``C_L`` read off state counts.

    ``measure()`` is the number of agents whose state carries a rank in
    ``{1, …, n}``; ``done()`` additionally requires those ranks to form a
    permutation, tracked through per-rank occupancy (a count vector knows
    how many agents sit in a state with rank ``r``, and a valid ranking is
    exactly "every rank occupied once").
    """

    def __init__(self, n: int):
        self._n = int(n)
        self._ranked = 0
        self._occupancy: Dict[int, int] = {}
        self._duplicates = 0

    def on_count(self, state: object, delta: int) -> None:
        rank = getattr(state, "rank", None)
        if rank is None or not 1 <= rank <= self._n:
            return
        occupancy = self._occupancy
        before = occupancy.get(rank, 0)
        after = before + delta
        occupancy[rank] = after
        self._ranked += delta
        self._duplicates += max(0, after - 1) - max(0, before - 1)

    def measure(self) -> int:
        return self._ranked

    def target(self) -> int:
        return self._n

    def done(self) -> bool:
        return self._ranked == self._n and self._duplicates == 0


class GroupTransitionModel:
    """Shared productive-pair table for a protocol, tabulated lazily.

    Holds the codec, the set of tabulated (ever-occupied) states, the
    successor map of count-changing ordered pairs, and dense adjacency
    arrays derived from them.  Multiple :class:`GroupCountSimulator`
    instances (e.g. the seeds of a study cell) attach to one model and
    share the tabulation cost; the ``version`` counter tells simulators
    when to re-sync their count-dependent caches.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        codec: Optional[StateCodec] = None,
        max_states: int = DEFAULT_MAX_STATES,
    ):
        self.protocol = protocol
        self.codec = codec if codec is not None else StateCodec()
        self.max_states = int(max_states)
        self.version = 0
        self._tabulated: List[int] = []
        self._tabulated_set: set = set()
        self.successors: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.row_lists: Dict[int, List[int]] = {}
        self.col_lists: Dict[int, List[int]] = {}
        self._dirty = False
        self._rebuild_dense()

    @property
    def tabulated_states(self) -> int:
        """Number of ever-occupied states tabulated so far."""
        return len(self._tabulated)

    @property
    def size(self) -> int:
        """Number of interned states (tabulated states plus their successors)."""
        return self.codec.size

    def ensure_tabulated(self, code: int) -> bool:
        """Tabulate ``code`` against every previously tabulated state.

        Successor states interned along the way are *not* tabulated until
        they become occupied (the invariant is occupied ⊆ tabulated).
        Returns whether anything new was tabulated; the dense arrays are
        rebuilt lazily on the next :meth:`refresh` (so a burst of new
        states pays for one rebuild, not one per state).
        """
        if code in self._tabulated_set:
            return False
        if len(self._tabulated) >= self.max_states:
            raise StateSpaceTooLarge(
                f"{self.protocol.name}: group-count tabulation exceeded "
                f"max_states={self.max_states} distinct occupied states"
            )
        self._tabulated_set.add(code)
        self._tabulated.append(code)
        protocol, codec = self.protocol, self.codec
        for other in self._tabulated:
            ordered = ((code, other),) if other == code else (
                (code, other), (other, code),
            )
            for x, y in ordered:
                outcome = evaluate_pair(protocol, codec, x, y)
                a, b = outcome.next_initiator, outcome.next_responder
                if (a, b) != (x, y) and (a, b) != (y, x):
                    # Count-level productive: the successor multiset differs.
                    self.successors[(x, y)] = (a, b)
                    self.row_lists.setdefault(x, []).append(y)
                    self.col_lists.setdefault(y, []).append(x)
        self._dirty = True
        return True

    def is_tabulated(self, code: int) -> bool:
        return code in self._tabulated_set

    def refresh(self) -> None:
        """Rebuild the dense arrays if tabulation grew since the last build."""
        if self._dirty:
            self._rebuild_dense()
            self._dirty = False

    # ------------------------------------------------------------------
    # Persistence (see repro.core.table_store)
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[List[object], np.ndarray, np.ndarray]:
        """``(states, tabulated, pairs)`` — everything needed to restore.

        ``states`` are the codec's interned prototypes in code order,
        ``tabulated`` the tabulation order, and ``pairs`` the productive
        transitions as an ``(P, 4)`` array of ``(x, y, a, b)`` rows *in
        insertion order* — dict order is insertion order, and replaying it
        reproduces the row/column list ordering (and therefore the event
        sampler's inverse-CDF layout) exactly.
        """
        codec = self.codec
        states = [codec.prototype(code) for code in range(codec.size)]
        tabulated = np.asarray(self._tabulated, dtype=np.int64)
        pairs = np.array(
            [
                [x, y, a, b]
                for (x, y), (a, b) in self.successors.items()
            ],
            dtype=np.int64,
        ).reshape(-1, 4)
        return states, tabulated, pairs

    @classmethod
    def from_snapshot(
        cls,
        protocol: PopulationProtocol,
        states: Sequence[object],
        tabulated: np.ndarray,
        pairs: np.ndarray,
        max_states: int = DEFAULT_MAX_STATES,
    ) -> "GroupTransitionModel":
        """Rebuild a model from :meth:`snapshot` output without evaluating
        a single transition (the point of persisting it)."""
        model = cls(protocol, max_states=max_states)
        for code, state in enumerate(states):
            if model.codec.encode(state) != code:
                raise CodecError(
                    "snapshot states did not intern to their own codes"
                )
        model._tabulated = [int(code) for code in tabulated]
        model._tabulated_set = set(model._tabulated)
        for x, y, a, b in np.asarray(pairs, dtype=np.int64).tolist():
            model.successors[(x, y)] = (a, b)
            model.row_lists.setdefault(x, []).append(y)
            model.col_lists.setdefault(y, []).append(x)
        model._dirty = True
        model.refresh()
        return model

    def _rebuild_dense(self) -> None:
        size = self.codec.size
        self.diag = np.zeros(size, dtype=np.int64)
        self.row_arrays: List[Optional[np.ndarray]] = [None] * size
        self.row_diag_pos: List[int] = [-1] * size
        self.col_arrays: List[Optional[np.ndarray]] = [None] * size
        for x, responders in self.row_lists.items():
            self.row_arrays[x] = np.array(responders, dtype=np.int64)
            if x in responders:
                self.row_diag_pos[x] = responders.index(x)
                self.diag[x] = 1
        for y, initiators in self.col_lists.items():
            self.col_arrays[y] = np.array(initiators, dtype=np.int64)
        self.version += 1


@dataclass
class GroupRunResult:
    """Outcome of a group-count run.

    ``distinct_states`` is the number of states occupied at the end,
    ``tabulated_states`` the number of ever-occupied states whose pair rows
    were tabulated (the ``D`` in the ``O(D²)`` tabulation cost).
    """

    converged: bool
    interactions: int
    events: int
    milestones: Dict[str, int]
    distinct_states: int
    tabulated_states: int


class GroupCountSimulator:
    """Exact event-driven simulation on a state-count vector.

    Parameters
    ----------
    protocol:
        A deterministic protocol (``transition`` must not consume rng).
    configuration:
        Iterable of agent states (e.g. a
        :class:`~repro.core.configuration.Configuration`).  Exactly one of
        ``configuration`` and ``state_counts`` must be given.
    state_counts:
        Iterable of ``(state, multiplicity)`` pairs — the compact form used
        by protocols that declare a :meth:`~repro.core.protocol.
        PopulationProtocol.count_profile`, avoiding ``n`` object
        materializations at ``n = 10^6``.
    goal:
        A :class:`CountGoal`; defaults to ``protocol.count_goal(codec)``.
    model:
        A shared :class:`GroupTransitionModel`; a private one is built when
        omitted.  Sharing a model across the seeds of a cell amortizes the
        ``O(D²)`` tabulation cost.
    max_states:
        Tabulation budget for a private model; exceeding it raises
        :class:`~repro.core.errors.StateSpaceTooLarge`.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        *,
        configuration: Optional[Iterable[object]] = None,
        state_counts: Optional[Iterable[Tuple[object, int]]] = None,
        goal: Optional[CountGoal] = None,
        model: Optional[GroupTransitionModel] = None,
        codec: Optional[StateCodec] = None,
        random_state: RandomState = None,
        max_states: int = DEFAULT_MAX_STATES,
    ):
        if (configuration is None) == (state_counts is None):
            raise ConfigurationError(
                "exactly one of configuration= and state_counts= is required"
            )
        self._protocol = protocol
        self._n = protocol.n
        self._total_pairs = self._n * (self._n - 1)
        self._rng = make_rng(random_state)
        self._model = (
            model
            if model is not None
            else GroupTransitionModel(protocol, codec=codec, max_states=max_states)
        )
        self._codec = self._model.codec
        self._interactions = 0
        self._events = 0

        initial: Dict[int, int] = {}
        pairs = (
            state_counts
            if state_counts is not None
            else ((state, 1) for state in configuration)
        )
        for state, multiplicity in pairs:
            multiplicity = int(multiplicity)
            if multiplicity < 0:
                raise ConfigurationError("state multiplicities must be >= 0")
            if multiplicity:
                code = self._codec.encode(state)
                initial[code] = initial.get(code, 0) + multiplicity
        if sum(initial.values()) != self._n:
            raise ConfigurationError(
                f"initial counts sum to {sum(initial.values())}, "
                f"expected n={self._n}"
            )

        for code in initial:
            self._model.ensure_tabulated(code)
        self._model.refresh()
        self._counts = np.zeros(self._model.size, dtype=np.int64)
        for code, count in initial.items():
            self._counts[code] = count
        self._model_version = self._model.version
        self._recompute_row_sums()

        self._goal = goal if goal is not None else protocol.count_goal(self._codec)
        if self._goal is not None:
            for code, count in initial.items():
                self._goal.on_count(self._codec.prototype(code), count)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._n

    @property
    def codec(self) -> StateCodec:
        return self._codec

    @property
    def model(self) -> GroupTransitionModel:
        return self._model

    @property
    def goal(self) -> Optional[CountGoal]:
        return self._goal

    @property
    def interactions(self) -> int:
        return self._interactions

    @property
    def events(self) -> int:
        return self._events

    @property
    def tabulated_states(self) -> int:
        """Number of ever-occupied states tabulated in the attached model."""
        return self._model.tabulated_states

    def state_counts(self) -> Dict[int, int]:
        """Mapping from state code to its current (positive) count."""
        codes = np.nonzero(self._counts)[0]
        return {int(code): int(self._counts[code]) for code in codes}

    def count_vector(self) -> np.ndarray:
        """Copy of the full count vector (indexed by state code)."""
        return self._counts.copy()

    def is_done(self) -> bool:
        return self._goal is not None and self._goal.done()

    # ------------------------------------------------------------------
    # Count-dependent caches
    # ------------------------------------------------------------------
    def _sync_model(self) -> None:
        """Re-grow count arrays after the shared model tabulated new states."""
        self._model.refresh()
        if self._model_version == self._model.version:
            return
        counts = np.zeros(self._model.size, dtype=np.int64)
        counts[: self._counts.shape[0]] = self._counts
        self._counts = counts
        self._model_version = self._model.version
        self._recompute_row_sums()

    def _recompute_row_sums(self) -> None:
        """Recompute ``S[i] = Σ_{j ∈ row(i)} c[j]`` from scratch."""
        counts = self._counts
        self._row_sums = np.zeros(counts.shape[0], dtype=np.int64)
        for x, row in enumerate(self._model.row_arrays):
            if row is not None:
                self._row_sums[x] = int(counts[row].sum())

    # ------------------------------------------------------------------
    # Weights and sampling
    # ------------------------------------------------------------------
    def _row_weights(self) -> Tuple[np.ndarray, int]:
        """Per-initiator-row productive weights and their total ``W``."""
        counts = self._counts
        row_weights = counts * (self._row_sums - self._model.diag)
        total = int(row_weights.sum())
        if total > self._total_pairs:
            raise SimulationLimitExceeded(
                f"group-count weights exceed the number of ordered pairs "
                f"({total} > {self._total_pairs}); tabulation is inconsistent"
            )
        return row_weights, total

    def _sample_pair(self, row_weights: np.ndarray, total: int) -> Tuple[int, int]:
        """Draw a productive ordered state pair exactly (integer inverse CDF)."""
        u = int(self._rng.integers(total))
        cumulative = np.cumsum(row_weights)
        i = int(np.searchsorted(cumulative, u, side="right"))
        residual = u - (int(cumulative[i - 1]) if i else 0)
        count_i = int(self._counts[i])
        row = self._model.row_arrays[i]
        responder_weights = self._counts[row]
        diag_pos = self._model.row_diag_pos[i]
        if diag_pos >= 0:
            responder_weights = responder_weights.copy()
            responder_weights[diag_pos] -= 1
        # Pair (i, j) owns the residual slice [c_i·cum_before, c_i·cum_after),
        # so integer floor division recovers the responder index exactly.
        inner = np.searchsorted(
            np.cumsum(responder_weights), residual // count_i, side="right"
        )
        return i, int(row[int(inner)])

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _event_deltas(self, i: int, j: int) -> Dict[int, int]:
        a, b = self._model.successors[(i, j)]
        deltas: Dict[int, int] = {}
        for code, delta in ((i, -1), (j, -1), (a, 1), (b, 1)):
            deltas[code] = deltas.get(code, 0) + delta
        return {code: delta for code, delta in deltas.items() if delta}

    def _apply_deltas(self, deltas: Dict[int, int], repeat: int = 1) -> None:
        counts = self._counts
        goal = self._goal
        tabulated_new = False
        for code, delta in deltas.items():
            change = delta * repeat
            before = int(counts[code])
            after = before + change
            if after < 0:  # pragma: no cover - internal invariant
                raise ConfigurationError(
                    f"state {code} count would become negative ({after})"
                )
            counts[code] = after
            if before == 0 and after > 0 and not self._model.is_tabulated(code):
                tabulated_new |= self._model.ensure_tabulated(code)
            if goal is not None:
                goal.on_count(self._codec.prototype(code), change)
        if tabulated_new:
            self._sync_model()
        else:
            row_sums = self._row_sums
            col_arrays = self._model.col_arrays
            for code, delta in deltas.items():
                column = col_arrays[code]
                if column is not None:
                    row_sums[column] += delta * repeat

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> Optional[Tuple[int, int]]:
        """Advance one productive event (never batching).

        Returns the applied ordered state pair ``(i, j)``, or ``None`` on a
        dead configuration.  Mainly for tests and interactive inspection;
        :meth:`run` is the fast path.
        """
        self._sync_model()
        row_weights, total = self._row_weights()
        if total == 0:
            return None
        probability = total / self._total_pairs
        waiting = 1 if probability >= 1.0 else int(self._rng.geometric(probability))
        self._interactions += waiting
        i, j = self._sample_pair(row_weights, total)
        self._apply_deltas(self._event_deltas(i, j))
        self._events += 1
        return i, j

    def run(
        self,
        max_interactions: int,
        milestones: Optional[Dict[str, int]] = None,
        max_events: Optional[int] = None,
    ) -> GroupRunResult:
        """Run until the goal, a dead configuration, or the budget.

        Parameters
        ----------
        max_interactions:
            Interaction budget.  Like the hand-derived aggregate engine, a
            waiting time overshooting the budget clamps ``interactions`` to
            the budget without applying the event.
        milestones:
            Mapping from milestone name to a :class:`CountGoal` measure
            threshold; the result records the exact interaction count at
            which the measure first reached each threshold (requires a goal).
        max_events:
            Optional cap on productive events — used by throughput
            benchmarks of protocols whose full state space would exceed
            the tabulation budget.
        """
        if max_interactions < 0:
            raise ValueError("max_interactions must be non-negative")
        goal = self._goal
        if milestones and goal is None:
            raise ConfigurationError(
                "milestones need a CountGoal (protocol.count_goal returned None)"
            )
        reached: Dict[str, int] = {}
        pending: List[Tuple[int, str]] = sorted(
            (int(threshold), name) for name, threshold in (milestones or {}).items()
        )
        budget_end = self._interactions + max_interactions
        events_end = None if max_events is None else self._events + max_events

        def record_crossings() -> None:
            while pending and goal.measure() >= pending[0][0]:
                reached[pending.pop(0)[1]] = self._interactions

        if pending:
            record_crossings()
        while not self.is_done() and self._interactions < budget_end:
            if events_end is not None and self._events >= events_end:
                break
            self._sync_model()
            row_weights, total = self._row_weights()
            if total == 0:
                break
            if self._run_batch(
                row_weights, total, budget_end, events_end, pending, reached
            ):
                continue
            probability = total / self._total_pairs
            waiting = (
                1 if probability >= 1.0 else int(self._rng.geometric(probability))
            )
            if self._interactions + waiting > budget_end:
                self._interactions = budget_end
                break
            self._interactions += waiting
            i, j = self._sample_pair(row_weights, total)
            self._apply_deltas(self._event_deltas(i, j))
            self._events += 1
            if pending:
                record_crossings()
        return GroupRunResult(
            converged=self.is_done(),
            interactions=self._interactions,
            events=self._events,
            milestones=reached,
            distinct_states=int(np.count_nonzero(self._counts)),
            tabulated_states=self._model.tabulated_states,
        )

    # ------------------------------------------------------------------
    # Single-productive-pair batching
    # ------------------------------------------------------------------
    def _run_batch(
        self,
        row_weights: np.ndarray,
        total: int,
        budget_end: int,
        events_end: Optional[int],
        pending: List[Tuple[int, str]],
        reached: Dict[str, int],
    ) -> bool:
        """Batch a run of events while a single productive pair is active.

        Eligibility: exactly one ordered pair ``(i, j)`` has positive weight
        and every state whose count the event changes is touched by no
        productive pair other than ``(i, j)`` — then no other pair can gain
        weight mid-batch and the whole stretch shares one weight recurrence.
        Returns whether the batch path handled this loop iteration.
        """
        model = self._model
        positive_rows = np.nonzero(row_weights)[0]
        if positive_rows.shape[0] != 1:
            return False
        i = int(positive_rows[0])
        row = model.row_arrays[i]
        responder_weights = self._counts[row].copy()
        diag_pos = model.row_diag_pos[i]
        if diag_pos >= 0:
            responder_weights[diag_pos] -= 1
        positive_responders = np.nonzero(responder_weights)[0]
        if positive_responders.shape[0] != 1:
            return False
        j = int(row[int(positive_responders[0])])
        a, b = model.successors[(i, j)]
        if model.ensure_tabulated(a) | model.ensure_tabulated(b):
            # Tabulating the successors may have revealed new productive
            # pairs; re-sync and let the caller re-derive the weights.
            self._sync_model()
            return False
        deltas = self._event_deltas(i, j)
        for code in deltas:
            for responder in model.row_lists.get(code, ()):
                if (code, responder) != (i, j):
                    return False
            for initiator in model.col_lists.get(code, ()):
                if (initiator, code) != (i, j):
                    return False

        # Maximal batch length: counts must stay non-negative …
        length = None
        for code, delta in deltas.items():
            if delta < 0:
                bound = int(self._counts[code]) // (-delta)
                length = bound if length is None else min(length, bound)
        if length is None or length == 0:  # pragma: no cover - defensive
            return False
        if events_end is not None:
            length = min(length, events_end - self._events)

        # … the goal must not complete strictly inside the batch …
        goal = self._goal
        measure_delta = 0
        measure_before = 0
        if goal is not None:
            measure_before = goal.measure()
            for code, delta in deltas.items():
                goal.on_count(self._codec.prototype(code), delta)
            measure_delta = goal.measure() - measure_before
            for code, delta in deltas.items():
                goal.on_count(self._codec.prototype(code), -delta)
            if measure_delta > 0:
                to_target = goal.target() - measure_before
                if to_target > 0:
                    length = min(length, ceil(to_target / measure_delta))
            elif measure_before == goal.target():
                # done() may flip on any event without the measure moving;
                # fall back to event-by-event stepping.
                length = 1

        # … and the pair weight must stay positive along the whole stretch
        # (the streamed pass cuts the batch at the first non-positive one).
        count_i = (int(self._counts[i]), deltas.get(i, 0))
        if i == j:
            count_j = (count_i[0] - 1, count_i[1])
        else:
            count_j = (int(self._counts[j]), deltas.get(j, 0))
        marks: List[int] = []
        if pending and measure_delta > 0:
            horizon = measure_before + measure_delta * length
            for threshold, _ in pending:
                if threshold > horizon:
                    break
                events_needed = max(
                    1, ceil((threshold - measure_before) / measure_delta)
                )
                marks.append(events_needed - 1)
        remaining = budget_end - self._interactions
        length, applied, elapsed, marked = _stream_waits(
            self._rng, count_i, count_j, length, self._total_pairs, remaining,
            marks,
        )
        if length == 0:  # pragma: no cover - W > 0 guarantees length >= 1
            return False
        clamped = applied < length

        if pending and measure_delta > 0 and applied:
            horizon = measure_before + measure_delta * applied
            for waited in marked:
                if pending[0][0] > horizon:
                    break
                reached[pending.pop(0)[1]] = self._interactions + waited
        if applied:
            self._apply_deltas(deltas, repeat=applied)
            self._events += applied
            self._interactions += elapsed
        if clamped:
            self._interactions = budget_end
        return True


def _stream_waits(
    rng: np.random.Generator,
    count_i: Tuple[int, int],
    count_j: Tuple[int, int],
    length: int,
    total_pairs: int,
    remaining: int,
    marks: Sequence[int],
) -> Tuple[int, int, int, List[int]]:
    """Draw the waiting times of a single-pair batch in fixed-size blocks.

    Before its ``k``-th event the pair has weight
    ``(c_i + d_i·k)·(c_j + d_j·k)`` for ``count_i = (c_i, d_i)`` and
    ``count_j = (c_j, d_j)`` (on the diagonal ``c_j = c_i - 1``); its
    waiting time is geometric with success probability
    ``weight / total_pairs``.  The batch is cut at the first non-positive
    weight.  Every block is drawn even after the cumulative wait passes
    ``remaining``, so the generator ends where one whole-batch
    ``rng.geometric`` call would leave it.

    Returns ``(length, applied, elapsed, marked)``: the batch length after
    the cut, the number of leading events whose cumulative wait is at most
    ``remaining``, their cumulative wait, and the cumulative wait through
    each 0-based event index of the sorted ``marks`` that is below
    ``applied``.

    The block arithmetic is exact: the counts are integers below ``2**53``,
    so the float64 progressions hold them exactly and
    ``fl(fl(c_i)·fl(c_j)) / fl(W)`` rounds like the integer product
    ``fl(c_i·c_j) / fl(W)``; ``Generator.geometric`` draws element by
    element, so blocks consume the stream exactly like one call.
    """
    size = min(length, _BATCH_BLOCK)
    first = np.arange(size, dtype=np.float64)
    second = first.copy()
    first *= count_i[1]
    first += count_i[0]
    second *= count_j[1]
    second += count_j[0]
    weights = np.empty(size)
    scale = float(total_pairs)
    applied = None
    elapsed = 0
    marked: List[int] = []
    start = 0
    while start < length:
        size = min(_BATCH_BLOCK, length - start)
        block = np.multiply(first[:size], second[:size], out=weights[:size])
        exhausted = np.flatnonzero(block <= 0)
        if exhausted.shape[0]:
            size = int(exhausted[0])
            length = start + size
            if size == 0:
                break
            block = block[:size]
        block /= scale
        waits = rng.geometric(block)
        if applied is None:
            # Only the block holding the budget crossing needs a cumsum.
            inside = size
            total = elapsed + int(waits.sum())
            if total > remaining:
                inside = int(np.searchsorted(
                    np.cumsum(waits), remaining - elapsed, side="right"
                ))
            for mark in marks[len(marked):]:
                if mark >= start + inside:
                    break
                marked.append(elapsed + int(waits[:mark - start + 1].sum()))
            if inside < size:
                applied = start + inside
                elapsed += int(waits[:inside].sum())
            else:
                elapsed = total
        first += count_i[1] * _BATCH_BLOCK
        second += count_j[1] * _BATCH_BLOCK
        start += size
    if applied is None:
        applied = length
    return length, applied, elapsed, marked
