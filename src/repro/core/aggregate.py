"""Event-driven ("aggregate") simulation of population protocols.

The paper's protocols are *silent*: once most agents are ranked, the vast
majority of interactions are no-ops (two ranked agents with distinct ranks
never change state).  Simulating each of the ``Θ(n² log n)`` interactions
individually is wasteful — and, in pure Python, prohibitively slow for the
population sizes of the paper's Figure 3 (up to ``n = 8192``).

:class:`EventDrivenSimulator` exploits a standard exactness-preserving trick:
between two *productive* interactions the configuration does not change, so
the number of consecutive no-op interactions is geometrically distributed
with success probability ``(# productive ordered pairs) / (n·(n-1))``, and
the productive interaction itself is chosen with probability proportional to
how many ordered pairs realize each productive *event class*.  Subclasses
describe their dynamics in terms of event classes over group counts (e.g.
"the unaware leader meets a phase agent"); the base class samples waiting
times and event classes.  The resulting trajectory has exactly the same
distribution as the agent-level simulation whenever the subclass's event
decomposition is faithful — which the test suite checks against the
reference :class:`~repro.core.simulation.Simulator` on small populations.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from math import log1p
from typing import Callable, Dict, Optional

import numpy as np

from .errors import SimulationLimitExceeded, check_budget
from .rng import RandomState, make_rng

__all__ = ["EventDrivenSimulator", "AggregateResult"]


@dataclass
class AggregateResult:
    """Outcome of an event-driven run.

    Attributes
    ----------
    converged:
        Whether :meth:`EventDrivenSimulator.is_done` held at the end.
    interactions:
        Total number of (mostly skipped) interactions accounted for.
    events:
        Number of productive events actually applied.
    milestones:
        Mapping from milestone name to the interaction count at which it was
        first reached (see :meth:`EventDrivenSimulator.run`).
    """

    converged: bool
    interactions: int
    events: int
    milestones: Dict[str, int]


class EventDrivenSimulator(abc.ABC):
    """Base class for exact event-driven simulations on group counts.

    Subclasses maintain whatever aggregate state they need (group counts,
    the leader's current rank, …) and implement three methods:

    * :meth:`event_weights` — for the current aggregate state, the number of
      *ordered* agent pairs realizing each productive event class;
    * :meth:`apply_event` — apply one occurrence of a named event class;
    * :meth:`is_done` — whether the target configuration has been reached.
    """

    #: Number of uniforms drawn per refill of the sampling buffer.
    _UNIFORM_BATCH = 4096

    def __init__(self, n: int, random_state: RandomState = None):
        if n < 2:
            raise ValueError(f"population size must be at least 2, got {n}")
        self._n = int(n)
        self._rng = make_rng(random_state)
        self._interactions = 0
        self._events = 0
        self._total_pairs = self._n * (self._n - 1)
        # Uniform draws are consumed two per event; batching them into one
        # vectorized ``rng.random(k)`` call amortizes the per-call overhead
        # of scalar generator draws (~0.4 us each) across the event loop.
        self._uniforms: list = []
        self._uniform_pos = 0

    @property
    def n(self) -> int:
        """Population size."""
        return self._n

    @property
    def rng(self) -> np.random.Generator:
        """The random generator driving the event process."""
        return self._rng

    @property
    def interactions(self) -> int:
        """Interactions accounted for so far (including skipped no-ops)."""
        return self._interactions

    @property
    def events(self) -> int:
        """Productive events applied so far."""
        return self._events

    @property
    def total_ordered_pairs(self) -> int:
        """``n·(n-1)``, the number of possible ordered interactions."""
        return self._total_pairs

    # ------------------------------------------------------------------
    # Dynamics specification (subclass responsibility)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def event_weights(self) -> Dict[str, float]:
        """Ordered-pair counts per productive event class.

        The values must be non-negative; event classes with weight zero are
        ignored.  The sum of all weights divided by ``n·(n-1)`` is the
        per-interaction probability that *something* happens.
        """

    @abc.abstractmethod
    def apply_event(self, name: str) -> None:
        """Apply one occurrence of event class ``name`` to the aggregate state."""

    @abc.abstractmethod
    def is_done(self) -> bool:
        """Whether the simulated protocol has reached its target."""

    # ------------------------------------------------------------------
    # Driving loop
    # ------------------------------------------------------------------
    def step_event(self, limit: Optional[int] = None) -> Optional[str]:
        """Advance to (and apply) the next productive event.

        Returns the applied event name, or ``None`` when no event class has
        positive weight (a genuinely dead configuration) or when the sampled
        waiting time would carry ``interactions`` past ``limit`` — in that
        case the interaction counter is clamped to ``limit`` and the event is
        *not* applied, so budget-bounded runs never overshoot.
        """
        weights = self.event_weights()
        total = 0.0
        for weight in weights.values():
            if weight > 0.0:
                total += weight
        if total == 0.0:
            return None
        success_probability = total / self._total_pairs
        if success_probability > 1.0:
            raise SimulationLimitExceeded(
                "event weights exceed the number of ordered pairs "
                f"({total} > {self._total_pairs}); "
                "the event decomposition is inconsistent"
            )
        uniforms = self._uniforms
        position = self._uniform_pos
        if position + 2 > len(uniforms):
            uniforms = self._uniforms = self._rng.random(self._UNIFORM_BATCH).tolist()
            position = 0
        # Number of interactions up to and including the productive one:
        # exact geometric via inverse transform, ``1 + floor(ln(1-U)/ln(1-p))``
        # (cheaper than a scalar ``rng.geometric`` call in the event loop).
        if success_probability >= 1.0:
            waiting = 1
        else:
            waiting = 1 + int(
                log1p(-uniforms[position]) / log1p(-success_probability)
            )
            position += 1
        if limit is not None and self._interactions + waiting > limit:
            self._uniform_pos = position
            self._interactions = limit
            return None
        self._interactions += waiting

        # Inverse-transform sampling over the (unnormalized) weights: one
        # uniform draw and a running cumulative sum replace the per-event
        # probability-array rebuild that ``rng.choice(p=...)`` would require.
        threshold = uniforms[position] * total
        self._uniform_pos = position + 1
        cumulative = 0.0
        chosen = None
        for name, weight in weights.items():
            if weight > 0.0:
                chosen = name  # last positive class absorbs the u == total edge
                cumulative += weight
                if threshold < cumulative:
                    break
        self.apply_event(chosen)
        self._events += 1
        return chosen

    def run(
        self,
        max_interactions: int,
        milestones: Optional[Dict[str, Callable[[], bool]]] = None,
    ) -> AggregateResult:
        """Run until :meth:`is_done`, a dead configuration, or the budget.

        Parameters
        ----------
        max_interactions:
            Upper bound on the number of interactions to account for.
        milestones:
            Optional named predicates over the aggregate state; the result
            records the interaction count at which each first became true.
            Used by the Figure 3 experiment ("half of the agents ranked").
        """
        max_interactions = check_budget(max_interactions)
        milestones = milestones or {}
        reached: Dict[str, int] = {}
        budget_end = self._interactions + max_interactions
        if milestones:
            self._check_milestones(milestones, reached)
        self._event_loop(budget_end, milestones, reached)
        return AggregateResult(
            converged=self.is_done(),
            interactions=self._interactions,
            events=self._events,
            milestones=reached,
        )

    def _check_milestones(
        self, milestones: Dict[str, Callable[[], bool]], reached: Dict[str, int]
    ) -> None:
        """Record the current interaction count for newly true milestones."""
        for name, predicate in milestones.items():
            if name not in reached and predicate():
                reached[name] = self._interactions

    def _event_loop(
        self,
        budget_end: int,
        milestones: Dict[str, Callable[[], bool]],
        reached: Dict[str, int],
    ) -> None:
        """Apply events until done, dead or clamped at ``budget_end``.

        Milestones are checked after every applied event.  A subclass may
        replace this loop by a faster one that leaves the same trajectory:
        the same events, interaction counts, milestones and uniform draws.
        """
        while not self.is_done() and self._interactions < budget_end:
            if self.step_event(limit=budget_end) is None:
                break
            if milestones:
                self._check_milestones(milestones, reached)
