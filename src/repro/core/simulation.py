"""The reference (agent-level) simulator.

:class:`Simulator` drives a :class:`~repro.core.protocol.PopulationProtocol`
under the uniform random scheduler exactly as defined in the paper's model:
one ordered pair of distinct agents per time step, chosen uniformly at
random, updated by the protocol's transition function.

The simulator is the ground truth against which the faster engines
(:mod:`repro.core.aggregate`, the array-based engines in
:mod:`repro.protocols.ranking`) are validated.  It favours clarity over raw
speed, but still amortizes pair sampling through the scheduler's chunked
sampling and checks convergence only periodically (convergence checks are
``O(n)``; checking after every interaction would dominate the runtime).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from .configuration import Configuration
from .errors import SimulationLimitExceeded, check_budget
from .metrics import MetricsCollector, TimeSeries
from .protocol import PopulationProtocol, TransitionResult
from .rng import RandomState
from .scheduler import UniformPairScheduler

__all__ = ["Simulator", "SimulationResult", "segmented_run"]


def segmented_run(
    simulator,
    events,
    max_interactions: int,
    stop_on_convergence: bool = True,
) -> SimulationResult:
    """Run a simulator with perturbation events applied between segments.

    ``events`` is a sequence of objects exposing ``at`` (interaction
    count, relative to the current position of the simulator), ``label``
    and ``mutate(configuration) -> summary`` — typically
    :class:`~repro.scenarios.events.BoundEvent` instances from
    :func:`~repro.scenarios.events.bind_schedule`.  The simulator runs to
    each event's interaction count exactly, applies the perturbation
    through its :meth:`~Simulator.apply_perturbation` hook (the array
    engine round-trips through its codec there), and continues on the
    *same* pair stream — events draw from their own generators, so the
    scheduler's sequence is untouched and a same-seed run is bit-identical
    across engines through every boundary.

    Per segment (the stretch from one event to the next) the run watches
    for *recovery*: the first interaction, on the simulator's convergence
    cadence, at which the protocol's convergence predicate holds again.
    The per-segment log is returned in :attr:`SimulationResult.events`.
    ``stop_on_convergence`` applies only after the last event fires —
    earlier segments always run their full length so later events fire at
    their specified times.  Events beyond the interaction budget do not
    fire.

    This function is engine-agnostic; ``Simulator.run_segmented`` and
    ``ArraySimulator.run_segmented`` are thin delegating methods.
    """
    max_interactions = check_budget(max_interactions)
    start = simulator.interactions
    budget_end = start + max_interactions
    log = [{"at": start, "label": "initial", "recovered_at": None}]
    watch = log[0]

    def advance_to(target: int) -> None:
        """Run to ``target`` exactly, recording the segment's recovery."""
        while simulator.interactions < target:
            if watch["recovered_at"] is not None:
                simulator.run(
                    target - simulator.interactions, stop_on_convergence=False
                )
                return
            segment = simulator.run(
                target - simulator.interactions, stop_on_convergence=True
            )
            if segment.converged:
                watch["recovered_at"] = simulator.interactions

    for event in sorted(events, key=lambda event: event.at):
        fire_at = start + event.at
        if fire_at > budget_end:
            break
        advance_to(fire_at)
        summary = simulator.apply_perturbation(event.mutate) or {}
        watch = {
            "at": simulator.interactions,
            "label": getattr(event, "label", "event"),
            "recovered_at": None,
        }
        # The applier's summary must not shadow the segment-log fields —
        # a custom event returning e.g. an "at" of its own would silently
        # corrupt the recovery accounting.
        watch.update(
            (key, value) for key, value in summary.items()
            if key not in ("at", "label", "recovered_at")
        )
        log.append(watch)

    if stop_on_convergence:
        # After the last event the run stops at the segment's recovery
        # (or exhausts the budget), exactly like a plain run() stops at
        # its first converged check.
        while (
            simulator.interactions < budget_end
            and watch["recovered_at"] is None
        ):
            segment = simulator.run(
                budget_end - simulator.interactions, stop_on_convergence=True
            )
            if segment.converged:
                watch["recovered_at"] = simulator.interactions
    else:
        advance_to(budget_end)

    # A zero-length run snapshots the final state through the simulator's
    # own result construction (final convergence check, closing metrics
    # snapshot) without advancing the pair stream.
    result = simulator.run(0, stop_on_convergence=False)
    result.events = log
    return result


@dataclass
class SimulationResult:
    """Outcome of a simulation run.

    Attributes
    ----------
    converged:
        Whether the protocol's convergence predicate held when the run ended.
    interactions:
        Total number of interactions simulated.
    configuration:
        The final configuration (shared with the simulator, not a copy).
    metrics:
        Recorded time series, keyed by probe name (empty if no collector).
    rank_assignments:
        Number of interactions in which a rank was assigned.
    resets:
        Number of interactions that triggered a reset.
    protocol:
        Metadata dictionary from ``protocol.describe()``.
    events:
        Segment log of a :func:`segmented_run`: one entry per watch
        segment (the initial segment plus one per fired perturbation),
        each recording ``at`` (the interaction the segment started at),
        ``label`` (``"initial"`` or the event kind), ``recovered_at``
        (first interaction at which the convergence predicate held after
        the segment started, or ``None``) and the event applier's summary
        fields.  Empty for plain runs.
    """

    converged: bool
    interactions: int
    configuration: Configuration
    metrics: Dict[str, TimeSeries] = field(default_factory=dict)
    rank_assignments: int = 0
    resets: int = 0
    protocol: Dict[str, object] = field(default_factory=dict)
    events: list = field(default_factory=list)

    @property
    def normalized_interactions(self) -> float:
        """Interactions divided by ``n²`` (the unit used by the paper's plots)."""
        n = self.configuration.population_size
        return self.interactions / float(n * n)


class Simulator:
    """Agent-level simulator under the uniform random scheduler.

    Parameters
    ----------
    protocol:
        The population protocol to run.
    configuration:
        Initial configuration; defaults to ``protocol.initial_configuration()``.
    random_state:
        Seed or generator; the same stream drives pair selection and any
        randomness the protocol consumes (synthetic coins are deterministic
        state togglings and consume none).
    metrics:
        Optional :class:`MetricsCollector` sampled on its own schedule.
    convergence_interval:
        How often (in interactions) to evaluate the convergence predicate.
        Defaults to ``n``.
    on_event:
        Optional callback ``(interaction, initiator, responder, result)``
        invoked for every interaction whose transition reported a change.
    topology:
        Optional :class:`~repro.topologies.Topology` restricting (and
        weighting) the pairs the scheduler may deliver.  ``None`` keeps the
        paper's uniform scheduler on the complete graph.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Optional[Configuration] = None,
        random_state: RandomState = None,
        metrics: Optional[MetricsCollector] = None,
        convergence_interval: Optional[int] = None,
        on_event: Optional[Callable[[int, int, int, TransitionResult], None]] = None,
        topology=None,
    ):
        self._protocol = protocol
        self._configuration = (
            configuration if configuration is not None
            else protocol.initial_configuration()
        )
        if self._configuration.population_size != protocol.n:
            raise SimulationLimitExceeded(
                f"configuration has {self._configuration.population_size} agents "
                f"but protocol was built for n={protocol.n}"
            )
        if topology is not None:
            if topology.n != protocol.n:
                raise SimulationLimitExceeded(
                    f"topology was built for n={topology.n} "
                    f"but protocol has n={protocol.n}"
                )
            from ..topologies.scheduler import TopologyScheduler

            self._scheduler = TopologyScheduler(topology, random_state)
        else:
            self._scheduler = UniformPairScheduler(protocol.n, random_state)
        self._metrics = metrics
        self._convergence_interval = (
            convergence_interval if convergence_interval is not None else protocol.n
        )
        if self._convergence_interval < 1:
            raise ValueError("convergence_interval must be positive")
        self._on_event = on_event
        self._interactions = 0
        self._rank_assignments = 0
        self._resets = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def protocol(self) -> PopulationProtocol:
        """The protocol being simulated."""
        return self._protocol

    @property
    def configuration(self) -> Configuration:
        """The current (live, mutable) configuration."""
        return self._configuration

    @property
    def interactions(self) -> int:
        """Number of interactions simulated so far."""
        return self._interactions

    @property
    def rng(self):
        """The generator shared by the scheduler and protocol transitions."""
        return self._scheduler.rng

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> TransitionResult:
        """Simulate a single interaction and return its transition result."""
        initiator_index, responder_index = self._scheduler.sample()
        states = self._configuration.states
        result = self._protocol.transition(
            states[initiator_index], states[responder_index], self._scheduler.rng
        )
        self._interactions += 1
        if result.rank_assigned is not None:
            self._rank_assignments += 1
        if result.reset_triggered:
            self._resets += 1
        if self._on_event is not None and result.changed:
            self._on_event(self._interactions, initiator_index, responder_index, result)
        return result

    def run(
        self,
        max_interactions: int,
        stop_on_convergence: bool = True,
        raise_on_limit: bool = False,
    ) -> SimulationResult:
        """Run until convergence or until ``max_interactions`` is reached.

        Parameters
        ----------
        max_interactions:
            Interaction budget for this call (not cumulative across calls).
        stop_on_convergence:
            If ``False``, always run the full budget (useful for recording
            metric series past convergence, as the paper's Figure 2 does).
        raise_on_limit:
            If ``True``, raise :class:`SimulationLimitExceeded` when the
            budget is exhausted without convergence.
        """
        max_interactions = check_budget(max_interactions)

        metrics = self._metrics
        if metrics is not None and self._interactions == 0:
            metrics.record(0, self._configuration)

        budget_end = self._interactions + max_interactions
        if stop_on_convergence:
            converged = self._protocol.has_converged(self._configuration)
            next_check = self._interactions + self._convergence_interval
        else:
            # Mid-run checks only decide when to stop, so a fixed-budget
            # run skips them; the post-loop check decides ``converged``.
            converged = False
            next_check = budget_end + 1

        # ``changed_since_check`` lets the loop skip the O(n) convergence
        # re-evaluation when no transition reported a change since the last
        # check — the predicate's value cannot have moved.  The metrics
        # branch is hoisted out of the loop: collectors are rare and the
        # per-step ``is not None`` test is measurable at this call volume.
        changed_since_check = True
        if metrics is None:
            while self._interactions < budget_end and not (converged and stop_on_convergence):
                if self.step().changed:
                    changed_since_check = True
                if self._interactions >= next_check:
                    if changed_since_check:
                        converged = self._protocol.has_converged(self._configuration)
                        changed_since_check = False
                    next_check = self._interactions + self._convergence_interval
        else:
            while self._interactions < budget_end and not (converged and stop_on_convergence):
                if self.step().changed:
                    changed_since_check = True
                metrics.maybe_record(self._interactions, self._configuration)
                if self._interactions >= next_check:
                    if changed_since_check:
                        converged = self._protocol.has_converged(self._configuration)
                        changed_since_check = False
                    next_check = self._interactions + self._convergence_interval

        converged = self._protocol.has_converged(self._configuration)
        self._record_final_snapshot()
        result = SimulationResult(
            converged=converged,
            interactions=self._interactions,
            configuration=self._configuration,
            metrics=self._metrics.series if self._metrics is not None else {},
            rank_assignments=self._rank_assignments,
            resets=self._resets,
            protocol=self._protocol.describe(),
        )
        if raise_on_limit and not converged:
            raise SimulationLimitExceeded(
                f"{self._protocol.name} did not converge within "
                f"{self._interactions} interactions",
                result=result,
            )
        return result

    def _record_final_snapshot(self) -> None:
        """Record a closing metrics snapshot so series always end at the final state."""
        if self._metrics is None:
            return
        for series in self._metrics.series.values():
            if series.interactions and series.interactions[-1] == self._interactions:
                return
            break
        self._metrics.record(self._interactions, self._configuration)

    # ------------------------------------------------------------------
    # Perturbation events
    # ------------------------------------------------------------------
    def apply_perturbation(self, mutate: Callable[[Configuration], Optional[dict]]):
        """Apply an external state mutation between interactions.

        ``mutate`` receives the live configuration and may replace agent
        states in place; its return value (an event summary, or ``None``)
        is passed through.  The scheduler's pair stream is untouched —
        perturbations must draw any randomness from their own generators
        (see :mod:`repro.scenarios.events`).
        """
        return mutate(self._configuration)

    def run_segmented(
        self,
        events,
        max_interactions: int,
        stop_on_convergence: bool = True,
    ) -> SimulationResult:
        """Run with perturbation events applied at their interaction counts.

        See :func:`segmented_run` for the semantics; the array engine
        implements the same method, and same-seed runs are bit-identical
        across the two through every event boundary.
        """
        return segmented_run(
            self, events, max_interactions, stop_on_convergence
        )

    def run_until(
        self,
        predicate: Callable[[Configuration], bool],
        max_interactions: int,
        check_interval: Optional[int] = None,
    ) -> SimulationResult:
        """Run until ``predicate(configuration)`` holds (checked periodically).

        Used by experiments that measure the time to reach intermediate
        milestones, e.g. "half of the agents are ranked" in Figure 3.
        """
        if check_interval is None:
            check_interval = max(1, self._protocol.n // 4)
        budget_end = self._interactions + check_budget(max_interactions)
        satisfied = predicate(self._configuration)
        metrics = self._metrics
        while not satisfied and self._interactions < budget_end:
            target = min(self._interactions + check_interval, budget_end)
            if metrics is None:
                while self._interactions < target:
                    self.step()
            else:
                while self._interactions < target:
                    self.step()
                    metrics.maybe_record(self._interactions, self._configuration)
            satisfied = predicate(self._configuration)
        self._record_final_snapshot()
        return SimulationResult(
            converged=satisfied,
            interactions=self._interactions,
            configuration=self._configuration,
            metrics=self._metrics.series if self._metrics is not None else {},
            rank_assignments=self._rank_assignments,
            resets=self._resets,
            protocol=self._protocol.describe(),
        )
