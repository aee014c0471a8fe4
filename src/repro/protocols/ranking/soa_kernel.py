"""Struct-of-arrays kernel for ``StableRanking`` / ``Ranking+``.

The mid-run regime of the self-stabilizing protocol — many unranked agents
toggling synthetic coins and averaging liveness counters while ranks trickle
out — binds the array engine to its scalar walk: almost every pair writes
a coin or an ``aliveCount``, so almost every pair costs the ordered walk
~0.5 µs, and every liveness-counter combination is a
novel state pair the engine's pair cache has never seen.  This kernel
exploits the structure the generic walk cannot:

* the synthetic-coin toggle of the responder (Protocol 3, lines 9–10) is
  pure occurrence *parity*, computable for a whole chunk at once — and
  coin *presence* is invariant under every fast-path rule, so the parity
  trajectory never needs revalidation;
* the ``Ranking+`` counter updates (averaging, top-rank drain, coin-0
  replenishment; Protocol 4, lines 5–14), the phase adoptions and
  end-of-phase bumps (Protocol 2, lines 10–14), the ``FastLeaderElection``
  countdown (Protocol 5, lines 1–8) and the whole ``PropagateReset``
  life-cycle (propagation, infection of leader-electing agents, dormancy,
  wake-up, countdown-expiry resets) are genuinely sequential chains — but
  they only touch a handful of integer fields per agent, so a single
  ordered Python loop over the *counter-touching pairs only* resolves them
  at a few dozen nanoseconds per field instead of a per-pair transition
  call;
* everything else — overwhelmingly ranked×ranked meetings late in a run —
  is a provable no-op and costs nothing.

The agent classes split into a *main* domain (ranked / phase / waiting)
and a *start-up* domain (leader-electing / resetting).  Within a chunk
prefix, main-domain agents keep their class (the transitions that would
change it are declined, see below), and the start-up domain is closed
under its own rules (infection turns a leader-electing agent into a reset
agent, a wake-up turns it back), so pair *routing* is static even though
agent state is not.

Pair classification is *conservative*: the kernel stops in front of the
first pair that could take a transition it does not model — a rank
assignment, a wait-counter countdown, a drained liveness counter (reset
trigger), a leader election won (the agent enters the main protocol), an
agent of either domain meeting the other domain (joins and infections of
main agents), any agent outside the five pure state classes, duplicate
ranks, duplicate waiting agents.  Those pairs are resolved exactly by the
engine's walk (which takes the rest of the chunk when the kernel declines
early in a call), after which the kernel resumes.  They are not rare:
over 16 figure2 cells (n = 64, 50 n² interactions each) the kernel
executes 98.5% of the interactions, and the walk takes the other 1.5% —
the start-up and every rank assignment and reset.  Everything the kernel
*does* commit is bit-identical to the reference simulator, including the
``changed`` flag driving convergence checks and the ``resets`` counter
(countdown-expiry resets are executed inline and counted).

Classification happens per *state code*, once, when the code first
appears; chunk-time classification is a handful of gathers over
precomputed per-code attribute arrays and per-pair-class lookup tables.
Metric snapshots due inside a chunk do not end it (see "Snapshot stops"
in :mod:`repro.core.soa`): the scalar loop pauses at each one, the
population is committed through that pair, and the loop resumes with the
chunk's setup intact.  The kernel holds no reference to
the protocol instance — only derived parameters — so one kernel is shared
across runs of equally parameterized protocols through an
:class:`~repro.core.array_engine.EngineCache` (the same contract as the
shared pair cache).

One representational caveat: columns encode the paper's ``⊥`` as ``-1``
(:meth:`~repro.core.codec.StateCodec.field_columns`), so an *adversarial*
state holding a genuinely negative counter is classified into the
conservative ``other`` class and handled by the walk — never executed
wrongly, at worst more slowly.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ...core.soa import ChunkOutcome, ColumnStore, grow_column, occurrence_index

__all__ = ["StableRankingKernel"]

# Pure state classes of the fast path.  Everything else — blank agents,
# adversarial mixtures — is OTHER and ends the vectorized prefix.
_RANKED = 0   # rank only (coins and counters cleared on ranking)
_PHASE = 1    # phase + coin + aliveCount
_WAIT = 2     # waitCount + coin + aliveCount
_LE = 3       # FastLeaderElection state + coin
_RESET = 4    # PropagateReset counters + coin
_OTHER = 5

#: All AgentState fields; the leading ones drive the fast path, the rest
#: are checked against ⊥ to keep the pure classes honest.
_FIELDS = (
    "rank",
    "phase",
    "wait_count",
    "coin",
    "alive_count",
    "leader_done",
    "le_count",
    "coin_count",
    "is_leader",
    "reset_count",
    "delay_count",
    "le_level",
    "aux",
)
#: Fields that must be ⊥ in every pure class.
_BLANK_FIELDS = ("le_level", "aux")

# Opcode bits of the merged scalar loop (one byte per counter-touching
# pair).
_OP_AVG = 1        # both agents hold aliveCount: max-minus-one averaging
_OP_DRAIN = 2      # initiator holds rank n-1 or n: drain v's counter
_OP_PHASE_V = 4    # responder is a phase agent (rules may run on coin 1)
_OP_DOMAIN = 8     # both agents in the leader-election / reset domain
_OP_COIN = 16      # responder's coin at this position (precomputed parity)
_OP_U_RANKED = 32  # initiator is ranked (assign / bump / productive checks)
_OP_U_WAIT = 64    # initiator is the waiting leader

#: Stride of the pair-class index ``kind_u * _KINDS + kind_v``.
_KINDS = 8


def _pair_table(rule) -> np.ndarray:
    """``rule(kind_u, kind_v)`` over every pair class, by pair-class index."""
    return np.array([
        rule(kind_u, kind_v)
        for kind_u in range(_KINDS) for kind_v in range(_KINDS)
    ])


def _startup(kind: int) -> bool:
    return kind in (_LE, _RESET)


#: Pair classes that end the vectorized prefix.  An agent outside the pure
#: classes; a start-up-domain agent meeting a main-domain agent, which
#: either joins the main protocol (Protocol 3, lines 4-6) or infects it
#: with a reset, a class change either way round; duplicate waiting agents,
#: which reset on contact (Protocol 4, line 3).
_PAIR_RISK = _pair_table(lambda u, v: (
    u >= _OTHER or v >= _OTHER
    or _startup(u) != _startup(v)
    or u == v == _WAIT
))
#: Responders that carry a synthetic coin: every pure class but ranked.
_HAS_COIN = np.array([_PHASE <= kind < _OTHER for kind in range(_KINDS)])
#: The opcode bits a pair's classes decide (coin and drain bits are added
#: per pair).
_PAIR_OPS = _pair_table(lambda u, v: (
    _OP_AVG * (u in (_PHASE, _WAIT))
    + _OP_PHASE_V * (v == _PHASE)
    + _OP_DOMAIN * _startup(v)
    + _OP_U_RANKED * (u == _RANKED)
    + _OP_U_WAIT * (u == _WAIT)
))
#: Per-code row layout of :attr:`StableRankingKernel._code_rows`: the
#: shadow fields in :meth:`StableRankingKernel._agent_lists` order, then
#: the coin.
_ROW_COIN = 9


class StableRankingKernel:
    """Vectorized fast path for the self-stabilizing ranking protocol."""

    def __init__(self, protocol):
        schedule = protocol.schedule
        n = protocol.n
        self._n = n
        self._alive_reset = protocol.alive_reset
        self._l_max = protocol.l_max
        self._coin_count_init = protocol.leader_election.coin_count_init
        self._r_max = protocol.reset.r_max
        self._d_max = protocol.reset.d_max
        phase_count = schedule.phase_count
        #: Phases above this value never occur in reachable configurations;
        #: codes carrying one are classified OTHER.
        self._max_phase = phase_count + 1

        # Per-(phase, rank) decision rows, consulted inside the scalar
        # loop with the *live* phase values (phases evolve mid-chunk when
        # adoption pairs run): "does this rank assign in this phase?"
        # (Protocol 2 lines 4-9 — handed to the walk) and "is this pair
        # productive?" (Protocol 4 line 13 — replenishes the counter).
        # Plain nested lists: the loop indexes them with Python ints.
        self._assign_rows = []
        self._productive_rows = []
        #: f_k when the rank f_k announces the end of phase k (lines
        #: 10-11), else 0 — the phase-bump the loop executes inline.
        self._bump_rank = [0] * (self._max_phase + 1)
        for k in range(self._max_phase + 1):
            assign_row = [False] * (n + 1)
            productive_row = [False] * (n + 1)
            if 1 <= k <= phase_count:
                boundary = schedule.ranks_per_phase(k)
                for rank in range(1, boundary + 1):
                    assign_row[rank] = True
                if k < phase_count:
                    self._bump_rank[k] = schedule.f(k)
            if k >= 1:
                threshold = min(schedule.unranked_leader_threshold(k), n)
                for rank in range(1, threshold + 1):
                    productive_row[rank] = True
            self._assign_rows.append(assign_row)
            self._productive_rows.append(productive_row)
        #: Drain opcode bit by initiator rank (0 for unranked initiators).
        drain = np.zeros(n + 1, dtype=np.int64)
        drain[n - 1] = _OP_DRAIN
        drain[n] = _OP_DRAIN
        self._drain_op = drain

        # Per-code attributes, grown as the codec interns states: numpy
        # arrays for the chunk-wide gathers, and one tuple of Python ints
        # per code (``_ROW_COIN`` layout) for the per-agent shadow syncs
        # and commits.
        self._classified = 0
        self._kind = np.empty(0, dtype=np.int8)
        self._coin_of = np.empty(0, dtype=np.int64)
        self._rank_of = np.empty(0, dtype=np.int64)
        self._code_rows: list = []
        #: field-value tuples → interned code (commit memo).
        self._variants: Dict[Tuple[int, ...], int] = {}

        # Persistent per-agent shadow of the live population: the field
        # lists the scalar loop reads and writes, kept in lockstep with the
        # engine's code array across invocations.  Between kernel calls
        # only walked/table-path agents change, so re-entry costs one
        # vectorized code comparison plus O(#changed) Python work instead
        # of re-gathering O(n) lists per call.  ``_bound_codes`` tracks the
        # identity of the engine's code array — a shared kernel that is
        # re-bound to another engine's population (interleaved runs on one
        # EngineCache) rebuilds the shadow wholesale.
        self._bound_codes: np.ndarray | None = None
        self._synced = np.empty(0, dtype=np.int64)
        self._agent_kind: list = []
        self._agent_alive: list = []
        self._agent_phase: list = []
        self._agent_reset: list = []
        self._agent_delay: list = []
        self._agent_le_count: list = []
        self._agent_le_done: list = []
        self._agent_le_coins: list = []
        self._agent_le_leader: list = []

    # ------------------------------------------------------------------
    # VectorizedKernel interface
    # ------------------------------------------------------------------
    def columns(self) -> Tuple[str, ...]:
        return _FIELDS

    def _refresh(self, store: ColumnStore) -> None:
        """Classify codes interned since the last call."""
        size = store.refresh()
        start = self._classified
        if size <= start:
            return
        for name in ("_kind", "_coin_of", "_rank_of"):
            setattr(self, name, grow_column(getattr(self, name), start, size))
        window = slice(start, size)
        rank = store.column("rank")[window]
        phase = store.column("phase")[window]
        wait = store.column("wait_count")[window]
        coin = store.column("coin")[window]
        alive = store.column("alive_count")[window]
        leader_done = store.column("leader_done")[window]
        le_count = store.column("le_count")[window]
        coin_count = store.column("coin_count")[window]
        is_leader = store.column("is_leader")[window]
        reset = store.column("reset_count")[window]
        delay = store.column("delay_count")[window]
        blank = np.ones(size - start, dtype=bool)
        for field in _BLANK_FIELDS:
            blank &= store.column(field)[window] == -1
        no_le = (
            (leader_done < 0) & (le_count < 0) & (coin_count < 0) & (is_leader < 0)
        )
        no_reset = (reset < 0) & (delay < 0)
        counters = (coin >= 0) & (alive >= 0) & blank & no_le & no_reset
        pure_phase = (
            (phase >= 1) & (phase <= self._max_phase)
            & (rank < 0) & (wait < 0) & counters
        )
        pure_wait = (wait >= 0) & (rank < 0) & (phase < 0) & counters
        pure_ranked = (
            (rank >= 1) & (rank <= self._n)
            & (phase < 0) & (wait < 0) & (coin < 0) & (alive < 0)
            & blank & no_le & no_reset
        )
        pure_le = (
            (leader_done >= 0) & (le_count >= 0) & (coin_count >= 0)
            & (is_leader >= 0) & (coin >= 0)
            & (rank < 0) & (phase < 0) & (wait < 0) & (alive < 0)
            & blank & no_reset
        )
        pure_reset = (
            ((reset >= 0) | (delay >= 0)) & (coin >= 0)
            & (rank < 0) & (phase < 0) & (wait < 0) & (alive < 0)
            & blank & no_le
        )
        kind = np.full(size - start, _OTHER, dtype=np.int8)
        kind[pure_phase] = _PHASE
        kind[pure_wait] = _WAIT
        kind[pure_le] = _LE
        kind[pure_reset] = _RESET
        kind[pure_ranked] = _RANKED
        coin = np.where(coin >= 0, coin, 0)
        self._kind[window] = kind
        self._coin_of[window] = coin
        self._rank_of[window] = np.where(pure_ranked, rank, 0)
        self._code_rows.extend(zip(
            kind.tolist(), alive.tolist(),
            np.where(pure_phase, phase, 0).tolist(), reset.tolist(),
            delay.tolist(), le_count.tolist(), leader_done.tolist(),
            coin_count.tolist(), is_leader.tolist(), coin.tolist(),
        ))
        self._classified = size

    def _agent_lists(self) -> tuple:
        return (
            self._agent_kind, self._agent_alive, self._agent_phase,
            self._agent_reset, self._agent_delay, self._agent_le_count,
            self._agent_le_done, self._agent_le_coins, self._agent_le_leader,
        )

    def _sync_agents(self, codes: np.ndarray) -> None:
        """Bring the per-agent field shadow in line with the live codes.

        Agents whose code changed outside the kernel (walked pairs, table
        chunks) are found by comparing against the snapshot taken at the
        last sync; only those entries are re-projected.  The shadow of a
        committed agent always equals its current code's projection, so
        nothing else can have drifted.
        """
        rows = self._code_rows
        if self._bound_codes is not codes or len(self._synced) != len(codes):
            self._bound_codes = codes
            self._synced = codes.copy()
            fields = zip(*(rows[code] for code in codes.tolist()))
            (
                self._agent_kind, self._agent_alive, self._agent_phase,
                self._agent_reset, self._agent_delay, self._agent_le_count,
                self._agent_le_done, self._agent_le_coins,
                self._agent_le_leader,
            ) = [list(values) for values in fields][:_ROW_COIN]
            return
        dirty = np.flatnonzero(codes != self._synced)
        if not len(dirty):
            return
        dirty_codes = codes[dirty]
        self._synced[dirty] = dirty_codes
        shadows = self._agent_lists()
        for agent, code in zip(dirty.tolist(), dirty_codes.tolist()):
            for shadow, value in zip(shadows, rows[code]):
                shadow[agent] = value

    # ------------------------------------------------------------------
    # Chunk processing
    # ------------------------------------------------------------------
    def apply_chunk(
        self,
        initiators: np.ndarray,
        responders: np.ndarray,
        columns: ColumnStore,
        rng: np.random.Generator,
        stops: Sequence[int] = (),
        on_stop: Optional[Callable[[int], None]] = None,
    ) -> ChunkOutcome:
        self._refresh(columns)
        codes = columns.codes
        self._sync_agents(codes)
        code_u = codes[initiators]
        code_v = codes[responders]
        kind_v = self._kind[code_v]
        pair_kind = self._kind[code_u] * _KINDS + kind_v
        rank_u = self._rank_of[code_u]

        # --- classification: where must the vectorized prefix end? -----
        risk = _PAIR_RISK[pair_kind]
        # Duplicate ranks reset on contact (line 1; adversarial only).
        # ``_rank_of`` is 0 outside the ranked class.
        risk |= (rank_u == self._rank_of[code_v]) & (rank_u > 0)
        prefix = int(np.argmax(risk)) if risk.any() else len(initiators)
        if prefix == 0:
            return ChunkOutcome(0)

        # Responders carrying a coin (everyone but ranked agents) are
        # toggled every interaction, so the coin at position t is the
        # chunk-start coin XOR the parity of the agent's earlier responder
        # appearances.  Coin presence is invariant under every fast-path
        # rule, so the parity trajectory is exact for the whole prefix.
        # All phase- and state-dependent decisions are taken inside the
        # ordered loop below against the *live* values.
        loop_positions = np.flatnonzero(_HAS_COIN[kind_v[:prefix]])
        coin_responders = responders[loop_positions]

        # --- sequential chains, in one ordered scalar loop --------------
        # The loop's field state lives in the persistent per-agent shadow
        # (see :meth:`_sync_agents`): reads see the current codes'
        # projections, writes carry the committed chains over to the next
        # invocation.  Declined pairs must still leave no trace — every
        # decline below breaks *before* its first shadow write.
        alive = self._agent_alive
        phase_l = self._agent_phase
        dyn_kind = self._agent_kind
        reset_l = self._agent_reset
        delay_l = self._agent_delay
        le_count_l = self._agent_le_count
        le_done_l = self._agent_le_done
        le_coins_l = self._agent_le_coins
        le_leader_l = self._agent_le_leader
        touched = set()
        resets = 0
        reset_positions: list = []
        # The loop runs in segments that end at the snapshot stops the
        # static prefix reaches; a decline inside a segment ends the chunk
        # before that segment's stop.
        reachable = [stop for stop in stops if stop <= prefix]
        segments = list(zip(
            np.searchsorted(loop_positions, reachable).tolist(), reachable
        ))
        segments.append((len(loop_positions), None))
        committed = 0
        ops = init_l = resp_l = rank_l = pos_l = ()
        if len(loop_positions):
            coin_at = self._coin_of[code_v[loop_positions]] ^ (
                occurrence_index(coin_responders) & 1
            )
            rank_loop = rank_u[loop_positions]
            opcode = (
                _PAIR_OPS[pair_kind[loop_positions]]
                + self._drain_op[rank_loop]
                + coin_at * _OP_COIN
            )
            ops = opcode.tolist()
            init_l = initiators[loop_positions].tolist()
            resp_l = coin_responders.tolist()
            rank_l = rank_loop.tolist()
            pos_l = loop_positions.tolist()
        refill = self._alive_reset
        l_max = self._l_max
        r_max = self._r_max
        d_max = self._d_max
        coins_init = self._coin_count_init
        assign_rows = self._assign_rows
        productive_rows = self._productive_rows
        bump_rank = self._bump_rank
        add = touched.add
        start = 0
        for end, stop in segments:
            for index in range(start, end):
                op = ops[index]
                if op & _OP_DOMAIN:
                    # Start-up domain: PropagateReset and leader election.
                    # Class flips (infection, wake-up, countdown-expiry
                    # resets) stay inside the domain, so routing here was
                    # decided statically while the per-agent state is
                    # live.  All candidate values are computed before any
                    # write: a dormancy expiry re-enters leader election
                    # *within the same transition* (Protocol 3 line 1 then
                    # lines 2-3), and that follow-up step may conclude the
                    # election, in which case the whole pair is declined
                    # and must leave no trace.
                    i = init_l[index]
                    j = resp_l[index]
                    ki = dyn_kind[i]
                    kj = dyn_kind[j]
                    woke_i = woke_j = False
                    if ki == _RESET or kj == _RESET:
                        # Reset rules (Protocol 3, line 1 / Section V-A).
                        next_ki, next_kj = ki, kj
                        count_i = reset_l[i]
                        wait_i = delay_l[i]
                        count_j = reset_l[j]
                        wait_j = delay_l[j]
                        if count_i > 0 and count_j > 0:
                            count_i = count_j = (
                                count_i if count_i >= count_j else count_j
                            ) - 1
                        elif count_i > 0:
                            count_i -= 1
                            if kj != _RESET:
                                # Infect the leader-electing responder.
                                next_kj = _RESET
                                count_j = count_i
                                wait_j = d_max
                        elif count_j > 0:
                            count_j -= 1
                            if ki != _RESET:
                                next_ki = _RESET
                                count_i = count_j
                                wait_i = d_max
                        # Dormancy: initiator first, then responder.
                        if next_ki == _RESET and count_i == 0 and wait_i > 0:
                            wait_i -= 1
                            if wait_i == 0:
                                # Wake: restart leader election.
                                next_ki = _LE
                                count_i = wait_i = -1
                                woke_i = True
                        if next_kj == _RESET and count_j == 0 and wait_j > 0:
                            wait_j -= 1
                            if wait_j == 0:
                                next_kj = _LE
                                count_j = wait_j = -1
                                woke_j = True
                    else:
                        next_ki, next_kj = ki, kj
                        count_i = wait_i = count_j = wait_j = -1
                    # Protocol 3 lines 2-3: if both agents are (now) in
                    # leader election, Protocol 5 runs for the initiator.
                    le_write = False
                    if next_ki == _LE and next_kj == _LE:
                        count = l_max if woke_i else le_count_l[i]
                        done = 0 if woke_i else le_done_l[i]
                        coins = coins_init if woke_i else le_coins_l[i]
                        leader = 0 if woke_i else le_leader_l[i]
                        count = count - 1 if count > 0 else 0
                        if done != 1:
                            if not op & _OP_COIN:
                                done = 1
                            elif coins > 0:
                                coins -= 1
                            else:
                                leader = 1
                                done = 1
                        if leader == 1 and 2 * count >= l_max:
                            # Elected fast enough: the agent joins the
                            # main protocol — the walk executes this pair.
                            prefix = pos_l[index]
                            break
                        if count == 0:
                            # Countdown expired: TriggerReset (counted).
                            next_ki = _RESET
                            count_i = r_max
                            wait_i = d_max
                            resets += 1
                            reset_positions.append(pos_l[index])
                        else:
                            le_write = True
                    # Commit the pair's effects to the tracked chains.
                    if ki == _RESET or kj == _RESET or next_ki != ki:
                        dyn_kind[i] = next_ki
                        dyn_kind[j] = next_kj
                        reset_l[i] = count_i
                        delay_l[i] = wait_i
                        reset_l[j] = count_j
                        delay_l[j] = wait_j
                    if woke_j:
                        le_count_l[j] = l_max
                        le_coins_l[j] = coins_init
                        le_done_l[j] = 0
                        le_leader_l[j] = 0
                    if le_write:
                        le_count_l[i] = count
                        le_done_l[i] = done
                        le_coins_l[i] = coins
                        le_leader_l[i] = leader
                    elif woke_i and next_ki == _LE:
                        le_count_l[i] = l_max
                        le_coins_l[i] = coins_init
                        le_done_l[i] = 0
                        le_leader_l[i] = 0
                    add(i)
                    add(j)
                    continue
                # Ranking+ on a main-state pair (responder holds a coin
                # and an aliveCount).  Candidate counter values are
                # computed first and only written once the pair is known
                # to stay on the fast path — a declined pair must leave
                # no trace (the walk executes it in full).
                j = resp_l[index]
                value = alive[j]
                if op & _OP_AVG:
                    i = init_l[index]
                    other = alive[i]
                    new = (value if value >= other else other) - 1
                    if new < 0:
                        new = 0
                    shared = new
                else:
                    new = value
                    shared = -1
                if op & _OP_DRAIN and new > 0:
                    new -= 1
                if new == 0:
                    # Lines 9-11: a drained counter triggers a reset; the
                    # pair (and everything after it) goes to the walk.
                    prefix = pos_l[index]
                    break
                bump = 0
                adopt = 0
                if op & _OP_COIN:
                    # Lines 15-18: the coin shows 1, the Protocol 2 rules
                    # run.  Against a phase responder a ranked initiator
                    # may assign (walked) or announce the end of a phase
                    # (inline bump); the waiting leader counts down
                    # (walked); two phase agents adopt the maximum phase
                    # (inline).
                    if op & _OP_PHASE_V:
                        pv = phase_l[j]
                        if op & _OP_U_RANKED:
                            rank = rank_l[index]
                            if assign_rows[pv][rank]:
                                prefix = pos_l[index]
                                break
                            if rank == bump_rank[pv]:
                                bump = pv + 1
                        elif op & _OP_U_WAIT:
                            prefix = pos_l[index]
                            break
                        elif op & _OP_AVG:  # initiator is a phase agent
                            pu = phase_l[i]
                            if pu != pv:
                                adopt = pu if pu >= pv else pv
                elif op & _OP_U_WAIT or (
                    op & _OP_U_RANKED
                    and op & _OP_PHASE_V
                    and productive_rows[phase_l[j]][rank_l[index]]
                ):
                    # Lines 12-14: coin 0 on a productive pair replenishes
                    # the liveness counter.
                    if new != refill:
                        new = refill
                if shared >= 0:
                    alive[i] = shared
                    add(i)
                alive[j] = new
                add(j)
                if bump:
                    phase_l[j] = bump
                elif adopt:
                    phase_l[i] = adopt
                    phase_l[j] = adopt
            else:
                start = end
                if stop is not None:
                    self._commit(columns, touched, coin_responders[committed:end])
                    committed = end
                    on_stop(stop)
                continue
            break
        if prefix == 0:
            return ChunkOutcome(0)

        # --- commit: coins by parity, everything else from the chains ---
        done = int(np.searchsorted(loop_positions, prefix))
        self._commit(columns, touched, coin_responders[committed:done])
        changed = done > 0
        if resets:
            # Resets at or past a shortened prefix were never committed.
            resets = sum(1 for pos in reset_positions if pos < prefix)
        return ChunkOutcome(prefix, changed, 0, resets)

    def _commit(
        self, columns: ColumnStore, touched: set, responders: np.ndarray
    ) -> None:
        """Write the chains' effects since the last commit to the population.

        ``responders`` are the coin-carrying responders of the pairs since
        the last commit; each coin flips by the parity of its appearances.
        Every other field comes from the per-agent shadow of the
        ``touched`` agents, which the call empties.  An earlier stop's
        commit may have interned codes, so they are classified first.
        """
        self._refresh(columns)
        flipped = ()
        if len(responders):
            flipped = set(np.flatnonzero(np.bincount(responders) & 1).tolist())
            touched |= flipped
        if not touched:
            return
        code_list = columns.code_list
        rows = self._code_rows
        alive = self._agent_alive
        phase_l = self._agent_phase
        dyn_kind = self._agent_kind
        reset_l = self._agent_reset
        delay_l = self._agent_delay
        le_count_l = self._agent_le_count
        le_done_l = self._agent_le_done
        le_coins_l = self._agent_le_coins
        le_leader_l = self._agent_le_leader
        commit_agents = []
        commit_codes = []
        variants = self._variants
        for agent in touched:
            old_code = code_list[agent]
            row = rows[old_code]
            old_coin = row[_ROW_COIN]
            new_coin = old_coin ^ 1 if agent in flipped else old_coin
            kind_now = dyn_kind[agent]
            if kind_now == _LE or kind_now == _RESET:
                # Start-up domain: rebuild the code from the tracked
                # field values (the domain class may have flipped).
                if kind_now == _RESET:
                    key = (
                        old_code, _RESET, new_coin,
                        reset_l[agent], delay_l[agent],
                    )
                    new_code = variants.get(key)
                    if new_code is None:
                        count = reset_l[agent]
                        wait = delay_l[agent]
                        new_code = columns.codec.variant_code(
                            old_code,
                            coin=new_coin,
                            reset_count=None if count < 0 else count,
                            delay_count=None if wait < 0 else wait,
                            le_count=None,
                            coin_count=None,
                            leader_done=None,
                            is_leader=None,
                        )
                        variants[key] = new_code
                else:
                    key = (
                        old_code, _LE, new_coin,
                        le_count_l[agent], le_done_l[agent],
                        le_coins_l[agent], le_leader_l[agent],
                    )
                    new_code = variants.get(key)
                    if new_code is None:
                        new_code = columns.codec.variant_code(
                            old_code,
                            coin=new_coin,
                            le_count=le_count_l[agent],
                            leader_done=le_done_l[agent],
                            coin_count=le_coins_l[agent],
                            is_leader=le_leader_l[agent],
                            reset_count=None,
                            delay_count=None,
                        )
                        variants[key] = new_code
            else:
                new_alive = alive[agent]
                new_phase = phase_l[agent]
                if new_coin == old_coin and new_alive == row[1] and (
                    new_phase == row[2]
                ):
                    new_code = old_code
                else:
                    key = (old_code, new_coin, new_alive, new_phase)
                    new_code = variants.get(key)
                    if new_code is None:
                        updates = {"coin": new_coin}
                        if new_alive >= 0:
                            updates["alive_count"] = new_alive
                        if new_phase >= 1:
                            updates["phase"] = new_phase
                        new_code = columns.codec.variant_code(old_code, **updates)
                        variants[key] = new_code
            if new_code != old_code:
                commit_agents.append(agent)
                commit_codes.append(new_code)
        if commit_agents:
            columns.commit(commit_agents, commit_codes)
            # The shadow already holds the committed field values;
            # record the new codes so the next sync sees no drift.
            self._synced[commit_agents] = commit_codes
        touched.clear()
