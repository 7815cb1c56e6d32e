"""Metropolis random walk over association events.

The chain state is one row of the would-be hypothesis matrix: an assignment
per return (object column, birth, or clutter) plus a death set. A step picks
one of m+1 moves uniformly: one per matrix row, which reassigns that return
uniformly among the other columns, and the death move. When the target
object is already claimed by another return, the two returns swap: the
other return takes the proposer's old column (MCMCDA's switch move). The
swap leaves the counts of associations and births unchanged and its reverse
is drawn with the same probability, so the proposal is symmetric and the
walk's stationary distribution is the exact posterior. Proposing an
association to an object currently marked dead would produce a structurally
invalid event, so it is treated as a no-change proposal; the dead object can
first be revived through the death move, which toggles one uniformly chosen
unassociated death-eligible object's death status (a no-change proposal when
there is none). Scores are log(child prior) + log(likelihood), maintained
incrementally and recomputed from scratch whenever a new event is recorded.

One _Chain object per parent holds its scoring tables and a state, which
is a column key of the matrix (see AssociationMatrix). start draws a random
initial state from the matrix's supported columns
(AssociationMatrix.supported), the same pattern the child enumerator walks;
load sets a given key. _Chain.run is the one stepping method: a single loop
over local variables that draws, scores, tests and commits each move and,
when given a table, records the visits. job_children generates one parent's
children from a ChildJob, by the walk or, in exhaustive mode, by loading
every key of oracle.enumerate_child_keys into the same scorer, so every
child score comes from _Chain; sample_children is the public single-parent
walk.

Stream contract: each integer draw, the initial state's and run's (a row
out of m+1, then one of the M+1 other columns or a member of the unclaimed
death-eligible pool), runs CPython's randrange algorithm inline on
rng.getrandbits: bound.bit_length() bits, redrawn while not below the
bound. The walk thus consumes the same Mersenne Twister words as a walk
calling rng.randrange and, for a given seed, visits the same states. A step
draws rng.random() only for a finite candidate that scores below the
current state. Visits are recorded run-length: a step that did not move
adds one to the current state's table slot without building or hashing its
key.
"""

from __future__ import annotations

import heapq
import math
import random
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .filters import SensorModel
from .hypotheses import (
    AssociationEvent,
    BirthDeathConfig,
    Hypothesis,
    log_count_prior,
)
from .likelihoods import AssociationMatrix
from .oracle import enumerate_child_keys


@dataclass(frozen=True)
class SamplerConfig:
    """Chain sizing and seeding. burn_in_steps / record_steps of None use the
    dimension-proportional defaults 50*(m+1)*(M+2) and 200*(m+1)*(M+2)."""

    burn_in_steps: int | None = None
    record_steps: int | None = None
    children_kept: int = 25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.burn_in_steps is not None and self.burn_in_steps < 0:
            raise ConfigError("sampler.burn_in_steps must be >= 0")
        if self.record_steps is not None and self.record_steps < 1:
            raise ConfigError("sampler.record_steps must be >= 1")
        if self.children_kept < 1:
            raise ConfigError("sampler.children_kept must be >= 1")


@dataclass(frozen=True)
class ChildSample:
    """One recorded child: event, exact log-score, and visit count."""

    event: AssociationEvent
    log_score: float
    visits: int


class _Chain:
    """Mutable walk state with incremental scoring over one parent's matrix.

    The matrix rows are copied to float lists for O(1) move deltas, and the
    count-level prior is memoized per (k, n_b, n_d) triple. The running
    log-likelihood is kept as a finite sum plus a count of selected -inf
    entries, so zero-likelihood assignments never produce inf - inf
    artifacts in the move deltas. run() is the one stepping method.
    """

    __slots__ = (
        "matrix", "rows", "death_eligible", "birth_cfg", "p_d", "_prior_memo",
        "birth_col", "clutter_col", "m", "n_objects", "rng", "assign",
        "claimed_by", "dead", "k", "n_b", "finite_loglik", "zero_entries",
        "log_score",
    )

    def __init__(
        self, matrix: AssociationMatrix, birth_cfg: BirthDeathConfig, p_d: float
    ) -> None:
        """The scoring tables of matrix; start or load sets a state."""
        self.matrix = matrix
        self.m = matrix.n_returns
        self.n_objects = matrix.n_objects
        self.birth_col = matrix.birth_col
        self.clutter_col = matrix.clutter_col
        self.rows = matrix.log_entries.tolist()
        self.death_eligible = [j for j, ok in enumerate(matrix.death_eligible) if ok]
        self.birth_cfg = birth_cfg
        self.p_d = p_d
        self._prior_memo: dict[tuple[int, int, int], float] = {}

    def start(self, rng: random.Random) -> None:
        """Draw a random initial state from rng, the stream run then draws
        from: each return picks uniformly among the supported columns of its
        row (zero-likelihood pairings would start the chain on a plateau it
        can take arbitrarily long to leave), a draw of an already-claimed
        object resolves to clutter, and the death set is empty."""
        self.rng = rng
        getrandbits = rng.getrandbits
        self.assign: list[int] = []
        for supported in self.matrix.supported:
            n = len(supported) or self.n_objects + 2
            bits = n.bit_length()
            col = getrandbits(bits)
            while col >= n:
                col = getrandbits(bits)
            if supported:
                col = supported[col]
            if col < self.n_objects and col in self.assign:
                col = self.clutter_col
            self.assign.append(col)
        self.dead: set[int] = set()
        self.resync()

    def load(self, key: tuple) -> None:
        """Set the state to column key (assignment, death columns) and score
        it from scratch."""
        assign, deaths = key
        self.assign = list(assign)
        self.dead = set(deaths)
        self.resync()

    def log_prior(self, k: int, n_b: int, n_d: int) -> float:
        """log child prior for k object assignments, n_b births, n_d deaths
        (log_count_prior, memoized per count triple)."""
        key = (k, n_b, n_d)
        out = self._prior_memo.get(key)
        if out is None:
            out = self._prior_memo[key] = log_count_prior(
                k, n_b, n_d, self.n_objects, self.m, self.birth_cfg, self.p_d
            )
        return out

    def resync(self) -> None:
        """Recount claims, counts, likelihood sum and score from scratch
        from the assignment and the death set."""
        self.claimed_by = [-1] * self.n_objects
        self.k = 0
        self.n_b = 0
        self.finite_loglik = 0.0
        self.zero_entries = 0
        for i, col in enumerate(self.assign):
            if col < self.n_objects:
                self.claimed_by[col] = i
                self.k += 1
            elif col == self.birth_col:
                self.n_b += 1
            entry = self.rows[i][col]
            if entry == -math.inf:
                self.zero_entries += 1
            else:
                self.finite_loglik += entry
        # A selected zero-likelihood entry scores -inf whatever the prior,
        # so the prior is not looked up then.
        if self.zero_entries:
            self.log_score = -math.inf
        else:
            prior = self.log_prior(self.k, self.n_b, len(self.dead))
            self.log_score = prior + self.finite_loglik

    def key(self) -> tuple:
        """(assignment, sorted death set) of the current state."""
        return (tuple(self.assign), tuple(sorted(self.dead)))

    def run(self, steps: int, table: dict[tuple, list] | None = None) -> None:
        """Take steps Metropolis steps. Each draws one of the m rows or the
        death move uniformly, then a move in it, scores the candidate from
        the move's deltas and accepts it with probability
        min(1, exp(candidate - current)). A dead target object or an empty
        death pool is a no-change proposal, which draws no acceptance
        variate.

        With table, every step adds one visit to the slot of the state it
        ends in, keyed by key(): a step that did not move adds to the
        current slot without building or hashing a key, and a state's first
        visit rescores it from scratch (resync) into [log_score, visits].
        """
        m = self.m
        n_objects = self.n_objects
        birth_col = self.birth_col
        rows = self.rows
        death_eligible = self.death_eligible
        assign = self.assign
        dead = self.dead
        claimed_by = self.claimed_by
        k = self.k
        n_b = self.n_b
        finite = self.finite_loglik
        zero = self.zero_entries
        score = self.log_score
        memo_get = self._prior_memo.get
        log_prior = self.log_prior
        getrandbits = self.rng.getrandbits
        uniform = self.rng.random
        log = math.log
        neg_inf = -math.inf
        n_rows = m + 1
        row_bits = n_rows.bit_length()
        n_cols = n_objects + 1
        col_bits = n_cols.bit_length()
        slot = None
        for _ in range(steps):
            # Integer draws run CPython's randrange algorithm on getrandbits.
            row = getrandbits(row_bits)
            while row >= n_rows:
                row = getrandbits(row_bits)
            c_k = k
            c_n_b = n_b
            c_finite = finite
            c_zero = zero
            n_d = len(dead)
            if row == m:
                pool = [j for j in death_eligible if claimed_by[j] == -1]
                proposed = bool(pool)
                if proposed:
                    n = len(pool)
                    bits = n.bit_length()
                    r = getrandbits(bits)
                    while r >= n:
                        r = getrandbits(bits)
                    col = pool[r]
                    n_d += -1 if col in dead else 1
            else:
                cur = assign[row]
                col = getrandbits(col_bits)
                while col >= n_cols:
                    col = getrandbits(col_bits)
                if col >= cur:
                    col += 1
                other = -1
                # Assigning a dead object would be invalid: no change.
                proposed = col >= n_objects or col not in dead
                if proposed:
                    entries = rows[row]
                    removed = entries[cur]
                    added = entries[col]
                    if removed == neg_inf:
                        c_zero -= 1
                    else:
                        c_finite -= removed
                    if added == neg_inf:
                        c_zero += 1
                    else:
                        c_finite += added
                    if col < n_objects:
                        other = claimed_by[col]
                    if other != -1:
                        # Swap: the claiming return takes the proposer's old
                        # column, so k and n_b keep; proposing col from the
                        # other row reverses it.
                        entries = rows[other]
                        removed = entries[col]
                        added = entries[cur]
                        if removed == neg_inf:
                            c_zero -= 1
                        else:
                            c_finite -= removed
                        if added == neg_inf:
                            c_zero += 1
                        else:
                            c_finite += added
                    else:
                        if cur < n_objects:
                            c_k -= 1
                        elif cur == birth_col:
                            c_n_b -= 1
                        if col < n_objects:
                            c_k += 1
                        elif col == birth_col:
                            c_n_b += 1
            moved = False
            if proposed:
                # Same score as resync() computes, with the prior memo read
                # inline.
                if c_zero:
                    cand = neg_inf
                else:
                    prior = memo_get((c_k, c_n_b, n_d))
                    if prior is None:
                        prior = log_prior(c_k, c_n_b, n_d)
                    cand = prior + c_finite
                if cand == neg_inf:
                    # Zero-mass candidates are rejected from any supported
                    # state, but the walk moves freely while still on the
                    # zero-mass plateau: a random init on a many-object frame
                    # almost surely starts there and would otherwise be stuck
                    # for good.
                    moved = score == neg_inf
                else:
                    delta = cand - score
                    # delta >= 0 covers a -inf current score: any
                    # representable candidate wins.
                    if delta >= 0.0:
                        moved = True
                    else:
                        u = uniform()
                        moved = u == 0.0 or log(u) < delta
                if moved:
                    if row == m:
                        if col in dead:
                            dead.discard(col)
                        else:
                            dead.add(col)
                    else:
                        if other != -1:
                            assign[other] = cur
                        if cur < n_objects:
                            claimed_by[cur] = other
                        if col < n_objects:
                            claimed_by[col] = row
                        assign[row] = col
                        k = c_k
                        n_b = c_n_b
                        finite = c_finite
                        zero = c_zero
                    score = cand
            if table is not None:
                if moved or slot is None:
                    key = self.key()
                    slot = table.get(key)
                    if slot is None:
                        # Rescore from scratch. resync() rebinds claimed_by
                        # and resums the likelihood, so reload every local
                        # it recomputes.
                        self.resync()
                        claimed_by = self.claimed_by
                        k = self.k
                        n_b = self.n_b
                        finite = self.finite_loglik
                        zero = self.zero_entries
                        score = self.log_score
                        table[key] = slot = [score, 0]
                slot[1] += 1
        self.k = k
        self.n_b = n_b
        self.finite_loglik = finite
        self.zero_entries = zero
        self.log_score = score

    def event(self) -> AssociationEvent:
        return self.matrix.event_of(self.key())


def chain_seed(seed: int, parent_id: str) -> int:
    """Deterministic chain seed derived from the run seed and the parent
    hypothesis id. The trailing 0 in the entropy keeps every chain's stream
    what it was when a parent could run several indexed chains."""
    ss = np.random.SeedSequence([seed, zlib.crc32(parent_id.encode()), 0])
    state = ss.generate_state(2, dtype=np.uint64)
    return int(state[0]) << 64 | int(state[1])


@dataclass(frozen=True)
class ChildJob:
    """One parent's child generation: sample_children's arguments plus the
    route, a walk or (exhaustive) the enumeration of every supported event.
    Of parent and sensor only parent.id, which seeds the walk, and
    sensor.p_d are read, so a job pickles its parent without the tracks
    (with them, a sixty-object job took 0.8 ms to pickle and unpickle on a
    2-core Xeon, 20 times its matrix)."""

    parent: Hypothesis
    matrix: AssociationMatrix
    cfg: SamplerConfig
    birth_cfg: BirthDeathConfig
    sensor: SensorModel
    exhaustive: bool = False

    def __reduce__(self):
        parent = replace(self.parent, tracks=())
        fields = (self.matrix, self.cfg, self.birth_cfg, self.sensor, self.exhaustive)
        return ChildJob, (parent, *fields)


def job_children(job: ChildJob) -> list[ChildSample]:
    """The children of job.parent over job.matrix, whichever process runs it.

    Enumeration returns the event of every key of enumerate_child_keys, in
    its order, with visits 0 and the score of the key loaded into _Chain. A
    walk records every post-burn-in state into a deduplicated table (scores
    recomputed from scratch on first visit) and returns the top
    children_kept events by score; it is deterministic given job.cfg.seed
    and the parent id.
    """
    matrix, cfg = job.matrix, job.cfg
    chain = _Chain(matrix, job.birth_cfg, job.sensor.p_d)
    if job.exhaustive:
        samples = []
        for key in enumerate_child_keys(matrix):
            chain.load(key)
            samples.append(ChildSample(matrix.event_of(key), chain.log_score, visits=0))
        return samples
    size = (matrix.n_returns + 1) * (matrix.n_objects + 2)
    burn = 50 * size if cfg.burn_in_steps is None else cfg.burn_in_steps
    record = 200 * size if cfg.record_steps is None else cfg.record_steps
    table: dict[tuple, list] = {}
    chain.start(random.Random(chain_seed(cfg.seed, job.parent.id)))
    chain.run(burn)
    chain.run(record, table)
    # heapq documents nsmallest(n, it, key) as equal to sorted(it, key=key)[:n];
    # the keys are distinct, so the order has no ties either way.
    ranked = heapq.nsmallest(
        cfg.children_kept, table.items(), key=lambda kv: (-kv[1][0], kv[0])
    )
    return [
        ChildSample(event=matrix.event_of(key), log_score=score, visits=visits)
        for key, (score, visits) in ranked
    ]


def sample_children(
    parent: Hypothesis,
    matrix: AssociationMatrix,
    cfg: SamplerConfig,
    birth_cfg: BirthDeathConfig,
    sensor: SensorModel,
) -> list[ChildSample]:
    """The walk's children of parent over matrix: job_children of a walk job."""
    return job_children(ChildJob(parent, matrix, cfg, birth_cfg, sensor))


def visit_distribution(samples: list[ChildSample]) -> dict[tuple, float]:
    """Empirical visit distribution keyed by canonical event encoding."""
    total = sum(s.visits for s in samples)
    if total == 0:
        return {}
    return {s.event.canonical_key(): s.visits / total for s in samples}
