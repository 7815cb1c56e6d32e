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

One _Chain object per parent holds both the walk's state and its scoring
tables. Its random initial state draws from the matrix's supported columns
(AssociationMatrix.supported), the same pattern the child enumerator walks.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass

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


def default_burn_in(n_returns: int, n_objects: int) -> int:
    return 50 * (n_returns + 1) * (n_objects + 2)


def default_record_steps(n_returns: int, n_objects: int) -> int:
    return 200 * (n_returns + 1) * (n_objects + 2)


class _Chain:
    """Mutable walk state with incremental scoring over one parent's matrix.

    The matrix rows are copied to float lists for O(1) move deltas, and the
    count-level prior is memoized per (k, n_b, n_d) triple. The running
    log-likelihood is kept as a finite sum plus a count of selected -inf
    entries, so zero-likelihood assignments never produce inf - inf
    artifacts in the move deltas. propose() leaves the drawn move and its
    candidate counts in the pending fields (prefixed with an underscore) and
    cand_score; apply() commits them.
    """

    __slots__ = (
        "matrix", "rows", "death_eligible", "birth_cfg", "p_d", "_prior_memo",
        "birth_col", "clutter_col", "m", "n_objects",
        "rng", "assign", "claimed_by", "dead", "k", "n_b",
        "finite_loglik", "zero_entries", "log_score",
        "_row", "_col", "_other", "_k", "_n_b", "_finite", "_zero", "cand_score",
    )

    def __init__(
        self,
        matrix: AssociationMatrix,
        birth_cfg: BirthDeathConfig,
        p_d: float,
        rng: random.Random,
        event: AssociationEvent | None = None,
    ) -> None:
        """Load event, or draw a random initial one: each return picks
        uniformly among the supported columns of its row (zero-likelihood
        pairings would start the chain on a plateau it can take arbitrarily
        long to leave), a draw of an already-claimed object resolves to
        clutter, and the death set is empty."""
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
        self.rng = rng
        if event is None:
            self.assign: list[int] = []
            for supported in matrix.supported:
                if supported:
                    col = supported[rng.randrange(len(supported))]
                else:
                    col = rng.randrange(self.n_objects + 2)
                if col < self.n_objects and col in self.assign:
                    col = self.clutter_col
                self.assign.append(col)
            self.dead: set[int] = set()
        else:
            self.assign = [matrix.column_of(a) for a in event.assignments]
            self.dead = {matrix.object_labels.index(lbl) for lbl in event.deaths}
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

    def _score(
        self, k: int, n_b: int, n_d: int, finite_loglik: float, zero_entries: int
    ) -> float:
        """Score of the given counts and likelihood sum. A selected
        zero-likelihood entry scores -inf whatever the prior, so the prior
        is not looked up then."""
        if zero_entries > 0:
            return -math.inf
        return self.log_prior(k, n_b, n_d) + finite_loglik

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
        self.log_score = self._score(
            self.k, self.n_b, len(self.dead), self.finite_loglik, self.zero_entries
        )

    def key(self) -> tuple:
        return (tuple(self.assign), tuple(sorted(self.dead)))

    def step(self) -> None:
        """One proposal plus Metropolis accept/reject."""
        if self.propose() and self._accept(self.cand_score):
            self.apply()

    def propose(self) -> bool:
        """Draw one of the m rows or the death move uniformly, then a move in
        it, and score the candidate. Returns False for a no-change proposal
        (a dead target object, or an empty death pool), which needs no
        accept/reject."""
        n_objects = self.n_objects
        row = self.rng.randrange(self.m + 1)
        self._row = row
        if row == self.m:
            pool = [j for j in self.death_eligible if self.claimed_by[j] == -1]
            if not pool:
                return False
            j = pool[self.rng.randrange(len(pool))]
            self._col = j
            n_d = len(self.dead) + (-1 if j in self.dead else 1)
            self.cand_score = self._score(
                self.k, self.n_b, n_d, self.finite_loglik, self.zero_entries
            )
            return True
        cur = self.assign[row]
        col = self.rng.randrange(n_objects + 1)
        if col >= cur:
            col += 1
        other = -1
        if col < n_objects:
            if col in self.dead:
                return False  # would assign a dead object: invalid
            other = self.claimed_by[col]
        self._col = col
        self._other = other
        k = self.k
        n_b = self.n_b
        finite = self.finite_loglik
        zero = self.zero_entries
        entries = self.rows[row]
        removed = entries[cur]
        added = entries[col]
        if removed == -math.inf:
            zero -= 1
        else:
            finite -= removed
        if added == -math.inf:
            zero += 1
        else:
            finite += added
        if other != -1:
            # Swap: the claiming return takes the proposer's old column, so k
            # and n_b keep; proposing col from the other row reverses it.
            entries = self.rows[other]
            removed = entries[col]
            added = entries[cur]
            if removed == -math.inf:
                zero -= 1
            else:
                finite -= removed
            if added == -math.inf:
                zero += 1
            else:
                finite += added
        else:
            if cur < n_objects:
                k -= 1
            elif cur == self.birth_col:
                n_b -= 1
            if col < n_objects:
                k += 1
            elif col == self.birth_col:
                n_b += 1
        self._k = k
        self._n_b = n_b
        self._finite = finite
        self._zero = zero
        self.cand_score = self._score(k, n_b, len(self.dead), finite, zero)
        return True

    def apply(self) -> None:
        """Commit the move that the last propose() returned True for."""
        row = self._row
        col = self._col
        if row == self.m:
            if col in self.dead:
                self.dead.discard(col)
            else:
                self.dead.add(col)
        else:
            n_objects = self.n_objects
            cur = self.assign[row]
            other = self._other
            if other != -1:
                self.assign[other] = cur
            if cur < n_objects:
                self.claimed_by[cur] = other
            if col < n_objects:
                self.claimed_by[col] = row
            self.assign[row] = col
            self.k = self._k
            self.n_b = self._n_b
            self.finite_loglik = self._finite
            self.zero_entries = self._zero
        self.log_score = self.cand_score

    def _accept(self, cand_score: float) -> bool:
        if cand_score == -math.inf:
            # Zero-mass candidates are rejected from any supported state, but
            # the walk moves freely while still on the zero-mass plateau: a
            # random init on a many-object frame almost surely starts there
            # and would otherwise be stuck for good.
            return self.log_score == -math.inf
        delta = cand_score - self.log_score
        if delta >= 0.0:
            # Covers a -inf current score: any representable candidate wins.
            return True
        u = self.rng.random()
        return u == 0.0 or math.log(u) < delta

    def event(self) -> AssociationEvent:
        return _event_of(self.matrix, self.key())


def _event_of(matrix: AssociationMatrix, key: tuple) -> AssociationEvent:
    assign, deaths = key
    return AssociationEvent(
        assignments=tuple(matrix.entry_of(c) for c in assign),
        deaths=frozenset(matrix.object_labels[j] for j in deaths),
    )


def chain_seed(seed: int, parent_id: str) -> int:
    """Deterministic chain seed derived from the run seed and the parent
    hypothesis id. The trailing 0 in the entropy keeps every chain's stream
    what it was when a parent could run several indexed chains."""
    ss = np.random.SeedSequence([seed, zlib.crc32(parent_id.encode()), 0])
    state = ss.generate_state(2, dtype=np.uint64)
    return int(state[0]) << 64 | int(state[1])


def sample_children(
    parent: Hypothesis,
    matrix: AssociationMatrix,
    cfg: SamplerConfig,
    birth_cfg: BirthDeathConfig,
    sensor: SensorModel,
) -> list[ChildSample]:
    """Run one walk, record every post-burn-in state into a deduplicated
    table (scores recomputed from scratch on first visit), and return the
    top children_kept events by score.

    Deterministic given cfg.seed and the parent id.
    """
    m, n_objects = matrix.n_returns, matrix.n_objects
    burn = cfg.burn_in_steps
    if burn is None:
        burn = default_burn_in(m, n_objects)
    record = cfg.record_steps
    if record is None:
        record = default_record_steps(m, n_objects)
    table: dict[tuple, list] = {}
    chain = _Chain(matrix, birth_cfg, sensor.p_d, random.Random(chain_seed(cfg.seed, parent.id)))
    for _ in range(burn):
        chain.step()
    for _ in range(record):
        chain.step()
        key = chain.key()
        slot = table.get(key)
        if slot is None:
            chain.resync()
            table[key] = [chain.log_score, 1]
        else:
            slot[1] += 1
    ranked = sorted(table.items(), key=lambda kv: (-kv[1][0], kv[0]))
    return [
        ChildSample(event=_event_of(matrix, key), log_score=score, visits=visits)
        for key, (score, visits) in ranked[: cfg.children_kept]
    ]


def visit_distribution(samples: list[ChildSample]) -> dict[tuple, float]:
    """Empirical visit distribution keyed by canonical event encoding."""
    total = sum(s.visits for s in samples)
    if total == 0:
        return {}
    return {s.event.canonical_key(): s.visits / total for s in samples}
