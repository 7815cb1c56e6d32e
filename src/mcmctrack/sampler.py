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
there is none). Scores are log(child prior) + log(likelihood).

One _Chain object per parent holds its scoring tables and a state, which
is a column key of the matrix (see AssociationMatrix). start draws a random
initial state from the matrix's supported columns
(AssociationMatrix.supported), the same pattern the child enumerator walks;
load sets a given key. _Chain.run simulates the walk exactly by its jump
chain (Douc & Robert, "A vanilla Rao-Blackwellization of
Metropolis-Hastings algorithms", Ann. Statist. 2011): the first time the
walk reaches a state, kernel_row builds and memoizes that state's one-step
kernel row, the probability of each move that leaves it; from there the
steps held at the state are a geometric draw and the move is a draw from
the row. From a finite state a candidate that scores -inf is never
accepted, so a row scores only the supported columns. job_children
generates one parent's children from a ChildJob, by the walk or, in
exhaustive mode, by loading every key of oracle.enumerate_child_keys into
the same scorer, so every child score comes from _Chain; sample_children
is the public single-parent walk.

Stream contract: start draws each return's column out of its row's
supported columns (all M+2 columns when none is) with CPython's randrange
algorithm on rng.getrandbits (bound.bit_length() bits, redrawn while not
below the bound), the words rng.randrange would take. run then draws only
rng.random(): one for the holding time of each state it holds at whose
leave probability p has 0 < p < 1 (none when p = 0 or p >= 1), and one for
each move.
"""

from __future__ import annotations

import heapq
import math
import random
import zlib
from bisect import bisect_right
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
    """One walk over one parent's matrix: its scoring tables, its state and
    the kernel rows of the states it has reached.

    The matrix rows are copied to float lists for O(1) move deltas, and the
    count-level prior is memoized per (k, n_b, n_d) triple. A loaded
    state's log-likelihood is kept as a finite sum plus a count of selected
    -inf entries, so zero-likelihood assignments never produce inf - inf
    artifacts in the move deltas. kernel maps each state key the walk has
    reached to its kernel_row, and run() is the one walk method.
    """

    __slots__ = (
        "matrix", "rows", "death_eligible", "birth_cfg", "p_d", "_prior_memo",
        "birth_col", "clutter_col", "m", "n_objects", "rng", "assign",
        "claimed_by", "dead", "k", "n_b", "finite_loglik", "zero_entries",
        "log_score", "kernel",
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
        self.kernel: dict[tuple, tuple] = {}

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

    def kernel_row(self, key: tuple) -> tuple:
        """The one-step kernel row of state key, built on its first request
        and memoized for the walk: (log_score, p, cumulative, destinations).

        log_score is the state's from-scratch score (resync). The row lists
        every proposal that leaves the state with a positive acceptance
        probability, in proposal order: rows ascending, within a row the
        columns ascending, then the death pool ascending. destinations[j]
        is the j-th such move's key and cumulative[j] the probability that
        one step takes one of the moves 0..j, so p = cumulative[-1] (0 for
        an empty row) is the probability that a step leaves the state.

        From a finite state a move whose candidate scores -inf is never
        accepted, so only each row's supported columns are scored, and a
        swap that would hand the claiming return a zero-likelihood entry is
        skipped. From a -inf state every proposal that changes the state is
        accepted with its proposal probability. Building a row loads key.
        """
        row = self.kernel.get(key)
        if row is not None:
            return row
        self.load(key)
        assign, deaths = key
        n_objects = self.n_objects
        birth_col = self.birth_col
        rows = self.rows
        dead = self.dead
        claimed_by = self.claimed_by
        k, n_b, n_d = self.k, self.n_b, len(deaths)
        finite = self.finite_loglik
        score = self.log_score
        plateau = score == -math.inf
        log_prior = self.log_prior
        exp = math.exp
        neg_inf = -math.inf
        n_rows = self.m + 1
        every_col = range(n_objects + 2)
        cumulative: list[float] = []
        destinations: list[tuple] = []
        total = 0.0
        q = 1.0 / (n_rows * (n_objects + 1))
        for i, cur in enumerate(assign):
            entries = rows[i]
            for col in every_col if plateau else self.matrix.supported[i]:
                # Assigning a dead object would be invalid: no change.
                if col == cur or (col < n_objects and col in dead):
                    continue
                other = claimed_by[col] if col < n_objects else -1
                accept = 1.0
                if not plateau:
                    c_finite = finite - entries[cur] + entries[col]
                    if other == -1:
                        c_k = k - (cur < n_objects) + (col < n_objects)
                        c_n_b = n_b - (cur == birth_col) + (col == birth_col)
                    else:
                        # Swap: the claiming return takes the proposer's old
                        # column, so k and n_b keep; proposing col from the
                        # other row reverses it.
                        back = rows[other][cur]
                        if back == neg_inf:
                            continue
                        c_finite = c_finite - rows[other][col] + back
                        c_k, c_n_b = k, n_b
                    prior = log_prior(c_k, c_n_b, n_d)
                    if prior == neg_inf:
                        continue
                    delta = prior + c_finite - score
                    if delta < 0.0:
                        accept = exp(delta)
                        if accept == 0.0:
                            continue
                moved = list(assign)
                moved[i] = col
                if other != -1:
                    moved[other] = cur
                total += q * accept
                cumulative.append(total)
                destinations.append((tuple(moved), deaths))
        pool = [j for j in self.death_eligible if claimed_by[j] == -1]
        if pool:
            q = 1.0 / (n_rows * len(pool))
            for j in pool:
                if j in dead:
                    c_n_d = n_d - 1
                    toggled = tuple(d for d in deaths if d != j)
                else:
                    c_n_d = n_d + 1
                    toggled = tuple(sorted((*deaths, j)))
                accept = 1.0
                if not plateau:
                    prior = log_prior(k, n_b, c_n_d)
                    if prior == neg_inf:
                        continue
                    delta = prior + finite - score
                    if delta < 0.0:
                        accept = exp(delta)
                        if accept == 0.0:
                            continue
                total += q * accept
                cumulative.append(total)
                destinations.append((assign, toggled))
        row = self.kernel[key] = (score, total, cumulative, destinations)
        return row

    def run(self, steps: int, visits: dict[tuple, int] | None = None) -> None:
        """Advance the walk by steps Metropolis steps, simulated by its jump
        chain: at a state whose row leaves with probability p, the steps
        held there are a geometric count of failures,
        floor(log(1 - U) / log1p(-p)), and the step that ends the hold moves
        to the destination found by bisecting U * p in the row's cumulative
        probabilities. p = 0 holds for the rest of the budget and p >= 1
        (which summation can overshoot by a rounding error, where log1p(-p)
        is NaN) holds for none; neither draws a holding variate. Holding
        times have no memory, so a run that ends mid-hold leaves the next
        run to draw a fresh one. The chain ends loaded with the state it
        reached.

        With visits, every step adds one visit to the key of the state it
        ends in: a hold adds its length to the state, and a move step one
        to its destination, so the run adds exactly steps visits.
        """
        kernel = self.kernel
        kernel_row = self.kernel_row
        uniform = self.rng.random
        log = math.log
        log1p = math.log1p
        key = self.key()
        _, p, cumulative, destinations = kernel_row(key)
        count = 0
        left = steps
        while left:
            if p <= 0.0:
                hold = left
            elif p >= 1.0:
                hold = 0
            else:
                hold = log(1.0 - uniform()) / log1p(-p)
                hold = left if hold >= left else int(hold)
            if hold >= left:
                count += left
                break
            count += hold
            left -= hold + 1
            if visits is not None and count:
                visits[key] = visits.get(key, 0) + count
            # hi keeps a product U * p that rounds up to p on the last move.
            key = destinations[bisect_right(cumulative, uniform() * p, 0, len(cumulative) - 1)]
            _, p, cumulative, destinations = kernel.get(key) or kernel_row(key)
            count = 1
        if visits is not None and count:
            visits[key] = visits.get(key, 0) + count
        self.load(key)

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
    walk counts the visits of every post-burn-in state and returns the top
    children_kept of them by score (each state's from-scratch score, from
    its kernel row); it is deterministic given job.cfg.seed and the parent
    id.
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
    visits: dict[tuple, int] = {}
    chain.start(random.Random(chain_seed(cfg.seed, job.parent.id)))
    chain.run(burn)
    chain.run(record, visits)
    # heapq documents nsmallest(n, it, key) as equal to sorted(it, key=key)[:n];
    # the keys are distinct, so the order has no ties either way.
    kernel = chain.kernel
    ranked = heapq.nsmallest(
        cfg.children_kept, visits, key=lambda key: (-kernel[key][0], key)
    )
    return [
        ChildSample(event=matrix.event_of(key), log_score=kernel[key][0], visits=visits[key])
        for key in ranked
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
