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

One _Chain object per parent holds its scoring tables, the kernel rows
and visit counts of the states it has reached and its position, the
integer id sid of a state key (a column key, see AssociationMatrix). start
draws a random initial state from the matrix's supported columns
(AssociationMatrix.supported), the same pattern the child enumerator
walks. tally scores a key from scratch; it is the one production scorer.
_Chain.run simulates the walk exactly by its jump chain (Douc & Robert, "A
vanilla Rao-Blackwellization of Metropolis-Hastings algorithms", Ann.
Statist. 2011) over state ids: each state gets an id the first time a row
names it, and for each state the walk reaches, build_row builds and
memoizes once, under that id, the state's one-step kernel row: its score,
the probability p that a step leaves it, and each move that does, as its
cumulative probability and its destination id. Each departure from a
state takes the next (span, destination) pair of the state's own stack
(span = hold + 1: the steps held there plus the step that moves), drawn in
numpy batches (the per-state "random stacks" of Wilson, "Generating random
spanning trees more quickly than the cover time", STOC 1996), so a move
costs a few list indexes. From a finite state a candidate that scores -inf
is never accepted, so a row scores only the supported columns.

A parent's children come from one of two calls: sample_children walks,
and enumerate_children scores every key of oracle.enumerate_child_keys
with tally, so every child score comes from _Chain. child_score_bounds
reads a scan's matrix and each parent's columns of it and gives each
parent an upper bound on every tally score of its children, which the
tracker uses to skip the parents none of whose children it could keep
before it selects their matrices. All three read the count-level prior
from one memoized prior_table.

Stream contract: each walk draws from one numpy Generator, seeded from
chain_seed. start draws every return's column in one call,
rng.integers(0, sizes), sizes[i] the size of row i's supported columns
(all M+2 columns when none is). run then draws only (span, destination)
pairs, span = hold + 1 for the geometric hold. The first time the walk
needs a pair at a state (to leave it, or to hold out a budget there), the
state gets one endless source of pairs, which draws its next batch of n
pairs exactly when the last one is used up, n = FIRST_BATCH (16) at first
and doubling up to LAST_BATCH (1024): rng.random(n) for the destinations,
then rng.standard_exponential(n) for the holds. A state with p = 0 draws
nothing, and one with p >= 1 draws no exponentials (every span is 1).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import zlib
from dataclasses import dataclass
from typing import Sequence

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
        if self.seed < 0:
            raise ConfigError("sampler.seed must be >= 0")


# Distinct prior tables kept: a seed-0 preset run uses a few dozen.
PRIOR_TABLES = 128


@functools.lru_cache(maxsize=PRIOR_TABLES)
def prior_table(
    n_objects: int, eligible: int, n_returns: int, birth_cfg: BirthDeathConfig, p_d: float
) -> tuple:
    """log_count_prior of each count triple a child can have, as
    table[k][n_b][n_d] for k <= min(n_objects, m), n_b <= m - k and n_d <=
    min(eligible, n_objects - k), m = n_returns: each return takes one
    column, and only unclaimed eligible objects die. Memoized on its
    arguments: every walk, enumeration and bound shares one table."""
    return tuple(
        tuple(
            tuple(log_count_prior(k, n_b, n_d, n_objects, n_returns, birth_cfg, p_d)
                  for n_d in range(min(eligible, n_objects - k) + 1))
            for n_b in range(n_returns - k + 1))
        for k in range(min(n_objects, n_returns) + 1))


# A state's first batch of (span, destination) pairs, and the size its
# batches double up to: a state the walk leaves a few times draws little it
# does not use, and one it leaves often draws rarely.
FIRST_BATCH = 16
LAST_BATCH = 1024
# Holds are kept as int64: a longer hold is drawn as MAX_HOLD, which run
# reads as "at least MAX_HOLD" by running at most MAX_HOLD steps at a time.
MAX_HOLD = 2**62
# Only a rate -log1p(-p) below this can overflow a standard exponential
# draw divided by it (numpy's draws stay below 50, far under 2**24), to an
# inf that the MAX_HOLD clamp takes like any long hold.
TINY_RATE = 2.0**-1000


@dataclass(frozen=True)
class ChildSample:
    """One recorded child: event, exact log-score, and visit count."""

    event: AssociationEvent
    log_score: float
    visits: int


def _batches(rng: np.random.Generator, row: tuple):
    """Endless batches of (span, destination id) pairs, drawn from rng, of a
    state whose kernel row (_Chain.build_row) leaves it with p > 0: each
    batch is a zip of n spans and n destinations, n = FIRST_BATCH at first
    and doubling up to LAST_BATCH.

    A destination is the move that U * p, U uniform on [0, 1), falls in
    among the row's cumulative probabilities but the last, so a product
    that rounds up to p lands on the last move. A span is hold + 1, the
    hold floor(E / -log1p(-p)) for a standard exponential E, so P(hold >=
    h) = (1 - p)^h: the geometric count of steps held before the step that
    moves, kept at most MAX_HOLD. When p >= 1 (which summation can
    overshoot by a rounding error, where log1p(-p) is NaN) every span is 1
    and no exponential is drawn. Only multiplication, division, truncation
    (floor, for these non-negative values), an integer add, comparison and
    search touch a draw, so every platform turns the same draws into the
    same pairs. A rate below TINY_RATE divides with numpy's overflow
    warning off: the inf it may give is clamped like any long hold."""
    _, p, cumulative, destinations = row
    rate = -math.log1p(-p) if p < 1.0 else None
    quiet = rate is not None and rate < TINY_RATE
    bounds = np.array(cumulative[:-1])
    moves = np.array(destinations)
    n = FIRST_BATCH
    while True:
        # Temporaries only: the suspended generator keeps no draw arrays.
        u = rng.random(n)
        u *= p
        dests = moves[bounds.searchsorted(u, "right")].tolist()
        if rate is None:
            spans = itertools.repeat(1)
        else:
            e = rng.standard_exponential(n)
            if quiet:
                with np.errstate(over="ignore"):
                    e /= rate
            else:
                e /= rate
            # float(MAX_HOLD) is exact: MAX_HOLD is a power of two.
            holds = np.minimum(e, float(MAX_HOLD), out=e).astype(np.int64)
            holds += 1
            spans = holds.tolist()
        yield zip(spans, dests)
        n = min(2 * n, LAST_BATCH)


# The pair source of a state the walk has not yet left: it raises StopIteration.
_SPENT = iter(()).__next__


class _Chain:
    """One walk over one parent's matrix: its scoring tables, the kernel
    rows of the states it has reached, and its position sid.

    The matrix rows are copied to float lists (entries) for O(1) move
    deltas, and prior is the matrix's shared prior_table, indexed
    prior[k][n_b][n_d].
    tally keeps a state's log-likelihood as a finite sum plus a flag for a
    selected -inf entry, so zero-likelihood assignments never produce
    inf - inf artifacts in the move deltas.

    Each state key gets an integer id the first time a row names it
    (state_id): ids maps a key to its id and keys an id to its key. rows is
    the one memo of kernel rows, indexed by id (None until the walk first
    stands on the state), and a row names its destinations by id, so run()
    walks ids: one list index per move, no key hashing. visits, also indexed
    by id, is the walk's one visit record: the steps run() has ended in each
    state since the list was last reset. The walk's state is keys[sid].

    pairs, indexed by id, is each state's source of (span, destination)
    pairs: _SPENT until run first leaves the state, then the __next__ of its
    one endless stream (see the module's stream contract), drawn from rng,
    the walk's numpy Generator.
    """

    __slots__ = (
        "matrix", "entries", "death_eligible", "prior", "birth_col", "clutter_col", "m",
        "n_objects", "rng", "sid", "ids", "keys", "rows", "visits", "pairs",
    )

    def __init__(
        self, matrix: AssociationMatrix, birth_cfg: BirthDeathConfig, p_d: float
    ) -> None:
        """The scoring tables of matrix; start (or setting sid) sets a state."""
        self.matrix = matrix
        self.m = matrix.n_returns
        self.n_objects = matrix.n_objects
        self.birth_col = matrix.birth_col
        self.clutter_col = matrix.clutter_col
        self.entries = matrix.log_entries.tolist()
        self.death_eligible = [j for j, ok in enumerate(matrix.death_eligible) if ok]
        self.prior = prior_table(self.n_objects, len(self.death_eligible), self.m, birth_cfg, p_d)
        self.ids: dict[tuple, int] = {}
        self.keys: list[tuple] = []
        self.rows: list[tuple | None] = []
        self.visits: list[int] = []
        self.pairs: list = []

    def start(self, rng: np.random.Generator) -> None:
        """Draw a random initial state from rng, the stream run then draws
        from: each return picks uniformly among the supported columns of its
        row (zero-likelihood pairings would start the chain on a plateau it
        can take arbitrarily long to leave), all in one integers call, a
        draw of an already-claimed object resolves to clutter, and the death
        set is empty."""
        self.rng = rng
        every_col = self.n_objects + 2
        supported_of = self.matrix.supported
        draws = rng.integers(0, [len(s) or every_col for s in supported_of]).tolist()
        assign: list[int] = []
        for supported, col in zip(supported_of, draws):
            if supported:
                col = supported[col]
            if col < self.n_objects and col in assign:
                col = self.clutter_col
            assign.append(col)
        self.sid = self.state_id((tuple(assign), ()))

    def tally(self, key: tuple) -> tuple[list[int], int, int, float, float]:
        """Score column key (assignment, death columns) from scratch:
        (claimed_by, k, n_b, finite, score), where claimed_by[j] is the
        return that claims object j (-1 if none), k and n_b count the
        object assignments and births, finite sums the selected finite
        entries in row order, and score is the log child prior plus the
        log-likelihood."""
        assign, deaths = key
        n_objects, birth_col, entries = self.n_objects, self.birth_col, self.entries
        claimed_by = [-1] * n_objects
        k = n_b = 0
        finite = 0.0
        zero = False
        for i, col in enumerate(assign):
            if col < n_objects:
                claimed_by[col] = i
                k += 1
            elif col == birth_col:
                n_b += 1
            entry = entries[i][col]
            if entry == -math.inf:
                zero = True
            else:
                finite += entry
        # A selected zero-likelihood entry scores -inf whatever the prior,
        # so the prior is not looked up then.
        if zero:
            return claimed_by, k, n_b, finite, -math.inf
        return claimed_by, k, n_b, finite, self.prior[k][n_b][len(deaths)] + finite

    def state_id(self, key: tuple) -> int:
        """The integer id of state key, given on its first request."""
        sid = self.ids.get(key)
        if sid is None:
            sid = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.rows.append(None)
            self.visits.append(0)
            self.pairs.append(_SPENT)
        return sid

    def build_row(self, sid: int) -> tuple:
        """Build, memoize and return the kernel row (score, p, cumulative,
        destinations) of state sid.

        The row's score is the state's from-scratch score (tally). The row
        lists every proposal that leaves the state with a positive
        acceptance probability, in proposal order: rows ascending, within a
        row the columns ascending, then the death pool ascending.
        destinations[j] is the id of the j-th such move's key and
        cumulative[j] the probability that one step takes one of the moves
        0..j, so p = cumulative[-1] (0 for an empty row) is the probability
        that a step leaves the state.

        From a finite state a move whose candidate scores -inf is never
        accepted, so only each row's supported columns are scored, and a
        swap that would hand the claiming return a zero-likelihood entry is
        skipped. From a -inf state every proposal that changes the state is
        accepted with its proposal probability. A destination the chain has
        not named before gets the next id.
        """
        key = self.keys[sid]
        assign, deaths = key
        claimed_by, k, n_b, finite, score = self.tally(key)
        n_d = len(deaths)
        n_objects = self.n_objects
        birth_col = self.birth_col
        entries_of = self.entries
        plateau = score == -math.inf
        table = self.prior
        state_id = self.state_id
        exp = math.exp
        neg_inf = -math.inf
        n_rows = self.m + 1
        every_col = range(n_objects + 2)
        supported = self.matrix.supported
        cumulative: list[float] = []
        destinations: list[int] = []
        total = 0.0
        q = 1.0 / (n_rows * (n_objects + 1))
        for i, cur in enumerate(assign):
            entries = entries_of[i]
            # The candidate's finite sum is (finite - entries[cur]) +
            # entries[col], summed in that order.
            base = finite - entries[cur]
            k_base = k - (cur < n_objects)
            n_b_base = n_b - (cur == birth_col)
            for col in every_col if plateau else supported[i]:
                # Assigning a dead object would be invalid: no change.
                if col == cur or (deaths and col < n_objects and col in deaths):
                    continue
                other = claimed_by[col] if col < n_objects else -1
                accept = 1.0
                if not plateau:
                    c_finite = base + entries[col]
                    if other == -1:
                        c_k = k_base + (col < n_objects)
                        c_n_b = n_b_base + (col == birth_col)
                    else:
                        # Swap: the claiming return takes the proposer's old
                        # column, so k and n_b keep; proposing col from the
                        # other row reverses it.
                        back = entries_of[other][cur]
                        if back == neg_inf:
                            continue
                        c_finite = c_finite - entries_of[other][col] + back
                        c_k, c_n_b = k, n_b
                    delta = table[c_k][c_n_b][n_d] + c_finite - score
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
                destinations.append(state_id((tuple(moved), deaths)))
        pool = [j for j in self.death_eligible if claimed_by[j] == -1]
        if pool:
            q = 1.0 / (n_rows * len(pool))
            for j in pool:
                if j in deaths:
                    c_n_d = n_d - 1
                    toggled = tuple(d for d in deaths if d != j)
                else:
                    c_n_d = n_d + 1
                    toggled = tuple(sorted((*deaths, j)))
                accept = 1.0
                if not plateau:
                    delta = table[k][n_b][c_n_d] + finite - score
                    if delta < 0.0:
                        accept = exp(delta)
                        if accept == 0.0:
                            continue
                total += q * accept
                cumulative.append(total)
                destinations.append(state_id((assign, toggled)))
        row = self.rows[sid] = (score, total, cumulative, destinations)
        return row

    def run(self, steps: int) -> None:
        """Advance the walk by steps Metropolis steps, simulated by its jump
        chain over state ids: each departure from a state takes the next
        (span, destination) pair of the state's source (pairs), holds span -
        1 steps there and moves to destination on the next step. The first
        departure installs the source, building the row if the walk has
        not: the chained batches of _batches, or, for a state no move leaves
        (p = 0), the pair (MAX_HOLD + 1, sid) for ever, which holds out every
        budget and draws nothing. A pair whose span runs past the end of the
        budget is spent without its move: holds have no memory, so the next
        run takes a fresh pair. Every pair is drawn afresh and independently
        of the path, so the path is the jump chain in law. A budget over
        MAX_HOLD runs as runs of at most MAX_HOLD steps, so that a hold kept
        at MAX_HOLD always holds out its run. The run starts at sid, leaves
        the state it reached in sid, and builds the row of every state it
        reaches.

        Every step adds one to visits at the id of the state it ends in: a
        hold adds its length to the state, and a move step one to its
        destination, so the run adds exactly steps visits. The loop credits
        each whole span, move step included, to the state it leaves: the
        start state, which the run does not arrive in, gives one back up
        front, and the state the run ends in gets the steps left over plus
        its arrival.
        """
        while steps > MAX_HOLD:
            self.run(MAX_HOLD)
            steps -= MAX_HOLD
        visits = self.visits
        pairs = self.pairs
        sid = self.sid
        visits[sid] -= 1
        left = steps
        while left:
            try:
                span, dest = pairs[sid]()
            except StopIteration:
                # The first departure from sid: install its endless source.
                row = self.rows[sid] or self.build_row(sid)
                pairs[sid] = (itertools.chain.from_iterable(_batches(self.rng, row)).__next__
                              if row[1] > 0.0 else itertools.repeat((MAX_HOLD + 1, sid)).__next__)
                span, dest = pairs[sid]()
            if span > left:
                break
            visits[sid] += span
            left -= span
            sid = dest
        visits[sid] += left + 1
        if self.rows[sid] is None:
            self.build_row(sid)
        self.sid = sid


def chain_seed(seed: int, parent_id: str) -> np.random.SeedSequence:
    """The seed of the walk over parent_id's children in a run seeded with
    seed: the SeedSequence of [seed, crc32 of parent_id, 0], one stream
    per (run seed, parent)."""
    return np.random.SeedSequence([seed, zlib.crc32(parent_id.encode()), 0])


def sample_children(
    parent: Hypothesis,
    matrix: AssociationMatrix,
    cfg: SamplerConfig,
    birth_cfg: BirthDeathConfig,
    sensor: SensorModel,
) -> list[ChildSample]:
    """The walk's children of parent over matrix: the visits zeroed after
    burn-in, the top children_kept of the states the record run visits, by
    score (each state's from-scratch score, from its kernel row).
    Deterministic given cfg.seed and parent.id; of sensor only p_d is read."""
    chain = _Chain(matrix, birth_cfg, sensor.p_d)
    size = (matrix.n_returns + 1) * (matrix.n_objects + 2)
    burn = 50 * size if cfg.burn_in_steps is None else cfg.burn_in_steps
    record = 200 * size if cfg.record_steps is None else cfg.record_steps
    chain.start(np.random.default_rng(chain_seed(cfg.seed, parent.id)))
    chain.run(burn)
    chain.visits = [0] * len(chain.keys)
    chain.run(record)
    # heapq documents nsmallest(n, it, key) as equal to sorted(it, key=key)[:n];
    # the keys are distinct, so the order has no ties either way.
    rows, keys, visits = chain.rows, chain.keys, chain.visits
    ranked = heapq.nsmallest(
        cfg.children_kept, [sid for sid, n in enumerate(visits) if n],
        key=lambda sid: (-rows[sid][0], keys[sid]),
    )
    return [
        ChildSample(event=matrix.event_of(keys[sid]), log_score=rows[sid][0], visits=visits[sid])
        for sid in ranked
    ]


def enumerate_children(
    matrix: AssociationMatrix, birth_cfg: BirthDeathConfig, p_d: float
) -> list[ChildSample]:
    """Every child over matrix: the event of each key of
    enumerate_child_keys, in its order, with its _Chain.tally score and
    visits 0."""
    chain = _Chain(matrix, birth_cfg, p_d)
    return [
        ChildSample(matrix.event_of(key), chain.tally(key)[4], visits=0)
        for key in enumerate_child_keys(matrix)
    ]


def child_score_bounds(
    scan_matrix: AssociationMatrix,
    cols_by_parent: Sequence[list[int]],
    birth_cfg: BirthDeathConfig,
    p_d: float,
) -> list[float]:
    """An upper bound on every _Chain.tally score over each parent's matrix
    of one scan, scan_matrix.select(cols) for cols in cols_by_parent,
    read from scan_matrix without selecting one.

    The bound relaxes the claims: each row offers its best entry among the
    parent's object columns, its birth entry or its clutter entry, and a
    row-order DP (from 0.0, in tally's summation order) keeps the largest
    sum per (k, n_b), k up to the parent's objects and n_b up to n_pixels
    (log_count_prior is -inf past that). -inf entries carry -inf, so they
    offer nothing. Each sum is added to the largest prior_table cell over
    the death counts of (k, n_b), the parent's eligible deaths read from
    scan_matrix.death_eligible, and the bound is the largest such total.
    A maximum does not depend on the order of cols, and IEEE addition is
    monotone, so the bound is at least every tallied score, bit for bit.
    """
    if not cols_by_parent:
        return []
    m = scan_matrix.n_returns
    n_k = min(max(map(len, cols_by_parent)), m) + 1
    n_b = min(birth_cfg.n_pixels, m) + 1
    entries = scan_matrix.log_entries
    # One index of every parent's columns, padded with column -1: a -inf
    # entry, which a maximum ignores, and a death flag of 0. best[i, p] is
    # row i's best entry among parent p's object columns.
    width = max(1, *map(len, cols_by_parent))
    index = np.array([[*cols, *[-1] * (width - len(cols))] for cols in cols_by_parent])
    best = np.concatenate((entries, np.full((m, 1), -math.inf)), axis=1)[:, index].max(axis=2)
    eligible = np.array([*scan_matrix.death_eligible, False])[index].sum(axis=1).tolist()
    keys = list(zip(map(len, cols_by_parent), eligible))
    # maxima[n_objects, eligible]: the largest prior per (k, n_b).
    maxima: dict[tuple[int, int], np.ndarray] = {}
    for key in keys:
        if key not in maxima:
            maxima[key] = np.full((n_k, n_b), -math.inf)
            for k, births in enumerate(prior_table(*key, m, birth_cfg, p_d)):
                cells = [max(deaths) for deaths in births[:n_b]]
                maxima[key][k, :len(cells)] = cells
    prior = np.array([maxima[key] for key in keys])
    dp = np.full((len(cols_by_parent), n_k, n_b), -math.inf)
    dp[:, 0, 0] = 0.0
    for obj, (birth, clutter) in zip(best[:, :, None, None], entries[:, scan_matrix.birth_col:]):
        new = dp + clutter
        np.maximum(new[:, 1:], dp[:, :-1] + obj, out=new[:, 1:])
        np.maximum(new[:, :, 1:], dp[:, :, :-1] + birth, out=new[:, :, 1:])
        dp = new
    return (prior + dp).max(axis=(1, 2)).tolist()


def visit_distribution(samples: list[ChildSample]) -> dict[tuple, float]:
    """Empirical visit distribution keyed by canonical event encoding."""
    total = sum(s.visits for s in samples)
    if total == 0:
        return {}
    return {s.event.canonical_key(): s.visits / total for s in samples}
