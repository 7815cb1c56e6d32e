"""Brute-force enumeration of child hypotheses for small instances.

Two event spaces appear here. The full grandchild space distinguishes which
pixels birth (including births that produce no return) and is what the
closed-form count formula counts; enumerate_grandchildren walks it. The
reduced space is what the data-association-matrix representation (and the
MCMC walk) can express: per-return assignments plus a death set.
enumerate_child_keys walks the part of the reduced space that the matrix
supports (every selected entry in AssociationMatrix.supported), as column
keys; exhaustive tracking scores those keys with the walk's scorer, and
enumerate_child_events maps the same keys to events.

exact_posterior scores the same keys with an independent reimplementation
of the prior/likelihood composition, _key_scorer, which shares only the
matrix entries with the production path: it counts a key's associations,
births and deaths from its columns, computes the log child prior of each
count triple from first principles once per call, and adds the key's
entries in row order. It keys the posterior by canonical event encoding,
read from the matrix's column_entries, without building an event.
_independent_log_score scores an event by mapping it to its key.

MAX_EVENTS is the one event budget, and the two enumerators enforce it
themselves: enumerate_grandchildren refuses up front when the closed-form
count exceeds it, and enumerate_child_keys raises as soon as it would yield
one key more, so no caller counts.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import DegenerateUpdateError, EnumerationLimitError
from .filters import SensorModel
from .hypotheses import (
    CLUTTER,
    AssociationEvent,
    BirthDeathConfig,
    Hypothesis,
    count_grandchildren,
)
from .likelihoods import AssociationMatrix

# Neither enumeration builds more events than this.
MAX_EVENTS = 10_000_000


class GrandchildEvent(NamedTuple):
    """Full-space event: which pixels birth, which objects die, and one
    assignment entry per return (a survivor label, a ('b', pixel) newborn
    reference, or CLUTTER)."""

    birth_pixels: tuple[int, ...]
    deaths: tuple[str, ...]
    assignments: tuple[object, ...]


def enumerate_grandchildren(
    parent_labels: Sequence[str],
    n_returns: int,
    n_pixels: int,
) -> list[GrandchildEvent]:
    """Every distinct (birth placement, death subset, association) exactly
    once. Associations are injective partial maps from returns onto the
    child's objects (survivors plus newborns); unassociated returns are
    clutter. The list length equals count_grandchildren(M, m, N); that count
    only decides refusal (above MAX_EVENTS), the events are built
    independently of it."""
    labels = tuple(parent_labels)
    count = count_grandchildren(len(labels), n_returns, n_pixels)
    if count > MAX_EVENTS:
        raise EnumerationLimitError(
            f"grandchild enumeration refused: {count} events exceed {MAX_EVENTS}"
        )
    out: list[GrandchildEvent] = []
    returns = range(n_returns)
    for n_d in range(len(labels) + 1):
        for death_set in combinations(labels, n_d):
            survivors = [lbl for lbl in labels if lbl not in death_set]
            for n_b in range(n_pixels + 1):
                for pixels in combinations(range(n_pixels), n_b):
                    objects = survivors + [("b", p) for p in pixels]
                    for n in range(min(n_returns, len(objects)) + 1):
                        for ret_subset in combinations(returns, n):
                            for chosen in permutations(objects, n):
                                assignment: list[object] = [CLUTTER] * n_returns
                                for idx, obj in zip(ret_subset, chosen):
                                    assignment[idx] = obj
                                out.append(
                                    GrandchildEvent(pixels, death_set, tuple(assignment))
                                )
    return out


def enumerate_child_keys(matrix: AssociationMatrix) -> Iterator[tuple]:
    """The column key (per-return columns, ascending death columns) of every
    event of the reduced space with finite likelihood, exactly once. The
    walk goes row by row over each return's supported columns, skipping
    objects an earlier return claimed, so its work follows the keys it
    yields; deaths range over the unclaimed death-eligible objects. Raises
    EnumerationLimitError instead of yielding key number MAX_EVENTS + 1."""
    m = matrix.n_returns
    n_objects = matrix.n_objects
    can_die = [j for j, ok in enumerate(matrix.death_eligible) if ok]
    assign = [0] * m
    claimed: set[int] = set()

    def walk(i: int) -> Iterator[tuple]:
        if i == m:
            assignment = tuple(assign)
            free = [j for j in can_die if j not in claimed]
            for n_d in range(len(free) + 1):
                for death_set in combinations(free, n_d):
                    yield assignment, death_set
            return
        for col in matrix.supported[i]:
            if col in claimed:
                continue
            assign[i] = col
            if col < n_objects:
                claimed.add(col)
                yield from walk(i + 1)
                claimed.remove(col)
            else:
                yield from walk(i + 1)

    for count, key in enumerate(walk(0), 1):
        if count > MAX_EVENTS:
            raise EnumerationLimitError(
                f"child enumeration exceeded {MAX_EVENTS} supported events"
            )
        yield key


def enumerate_child_events(matrix: AssociationMatrix) -> Iterator[AssociationEvent]:
    """The events of enumerate_child_keys(matrix), in its order."""
    yield from map(matrix.event_of, enumerate_child_keys(matrix))


def _log_prior(
    k: int, n_b: int, n_d: int, m: int, n_parent: int,
    birth_cfg: BirthDeathConfig, p_d: float,
) -> float:
    """The log child prior of k associations, n_b births and n_d deaths
    among m returns of an n_parent-object parent, from first principles:
    -inf past the n_pixels cap or where the prior is 0."""
    if n_b > birth_cfg.n_pixels:
        return -math.inf
    prior = birth_cfg.alpha ** n_b * birth_cfg.beta ** n_d
    m_child = n_parent + n_b - n_d
    prior *= p_d ** k * (1.0 - p_d) ** (m_child - k)
    prior /= math.comb(m, k) * math.factorial(k)
    if prior == 0.0:
        return -math.inf
    return math.log(prior)


def _key_scorer(
    matrix: AssociationMatrix,
    birth_cfg: BirthDeathConfig,
    sensor: SensorModel,
    n_parent: int,
) -> Callable[[tuple], float]:
    """The oracle's scorer of column keys over matrix: a key's log prior
    (_log_prior of its counts, computed once per count triple) plus its
    log-likelihood, the row-order sum of its log_entries as Python floats.
    Shares only the matrix entries with the production scoring path."""
    entries = matrix.log_entries.tolist()
    birth_col, clutter_col = matrix.birth_col, matrix.clutter_col
    m = matrix.n_returns
    priors: dict[tuple[int, int, int], float] = {}

    def score(key: tuple) -> float:
        assign, deaths = key
        n_b = assign.count(birth_col)
        counts = (m - n_b - assign.count(clutter_col), n_b, len(deaths))
        log_prior = priors.get(counts)
        if log_prior is None:
            log_prior = priors[counts] = _log_prior(*counts, m, n_parent, birth_cfg, sensor.p_d)
        if log_prior == -math.inf:
            return -math.inf
        loglik = 0.0
        for row, col in zip(entries, assign):
            loglik += row[col]
        return log_prior + loglik

    return score


def _independent_log_score(
    event: AssociationEvent,
    matrix: AssociationMatrix,
    birth_cfg: BirthDeathConfig,
    sensor: SensorModel,
    n_parent: int,
) -> float:
    """The oracle's score of event over matrix: its column key (through
    column_of) scored by _key_scorer."""
    key = (
        tuple(map(matrix.column_of, event.assignments)),
        tuple(sorted(map(matrix.column_of, event.deaths))),
    )
    return _key_scorer(matrix, birth_cfg, sensor, n_parent)(key)


def exact_posterior(
    parent: Hypothesis,
    matrix: AssociationMatrix,
    birth_cfg: BirthDeathConfig,
    sensor: SensorModel,
) -> dict[tuple, float]:
    """Exact normalized posterior over the supported reduced event space of
    one parent, keyed by canonical event encoding (assignment entries, then
    the death labels sorted), in enumerate_child_keys order. Each key is
    scored by _key_scorer without building its event. Events the matrix
    does not support carry zero mass and have no key."""
    score = _key_scorer(matrix, birth_cfg, sensor, len(parent.tracks))
    label = matrix.column_entries.__getitem__
    scores: dict[tuple, float] = {}
    for key in enumerate_child_keys(matrix):
        assign, deaths = key
        scores[tuple(map(label, assign)), tuple(sorted(map(label, deaths)))] = score(key)
    top = max(scores.values(), default=-math.inf)
    if top == -math.inf:
        raise DegenerateUpdateError("no enumerated event carries mass")
    total = sum(math.exp(v - top) for v in scores.values())
    return {key: math.exp(v - top) / total for key, v in scores.items()}


def tv_distance(p: dict, q: dict) -> float:
    """Total-variation distance 0.5 * sum |p - q| over the union of keys,
    summed exactly (fsum), so the set's order, which string hashing varies
    from process to process, cannot move a bit."""
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
