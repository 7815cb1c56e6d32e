"""Brute-force enumeration of child hypotheses for small instances.

Two event spaces appear here. The full grandchild space distinguishes which
pixels birth (including births that produce no return) and is what the
closed-form count formula counts; enumerate_grandchildren walks it. The
reduced space is what the data-association-matrix representation (and the
MCMC walk) can express: per-return assignments plus a death set.
enumerate_child_events walks the part of the reduced space that the matrix
supports (every selected entry in AssociationMatrix.supported); exhaustive
tracking scores it with the production prior, and exact_posterior scores it
with an independent reimplementation of the prior/likelihood composition,
sharing only the matrix entries with the production path.

MAX_EVENTS is the one event budget, and the two enumerators enforce it
themselves: enumerate_grandchildren refuses up front when the closed-form
count exceeds it, and enumerate_child_events raises as soon as it would yield
one event more, so no caller counts.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Iterator, NamedTuple, Sequence

from .errors import DegenerateUpdateError, EnumerationLimitError
from .filters import SensorModel
from .hypotheses import (
    BIRTH,
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


def enumerate_child_events(matrix: AssociationMatrix) -> Iterator[AssociationEvent]:
    """Every event of the reduced (assignments, deaths) space with finite
    likelihood, exactly once. The walk goes row by row over each return's
    supported columns, skipping objects an earlier return claimed, so its
    work follows the events it yields; deaths range over the unclaimed
    death-eligible objects. Raises EnumerationLimitError instead of yielding
    event number MAX_EVENTS + 1."""
    m = matrix.n_returns
    columns = [[matrix.entry_of(j) for j in cols] for cols in matrix.supported]
    can_die = [
        lbl for lbl, ok in zip(matrix.object_labels, matrix.death_eligible) if ok
    ]
    assignment = [CLUTTER] * m
    claimed: set[str] = set()

    def walk(i: int) -> Iterator[AssociationEvent]:
        if i == m:
            free = [lbl for lbl in can_die if lbl not in claimed]
            for n_d in range(len(free) + 1):
                for death_set in combinations(free, n_d):
                    yield AssociationEvent(tuple(assignment), frozenset(death_set))
            return
        for entry in columns[i]:
            if entry in claimed:
                continue
            assignment[i] = entry
            is_object = entry != BIRTH and entry != CLUTTER
            if is_object:
                claimed.add(entry)
            yield from walk(i + 1)
            if is_object:
                claimed.remove(entry)

    for count, event in enumerate(walk(0), 1):
        if count > MAX_EVENTS:
            raise EnumerationLimitError(
                f"child enumeration exceeded {MAX_EVENTS} supported events"
            )
        yield event


def _independent_log_score(
    event: AssociationEvent,
    matrix: AssociationMatrix,
    birth_cfg: BirthDeathConfig,
    sensor: SensorModel,
    n_parent: int,
) -> float:
    """Score composition rebuilt from first principles (shares only the
    matrix entries with the production scoring path)."""
    n_b = event.n_births
    n_d = event.n_deaths
    k = len(event.associated_labels)
    m = matrix.n_returns
    if n_b > birth_cfg.n_pixels:
        return -math.inf
    prior = birth_cfg.alpha ** n_b * birth_cfg.beta ** n_d
    m_child = n_parent + n_b - n_d
    prior *= sensor.p_d ** k * (1.0 - sensor.p_d) ** (m_child - k)
    prior /= math.comb(m, k) * math.factorial(k)
    if prior == 0.0:
        return -math.inf
    loglik = 0.0
    for i, entry in enumerate(event.assignments):
        loglik += matrix.log_entries[i, matrix.column_of(entry)]
    return math.log(prior) + loglik


def exact_posterior(
    parent: Hypothesis,
    matrix: AssociationMatrix,
    birth_cfg: BirthDeathConfig,
    sensor: SensorModel,
) -> dict[tuple, float]:
    """Exact normalized posterior over the supported reduced event space of
    one parent, keyed by canonical event encoding. Events the matrix does
    not support carry zero mass and have no key."""
    scores: dict[tuple, float] = {}
    for event in enumerate_child_events(matrix):
        scores[event.canonical_key()] = _independent_log_score(
            event, matrix, birth_cfg, sensor, len(parent.tracks)
        )
    top = max(scores.values(), default=-math.inf)
    if top == -math.inf:
        raise DegenerateUpdateError("no enumerated event carries mass")
    total = sum(math.exp(v - top) for v in scores.values())
    return {key: math.exp(v - top) / total for key, v in scores.items()}


def tv_distance(p: dict, q: dict) -> float:
    """Total-variation distance 0.5 * sum |p - q| over the union of keys."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
