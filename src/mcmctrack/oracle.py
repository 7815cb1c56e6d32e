"""Brute-force enumeration of child hypotheses for small instances.

Two event spaces appear here. The full grandchild space distinguishes which
pixels birth (including births that produce no return) and is what the
closed-form count formula counts; enumerate_grandchildren walks it. The
reduced space is what the data-association-matrix representation (and the
MCMC walk) can express: per-return assignments plus a death set.
exact_posterior is computed over the reduced space with an independent
reimplementation of the prior/likelihood composition, sharing only the
matrix entries with the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
)
from .likelihoods import AssociationMatrix


@dataclass(frozen=True)
class EnumerationLimit:
    max_objects: int = 8
    max_returns: int = 8
    max_pixels: int = 8
    max_grandchildren: int = 10_000_000


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
    limit: EnumerationLimit = EnumerationLimit(),
) -> list[GrandchildEvent]:
    """Every distinct (birth placement, death subset, association) exactly
    once. Associations are injective partial maps from returns onto the
    child's objects (survivors plus newborns); unassociated returns are
    clutter. The list length equals count_grandchildren(M, m, N)."""
    labels = tuple(parent_labels)
    if len(labels) > limit.max_objects:
        raise EnumerationLimitError(f"{len(labels)} objects exceed the enumeration limit")
    if n_returns > limit.max_returns:
        raise EnumerationLimitError(f"{n_returns} returns exceed the enumeration limit")
    if n_pixels > limit.max_pixels:
        raise EnumerationLimitError(f"{n_pixels} pixels exceed the enumeration limit")
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
                                if len(out) > limit.max_grandchildren:
                                    raise EnumerationLimitError(
                                        "grandchild enumeration exceeded "
                                        f"{limit.max_grandchildren} events"
                                    )
    return out


def enumerate_child_events(
    parent_labels: Sequence[str],
    n_returns: int,
    death_candidates: Sequence[str],
) -> Iterator[AssociationEvent]:
    """Every event of the reduced (assignments, deaths) space exactly once:
    injective partial maps from returns to objects, remaining returns set to
    BIRTH or CLUTTER, deaths over the unassociated death candidates."""
    labels = tuple(parent_labels)
    returns = range(n_returns)
    for n in range(min(n_returns, len(labels)) + 1):
        for ret_subset in combinations(returns, n):
            for chosen in permutations(labels, n):
                base: list[str] = [CLUTTER] * n_returns
                for idx, lbl in zip(ret_subset, chosen):
                    base[idx] = lbl
                free = [i for i in returns if i not in ret_subset]
                for mask in range(1 << len(free)):
                    assignment = list(base)
                    for bit, idx in enumerate(free):
                        if mask >> bit & 1:
                            assignment[idx] = BIRTH
                    eligible = [lbl for lbl in death_candidates if lbl not in chosen]
                    for n_d in range(len(eligible) + 1):
                        for death_set in combinations(eligible, n_d):
                            yield AssociationEvent(
                                assignments=tuple(assignment),
                                deaths=frozenset(death_set),
                            )


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
    limit: EnumerationLimit = EnumerationLimit(),
) -> dict[tuple, float]:
    """Exact normalized posterior over the reduced event space of one parent,
    keyed by canonical event encoding."""
    labels = parent.labels
    if len(labels) > limit.max_objects or matrix.n_returns > limit.max_returns:
        raise EnumerationLimitError("instance exceeds the enumeration limits")
    scores: dict[tuple, float] = {}
    for event in enumerate_child_events(
        labels, matrix.n_returns, matrix.death_candidate_labels()
    ):
        scores[event.canonical_key()] = _independent_log_score(
            event, matrix, birth_cfg, sensor, len(labels)
        )
        if len(scores) > limit.max_grandchildren:
            raise EnumerationLimitError("enumeration exceeded the event budget")
    top = max(scores.values())
    if top == -math.inf:
        raise DegenerateUpdateError("every enumerated event has zero mass")
    total = sum(math.exp(v - top) for v in scores.values())
    return {key: math.exp(v - top) / total for key, v in scores.items()}


def tv_distance(p: dict, q: dict) -> float:
    """Total-variation distance 0.5 * sum |p - q| over the union of keys."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
