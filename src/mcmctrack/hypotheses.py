"""Hypotheses, association events, the transition prior, pruning.

A hypothesis is a labeled set of Gaussian tracks plus a probability weight;
an association event is one child skeleton: per-return assignment (object
label, birth, or clutter) plus a set of deaths. Weights are carried in
log-space throughout; normalization uses log-sum-exp.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterable, NamedTuple, Sequence

from .errors import ConfigError, DegenerateUpdateError, InvalidEventError
from .filters import GaussianTrack

# Reserved assignment entries. Track labels must not collide with these.
BIRTH = "__birth__"
CLUTTER = "__clutter__"

_RESERVED = {BIRTH, CLUTTER}


@dataclass(frozen=True)
class BirthDeathConfig:
    alpha: float = 0.01
    beta: float = 0.01
    n_pixels: int = 50

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError("birth_death.alpha must lie in [0, 1]")
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigError("birth_death.beta must lie in [0, 1]")
        if self.n_pixels < 1:
            raise ConfigError("birth_death.n_pixels must be >= 1")


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """One complete explanation of the data so far: labeled tracks plus a
    probability weight (stored as log_weight)."""

    id: str
    parent_id: str | None
    log_weight: float
    tracks: tuple[GaussianTrack, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracks", tuple(self.tracks))
        labels = [t.label for t in self.tracks]
        if len(set(labels)) != len(labels):
            raise InvalidEventError(f"hypothesis {self.id}: duplicate track labels")
        if any(lbl in _RESERVED for lbl in labels):
            raise InvalidEventError(f"hypothesis {self.id}: reserved label in use")
        if math.isnan(self.log_weight) or self.log_weight > 1e-9:
            raise ValueError(f"hypothesis {self.id}: weight must lie in [0, 1]")

    @property
    def weight(self) -> float:
        return math.exp(self.log_weight)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.tracks)


@dataclass(frozen=True)
class AssociationEvent:
    """Child-hypothesis skeleton: one assignment per return (a track label,
    BIRTH, or CLUTTER) plus the set of labels that die this scan."""

    assignments: tuple[str, ...]
    deaths: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", tuple(self.assignments))
        object.__setattr__(self, "deaths", frozenset(self.deaths))
        objs = [a for a in self.assignments if a not in _RESERVED]
        if len(set(objs)) != len(objs):
            raise InvalidEventError("an object label appears twice in assignments")
        if self.deaths & set(objs):
            raise InvalidEventError("a dead object appears in assignments")

    @property
    def n_births(self) -> int:
        return sum(1 for a in self.assignments if a == BIRTH)

    @property
    def n_deaths(self) -> int:
        return len(self.deaths)

    @property
    def associated_labels(self) -> tuple[str, ...]:
        return tuple(a for a in self.assignments if a not in _RESERVED)

    def canonical_key(self) -> tuple:
        """Dedup key: assignment entries in frame order plus sorted deaths."""
        return (self.assignments, tuple(sorted(self.deaths)))

    def validate_against(self, parent_labels: Iterable[str]) -> None:
        labels = set(parent_labels)
        missing = [a for a in self.associated_labels if a not in labels]
        if missing:
            raise InvalidEventError(f"assignments reference unknown labels {missing}")
        extra = self.deaths - labels
        if extra:
            raise InvalidEventError(f"deaths reference unknown labels {sorted(extra)}")


def _comb0(n: int, k: int) -> int:
    """Binomial coefficient that is zero outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


def count_associations(n_objects: int, n_returns: int) -> int:
    """Number of data-association children of an n_objects hypothesis given
    n_returns: sum over n of C(M,n) C(m,n) n! (arbitrary precision)."""
    if n_objects < 0 or n_returns < 0:
        raise ValueError("counts must be non-negative")
    return sum(
        comb(n_objects, n) * comb(n_returns, n) * factorial(n)
        for n in range(min(n_objects, n_returns) + 1)
    )


# Distinct grandchild counts kept: a seed-0 preset run asks for 10 to 16.
GRANDCHILD_COUNTS = 128


@functools.lru_cache(maxsize=GRANDCHILD_COUNTS)
def count_grandchildren(
    n_objects: int, n_returns: int, n_pixels: int, *, allow_deaths: bool = True
) -> int:
    """Number of distinct (birth/death instance, data association) pairs,

        sum_{Nb} sum_{Nd} C(N,Nb) C(M,Nd) A(M + Nb - Nd, m),

    in closed form. A child keeps t = Nb + (M - Nd) objects, and by
    Vandermonde's identity the terms with the same t add up to
    C(N + M, t) A(t, m): one sum of N + M + 1 terms. No births is N = 0.
    Without deaths (a zero death rate makes them impossible) the objects
    leave the free choice and every child keeps them. Memoized on its
    arguments: the tracker asks for the same counts scan after scan.
    """
    if min(n_objects, n_returns, n_pixels) < 0:
        raise ValueError("counts must be non-negative")
    free = n_pixels + (n_objects if allow_deaths else 0)
    kept = 0 if allow_deaths else n_objects
    return sum(comb(free, s) * count_associations(kept + s, n_returns) for s in range(free + 1))


def count_grandchildren_by_net_change(n_objects: int, n_returns: int, n_pixels: int) -> int:
    """Alternative grandchild count grouping instances by net object-count
    change. Kept verbatim for cross-validation: its second summation starts
    one index early, which double-counts the net +1 and net 0 groups, so it
    exceeds count_grandchildren. The selftest report records the difference.
    """
    m_objects, n = n_objects, n_pixels
    total = 0
    for k in range(0, n + 1):
        a_plus = sum(_comb0(n, k + j) * _comb0(m_objects, j) for j in range(0, n + 1))
        total += a_plus * count_associations(m_objects + k, n_returns)
    for k in range(-1, m_objects + 1):
        a_minus = sum(
            _comb0(m_objects, k + j) * _comb0(n, j) for j in range(0, m_objects - k + 1)
        )
        total += a_minus * count_associations(m_objects - k, n_returns)
    return total


def _xlogy(n: int, value: float) -> float:
    """n * log(value) with the 0 * log(0) = 0 convention."""
    if n == 0:
        return 0.0
    if value <= 0.0:
        return -math.inf
    return n * math.log(value)


def log_count_prior(
    k: int,
    n_b: int,
    n_d: int,
    n_objects: int,
    n_returns: int,
    cfg: BirthDeathConfig,
    p_d: float,
) -> float:
    """Log transition prior of one child with k associated objects, n_b
    births and n_d deaths from an n_objects parent, given n_returns: the
    birth/death instance probability alpha^Nb beta^Nd times the association
    prior p_d^k (1-p_d)^(M'-k) / (C(m,k) k!) over the child's M' objects.

    More births than pixels is a possible event with zero mass (-inf);
    negative counts, more deaths than objects, or k outside
    0..min(M', m) raise InvalidEventError.
    """
    if n_b < 0:
        raise InvalidEventError(f"birth count {n_b} is negative")
    if not 0 <= n_d <= n_objects:
        raise InvalidEventError(f"death count {n_d} out of range for M={n_objects}")
    m_child = n_objects + n_b - n_d
    if not 0 <= k <= min(m_child, n_returns):
        raise InvalidEventError(
            f"associated count k={k} out of range for M={m_child}, m={n_returns}"
        )
    if n_b > cfg.n_pixels:
        return -math.inf
    out = _xlogy(n_b, cfg.alpha) + _xlogy(n_d, cfg.beta)
    out += _xlogy(k, p_d)
    out += _xlogy(m_child - k, 1.0 - p_d)
    # log(C(m,k) k!)
    out -= math.lgamma(n_returns + 1) - math.lgamma(n_returns - k + 1)
    return out


def log_child_prior(
    event: AssociationEvent,
    parent: Hypothesis,
    cfg: BirthDeathConfig,
    p_d: float,
    n_returns: int,
) -> float:
    """Log transition prior of one child event of parent (log_count_prior
    of its counts), after checking the event against the parent."""
    if len(event.assignments) != n_returns:
        raise InvalidEventError(
            f"event has {len(event.assignments)} assignments for {n_returns} returns"
        )
    event.validate_against(parent.labels)
    return log_count_prior(
        len(event.associated_labels),
        event.n_births,
        event.n_deaths,
        len(parent.tracks),
        n_returns,
        cfg,
        p_d,
    )


def log_sum_exp(values: Sequence[float]) -> float:
    top = max(values)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in values))


class Candidate(NamedTuple):
    """One scored, not yet realized child: its parent's id and predicted
    tracks, its event, and its log weight (parent weight plus log score)."""

    parent_id: str
    predicted: tuple[GaussianTrack, ...]
    event: AssociationEvent
    log_weight: float


def prune(candidates: Sequence[Candidate], h_inf: int) -> list[Candidate]:
    """Keep the h_inf heaviest finite candidates by raw log weight (ties
    broken by parent id, then canonical event key, so the result is
    deterministic) and normalize their weights over the kept set.

    The output depends only on the candidates kept: adding candidates
    lighter than the h_inf-th changes no bit of it, which is what lets the
    tracker skip parents whose children could not be kept.

    Raises DegenerateUpdateError when no candidate carries mass.
    """
    if h_inf < 1:
        raise ConfigError("h_inf must be >= 1")
    finite = [c for c in candidates if c.log_weight > -math.inf]
    if not finite:
        raise DegenerateUpdateError("every candidate carries zero posterior mass")
    # Same survivors in the same order as sorted(...)[:h_inf], without
    # sorting every candidate.
    kept = heapq.nsmallest(
        h_inf, finite, key=lambda c: (-c.log_weight, c.parent_id, c.event.canonical_key())
    )
    total = log_sum_exp([c.log_weight for c in kept])
    return [c._replace(log_weight=min(c.log_weight - total, 0.0)) for c in kept]


def weight_entropy(hypotheses: Sequence[Hypothesis]) -> float:
    """Shannon entropy (nats) of the hypothesis weights."""
    out = 0.0
    for h in hypotheses:
        w = h.weight
        if w > 0.0:
            out -= w * math.log(w)
    return out
