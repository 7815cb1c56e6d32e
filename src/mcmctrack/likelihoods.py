"""Data-association matrix construction and hypothesis likelihood evaluation.

The matrix has one row per measurement return and one column per object
plus a birth column and a clutter column. Entries are stored as
log-likelihoods; impossible pairings are -inf. Deaths have no row: death
probability mass enters through the child prior, never through the
likelihood, and the matrix only records which objects may die this scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidEventError
from .filters import (
    GaussianTrack,
    SensorModel,
    circular_speed,
    in_bounded_fov,
    in_fov,
    likelihood_table,
)
from .hypotheses import (
    BIRTH,
    CLUTTER,
    AssociationEvent,
    BirthDeathConfig,
    Hypothesis,
    _xlogy,
    log_count_prior,
)


@dataclass(frozen=True)
class ClutterModel:
    """Uniform spatial clutter: density over the bounded FOV wedge plus a
    Poisson expected count per scan (the count only matters to simulation)."""

    density_value: float
    expected_count: float = 0.0

    def __post_init__(self) -> None:
        if self.density_value < 0.0 or not math.isfinite(self.density_value):
            raise ConfigError("clutter.density_value must be finite and >= 0")
        if self.expected_count < 0.0 or not math.isfinite(self.expected_count):
            raise ConfigError("clutter.expected_count must be finite and >= 0")


def uniform_clutter(sensor: SensorModel, expected_count: float = 0.0) -> ClutterModel:
    return ClutterModel(1.0 / sensor.fov_area, expected_count)


# Newborn velocity prior: Gaussian with this std (km/s) per axis around the
# local prograde circular-orbit velocity.
NEWBORN_VELOCITY_STD = 0.3


@dataclass(frozen=True, eq=False)
class AssociationMatrix:
    """m x (M+2) table of log-likelihoods driving child generation, plus
    one death-eligibility flag per object.

    Row i is measurement return i. Columns 0..M-1 are objects, in the order
    of the tracks the matrix was built from; column M is birth, column M+1
    is clutter. Immutable once built. supported is derived from log_entries
    on construction, the one place it is set: per row, the ascending tuple
    of its finite columns. It is the one support pattern the walk and the
    child enumerator read. column_entries, also derived, is each column's
    assignment entry: the object labels, then BIRTH and CLUTTER.

    A child is generated as a column key: (the column of each return, the
    ascending columns of the objects that die). event_of maps a key to its
    event.

    A scan-level matrix, built over the distinct predicted tracks of all
    parents, can hold one label in several columns (one object predicted
    from different parents' tracks). column_of, and everything that maps an
    event's labels to columns, is for a parent's matrix (see select) only.
    """

    log_entries: np.ndarray
    object_labels: tuple[str, ...]
    death_eligible: tuple[bool, ...]
    supported: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    column_entries: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        entries = self.log_entries
        if entries.ndim != 2:
            raise ValueError(f"matrix entries must be 2-D, got shape {entries.shape}")
        if entries.shape[1] != len(self.object_labels) + 2:
            raise ValueError("matrix must have one column per object plus birth and clutter")
        if len(self.death_eligible) != len(self.object_labels):
            raise ValueError("matrix must have one death-eligibility flag per object")
        # NaN and +inf are the values that make the maximum fail the comparison.
        if not np.maximum.reduce(entries, None, initial=-math.inf) < math.inf:
            raise ValueError("matrix entries must be finite or -inf")
        # One pass over the finite mask: nonzero lists its pairs row by row,
        # columns ascending, so row i's columns are the next rows.count(i).
        rows, cols = np.isfinite(entries).nonzero()
        rows, cols = rows.tolist(), cols.tolist()
        supported = []
        end = 0
        for i in range(len(entries)):
            start, end = end, end + rows.count(i)
            supported.append(tuple(cols[start:end]))
        object.__setattr__(self, "supported", tuple(supported))
        object.__setattr__(self, "column_entries", (*self.object_labels, BIRTH, CLUTTER))

    @property
    def n_returns(self) -> int:
        return len(self.log_entries)

    @property
    def n_objects(self) -> int:
        return len(self.object_labels)

    @property
    def birth_col(self) -> int:
        return self.n_objects

    @property
    def clutter_col(self) -> int:
        return self.n_objects + 1

    def column_of(self, entry: str) -> int:
        try:
            return self.column_entries.index(entry)
        except ValueError:
            raise InvalidEventError(f"assignment references a missing column {entry!r}")

    def event_of(self, key: tuple) -> AssociationEvent:
        """The event of column key (per-return columns, death columns)."""
        assign, deaths = key
        entries = self.column_entries
        return AssociationEvent(
            assignments=tuple(entries[c] for c in assign),
            deaths=frozenset(entries[j] for j in deaths),
        )

    def select(self, cols: Sequence[int]) -> AssociationMatrix:
        """The matrix of a parent whose tracks are object columns cols of
        this one, in the parent's track order: those columns, then the birth
        and clutter columns, with their labels and death flags. Its entries
        are this matrix's entries, bit for bit, and the constructor derives
        its supported from them. cols must be distinct object columns (a
        parent's tracks are)."""
        n = self.n_objects
        if not all(0 <= j < n for j in cols):
            raise ValueError(f"select needs object columns in 0..{n - 1}")
        taken = [*cols, n, n + 1]  # then the birth and clutter columns
        if len(set(taken)) != len(taken):
            raise ValueError("select needs distinct columns")
        labels, flags = self.object_labels, self.death_eligible
        return AssociationMatrix(
            self.log_entries.take(taken, axis=1),
            tuple(labels[j] for j in cols),
            tuple(flags[j] for j in cols),
        )


def birth_likelihood(z: np.ndarray, sensor: SensorModel) -> float:
    """Marginal likelihood of a return under the canonical birth pdf:
    uniform position over the bounded FOV wedge, 1/area inside, 0 outside."""
    if not in_bounded_fov(np.asarray(z, dtype=float), sensor):
        return 0.0
    return 1.0 / sensor.fov_area


def build_matrix(
    predicted: Sequence[GaussianTrack],
    returns: np.ndarray,
    sensor: SensorModel,
    clutter: ClutterModel,
    birth_cfg: BirthDeathConfig,
) -> AssociationMatrix:
    """Assemble the data-association matrix from post-prediction tracks and
    the current frame's returns.

    Object columns hold the exact marginal measurement likelihoods, all
    m x N of them from one filters.likelihood_table call (the kernel
    update_tracks runs too); the birth column holds birth_likelihood, or
    -inf when the birth probability is 0, so no child proposes a birth; the
    clutter column holds the clutter density. An object is eligible to die
    when the death probability is positive and it is predicted inside the
    FOV; no death event is generated for any other object.
    """
    returns = np.asarray(returns, dtype=float).reshape(-1, 2)
    m = len(returns)
    n_objects = len(predicted)
    log_entries = np.empty((m, n_objects + 2))
    liks = likelihood_table(predicted, returns, sensor).ravel().tolist()
    log_entries[:, :n_objects] = np.reshape(
        [math.log(lik) if lik > 0.0 else -math.inf for lik in liks], (m, n_objects)
    )
    can_be_born = birth_cfg.alpha > 0.0
    for i in range(m):
        b_lik = birth_likelihood(returns[i], sensor) if can_be_born else 0.0
        log_entries[i, n_objects] = math.log(b_lik) if b_lik > 0.0 else -math.inf
    log_entries[:, n_objects + 1] = (
        math.log(clutter.density_value) if clutter.density_value > 0.0 else -math.inf
    )
    can_die = birth_cfg.beta > 0.0
    return AssociationMatrix(
        log_entries=log_entries,
        object_labels=tuple(t.label for t in predicted),
        death_eligible=tuple(can_die and in_fov(t.mean, sensor) for t in predicted),
    )


def hypothesis_log_likelihood(event: AssociationEvent, matrix: AssociationMatrix) -> float:
    """Log-likelihood of an event: sum of the matrix entries its assignments
    select. Deaths contribute no factor. -inf when any selected entry is 0."""
    if len(event.assignments) != matrix.n_returns:
        raise InvalidEventError(
            f"event has {len(event.assignments)} assignments for "
            f"{matrix.n_returns} returns"
        )
    total = 0.0
    for i, entry in enumerate(event.assignments):
        total += matrix.log_entries[i, matrix.column_of(entry)]
    return total


def newborn_track(
    label: str,
    z: np.ndarray,
    sensor: SensorModel,
    mu: float,
) -> GaussianTrack:
    """Instantiate a newborn Gaussian from the birth pdf and its associated
    return: position block is one flat-prior EKF update (mean z, covariance
    r), velocity prior is Gaussian (NEWBORN_VELOCITY_STD) around the local
    prograde circular-orbit velocity."""
    z = np.asarray(z, dtype=float).reshape(2)
    speed = circular_speed(z, mu)
    radius = float(np.linalg.norm(z))
    tangent = np.array([-z[1], z[0]]) / radius
    mean = np.array([z[0], z[1], speed * tangent[0], speed * tangent[1]])
    cov = np.zeros((4, 4))
    cov[:2, :2] = sensor.r
    cov[2, 2] = cov[3, 3] = NEWBORN_VELOCITY_STD ** 2
    return GaussianTrack(label, mean, cov)


def compare_likelihood_forms(
    event: AssociationEvent,
    parent: Hypothesis,
    matrix: AssociationMatrix,
    returns: np.ndarray,
    sensor: SensorModel,
) -> tuple[float, float]:
    """Diagnostic pair of child likelihoods for a pure-association event
    (no births or deaths), given the returns the matrix was built from:

    - the mean-evaluated form p_d^k (1-p_d)^(M-k) * prod N(z; h(mean), r),
      which scores each associated return at the track mean and omits the
      association-count normalizer;
    - the marginal form (association prior) * prod of matrix entries, which
      integrates over track uncertainty.

    As track covariances shrink to zero the ratio tends to the
    1/(C(m,k) k!) normalizer.
    """
    if event.n_births or event.n_deaths:
        raise InvalidEventError("comparison is defined for pure association events")
    event.validate_against(parent.labels)
    if len(returns) != matrix.n_returns:
        raise ValueError("comparison needs the returns the matrix was built from")
    log_marginal = hypothesis_log_likelihood(event, matrix)
    m = matrix.n_returns
    n_objects = len(parent.tracks)
    k = len(event.associated_labels)
    tracks = {t.label: t for t in parent.tracks}
    log_mean_form = _xlogy(k, sensor.p_d) + _xlogy(n_objects - k, 1.0 - sensor.p_d)
    for i, entry in enumerate(event.assignments):
        if entry == CLUTTER:
            log_mean_form += matrix.log_entries[i, matrix.clutter_col]
        else:
            # N(z; h(mean), r): the marginal of a track with no uncertainty.
            track = tracks[entry]
            at_mean = GaussianTrack(track.label, track.mean, np.zeros((4, 4)))
            lik = likelihood_table([at_mean], np.reshape(returns[i], (1, 2)), sensor)[0, 0]
            log_mean_form += math.log(lik) if lik > 0.0 else -math.inf
    # No births or deaths, so the rates of the default config never enter.
    log_prior = log_count_prior(k, 0, 0, n_objects, m, BirthDeathConfig(), sensor.p_d)
    return math.exp(log_mean_form), math.exp(log_prior + log_marginal)
