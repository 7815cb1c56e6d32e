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
    measurement_likelihood,
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

_TWO_PI = 2.0 * math.pi


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
    on construction: per row, the ascending tuple of its finite columns. It
    is the one support pattern the walk and the child enumerator read.
    column_entries, also derived, is each column's assignment entry: the
    object labels, then BIRTH and CLUTTER.

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
    returns: np.ndarray
    supported: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    column_entries: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m_rows, n_cols = self.log_entries.shape
        if n_cols != len(self.object_labels) + 2:
            raise ValueError("matrix must have one column per object plus birth and clutter")
        if m_rows != len(self.returns):
            raise ValueError("matrix must have one row per return")
        if len(self.death_eligible) != len(self.object_labels):
            raise ValueError("matrix must have one death-eligibility flag per object")
        # NaN and +inf are the values that fail the comparison.
        if not (self.log_entries < math.inf).all():
            raise ValueError("matrix entries must be finite or -inf")
        finite = np.isfinite(self.log_entries)
        supported = tuple(tuple(np.flatnonzero(row).tolist()) for row in finite)
        object.__setattr__(self, "supported", supported)
        object.__setattr__(self, "column_entries", (*self.object_labels, BIRTH, CLUTTER))

    @property
    def n_returns(self) -> int:
        return len(self.returns)

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
        and clutter columns, with their labels and death flags and the same
        returns. Its entries are this matrix's entries, bit for bit."""
        cols = list(cols)
        return AssociationMatrix(
            log_entries=self.log_entries.take(cols + [self.birth_col, self.clutter_col], axis=1),
            object_labels=tuple(self.object_labels[j] for j in cols),
            death_eligible=tuple(self.death_eligible[j] for j in cols),
            returns=self.returns,
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

    Object columns hold the exact marginal measurement likelihoods (shared
    code path with update_track); the birth column holds birth_likelihood;
    the clutter column holds the clutter density. An object is eligible to
    die when the death probability is positive and it is predicted inside
    the FOV; no death event is generated for any other object.
    """
    returns = np.asarray(returns, dtype=float).reshape(-1, 2)
    m = len(returns)
    n_objects = len(predicted)
    log_entries = np.full((m, n_objects + 2), -math.inf)
    for i in range(m):
        z = returns[i]
        for j, track in enumerate(predicted):
            lik = measurement_likelihood(track, z, sensor)
            log_entries[i, j] = math.log(lik) if lik > 0.0 else -math.inf
        b_lik = birth_likelihood(z, sensor)
        log_entries[i, n_objects] = math.log(b_lik) if b_lik > 0.0 else -math.inf
        log_entries[i, n_objects + 1] = (
            math.log(clutter.density_value) if clutter.density_value > 0.0 else -math.inf
        )
    can_die = birth_cfg.beta > 0.0
    return AssociationMatrix(
        log_entries=log_entries,
        object_labels=tuple(t.label for t in predicted),
        death_eligible=tuple(can_die and in_fov(t.mean, sensor) for t in predicted),
        returns=returns,
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
    sensor: SensorModel,
) -> tuple[float, float]:
    """Diagnostic pair of child likelihoods for a pure-association event
    (no births or deaths):

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
    m = matrix.n_returns
    n_objects = len(parent.tracks)
    k = len(event.associated_labels)
    tracks = {t.label: t for t in parent.tracks}
    log_mean_form = _xlogy(k, sensor.p_d) + _xlogy(n_objects - k, 1.0 - sensor.p_d)
    log_marginal = 0.0
    for i, entry in enumerate(event.assignments):
        col = matrix.column_of(entry)
        log_marginal += matrix.log_entries[i, col]
        if entry == CLUTTER:
            log_mean_form += matrix.log_entries[i, col]
        elif entry == BIRTH:
            raise InvalidEventError("comparison is defined for pure association events")
        else:
            log_mean_form += _log_density_at_mean(tracks[entry], matrix.returns[i], sensor)
    # No births or deaths, so the rates of the default config never enter.
    log_prior = log_count_prior(k, 0, 0, n_objects, m, BirthDeathConfig(), sensor.p_d)
    log_marginal_form = log_prior + log_marginal
    return math.exp(log_mean_form), math.exp(log_marginal_form)


def _log_density_at_mean(track: GaussianTrack, z: np.ndarray, sensor: SensorModel) -> float:
    """log N(z; h(mean), r): measurement density evaluated at the track mean,
    ignoring track covariance."""
    r = sensor.r
    det = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    inv = np.array([[r[1, 1], -r[0, 1]], [-r[1, 0], r[0, 0]]]) / det
    diff = np.asarray(z, dtype=float) - track.mean[:2]
    maha = float(diff @ inv @ diff)
    return -0.5 * maha - math.log(_TWO_PI * math.sqrt(det))
