"""Planar two-body dynamics and per-track Gaussian filtering.

States are length-4 numpy arrays ordered [x, y, vx, vy] with positions in km
and velocities in km/s. Everything here is a pure function of its inputs
(no shared mutable state), so concurrent use is safe.

propagate_state integrates one state in Python floats (_rk4_step over
_accel) for the simulator, which steps one state at a time: run as a (4, 1)
block, numpy's per-call cost made a 16-substep propagation about 15 times
slower (450 against 29 us on a 2-core Xeon). propagate_flows integrates a
(4, L) block of lanes, each state of a batch and its 8 central-difference
perturbations, as one array per RK4 stage (_rk4_block over
_block_derivative). numpy's +, -, *, / and sqrt are the same IEEE
operations as Python's float ones, and both bodies apply them in the same
order, so a lane is bit-identical to its scalar integration.

The EKF's measurement side is stacked the same way: one innovation kernel
(_innovations) pairs tracks with returns as arrays, and serves the
association matrix's likelihood table, update_tracks and update_track
(its one-pair case). Every track, predicted, updated or given, is built
by GaussianTrack's constructor, which checks its one 4 x 4 covariance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericalError, SingularStateError

MU_EARTH = 398600.4418  # km^3/s^2

_MIN_RADIUS_KM = 1.0
_FOV_ANGLE_TOL = 1e-12
_TWO_PI = 2.0 * math.pi

# Position-extraction measurement model h(s) = (x, y); constant Jacobian.
_H = np.array([[1.0, 0.0, 0.0, 0.0],
               [0.0, 1.0, 0.0, 0.0]])


@dataclass(frozen=True)
class DynamicsConfig:
    """Two-body propagation settings.

    dt may be zero (identity propagation) or negative (backward integration,
    exercised by the reversibility checks). Scenario configs enforce a
    positive scan interval separately.
    """

    mu: float = MU_EARTH
    dt: float = 60.0
    q: float = 0.0
    integrator_substeps: int = 16

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise ConfigError("dynamics.mu must be finite and >= 0")
        if not math.isfinite(self.dt):
            raise ConfigError("dynamics.dt must be finite")
        if not (math.isfinite(self.q) and self.q >= 0.0):
            raise ConfigError("dynamics.q must be finite and >= 0")
        if self.integrator_substeps < 1:
            raise ConfigError("dynamics.integrator_substeps must be >= 1")


@dataclass(frozen=True, eq=False)
class SensorModel:
    """Wedge field-of-view sensor measuring (x, y) position.

    `max_range` bounds the wedge so the FOV has finite area; the uniform
    birth and clutter densities are 1/area over that bounded wedge. p_d is
    the per-scan detection probability for objects inside the FOV.
    """

    origin: np.ndarray
    boresight_angle: float
    fov_half_angle: float
    r: np.ndarray
    p_d: float
    max_range: float = 1.0e5

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float).reshape(2))
        r = np.asarray(self.r, dtype=float).reshape(2, 2)
        object.__setattr__(self, "r", 0.5 * (r + r.T))
        if not (0.0 < self.fov_half_angle <= math.pi + _FOV_ANGLE_TOL):
            raise ConfigError("sensor.fov_half_angle must lie in (0, pi]")
        if not np.all(np.isfinite(self.origin)):
            raise ConfigError("sensor.origin must be finite")
        if not math.isfinite(self.boresight_angle):
            raise ConfigError("sensor.boresight_angle must be finite")
        if not np.all(np.isfinite(self.r)) or np.linalg.eigvalsh(self.r).min() <= 0.0:
            raise ConfigError("sensor.r must be finite and symmetric positive definite")
        if not (0.0 <= self.p_d <= 1.0):
            raise ConfigError("sensor.p_d must lie in [0, 1]")
        if not (math.isfinite(self.max_range) and self.max_range > 0.0):
            raise ConfigError("sensor.max_range must be finite and > 0")

    @property
    def fov_area(self) -> float:
        """Area of the bounded wedge: (2h / 2pi) * pi * R^2 = h * R^2."""
        return self.fov_half_angle * self.max_range ** 2


@dataclass(frozen=True, eq=False)
class GaussianTrack:
    """Labeled per-object Gaussian pdf over [x, y, vx, vy].

    The constructor is the one place a track is checked and stored: the
    label non-empty, the mean (4,) and the covariance (4, 4) finite (the
    mean first), and the symmetrized covariance 0.5 (P + P^T) positive
    semidefinite within 1e-9 times its largest magnitude, at least 1. The
    symmetrized covariance is the one stored.
    """

    label: str
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("track label must be a non-empty string")
        mean = np.asarray(self.mean, dtype=float).reshape(4)
        cov = np.asarray(self.covariance, dtype=float).reshape(4, 4)
        if not np.isfinite(mean).all():
            raise ValueError(f"track {self.label}: mean must be finite")
        if not np.isfinite(cov).all():
            raise ValueError(f"track {self.label}: covariance must be finite")
        cov = 0.5 * (cov + cov.T)
        min_eig = np.linalg.eigvalsh(cov)[0]  # ascending
        # Only a negative minimum can be below the (negative) tolerance.
        if min_eig < 0.0 and min_eig < -1e-9 * max(1.0, np.abs(cov).max()):
            raise NumericalError(
                f"track {self.label}: covariance indefinite (min eigenvalue {min_eig:g})"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


def _accel(x: float, y: float, mu: float) -> tuple[float, float]:
    rsq = x * x + y * y
    if rsq < _MIN_RADIUS_KM * _MIN_RADIUS_KM:
        raise SingularStateError(
            f"position norm {math.sqrt(rsq):.3g} km inside the {_MIN_RADIUS_KM} km guard radius"
        )
    if mu == 0.0:
        return 0.0, 0.0
    f = -mu / (rsq * math.sqrt(rsq))
    return f * x, f * y


def _rk4_step(x: float, y: float, vx: float, vy: float, h: float, mu: float):
    """One classical RK4 step of one state, in Python floats."""
    ax1, ay1 = _accel(x, y, mu)
    k2x = x + 0.5 * h * vx
    k2y = y + 0.5 * h * vy
    ax2, ay2 = _accel(k2x, k2y, mu)
    k2vx = vx + 0.5 * h * ax1
    k2vy = vy + 0.5 * h * ay1
    k3x = x + 0.5 * h * k2vx
    k3y = y + 0.5 * h * k2vy
    ax3, ay3 = _accel(k3x, k3y, mu)
    k3vx = vx + 0.5 * h * ax2
    k3vy = vy + 0.5 * h * ay2
    k4x = x + h * k3vx
    k4y = y + h * k3vy
    ax4, ay4 = _accel(k4x, k4y, mu)
    k4vx = vx + h * ax3
    k4vy = vy + h * ay3
    nx = x + (h / 6.0) * (vx + 2.0 * k2vx + 2.0 * k3vx + k4vx)
    ny = y + (h / 6.0) * (vy + 2.0 * k2vy + 2.0 * k3vy + k4vy)
    nvx = vx + (h / 6.0) * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
    nvy = vy + (h / 6.0) * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4)
    return nx, ny, nvx, nvy


def _block_derivative(s: np.ndarray, mu: float) -> np.ndarray:
    """The time derivative of a (4, L) block of states, rows [x, y, vx,
    vy]: its velocity rows over their accelerations, each lane's _accel bit
    for bit (the same IEEE operations in the same order). The 1 km guard
    covers every lane."""
    p = s[:2]
    squares = p * p
    rsq = squares[0] + squares[1]
    # fmin skips NaN, so this is the smallest rsq of a lane that has one,
    # and it is inside the guard exactly when some lane is.
    closest = np.fmin.reduce(rsq, initial=math.inf)
    if closest < _MIN_RADIUS_KM * _MIN_RADIUS_KM:
        raise SingularStateError(
            f"position norm {math.sqrt(closest):.3g} km inside the "
            f"{_MIN_RADIUS_KM} km guard radius"
        )
    accel = np.zeros_like(p) if mu == 0.0 else (-mu / (rsq * np.sqrt(rsq))) * p
    return np.concatenate((s[2:], accel))


def _rk4_block(s: np.ndarray, h: float, mu: float) -> np.ndarray:
    """One classical RK4 step of a (4, L) block of states, each stage one
    array operation on the whole block. Row by row these are _rk4_step's
    operations in its order (its k2x is x + (0.5 * h) * vx, its k2vx
    vx + (0.5 * h) * ax1), so each lane is _rk4_step's integration bit for
    bit."""
    half = 0.5 * h
    k1 = _block_derivative(s, mu)
    k2 = _block_derivative(s + half * k1, mu)
    k3 = _block_derivative(s + half * k2, mu)
    k4 = _block_derivative(s + h * k3, mu)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate_state(s: np.ndarray, cfg: DynamicsConfig) -> np.ndarray:
    """Fixed-step RK4 integration of planar two-body gravity over cfg.dt.

    Deterministic; raises SingularStateError if any evaluated position falls
    within 1 km of the gravitating center.
    """
    s = np.asarray(s, dtype=float).reshape(4)
    if not np.all(np.isfinite(s)):
        raise ValueError("state must be finite")
    if cfg.dt == 0.0:
        return s.copy()
    x, y, vx, vy = (float(v) for v in s)
    h = cfg.dt / cfg.integrator_substeps
    mu = cfg.mu
    for _ in range(cfg.integrator_substeps):
        x, y, vx, vy = _rk4_step(x, y, vx, vy, h, mu)
    return np.array([x, y, vx, vy])


def propagate_flows(states: np.ndarray, cfg: DynamicsConfig) -> tuple[np.ndarray, np.ndarray]:
    """propagate_state and the flow's Jacobian for N states at once.

    Returns means (N, 4) and Jacobians (N, 4, 4). Column j of a Jacobian is
    the central difference (flow(s + h e_j) - flow(s - h e_j)) / 2h with
    h = 1e-6 * max(1, |s_j|); the mu = 0 flow is exactly linear, so its
    constant-velocity Jacobian is returned in closed form. Each state and
    its 8 perturbations are lanes of one (4, L) block stepped by
    _rk4_block, so every lane is its scalar integration bit for bit, and
    the 1 km guard covers every lane integrated.
    """
    states = np.asarray(states, dtype=float).reshape(-1, 4)
    if not np.all(np.isfinite(states)):
        raise ValueError("state must be finite")
    n = len(states)
    if cfg.mu == 0.0:
        lanes = states[:, None, :]
    else:
        steps = 1e-6 * np.maximum(1.0, np.abs(states))
        lanes = np.repeat(states[:, None, :], 9, axis=1)
        j = np.arange(4)
        lanes[:, 1 + 2 * j, j] += steps
        lanes[:, 2 + 2 * j, j] -= steps
    out = lanes
    if cfg.dt != 0.0 and n:
        # C order, so that each row of the block is contiguous, in this step
        # and (as ufuncs keep their input's layout) in every later one.
        block = np.ascontiguousarray(lanes.reshape(-1, 4).T)
        h = cfg.dt / cfg.integrator_substeps
        for _ in range(cfg.integrator_substeps):
            block = _rk4_block(block, h, cfg.mu)
        out = block.T.reshape(lanes.shape)
    means = out[:, 0].copy()
    if cfg.mu == 0.0:
        jacs = np.tile(np.eye(4), (n, 1, 1))
        jacs[:, 0, 2] = jacs[:, 1, 3] = cfg.dt
    else:
        # diffs[n, j] is column j of Jacobian n.
        diffs = (out[:, 1::2] - out[:, 2::2]) / (2.0 * steps)[:, :, None]
        jacs = np.ascontiguousarray(diffs.transpose(0, 2, 1))
    return means, jacs


# Distinct dynamics configs whose process noise is kept: a run uses one.
NOISE_TABLES = 16


@functools.lru_cache(maxsize=NOISE_TABLES)
def process_noise(cfg: DynamicsConfig) -> np.ndarray:
    """Discrete white-noise-acceleration covariance G q G^T per axis.
    Memoized on cfg (configs equal as values share it): built once per
    config and returned read-only."""
    dt = abs(cfg.dt)
    q = cfg.q
    q3 = q * dt ** 3 / 3.0
    q2 = q * dt ** 2 / 2.0
    q1 = q * dt
    noise = np.array([
        [q3, 0.0, q2, 0.0],
        [0.0, q3, 0.0, q2],
        [q2, 0.0, q1, 0.0],
        [0.0, q2, 0.0, q1],
    ])
    noise.flags.writeable = False
    return noise


def predict_track(
    t: GaussianTrack,
    cfg: DynamicsConfig,
    flow: tuple[np.ndarray, np.ndarray] | None = None,
) -> GaussianTrack:
    """EKF prediction: mean through the flow, covariance F P F^T + Q.

    flow is t.mean's (mean, Jacobian) pair from propagate_flows when the
    caller has batched the scan's tracks; without it the one state is
    propagated here.
    """
    if flow is None:
        means, jacs = propagate_flows(t.mean, cfg)
        flow = means[0], jacs[0]
    mean, jac = flow
    cov = jac @ t.covariance @ jac.T + process_noise(cfg)
    return GaussianTrack(t.label, mean, cov)


def _innovations(tracks: Sequence[GaussianTrack], z: np.ndarray, r: np.ndarray):
    """The innovation terms of N tracks against returns z, as stacked arrays.

    z broadcasts against the tracks' (N, 2) predicted positions: shape
    (N, 2) pairs track k with z[k], and (m, 1, 2) pairs every return with
    every track. Returns the tracks' means (N, 4) and covariances
    (N, 4, 4), the innovations z - h(mean) (..., N, 2), the inverses of the
    innovation covariances S = H P H^T + r (N, 2, 2), and the marginal
    likelihoods N(z; h(mean), S) (..., N).

    Per pair, each value is the one-pair computation's bit for bit: S is
    symmetrized and inverted as adjugate over determinant, elementwise; the
    Mahalanobis term is one stacked (1 x 2) @ (2 x 2) @ (2 x 1) matmul,
    which BLAS evaluates as it does innov @ inv @ innov; and exp runs per
    entry through math.exp, whose results np.exp does not always match.
    A track whose S is not invertible raises NumericalError naming it, when
    it is paired with a return.
    """
    means = np.array([t.mean for t in tracks]).reshape(-1, 4)
    covs = np.array([t.covariance for t in tracks]).reshape(-1, 4, 4)
    s_cov = covs[:, :2, :2] + r
    s_cov = 0.5 * (s_cov + s_cov.transpose(0, 2, 1))
    det = s_cov[:, 0, 0] * s_cov[:, 1, 1] - s_cov[:, 0, 1] * s_cov[:, 1, 0]
    innov = z - means[:, :2]
    invertible = np.isfinite(det) & (det > 0.0)
    if not invertible.all():
        if innov.size:
            bad = tracks[np.flatnonzero(~invertible)[0]]
            raise NumericalError(f"track {bad.label}: innovation covariance not invertible")
        det = np.where(invertible, det, 1.0)  # no pair reads these
    adjugate = np.stack(
        [s_cov[:, 1, 1], -s_cov[:, 0, 1], -s_cov[:, 1, 0], s_cov[:, 0, 0]], axis=-1
    ).reshape(-1, 2, 2)
    inv = adjugate / det[:, None, None]
    # A far return's term overflows to inf, and its likelihood is 0.
    with np.errstate(over="ignore"):
        maha = (innov[..., None, :] @ inv @ innov[..., :, None])[..., 0, 0]
    exps = [math.exp(x) for x in (-0.5 * maha).ravel().tolist()]
    lik = np.array(exps).reshape(maha.shape) / (_TWO_PI * np.sqrt(det))
    return means, covs, innov, inv, lik


def likelihood_table(
    tracks: Sequence[GaussianTrack], returns: np.ndarray, sensor: SensorModel
) -> np.ndarray:
    """Marginal likelihoods of m returns (m, 2) under N tracks (exact for
    linear h) as an (m, N) table, entry (i, j) for returns[i] and tracks[j]."""
    returns = np.asarray(returns, dtype=float).reshape(-1, 2)
    return _innovations(tracks, returns[:, None, :], sensor.r)[4]


def update_tracks(
    tracks: Sequence[GaussianTrack], zs: np.ndarray, sensor: SensorModel
) -> tuple[list[GaussianTrack], np.ndarray]:
    """EKF measurement update of each track k with return zs[k] (K, 2), as
    one stacked pass: the posterior tracks and the marginal likelihoods of
    the returns. Gain, mean, I - K H and a P a^T + K R K^T are stacked
    matmuls, which match the per-pair matrix products bit for bit, and
    each posterior is built by GaussianTrack's constructor, in order."""
    zs = np.asarray(zs, dtype=float).reshape(-1, 2)
    if len(zs) != len(tracks):
        raise ValueError("update_tracks needs one return per track")
    if not np.all(np.isfinite(zs)):
        raise ValueError("measurement must be finite")
    means, covs, innov, inv, lik = _innovations(tracks, zs, sensor.r)
    gain = covs[:, :, :2] @ inv
    post_means = means + (gain @ innov[:, :, None])[:, :, 0]
    a = np.eye(4) - gain @ _H
    post_covs = a @ covs @ a.transpose(0, 2, 1) + gain @ sensor.r @ gain.transpose(0, 2, 1)
    posteriors = [GaussianTrack(t.label, mean, cov)
                  for t, mean, cov in zip(tracks, post_means, post_covs)]
    return posteriors, lik


def update_track(
    t: GaussianTrack, z: np.ndarray, sensor: SensorModel
) -> tuple[GaussianTrack, float]:
    """EKF measurement update; returns the posterior track and the marginal
    likelihood of z (same value, bit for bit, as likelihood_table)."""
    posteriors, lik = update_tracks([t], np.asarray(z, dtype=float).reshape(1, 2), sensor)
    return posteriors[0], float(lik[0])


def in_fov(s: np.ndarray, sensor: SensorModel) -> bool:
    """True iff the angle between (position - origin) and the boresight is
    at most fov_half_angle (inclusive boundary). Angle-only test."""
    s = np.asarray(s, dtype=float)
    dx = float(s[0]) - float(sensor.origin[0])
    dy = float(s[1]) - float(sensor.origin[1])
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise ValueError("position coincides with the sensor origin")
    b = sensor.boresight_angle
    cosang = (dx * math.cos(b) + dy * math.sin(b)) / norm
    ang = math.acos(min(1.0, max(-1.0, cosang)))
    return ang <= sensor.fov_half_angle + _FOV_ANGLE_TOL


def in_bounded_fov(point: np.ndarray, sensor: SensorModel) -> bool:
    """Membership in the bounded wedge (angle and range); the support of the
    uniform birth and clutter densities."""
    point = np.asarray(point, dtype=float)
    dx = float(point[0]) - float(sensor.origin[0])
    dy = float(point[1]) - float(sensor.origin[1])
    if math.hypot(dx, dy) > sensor.max_range:
        return False
    return in_fov(point, sensor)


def sample_fov_point(sensor: SensorModel, rng: np.random.Generator) -> np.ndarray:
    """Draw a point uniformly (by area) over the bounded wedge."""
    ang = sensor.boresight_angle + rng.uniform(-sensor.fov_half_angle, sensor.fov_half_angle)
    rad = sensor.max_range * math.sqrt(rng.uniform(0.0, 1.0))
    return sensor.origin + rad * np.array([math.cos(ang), math.sin(ang)])


def circular_speed(position: np.ndarray, mu: float) -> float:
    """Circular-orbit speed sqrt(mu / |r|) at the given position."""
    radius = float(np.linalg.norm(np.asarray(position, dtype=float)[:2]))
    if radius <= 0.0:
        raise ValueError("position must be nonzero")
    return math.sqrt(mu / radius) if mu > 0.0 else 0.0
