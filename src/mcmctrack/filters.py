"""Planar two-body dynamics and per-track Gaussian filtering.

States are length-4 numpy arrays ordered [x, y, vx, vy] with positions in km
and velocities in km/s. Everything here is a pure function of its inputs
(no shared mutable state), so concurrent use is safe.

One RK4 step body (_rk4_step) serves two acceleration kernels: the scalar
_accel, which propagate_state runs one state at a time, and _lane_accel,
which propagate_flows runs over arrays of lanes (each state of a batch and
its 8 central-difference perturbations). numpy's +, -, *, / and sqrt are
the same IEEE operations as Python's float ones, applied in the same order,
so a batched lane is bit-identical to its scalar integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Labeled per-object Gaussian pdf over [x, y, vx, vy]."""

    label: str
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("track label must be a non-empty string")
        mean = np.asarray(self.mean, dtype=float).reshape(4)
        cov = np.asarray(self.covariance, dtype=float).reshape(4, 4)
        if not np.all(np.isfinite(mean)):
            raise ValueError(f"track {self.label}: mean must be finite")
        if not np.all(np.isfinite(cov)):
            raise ValueError(f"track {self.label}: covariance must be finite")
        cov = 0.5 * (cov + cov.T)
        min_eig = float(np.linalg.eigvalsh(cov).min())
        tol = 1e-9 * max(1.0, float(np.abs(cov).max()))
        if min_eig < -tol:
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


def _lane_accel(x: np.ndarray, y: np.ndarray, mu: float):
    """_accel over arrays of lanes: the same IEEE operations in the same
    order, so each lane's value is _accel's bit for bit."""
    rsq = x * x + y * y
    inside = rsq < _MIN_RADIUS_KM * _MIN_RADIUS_KM
    if inside.any():
        raise SingularStateError(
            f"position norm {math.sqrt(rsq[inside].min()):.3g} km inside the "
            f"{_MIN_RADIUS_KM} km guard radius"
        )
    if mu == 0.0:
        return 0.0, 0.0
    f = -mu / (rsq * np.sqrt(rsq))
    return f * x, f * y


def _rk4_step(x, y, vx, vy, h: float, mu: float, accel):
    """One classical RK4 step; x, y, vx, vy are floats (accel=_accel) or
    equal-length lane arrays (accel=_lane_accel)."""
    ax1, ay1 = accel(x, y, mu)
    k2x = x + 0.5 * h * vx
    k2y = y + 0.5 * h * vy
    ax2, ay2 = accel(k2x, k2y, mu)
    k2vx = vx + 0.5 * h * ax1
    k2vy = vy + 0.5 * h * ay1
    k3x = x + 0.5 * h * k2vx
    k3y = y + 0.5 * h * k2vy
    ax3, ay3 = accel(k3x, k3y, mu)
    k3vx = vx + 0.5 * h * ax2
    k3vy = vy + 0.5 * h * ay2
    k4x = x + h * k3vx
    k4y = y + h * k3vy
    ax4, ay4 = accel(k4x, k4y, mu)
    k4vx = vx + h * ax3
    k4vy = vy + h * ay3
    nx = x + (h / 6.0) * (vx + 2.0 * k2vx + 2.0 * k3vx + k4vx)
    ny = y + (h / 6.0) * (vy + 2.0 * k2vy + 2.0 * k3vy + k4vy)
    nvx = vx + (h / 6.0) * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
    nvy = vy + (h / 6.0) * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4)
    return nx, ny, nvx, nvy


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
        x, y, vx, vy = _rk4_step(x, y, vx, vy, h, mu, _accel)
    return np.array([x, y, vx, vy])


def propagate_flows(states: np.ndarray, cfg: DynamicsConfig) -> tuple[np.ndarray, np.ndarray]:
    """propagate_state and the flow's Jacobian for N states at once.

    Returns means (N, 4) and Jacobians (N, 4, 4). Column j of a Jacobian is
    the central difference (flow(s + h e_j) - flow(s - h e_j)) / 2h with
    h = 1e-6 * max(1, |s_j|); the mu = 0 flow is exactly linear, so its
    constant-velocity Jacobian is returned in closed form. Each state and
    its 8 perturbations are lanes of one RK4 loop (_rk4_step over
    _lane_accel), so every lane is its scalar integration bit for bit, and
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
        x, y, vx, vy = lanes.reshape(-1, 4).T
        h = cfg.dt / cfg.integrator_substeps
        mu = cfg.mu
        for _ in range(cfg.integrator_substeps):
            x, y, vx, vy = _rk4_step(x, y, vx, vy, h, mu, _lane_accel)
        out = np.stack([x, y, vx, vy], axis=-1).reshape(lanes.shape)
    means = out[:, 0].copy()
    if cfg.mu == 0.0:
        jacs = np.tile(np.eye(4), (n, 1, 1))
        jacs[:, 0, 2] = jacs[:, 1, 3] = cfg.dt
    else:
        # diffs[n, j] is column j of Jacobian n.
        diffs = (out[:, 1::2] - out[:, 2::2]) / (2.0 * steps)[:, :, None]
        jacs = np.ascontiguousarray(diffs.transpose(0, 2, 1))
    return means, jacs


def process_noise(cfg: DynamicsConfig) -> np.ndarray:
    """Discrete white-noise-acceleration covariance G q G^T per axis."""
    dt = abs(cfg.dt)
    q = cfg.q
    q3 = q * dt ** 3 / 3.0
    q2 = q * dt ** 2 / 2.0
    q1 = q * dt
    return np.array([
        [q3, 0.0, q2, 0.0],
        [0.0, q3, 0.0, q2],
        [q2, 0.0, q1, 0.0],
        [0.0, q2, 0.0, q1],
    ])


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


def _innovation(t: GaussianTrack, z: np.ndarray, sensor: SensorModel):
    """Innovation, innovation covariance, its inverse/det, and the marginal
    measurement likelihood N(z; h(mean), H P H^T + r)."""
    s_cov = t.covariance[:2, :2] + sensor.r
    s_cov = 0.5 * (s_cov + s_cov.T)
    det = s_cov[0, 0] * s_cov[1, 1] - s_cov[0, 1] * s_cov[1, 0]
    if not (math.isfinite(det) and det > 0.0):
        raise NumericalError(f"track {t.label}: innovation covariance not invertible")
    inv = np.array([[s_cov[1, 1], -s_cov[0, 1]], [-s_cov[1, 0], s_cov[0, 0]]]) / det
    innov = z - t.mean[:2]
    maha = float(innov @ inv @ innov)
    lik = math.exp(-0.5 * maha) / (_TWO_PI * math.sqrt(det))
    return innov, inv, lik


def measurement_likelihood(t: GaussianTrack, z: np.ndarray, sensor: SensorModel) -> float:
    """Marginal likelihood of return z under track t (exact for linear h)."""
    z = np.asarray(z, dtype=float).reshape(2)
    _, _, lik = _innovation(t, z, sensor)
    return lik


def update_track(
    t: GaussianTrack, z: np.ndarray, sensor: SensorModel
) -> tuple[GaussianTrack, float]:
    """EKF measurement update; returns the posterior track and the marginal
    likelihood of z (same value, bit for bit, as measurement_likelihood)."""
    z = np.asarray(z, dtype=float).reshape(2)
    if not np.all(np.isfinite(z)):
        raise ValueError("measurement must be finite")
    innov, s_inv, lik = _innovation(t, z, sensor)
    gain = t.covariance[:, :2] @ s_inv
    mean = t.mean + gain @ innov
    a = np.eye(4) - gain @ _H
    cov = a @ t.covariance @ a.T + gain @ sensor.r @ gain.T
    return GaussianTrack(t.label, mean, cov), lik


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
