"""Ground-truth generation for orbital scenarios and sensor simulation.

Truth trajectories propagate under the same two-body dynamics the tracker
assumes (no process noise); spawn events replace one object with several
fragments sharing its position, with isotropic Gaussian velocity kicks.
Sensing applies per-object detection, Gaussian measurement noise, and
uniform Poisson clutter over the bounded FOV wedge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, InputDataError, check_count
from .filters import (
    DynamicsConfig,
    GaussianTrack,
    SensorModel,
    in_fov,
    propagate_state,
    sample_fov_point,
)
from .likelihoods import ClutterModel

CLUTTER_TAG = "clutter"


@dataclass(frozen=True)
class SpawnEvent:
    time: float
    parent_index: int
    fragment_count: int
    velocity_std: float

    def __post_init__(self) -> None:
        check_count(self.parent_index, "spawn_events[].parent_index", 0)
        check_count(self.fragment_count, "spawn_events[].fragment_count", 2)
        if self.velocity_std < 0.0 or not math.isfinite(self.velocity_std):
            raise ConfigError("spawn_events[].velocity_std must be finite and >= 0")


@dataclass(frozen=True)
class MeasurementFrame:
    """One scan: timestamp, (m, 2) array of returns, and optional per-return
    provenance tags (object id or "clutter") used only for scoring."""

    time: float
    returns: np.ndarray
    truth_tags: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "returns", np.asarray(self.returns, dtype=float).reshape(-1, 2)
        )
        if not np.isfinite(self.returns).all():
            finite = np.isfinite(self.returns).all(axis=1)
            raise InputDataError(
                f"frame at time {self.time}: returns {self.returns[~finite].tolist()} "
                "must be finite"
            )
        if self.truth_tags is not None and len(self.truth_tags) != len(self.returns):
            raise ConfigError("frame truth_tags must align with returns")

    @property
    def n_returns(self) -> int:
        return len(self.returns)


@dataclass(frozen=True)
class TruthScan:
    """True object states (id, [x, y, vx, vy]) at one scan time."""

    time: float
    objects: tuple[tuple[str, np.ndarray], ...]

    @property
    def count(self) -> int:
        return len(self.objects)


@dataclass
class ScenarioConfig:
    objects: list[np.ndarray]
    sensor: SensorModel
    clutter: ClutterModel
    dynamics: DynamicsConfig
    duration: float
    scan_interval: float
    spawn_events: list[SpawnEvent] = field(default_factory=list)
    seed: int = 0
    name: str = "custom"
    initial_position_std_km: float = 2.0
    initial_velocity_std_kmps: float = 0.05

    def __post_init__(self) -> None:
        self.objects = [np.asarray(s, dtype=float).reshape(4) for s in self.objects]
        if not self.objects:
            raise ConfigError("objects must be non-empty")
        for i, s in enumerate(self.objects):
            if not np.all(np.isfinite(s)):
                raise ConfigError(f"objects[{i}] must be finite")
        if not (math.isfinite(self.scan_interval) and self.scan_interval > 0.0):
            raise ConfigError("scan_interval must be > 0")
        if not (math.isfinite(self.duration) and self.duration >= self.scan_interval):
            raise ConfigError("duration must cover at least one scan")
        if not math.isfinite(self.duration / self.scan_interval):
            raise ConfigError("duration must span a finite number of scans")
        for i, ev in enumerate(self.spawn_events):
            if not 0.0 <= ev.time <= self.duration:
                raise ConfigError(f"spawn_events[{i}].time must lie within duration")
            if not 0 <= ev.parent_index < len(self.objects):
                raise ConfigError(f"spawn_events[{i}].parent_index out of range")
        for name in ("initial_position_std_km", "initial_velocity_std_kmps"):
            std = getattr(self, name)
            if not (math.isfinite(std) and std > 0.0):
                raise ConfigError(f"{name} must be finite and > 0")
            # The initial covariance holds its square.
            if not math.isfinite(std * std):
                raise ConfigError(f"{name} must have a finite square")
        check_count(self.seed, "seed", 0)
        # Truth propagation reuses the per-scan dynamics step.
        self.dynamics = replace(self.dynamics, dt=self.scan_interval)

    @property
    def n_scans(self) -> int:
        return int(math.floor(self.duration / self.scan_interval + 1e-9))

    def scan_times(self) -> list[float]:
        return [self.scan_interval * (k + 1) for k in range(self.n_scans)]

    def initial_covariance(self) -> np.ndarray:
        return np.diag(
            [
                self.initial_position_std_km ** 2,
                self.initial_position_std_km ** 2,
                self.initial_velocity_std_kmps ** 2,
                self.initial_velocity_std_kmps ** 2,
            ]
        )

    def initial_tracks(self) -> list[GaussianTrack]:
        """Object i as track `t<ii>`, its truth label, with the initial covariance."""
        return [
            GaussianTrack(f"t{i:02d}", state, self.initial_covariance())
            for i, state in enumerate(self.objects)
        ]


def generate_truth(cfg: ScenarioConfig, rng: np.random.Generator | None = None) -> list[TruthScan]:
    """Propagate all objects scan by scan. After each scan's propagation,
    apply in (time, parent_index) order every pending spawn event due by
    then (one at time 0 applies at the first scan): the parent dies, replaced
    by fragment_count children `s<k>f<j>` at its position with Gaussian
    velocity kicks, k the event's place in that order. An event whose parent
    already spawned away is skipped and draws nothing, but keeps its k."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    events = sorted(cfg.spawn_events, key=lambda e: (e.time, e.parent_index))
    population: list[tuple[str, np.ndarray]] = [
        (f"t{idx:02d}", s.copy()) for idx, s in enumerate(cfg.objects)
    ]
    k = 0
    scans: list[TruthScan] = []
    for t in cfg.scan_times():
        population = [
            (oid, propagate_state(s, cfg.dynamics)) for oid, s in population
        ]
        while k < len(events) and events[k].time <= t:
            ev = events[k]
            ids = [oid for oid, _ in population]
            parent_id = f"t{ev.parent_index:02d}"
            if parent_id in ids:  # else it already spawned away
                i = ids.index(parent_id)
                parent_state = population.pop(i)[1]
                fragments = []
                for j in range(ev.fragment_count):
                    state = parent_state.copy()
                    state[2:] += rng.normal(0.0, ev.velocity_std, size=2)
                    fragments.append((f"s{k}f{j}", state))
                population[i:i] = fragments
            k += 1
        scans.append(TruthScan(time=t, objects=tuple((o, s.copy()) for o, s in population)))
    return scans


def sense(
    truth: TruthScan,
    sensor: SensorModel,
    clutter: ClutterModel,
    rng: np.random.Generator,
) -> MeasurementFrame:
    """Simulate one scan: each in-FOV object is detected with probability
    p_d and reported with Gaussian noise; Poisson clutter is uniform over the
    bounded wedge; return order is shuffled to hide the association. Noise
    may push a return marginally outside the wedge; such returns are kept.
    The noise is drawn through the sensor's noise_factor, factored once
    when the sensor was built."""
    returns: list[np.ndarray] = []
    tags: list[str] = []
    for oid, state in truth.objects:
        if not in_fov(state, sensor):
            continue
        if rng.random() < sensor.p_d:
            z = state[:2] + sensor.noise_factor @ rng.standard_normal(2)
            returns.append(z)
            tags.append(oid)
    n_clutter = int(rng.poisson(clutter.expected_count))
    for _ in range(n_clutter):
        returns.append(sample_fov_point(sensor, rng))
        tags.append(CLUTTER_TAG)
    order = rng.permutation(len(returns))
    shuffled = np.array([returns[i] for i in order]).reshape(-1, 2)
    shuffled_tags = tuple(tags[i] for i in order)
    return MeasurementFrame(time=truth.time, returns=shuffled, truth_tags=shuffled_tags)


def simulate_scenario(
    cfg: ScenarioConfig,
) -> tuple[list[TruthScan], list[MeasurementFrame]]:
    """Generate truth and frames from one seeded stream; deterministic."""
    rng = np.random.default_rng(cfg.seed)
    truth = generate_truth(cfg, rng)
    frames = [sense(scan, cfg.sensor, cfg.clutter, rng) for scan in truth]
    return truth, frames
