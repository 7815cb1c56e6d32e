"""Shipped scenario presets and per-preset tracker tuning.

All presets use an Earth-centered sensor wedge (thirty-degree total field of
view) watching circular orbits at tens of thousands of km, with one breakup
event that scatters fragments through the field of view.
"""

from __future__ import annotations

import math

import numpy as np

from .filters import MU_EARTH, DynamicsConfig, SensorModel
from .hypotheses import BirthDeathConfig
from .likelihoods import uniform_clutter
from .sampler import SamplerConfig
from .simulate import ScenarioConfig, SpawnEvent
from .tracker import TrackerConfig, TrackerMode

_SCAN_S = 300.0


def _circular_state(radius_km: float, angle_deg: float, mu: float = MU_EARTH) -> np.ndarray:
    theta = math.radians(angle_deg)
    speed = math.sqrt(mu / radius_km)
    return np.array(
        [
            radius_km * math.cos(theta),
            radius_km * math.sin(theta),
            -speed * math.sin(theta),
            speed * math.cos(theta),
        ]
    )


def _preset(
    name: str, objects: list[np.ndarray], *, n_scans: int, spawn_scan: int,
    fragments: int, velocity_std: float, seed: int,
) -> ScenarioConfig:
    """The presets' shared skeleton: the wedge sensor (p_d 0.97), 0.4 expected
    clutter returns per scan, two-body dynamics with 300 s scans, initial stds
    of 2.0 km and 0.02 km/s, and one breakup of object 0 at spawn_scan."""
    sensor = SensorModel(
        origin=np.zeros(2),
        boresight_angle=0.0,
        fov_half_angle=math.pi / 12.0,  # thirty degrees total
        r=np.eye(2),
        p_d=0.97,
        max_range=5.0e4,
    )
    return ScenarioConfig(
        objects=objects,
        sensor=sensor,
        clutter=uniform_clutter(sensor, expected_count=0.4),
        dynamics=DynamicsConfig(mu=MU_EARTH, dt=_SCAN_S, q=1e-9, integrator_substeps=16),
        duration=n_scans * _SCAN_S,
        scan_interval=_SCAN_S,
        spawn_events=[SpawnEvent(spawn_scan * _SCAN_S, 0, fragments, velocity_std)],
        seed=seed,
        name=name,
        initial_position_std_km=2.0,
        initial_velocity_std_kmps=0.02,
    )


def preset_single_spawn(seed: int = 0) -> ScenarioConfig:
    """One object crossing the field of view breaks into three fragments."""
    return _preset("single-spawn", [_circular_state(35000.0, -10.0)],
                   n_scans=14, spawn_scan=5, fragments=3, velocity_std=0.08, seed=seed)


def preset_twenty_object(seed: int = 0) -> ScenarioConfig:
    """Twenty objects around the orbit; one breaks up inside the FOV."""
    objects = [_circular_state(34000.0 + 100.0 * i, -14.0 + 18.0 * i) for i in range(20)]
    return _preset("twenty-object", objects,
                   n_scans=14, spawn_scan=3, fragments=3, velocity_std=0.08, seed=seed)


def preset_sixty_object(seed: int = 0) -> ScenarioConfig:
    """Sixty objects; used to stress the hypothesis-count bound."""
    objects = [_circular_state(30000.0 + 150.0 * (i % 7), -13.0 + 6.0 * i) for i in range(60)]
    return _preset("sixty-object", objects,
                   n_scans=6, spawn_scan=3, fragments=4, velocity_std=0.1, seed=seed)


PRESETS = {
    "single-spawn": preset_single_spawn,
    "twenty-object": preset_twenty_object,
    "sixty-object": preset_sixty_object,
}

# Per-preset tracker tuning: hypothesis budget, children kept per parent,
# chain sizing, birth/death rates, and whether to adapt the rates to the
# measurement/object ratio (needed when births must out-compete many
# near-identical carry-over hypotheses).
TRACKER_TUNING: dict[str, dict] = {
    "single-spawn": dict(
        h_inf=50, children_kept=35, burn_in_steps=1500, record_steps=6000,
        alpha=0.02, beta=0.02, n_pixels=50, adapt_rates=False,
    ),
    "twenty-object": dict(
        h_inf=40, children_kept=60, burn_in_steps=1500, record_steps=6000,
        alpha=0.03, beta=0.01, n_pixels=50, adapt_rates=True,
    ),
    "sixty-object": dict(
        h_inf=10, children_kept=15, burn_in_steps=1000, record_steps=4000,
        alpha=0.02, beta=0.01, n_pixels=60, adapt_rates=True,
    ),
    "custom": dict(
        h_inf=50, children_kept=25, burn_in_steps=None, record_steps=None,
        alpha=0.01, beta=0.01, n_pixels=50, adapt_rates=False,
    ),
}


def tracker_config_for(scenario, seed=None, mode=None, **overrides):
    """Build a TrackerConfig from a scenario plus its preset tuning.

    Keyword overrides: h_inf, children_kept, burn_in_steps, record_steps,
    alpha, beta, n_pixels, adapt_rates; any other raises TypeError.
    """
    tun = dict(TRACKER_TUNING.get(scenario.name, TRACKER_TUNING["custom"]))
    unknown = sorted(overrides.keys() - tun.keys())
    if unknown:
        raise TypeError(f"tracker_config_for() got unknown overrides {unknown}")
    tun.update({k: v for k, v in overrides.items() if v is not None})
    return TrackerConfig(
        sensor=scenario.sensor,
        dynamics=scenario.dynamics,
        clutter=scenario.clutter,
        birth_death=BirthDeathConfig(
            alpha=tun["alpha"], beta=tun["beta"], n_pixels=tun["n_pixels"]
        ),
        sampler=SamplerConfig(
            burn_in_steps=tun["burn_in_steps"],
            record_steps=tun["record_steps"],
            children_kept=tun["children_kept"],
            seed=scenario.seed if seed is None else seed,
        ),
        h_inf=tun["h_inf"],
        mode=TrackerMode.MCMC if mode is None else mode,
        adapt_rates=tun["adapt_rates"],
    )
