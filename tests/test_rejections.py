"""Every constructor and entry point rejects a bad value with an error that
names the field it checks, and the empty-input edges return their neutral
values."""

import math
import re

import numpy as np
import pytest

from mcmctrack.errors import ConfigError, InvalidEventError
from mcmctrack.filters import (
    DynamicsConfig,
    GaussianTrack,
    SensorModel,
    circular_speed,
    propagate_state,
    update_tracks,
)
from mcmctrack.hypotheses import (
    BIRTH,
    CLUTTER,
    AssociationEvent,
    BirthDeathConfig,
    Hypothesis,
    count_associations,
    log_sum_exp,
)
from mcmctrack.likelihoods import AssociationMatrix, ClutterModel, hypothesis_log_likelihood
from mcmctrack.sampler import SamplerConfig, visit_distribution
from mcmctrack.simulate import MeasurementFrame, ScenarioConfig
from mcmctrack.tracker import TrackerConfig

NAN = math.nan


def sensor(**overrides):
    fields = dict(origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=math.pi / 4,
                  r=np.eye(2), p_d=0.9, max_range=1.0e4)
    return SensorModel(**{**fields, **overrides})


def scenario(**overrides):
    fields = dict(objects=[np.array([3.0e4, 0.0, 0.0, 3.6])], sensor=sensor(),
                  clutter=ClutterModel(0.0), dynamics=DynamicsConfig(),
                  duration=600.0, scan_interval=300.0)
    return ScenarioConfig(**{**fields, **overrides})


def tracker(**overrides):
    fields = dict(sensor=sensor(), dynamics=DynamicsConfig(), clutter=ClutterModel(0.0))
    return TrackerConfig(**{**fields, **overrides})


def track(label="t00"):
    return GaussianTrack(label, np.array([1.0e4, 0.0, 0.0, 3.0]), np.eye(4))


REJECTIONS = {
    "dynamics-mu": (lambda: DynamicsConfig(mu=-1.0), ConfigError, "dynamics.mu"),
    "dynamics-dt": (lambda: DynamicsConfig(dt=math.inf), ConfigError, "dynamics.dt"),
    "sensor-fov": (lambda: sensor(fov_half_angle=0.0), ConfigError, "sensor.fov_half_angle"),
    "sensor-origin": (lambda: sensor(origin=[NAN, 0.0]), ConfigError, "sensor.origin"),
    "sensor-p_d": (lambda: sensor(p_d=1.5), ConfigError, "sensor.p_d"),
    "sensor-max_range": (lambda: sensor(max_range=0.0), ConfigError, "sensor.max_range"),
    "clutter-density": (lambda: ClutterModel(-1.0), ConfigError, "clutter.density_value"),
    "birth_death-beta": (lambda: BirthDeathConfig(beta=1.5), ConfigError, "birth_death.beta"),
    "sampler-burn_in": (
        lambda: SamplerConfig(burn_in_steps=-1), ConfigError, "sampler.burn_in_steps"),
    "sampler-record": (
        lambda: SamplerConfig(record_steps=0), ConfigError, "sampler.record_steps"),
    "sampler-children": (
        lambda: SamplerConfig(children_kept=0), ConfigError, "sampler.children_kept"),
    "tracker-h_inf": (lambda: tracker(h_inf=0), ConfigError, "tracker.h_inf"),
    "tracker-mode": (lambda: tracker(mode="bogus"), ConfigError, "tracker.mode"),
    "scenario-no-objects": (lambda: scenario(objects=[]), ConfigError, "objects"),
    "scenario-nonfinite-object": (
        lambda: scenario(objects=[[1.0e4, NAN, 0.0, 0.0]]), ConfigError, "objects[0]"),
    "scenario-short-duration": (lambda: scenario(duration=200.0), ConfigError, "duration"),
    "frame-truth_tags": (
        lambda: MeasurementFrame(300.0, [[1.0, 2.0]], truth_tags=()),
        ConfigError, "truth_tags"),
    "track-label": (lambda: track(""), ValueError, "label"),
    "hypothesis-reserved-label": (
        lambda: Hypothesis("h0", None, 0.0, (track(BIRTH),)), InvalidEventError, "label"),
    "hypothesis-weight": (lambda: Hypothesis("h0", None, 0.1, ()), ValueError, "weight"),
    "matrix-columns": (
        lambda: AssociationMatrix(np.zeros((1, 2)), ("t00",), (False,)), ValueError, "column"),
    "event-assignments": (
        lambda: hypothesis_log_likelihood(
            AssociationEvent((CLUTTER, CLUTTER)),
            AssociationMatrix(np.zeros((1, 3)), ("t00",), (False,))),
        InvalidEventError, "assignments"),
    "count_associations": (lambda: count_associations(-1, 2), ValueError, "counts"),
    "propagate_state": (
        lambda: propagate_state([1.0e4, NAN, 0.0, 0.0], DynamicsConfig()), ValueError, "state"),
    "update_tracks": (
        lambda: update_tracks([track()], [[NAN, 0.0]], sensor()), ValueError, "measurement"),
    "circular_speed": (lambda: circular_speed(np.zeros(4), 1.0), ValueError, "position"),
}


@pytest.mark.parametrize("make,error,field", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_rejection_names_the_field(make, error, field):
    with pytest.raises(error, match=re.escape(field)):
        make()


def test_empty_inputs_return_neutral_values():
    assert log_sum_exp([-math.inf, -math.inf]) == -math.inf
    assert visit_distribution([]) == {}
