"""The whole recursion against brute force, on tiny instances.

The brute force here expands every association history scan by scan, with
the filter functions and the oracle's own enumerator and scorer: each
history's tracks are predicted one by one (predict_track) and paired with
the returns (build_matrix); every key of oracle.enumerate_child_keys is
scored by oracle._key_scorer and realized with update_track and
newborn_track. A history's weight is the product of its scans' child
scores, normalized over the finite histories at the end. A scan where no
history has a child of positive mass carries every history on, predicted
and at its prior weight. It uses no Tracker, _realize, prune, Kernel or
child_score_bounds.

Exhaustive tracking with h_inf above the history count must then give the
same posterior over association histories: the same final tracks, bit for
bit, at the same normalized log weights to 1e-12. That is the weights to
1e-12 relative wherever a weight is a normal float; a subnormal weight
(below about 2e-308) holds fewer digits than that."""

import math
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mcmctrack import oracle
from mcmctrack.filters import (
    MU_EARTH,
    DynamicsConfig,
    GaussianTrack,
    SensorModel,
    in_bounded_fov,
    predict_track,
    update_track,
)
from mcmctrack.hypotheses import BirthDeathConfig
from mcmctrack.likelihoods import ClutterModel, birth_likelihood, build_matrix, newborn_track
from mcmctrack.simulate import MeasurementFrame
from mcmctrack.tracker import Tracker, TrackerConfig, TrackerMode, run_tracker


def brute_force_histories(tracks, frames, cfg, max_histories=math.inf):
    """(normalized log weight, tracks) of every finite association history
    of tracks over frames, or None once more than max_histories arise.
    Children of zero mass are dropped as they arise, which is the same as
    normalizing over the finite histories at the end."""
    histories = [(0.0, tuple(tracks))]
    for scan, frame in enumerate(frames, 1):
        grown = []
        for log_weight, held in histories:
            predicted = [predict_track(t, cfg.dynamics) for t in held]
            matrix = build_matrix(predicted, frame.returns, cfg.sensor, cfg.clutter,
                                  cfg.birth_death)
            score = oracle._key_scorer(matrix, cfg.birth_death, cfg.sensor, len(held))
            for key in oracle.enumerate_child_keys(matrix):
                log_score = score(key)
                if log_score == -math.inf:
                    continue
                assign, deaths = key
                child = [
                    update_track(t, frame.returns[assign.index(j)], cfg.sensor)
                    if j in assign else t
                    for j, t in enumerate(predicted) if j not in deaths
                ]
                child += [
                    newborn_track(f"b{scan:05d}-{i:03d}", frame.returns[i], cfg.sensor,
                                  cfg.dynamics.mu)
                    for i, col in enumerate(assign) if col == matrix.birth_col
                ]
                grown.append((log_weight + log_score, tuple(child)))
            if len(grown) > max_histories:
                return None
        if not grown:
            # A degenerate scan: no history has a child of positive mass, so
            # every history carries on at its prior weight, its tracks
            # predicted and not updated.
            grown = [(log_weight, tuple(predict_track(t, cfg.dynamics) for t in held))
                     for log_weight, held in histories]
        histories = grown
    top = max(log_weight for log_weight, _ in histories)
    total = math.fsum(math.exp(log_weight - top) for log_weight, _ in histories)
    return [(log_weight - top - math.log(total), held) for log_weight, held in histories]


def grouped(histories):
    """Log weights, sorted, by the tracks' labels, mean bytes and covariance
    bytes."""
    groups = defaultdict(list)
    for weight, tracks in histories:
        key = tuple((t.label, t.mean.tobytes(), t.covariance.tobytes()) for t in tracks)
        groups[key].append(weight)
    return {key: sorted(weights) for key, weights in groups.items()}


def config(p_d, alpha, beta, clutter_density, mu=0.0, dt=10.0, q=0.0, n_pixels=2):
    sensor = SensorModel(origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=math.pi,
                         r=np.eye(2), p_d=p_d, max_range=1.0e4)
    return TrackerConfig(
        sensor=sensor,
        dynamics=DynamicsConfig(mu=mu, dt=dt, q=q),
        clutter=ClutterModel(clutter_density),
        birth_death=BirthDeathConfig(alpha=alpha, beta=beta, n_pixels=n_pixels),
        mode=TrackerMode.EXHAUSTIVE,
    )


def track(label, state, var=1.0):
    return GaussianTrack(label, np.array(state, dtype=float), np.diag([var, var, 0.01, 0.01]))


def frames_of(dt, *returns):
    return [MeasurementFrame(time=dt * (k + 1), returns=np.array(z, dtype=float).reshape(-1, 2))
            for k, z in enumerate(returns)]


# Each instance: a config, initial tracks and frames. Every object starts
# death-eligible (inside the FOV, beta > 0), and some return lies inside the
# bounded FOV, so it can be born (alpha > 0).
INSTANCES = {
    # One object moving +y at 1 km/s: a return near it and a far one, one
    # near it, then an empty scan.
    "one-object-three-scans": (
        config(p_d=0.8, alpha=0.05, beta=0.05, clutter_density=1e-6),
        [track("t00", [100.0, 0.0, 0.0, 1.0])],
        frames_of(10.0, [[100.3, 10.2], [400.0, -300.0]], [[99.8, 19.9]], []),
    ),
    # Two objects 2 km apart, each return plausible for either.
    "two-objects-ambiguous": (
        config(p_d=0.7, alpha=0.1, beta=0.1, clutter_density=1e-5),
        [track("t00", [200.0, 0.0, 0.0, 0.0]), track("t01", [202.0, 0.0, 0.0, 0.0])],
        frames_of(10.0, [[200.9, 0.4], [201.2, -0.5]], [[201.5, 0.1]]),
    ),
    # One object on a circular orbit under two-body dynamics with process
    # noise; the second scan's return is off it, so it may be a birth.
    "orbit-with-noise": (
        config(p_d=0.9, alpha=0.2, beta=0.02, clutter_density=1e-7, mu=MU_EARTH, dt=10.0,
               q=1e-6),
        [track("t00", [7000.0, 0.0, 0.0, math.sqrt(MU_EARTH / 7000.0)], var=4.0)],
        frames_of(10.0, [[6999.9, 75.6]], [[6999.4, 150.9], [6990.0, 160.0]],
                  [[6998.8, 226.0]]),
    ),
    # One pixel and two bornable returns in the second scan: the children
    # that birth both have zero mass (-inf), and go through the heap and
    # prune with the rest.
    "two-births-one-pixel": (
        config(p_d=0.8, alpha=0.1, beta=0.05, clutter_density=1e-6, n_pixels=1),
        [track("t00", [100.0, 0.0, 0.0, 1.0])],
        frames_of(10.0, [[100.2, 10.1]], [[100.1, 19.8], [-300.0, 250.0], [450.0, -200.0]]),
    ),
}


def assert_tracker_gives(cfg, tracks, frames, brute, degenerate=()):
    """Exhaustive tracking with h_inf above the history count gives the
    brute-force histories: the same tracks at the same log weights. It reports
    the scans numbered in degenerate as degenerate, and no other."""
    tracker = Tracker(replace(cfg, h_inf=len(brute) + 1))
    final, reports = run_tracker(tracker, tracker.initial_hypotheses(tracks), frames)
    assert [report.scan for report in reports if report.degenerate] == list(degenerate)
    assert len(final) == len(brute) > 1
    want = grouped(brute)
    got = grouped([(h.log_weight, h.tracks) for h in final])
    assert got.keys() == want.keys()
    for key, weights in want.items():
        assert len(got[key]) == len(weights)
        for g, w in zip(got[key], weights):
            assert g == pytest.approx(w, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("name", INSTANCES)
def test_exhaustive_tracker_gives_the_history_posterior(name):
    cfg, tracks, frames = INSTANCES[name]
    first = build_matrix([predict_track(t, cfg.dynamics) for t in tracks], frames[0].returns,
                         cfg.sensor, cfg.clutter, cfg.birth_death)
    assert any(first.death_eligible)
    assert any(birth_likelihood(z, cfg.sensor) > 0.0 for frame in frames for z in frame.returns)
    assert_tracker_gives(cfg, tracks, frames, brute_force_histories(tracks, frames, cfg))


def test_degenerate_scan_carries_every_history_on():
    # No clutter, and the middle scan's one return lies beyond the FOV's
    # range and thousands of km from every track: no child of any history
    # explains it. Scans 1 and 3 each have a return near the object.
    cfg = config(p_d=0.8, alpha=0.05, beta=0.05, clutter_density=0.0)
    tracks = [track("t00", [100.0, 0.0, 0.0, 1.0])]
    frames = frames_of(10.0, [[100.3, 10.2]], [[2.0e4, 0.0]], [[99.8, 29.9]])
    assert not in_bounded_fov(frames[1].returns[0], cfg.sensor)
    assert_tracker_gives(cfg, tracks, frames, brute_force_histories(tracks, frames, cfg),
                         degenerate=[2])


@st.composite
def tiny_instances(draw):
    """A config, one or two objects moving +y at 1 km/s, 3 km apart, and two
    or three scans of up to two returns, each near one object or far from
    every object."""
    cfg = config(
        p_d=draw(st.floats(0.6, 0.95)),
        alpha=draw(st.floats(0.02, 0.3)),
        beta=draw(st.floats(0.02, 0.3)),
        clutter_density=draw(st.floats(1e-7, 1e-5)),
        n_pixels=draw(st.sampled_from([1, 2])),
    )
    n_objects = draw(st.integers(1, 2))
    tracks = [track(f"t{j:02d}", [100.0 + 3.0 * j, 0.0, 0.0, 1.0]) for j in range(n_objects)]
    scans = []
    for k in range(1, draw(st.integers(2, 3)) + 1):
        returns = []
        for _ in range(draw(st.integers(0, 2))):
            dx, dy = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
            near = draw(st.sampled_from([None, *range(n_objects)]))
            if near is None:
                returns.append([400.0 + 50.0 * dx, -300.0 + 50.0 * dy])
            else:
                returns.append([100.0 + 3.0 * near + dx, 10.0 * k + dy])
        scans.append(returns)
    return cfg, tracks, frames_of(10.0, *scans)


@given(instance=tiny_instances())
# 8 of this instance's 260 histories end with subnormal weights, about
# 1e-315, which agree with the tracker's only to 4.4e-9 relative.
@example(instance=(
    config(p_d=0.75, alpha=0.25, beta=0.25, clutter_density=1.0036710260208636e-06, n_pixels=1),
    [track("t00", [100.0, 0.0, 0.0, 1.0])],
    frames_of(10.0, [[400.0, -300.0], [400.0, -300.0]], [[400.0, -250.0]], [[431.25, -287.5]]),
))
@settings(max_examples=25, deadline=None)
def test_exhaustive_tracker_gives_the_history_posterior_on_generated_instances(instance):
    cfg, tracks, frames = instance
    brute = brute_force_histories(tracks, frames, cfg, max_histories=2000)
    assume(brute is not None)
    assert_tracker_gives(cfg, tracks, frames, brute)
