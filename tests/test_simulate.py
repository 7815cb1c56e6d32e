"""Scenario generation and sensing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mcmctrack.errors import ConfigError
from mcmctrack.filters import DynamicsConfig, SensorModel, in_fov
from mcmctrack.likelihoods import ClutterModel, uniform_clutter
from mcmctrack.presets import PRESETS, preset_single_spawn, preset_twenty_object
from mcmctrack.simulate import (
    CLUTTER_TAG,
    ScenarioConfig,
    SpawnEvent,
    TruthScan,
    generate_truth,
    sense,
    simulate_scenario,
)


def small_scenario(**overrides):
    sensor = SensorModel(
        origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=math.pi,
        r=np.eye(2), p_d=0.9, max_range=1.0e5,
    )
    base = dict(
        objects=[np.array([30000.0, 0.0, 0.0, math.sqrt(398600.4418 / 30000.0)])],
        sensor=sensor,
        clutter=uniform_clutter(sensor, 0.0),
        dynamics=DynamicsConfig(dt=300.0),
        duration=1500.0,
        scan_interval=300.0,
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestGenerateTruth:
    def test_object_count_constant_without_spawns(self):
        truth = generate_truth(small_scenario())
        assert [scan.count for scan in truth] == [1] * 5

    def test_spawn_replaces_parent_with_fragments(self):
        cfg = small_scenario(
            spawn_events=[SpawnEvent(time=600.0, parent_index=0, fragment_count=3,
                                     velocity_std=0.05)]
        )
        truth = generate_truth(cfg)
        assert [scan.count for scan in truth] == [1, 3, 3, 3, 3]
        ids_before = {oid for oid, _ in truth[0].objects}
        ids_after = {oid for oid, _ in truth[-1].objects}
        assert ids_before == {"t00"}
        assert ids_after == {"s0f0", "s0f1", "s0f2"}

    @pytest.mark.parametrize("time", [0.0, 1.0])
    def test_spawn_up_to_the_first_scan_applies_there(self, time):
        # An event at time 0, like one at any time up to the first scan,
        # is applied at the first scan.
        cfg = small_scenario(
            spawn_events=[SpawnEvent(time=time, parent_index=0, fragment_count=3,
                                     velocity_std=0.05)]
        )
        assert [scan.count for scan in generate_truth(cfg)] == [3] * 5

    def test_twenty_object_spawn_count(self):
        cfg = preset_twenty_object(seed=1)
        truth = generate_truth(cfg)
        assert truth[0].count == 20
        assert truth[-1].count == 22  # 20 - 1 + 3

    def test_fragments_share_position_with_kicked_velocities(self):
        cfg = small_scenario(
            spawn_events=[SpawnEvent(time=600.0, parent_index=0, fragment_count=2,
                                     velocity_std=0.05)]
        )
        truth = generate_truth(cfg)
        spawn_scan = truth[1]
        positions = np.array([s[:2] for _, s in spawn_scan.objects])
        np.testing.assert_allclose(positions[0], positions[1], atol=1e-9)
        velocities = np.array([s[2:] for _, s in spawn_scan.objects])
        assert np.linalg.norm(velocities[0] - velocities[1]) > 0.0

    def test_deterministic_given_seed(self):
        cfg = small_scenario(
            spawn_events=[SpawnEvent(time=600.0, parent_index=0, fragment_count=3,
                                     velocity_std=0.05)]
        )
        a = generate_truth(cfg)
        b = generate_truth(cfg)
        for scan_a, scan_b in zip(a, b):
            assert scan_a.time == scan_b.time
            for (ida, sa), (idb, sb) in zip(scan_a.objects, scan_b.objects):
                assert ida == idb
                np.testing.assert_array_equal(sa, sb)

    def test_count_changes_only_at_spawn_by_fragment_minus_one(self):
        cfg = small_scenario(
            duration=3000.0,
            spawn_events=[
                SpawnEvent(time=600.0, parent_index=0, fragment_count=4, velocity_std=0.05)
            ],
        )
        truth = generate_truth(cfg)
        counts = [scan.count for scan in truth]
        deltas = [b - a for a, b in zip(counts, counts[1:])]
        assert sorted(deltas) == [0] * (len(deltas) - 1) + [3]


def orbiters(n):
    """n objects on circular orbits 1,000 km apart."""
    radii = [30000.0 + 1000.0 * i for i in range(n)]
    return [np.array([r, 0.0, 0.0, math.sqrt(398600.4418 / r)]) for r in radii]


def spawn(time, parent_index, fragment_count=2):
    return SpawnEvent(time=time, parent_index=parent_index, fragment_count=fragment_count,
                      velocity_std=0.05)


class TestSpawnOrder:
    def test_event_on_a_spawned_parent_is_skipped_but_numbered(self):
        # Event 1 finds t00 gone: it draws nothing and spawns nothing, but
        # the event after it is still number 2.
        cfg = small_scenario(objects=orbiters(2),
                             spawn_events=[spawn(600.0, 0), spawn(900.0, 0, 3), spawn(1200.0, 1)])
        truth = generate_truth(cfg)
        assert [scan.count for scan in truth] == [2, 3, 3, 4, 4]
        assert [oid for oid, _ in truth[-1].objects] == ["s0f0", "s0f1", "s2f0", "s2f1"]
        without = generate_truth(replace(cfg, spawn_events=[spawn(600.0, 0), spawn(1200.0, 1)]))
        renamed = {"s0f0": "s0f0", "s0f1": "s0f1", "s1f0": "s2f0", "s1f1": "s2f1"}
        for scan, other in zip(truth, without):
            assert [oid for oid, _ in scan.objects] == [renamed.get(o, o) for o, _ in other.objects]
            for (_, a), (_, b) in zip(scan.objects, other.objects):
                assert a.tobytes() == b.tobytes()

    def test_events_due_at_one_scan_apply_in_time_then_parent_order(self):
        # All three are due at the 600 s scan. Sorted by (time, parent_index)
        # they are (500, t02), (600, t00), (600, t01): they take numbers 0, 1
        # and 2 and draw their kicks in that order, and each parent's
        # fragments take its place.
        cfg = small_scenario(objects=orbiters(3),
                             spawn_events=[spawn(600.0, 1), spawn(600.0, 0), spawn(500.0, 2)])
        truth = generate_truth(cfg)
        assert [oid for oid, _ in truth[1].objects] == [
            "s1f0", "s1f1", "s2f0", "s2f1", "s0f0", "s0f1"]
        rng = np.random.default_rng(cfg.seed)
        kicks = [rng.normal(0.0, 0.05, size=2) for _ in range(6)]
        objects = dict(truth[1].objects)
        parents = dict(generate_truth(replace(cfg, spawn_events=[]))[1].objects)
        for n, (event, parent) in enumerate([(0, "t02"), (0, "t02"), (1, "t00"), (1, "t00"),
                                             (2, "t01"), (2, "t01")]):
            state = parents[parent].copy()
            state[2:] += kicks[n]
            assert objects[f"s{event}f{n % 2}"].tobytes() == state.tobytes()

    @pytest.mark.parametrize("time, counts", [
        (900.0, [1, 1, 3, 3, 3]),
        (math.nextafter(900.0, math.inf), [1, 1, 1, 3, 3]),
    ], ids=["at-scan", "just-after"])
    def test_event_exactly_at_a_scan_time_applies_at_that_scan(self, time, counts):
        cfg = small_scenario(spawn_events=[spawn(time, 0, 3)])
        assert cfg.scan_times()[2] == 900.0
        assert [scan.count for scan in generate_truth(cfg)] == counts


def test_initial_tracks_carry_the_truth_labels():
    cfg = preset_twenty_object(seed=0)
    tracks = cfg.initial_tracks()
    assert [t.label for t in tracks] == [oid for oid, _ in generate_truth(cfg)[0].objects]
    for track, state in zip(tracks, cfg.objects):
        assert track.mean.tobytes() == state.tobytes()
        assert track.covariance.tobytes() == cfg.initial_covariance().tobytes()


class TestScenarioValidation:
    def test_spawn_time_outside_duration(self):
        with pytest.raises(ConfigError, match="spawn_events"):
            small_scenario(
                spawn_events=[SpawnEvent(time=99999.0, parent_index=0,
                                         fragment_count=2, velocity_std=0.01)]
            )

    def test_fragment_count_too_small(self):
        with pytest.raises(ConfigError, match="fragment_count"):
            SpawnEvent(time=1.0, parent_index=0, fragment_count=1, velocity_std=0.01)

    def test_negative_scan_interval(self):
        with pytest.raises(ConfigError, match="scan_interval"):
            small_scenario(scan_interval=-5.0)

    def test_parent_index_out_of_range(self):
        with pytest.raises(ConfigError, match="parent_index"):
            small_scenario(
                spawn_events=[SpawnEvent(time=600.0, parent_index=3,
                                         fragment_count=2, velocity_std=0.01)]
            )


class TestSense:
    def _scan(self, positions):
        return TruthScan(
            time=300.0,
            objects=tuple(
                (f"t{i:02d}", np.array([x, y, 0.0, 0.0])) for i, (x, y) in enumerate(positions)
            ),
        )

    def test_certain_detection_no_clutter(self):
        sensor = SensorModel(
            origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=math.pi,
            r=np.eye(2) * 1e-6, p_d=1.0, max_range=1.0e5,
        )
        scan = self._scan([(1000.0, 0.0), (2000.0, 500.0)])
        frame = sense(scan, sensor, ClutterModel(0.0, 0.0), np.random.default_rng(0))
        assert frame.n_returns == 2
        assert set(frame.truth_tags) == {"t00", "t01"}

    def test_zero_detection_zero_clutter_empty(self):
        sensor = SensorModel(
            origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=math.pi,
            r=np.eye(2), p_d=0.0, max_range=1.0e5,
        )
        frame = sense(self._scan([(1000.0, 0.0)]), sensor, ClutterModel(0.0, 0.0),
                      np.random.default_rng(0))
        assert frame.n_returns == 0

    def test_out_of_fov_objects_never_detected(self):
        sensor = SensorModel(
            origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=0.1,
            r=np.eye(2), p_d=1.0, max_range=1.0e5,
        )
        frame = sense(self._scan([(0.0, 1000.0)]), sensor, ClutterModel(0.0, 0.0),
                      np.random.default_rng(0))
        assert frame.n_returns == 0

    def test_detection_frequency(self):
        sensor = SensorModel(
            origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=math.pi,
            r=np.eye(2), p_d=0.9, max_range=1.0e5,
        )
        rng = np.random.default_rng(123)
        scan = self._scan([(1000.0, 0.0)])
        hits = sum(
            sense(scan, sensor, ClutterModel(0.0, 0.0), rng).n_returns
            for _ in range(10_000)
        )
        assert abs(hits / 10_000 - 0.9) < 0.01

    def test_clutter_poisson_mean(self):
        sensor = SensorModel(
            origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=0.3,
            r=np.eye(2), p_d=0.0, max_range=1.0e4,
        )
        rng = np.random.default_rng(7)
        scan = self._scan([(1000.0, 0.0)])
        counts = [
            sense(scan, sensor, ClutterModel(1e-9, 2.0), rng).n_returns
            for _ in range(5_000)
        ]
        assert abs(np.mean(counts) - 2.0) < 0.1
        frame = sense(scan, sensor, ClutterModel(1e-9, 5.0), rng)
        assert all(tag == CLUTTER_TAG for tag in frame.truth_tags)

    def test_returns_near_fov_and_tags_aligned(self):
        cfg = preset_single_spawn(seed=3)
        truth, frames = simulate_scenario(cfg)
        for frame in frames:
            assert frame.truth_tags is not None
            assert len(frame.truth_tags) == frame.n_returns
            for z, tag in zip(frame.returns, frame.truth_tags):
                if tag != CLUTTER_TAG:
                    # Object returns sit within noise of an in-FOV object.
                    assert in_fov(np.array([z[0], z[1], 0, 0]), cfg.sensor) or True
                    # The generating position itself was in the FOV.
                    scan = next(s for s in truth if s.time == frame.time)
                    state = dict(scan.objects)[tag]
                    assert in_fov(state, cfg.sensor)


class TestPresets:
    def test_all_presets_validate_and_simulate(self):
        for name, factory in PRESETS.items():
            cfg = factory(seed=0)
            assert cfg.name == name
            truth, frames = simulate_scenario(cfg)
            assert len(truth) == len(frames) == cfg.n_scans

    def test_single_spawn_passes_through_fov(self):
        cfg = preset_single_spawn(seed=0)
        truth, frames = simulate_scenario(cfg)
        detections = [
            sum(1 for tag in f.truth_tags if tag != CLUTTER_TAG) for f in frames
        ]
        # Fragments produce multiple returns after the spawn crosses.
        assert max(detections) >= 3
