"""Per-scan recursion: weighting, bookkeeping, reduction properties."""

import copy
import hashlib
import math
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from mcmctrack.errors import EnumerationLimitError
from mcmctrack.filters import (
    DynamicsConfig,
    GaussianTrack,
    SensorModel,
    measurement_likelihood,
    predict_track,
    update_track,
)
from mcmctrack.hypotheses import BirthDeathConfig, Hypothesis, count_grandchildren
from mcmctrack.io import write_reports_ldjson
from mcmctrack.likelihoods import ClutterModel, build_matrix
from mcmctrack.presets import (
    PRESETS,
    preset_single_spawn,
    preset_sixty_object,
    preset_twenty_object,
    tracker_config_for,
)
from mcmctrack.sampler import ChildJob, SamplerConfig, job_children
from mcmctrack.simulate import MeasurementFrame, simulate_scenario
from mcmctrack import oracle
from mcmctrack import likelihoods as likelihoods_module
from mcmctrack import tracker as tracker_module
from mcmctrack.tracker import (
    Tracker,
    TrackerConfig,
    TrackerMode,
    adapt_birth_death_rates,
    hypothesis_count_bound,
    run_tracker,
)


def wide_sensor(p_d=0.9):
    return SensorModel(
        origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=math.pi,
        r=np.eye(2), p_d=p_d, max_range=1.0e4,
    )


def make_config(p_d=0.9, alpha=0.01, beta=0.01, clutter_density=1e-6,
                mode=TrackerMode.EXHAUSTIVE, h_inf=50, adapt=False, seed=0,
                mu=0.0, dt=10.0, q=0.0):
    sensor = wide_sensor(p_d)
    return TrackerConfig(
        sensor=sensor,
        dynamics=DynamicsConfig(mu=mu, dt=dt, q=q),
        clutter=ClutterModel(clutter_density),
        birth_death=BirthDeathConfig(alpha=alpha, beta=beta, n_pixels=4),
        sampler=SamplerConfig(burn_in_steps=500, record_steps=4000, children_kept=30, seed=seed),
        h_inf=h_inf,
        mode=mode,
        adapt_rates=adapt,
    )


def track_at(label, x, y, vx=0.0, vy=0.0, var=1.0):
    return GaussianTrack(label, np.array([x, y, vx, vy]), np.diag([var, var, 0.01, 0.01]))


def frame_at(time, points):
    return MeasurementFrame(time=time, returns=np.asarray(points, dtype=float).reshape(-1, 2))


class TestStepBasics:
    def test_certain_association_single_child(self):
        cfg = make_config(p_d=1.0, alpha=0.0, beta=0.0, clutter_density=0.0)
        tracker = Tracker(cfg)
        hyps = tracker.initial_hypotheses([track_at("t00", 100.0, 0.0)])
        frame = frame_at(10.0, [[100.0, 0.5]])
        new_hyps, report = tracker.step(hyps, frame)
        assert len(new_hyps) == 1
        assert new_hyps[0].weight == pytest.approx(1.0, abs=1e-12)
        assert report.estimated_count == 1
        # Updated covariance trace shrinks against the predicted one.
        predicted = predict_track(hyps[0].tracks[0], cfg.dynamics)
        assert np.trace(new_hyps[0].tracks[0].covariance) < np.trace(predicted.covariance)

    def test_weights_sum_to_one_every_step(self):
        cfg = make_config(p_d=0.9, alpha=0.02, beta=0.02, clutter_density=1e-5,
                          mode=TrackerMode.MCMC, h_inf=20)
        tracker = Tracker(cfg)
        hyps = tracker.initial_hypotheses(
            [track_at("t00", 100.0, 0.0), track_at("t01", 60.0, -40.0)]
        )
        rng = np.random.default_rng(0)
        t = 0.0
        for _ in range(5):
            t += 10.0
            points = rng.normal(0, 1.0, size=(2, 2)) + np.array([[100.0, 0.0], [60.0, -40.0]])
            hyps, report = tracker.step(hyps, frame_at(t, points))
            assert sum(h.weight for h in hyps) == pytest.approx(1.0, abs=1e-12)
            assert not report.degenerate

    def test_label_persistence_for_survivors(self):
        cfg = make_config(p_d=1.0, alpha=0.0, beta=0.0, clutter_density=0.0)
        tracker = Tracker(cfg)
        hyps = tracker.initial_hypotheses(
            [track_at("t00", 100.0, 0.0), track_at("t01", 50.0, 50.0)]
        )
        frame = frame_at(10.0, [[100.0, 0.2], [50.0, 50.3]])
        new_hyps, _ = tracker.step(hyps, frame)
        assert set(new_hyps[0].labels) == {"t00", "t01"}

    def test_empty_frame_missed_detection_and_death_weights(self):
        # One track, no returns: children are {survive+miss} and {die}.
        p_d, beta = 0.9, 0.05
        cfg = make_config(p_d=p_d, alpha=0.0, beta=beta, clutter_density=0.0)
        tracker = Tracker(cfg)
        hyps = tracker.initial_hypotheses([track_at("t00", 100.0, 0.0)])
        new_hyps, _ = tracker.step(hyps, frame_at(10.0, np.empty((0, 2))))
        assert len(new_hyps) == 2
        by_count = {len(h.tracks): h.weight for h in new_hyps}
        miss = (1 - p_d)
        die = beta
        assert by_count[1] == pytest.approx(miss / (miss + die), rel=1e-9)
        assert by_count[0] == pytest.approx(die / (miss + die), rel=1e-9)

    def test_newborn_gets_fresh_label(self):
        cfg = make_config(p_d=0.9, alpha=0.3, beta=0.0, clutter_density=1e-12)
        tracker = Tracker(cfg)
        hyps = tracker.initial_hypotheses([track_at("t00", 100.0, 0.0)])
        # A far return that only birth or clutter can explain.
        frame = frame_at(10.0, [[100.0, 0.4], [4000.0, 2000.0]])
        new_hyps, report = tracker.step(hyps, frame)
        top = max(new_hyps, key=lambda h: h.log_weight)
        assert report.estimated_count == 2
        labels = set(top.labels)
        assert "t00" in labels
        assert any(lbl.startswith("b") for lbl in labels)

    def test_degenerate_update_falls_back_to_prior(self):
        # Nothing can explain the far return: no clutter, no births, and the
        # track's Gaussian underflows at that distance.
        cfg = make_config(p_d=1.0, alpha=0.0, beta=0.0, clutter_density=0.0)
        tracker = Tracker(cfg)
        hyps = tracker.initial_hypotheses([track_at("t00", 100.0, 0.0)])
        new_hyps, report = tracker.step(hyps, frame_at(10.0, [[100.0, 5000.0]]))
        assert report.degenerate
        assert len(new_hyps) == 1
        assert new_hyps[0].weight == pytest.approx(1.0)
        assert new_hyps[0].labels == ("t00",)

    def test_degenerate_update_predicts_each_track_once(self, monkeypatch):
        cfg = make_config(p_d=1.0, alpha=0.0, beta=0.0, clutter_density=0.0)
        tracker = Tracker(cfg)
        hyps = [
            Hypothesis(id=f"h{i}", parent_id=None, log_weight=math.log(0.5),
                       tracks=(track_at("t00", 100.0, 0.0), track_at("t01", 0.0, 100.0)))
            for i in range(2)
        ]
        calls = []

        def counting_predict(track, dynamics):
            calls.append(track.label)
            return predict_track(track, dynamics)

        monkeypatch.setattr(tracker_module, "predict_track", counting_predict)
        new_hyps, report = tracker.step(hyps, frame_at(10.0, [[3000.0, 5000.0]]))
        assert report.degenerate
        assert len(calls) == 4
        for new, old in zip(new_hyps, hyps):
            for got, track in zip(new.tracks, old.tracks, strict=True):
                want = predict_track(track, cfg.dynamics)
                np.testing.assert_array_equal(got.mean, want.mean)
                np.testing.assert_array_equal(got.covariance, want.covariance)

    def test_shared_track_predicted_and_updated_once(self, monkeypatch):
        # Children share their parent's track objects, so parents share
        # tracks: one scan predicts each object once, pairs it with each
        # return once in one scan-level matrix, and updates each predicted
        # track with a given return once.
        cfg = make_config(p_d=1.0, alpha=0.0, beta=0.0, clutter_density=0.0)
        tracker = Tracker(cfg)
        shared = track_at("t00", 100.0, 0.0)
        hyps = [
            Hypothesis(id=f"h{i}", parent_id=None, log_weight=math.log(0.5), tracks=(shared,))
            for i in range(2)
        ]
        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(tracker_module, "predict_track", counting("predict", predict_track))
        monkeypatch.setattr(tracker_module, "update_track", counting("update", update_track))
        monkeypatch.setattr(tracker_module, "build_matrix", counting("matrix", build_matrix))
        monkeypatch.setattr(
            likelihoods_module, "measurement_likelihood",
            counting("likelihood", measurement_likelihood),
        )
        z = np.array([100.0, 0.5])
        new_hyps, _ = tracker.step(hyps, frame_at(10.0, [z]))
        assert sorted(calls) == ["likelihood", "matrix", "predict", "update"]
        assert len(new_hyps) == 2
        want = update_track(predict_track(shared, cfg.dynamics), z, cfg.sensor)[0]
        for hyp in new_hyps:
            np.testing.assert_array_equal(hyp.tracks[0].mean, want.mean)
            np.testing.assert_array_equal(hyp.tracks[0].covariance, want.covariance)

    def test_children_share_one_newborn_per_return(self, monkeypatch):
        # A birth is one new object in every child that contains it, so the
        # next scan predicts it once. Scans 9 and 10 cross a digit boundary,
        # where labels must still sort in (scan, return) order.
        cfg = make_config(p_d=0.9, alpha=0.3, beta=0.0, clutter_density=1e-12)
        tracker = Tracker(cfg)
        tracker.scan_index = 8
        hyps = tracker.initial_hypotheses([track_at("t00", 100.0, 0.0)])
        far = [[4000.0, 2000.0], [-3000.0, 1000.0]]
        hyps, _ = tracker.step(hyps, frame_at(10.0, [[100.0, 0.4], *far]))
        holders = [h for h in hyps if "b00009-001" in h.labels]
        assert len(holders) >= 2
        newborn = holders[0].tracks[holders[0].labels.index("b00009-001")]
        for h in holders:
            assert h.tracks[h.labels.index("b00009-001")] is newborn
        calls = []

        def counting_predict(track, dynamics):
            calls.append(id(track))
            return predict_track(track, dynamics)

        monkeypatch.setattr(tracker_module, "predict_track", counting_predict)
        distinct = {id(t) for h in hyps for t in h.tracks}
        hyps, _ = tracker.step(hyps, frame_at(20.0, [[100.0, 0.8], [2000.0, -3000.0]]))
        assert calls.count(id(newborn)) == 1
        assert sorted(calls) == sorted(distinct)
        top = max(hyps, key=lambda h: (h.log_weight, h.id))
        newborns = [lbl for lbl in top.labels if lbl != "t00"]
        assert newborns == ["b00009-001", "b00009-002", "b00010-001"]
        assert newborns == sorted(newborns)

    def test_rejects_weights_off_by_more_than_1e12(self):
        cfg = make_config()
        tracker = Tracker(cfg)
        track = (track_at("t00", 100.0, 0.0),)
        bad = [
            Hypothesis(id="h0", parent_id=None, log_weight=math.log(0.5), tracks=track),
            Hypothesis(id="h1", parent_id=None, log_weight=math.log(0.5 + 1e-9), tracks=track),
        ]
        with pytest.raises(ValueError):
            tracker.step(bad, frame_at(10.0, [[100.0, 0.0]]))

    def test_rejects_unnormalized_input(self):
        cfg = make_config()
        tracker = Tracker(cfg)
        bad = [
            Hypothesis(id="h0", parent_id=None, log_weight=math.log(0.4),
                       tracks=(track_at("t00", 100.0, 0.0),))
        ]
        with pytest.raises(ValueError):
            tracker.step(bad, frame_at(10.0, [[100.0, 0.0]]))


class TestExhaustiveVsMcmc:
    def test_top_child_agreement_small_case(self):
        kwargs = dict(p_d=0.9, alpha=0.05, beta=0.05, clutter_density=1e-4, h_inf=40)
        tracks = [track_at("t00", 100.0, 0.0), track_at("t01", 112.0, 0.0)]
        frame = frame_at(10.0, [[103.0, 0.5], [108.0, -0.5]])

        cfg_ex = make_config(mode=TrackerMode.EXHAUSTIVE, **kwargs)
        tr_ex = Tracker(cfg_ex)
        hyps_ex, _ = tr_ex.step(tr_ex.initial_hypotheses(tracks), frame)

        cfg_mc = make_config(mode=TrackerMode.MCMC, seed=11, **kwargs)
        object.__setattr__(cfg_mc.sampler, "record_steps", 30000)
        tr_mc = Tracker(cfg_mc)
        hyps_mc, _ = tr_mc.step(tr_mc.initial_hypotheses(tracks), frame)

        top_ex = max(hyps_ex, key=lambda h: h.log_weight)
        top_mc = max(hyps_mc, key=lambda h: h.log_weight)
        assert sorted(top_ex.labels) == sorted(top_mc.labels)
        assert top_mc.weight == pytest.approx(top_ex.weight, rel=0.05)

    def test_exhaustive_refuses_oversized_instance(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_EVENTS", 50)
        tracker = Tracker(make_config(mode=TrackerMode.EXHAUSTIVE))
        tracks = [track_at(f"t{i:02d}", 100.0 + 10 * i, 0.0) for i in range(4)]
        frame = frame_at(10.0, [[100.0, 0.0], [110.0, 0.0], [120.0, 0.0]])
        with pytest.raises(EnumerationLimitError):
            tracker.step(tracker.initial_hypotheses(tracks), frame)

    def test_exhaustive_counts_only_supported_children(self, monkeypatch):
        # Twenty-object, seed 0, first frame: about 32,500 events pair the
        # returns with every label, but only 50 have a finite likelihood.
        monkeypatch.setattr(oracle, "MAX_EVENTS", 10_000)
        scenario = preset_twenty_object(seed=0)
        _, frames = simulate_scenario(scenario)
        tracker = Tracker(tracker_config_for(scenario, seed=0, mode=TrackerMode.EXHAUSTIVE))
        hyps = tracker.initial_hypotheses([
            GaussianTrack(f"t{i:02d}", s, scenario.initial_covariance())
            for i, s in enumerate(scenario.objects)
        ])
        new_hyps, report = tracker.step(hyps, frames[0])
        assert not report.degenerate
        assert math.fsum(h.weight for h in new_hyps) == pytest.approx(1.0, abs=1e-12)


class TestKalmanReduction:
    def test_reduces_to_independent_filters(self):
        # alpha = beta = 0, p_d = 1, zero clutter, well-separated objects:
        # the tracker must equal per-object EKFs.
        cfg = make_config(p_d=1.0, alpha=0.0, beta=0.0, clutter_density=0.0,
                          mu=398600.4418, dt=300.0, q=1e-9)
        tracker = Tracker(cfg)
        speed = math.sqrt(398600.4418 / 30000.0)
        tracks = [
            GaussianTrack("t00", np.array([30000.0, 0.0, 0.0, speed]),
                          np.diag([4.0, 4.0, 1e-4, 1e-4])),
            GaussianTrack("t01", np.array([0.0, 31000.0, -speed, 0.0]),
                          np.diag([4.0, 4.0, 1e-4, 1e-4])),
            GaussianTrack("t02", np.array([-32000.0, 0.0, 0.0, -speed]),
                          np.diag([4.0, 4.0, 1e-4, 1e-4])),
        ]
        hyps = tracker.initial_hypotheses(tracks)
        rng = np.random.default_rng(5)
        independent = {t.label: t for t in tracks}
        t = 0.0
        for _ in range(4):
            t += 300.0
            points = []
            for label in ("t00", "t01", "t02"):
                ind = predict_track(independent[label], cfg.dynamics)
                z = ind.mean[:2] + rng.normal(0, 1.0, size=2)
                points.append(z)
                independent[label] = update_track(ind, z, cfg.sensor)[0]
            hyps, report = tracker.step(hyps, frame_at(t, points))
            assert len(hyps) >= 1
        top = max(hyps, key=lambda h: h.log_weight)
        assert top.weight == pytest.approx(1.0, abs=1e-9)
        for track in top.tracks:
            ind = independent[track.label]
            np.testing.assert_allclose(track.mean, ind.mean, atol=1e-9)
            np.testing.assert_allclose(track.covariance, ind.covariance, atol=1e-9)


class TestAdaptRates:
    def _hyps(self, n_tracks):
        tracks = tuple(track_at(f"t{i:02d}", 100.0 + 10 * i, 0.0) for i in range(n_tracks))
        return [Hypothesis(id="h0", parent_id=None, log_weight=0.0, tracks=tracks)]

    def test_balanced_ratio_unchanged(self):
        cfg = make_config(alpha=0.02, beta=0.01)
        out = adapt_birth_death_rates(frame_at(0.0, [[1.0, 0.0]] * 3), self._hyps(3), cfg)
        assert out.alpha == pytest.approx(0.02)
        assert out.beta == pytest.approx(0.01)

    def test_return_surplus_scales_alpha(self):
        cfg = make_config(alpha=0.02, beta=0.01)
        out = adapt_birth_death_rates(frame_at(0.0, [[1.0, 0.0]] * 9), self._hyps(3), cfg)
        assert out.alpha == pytest.approx(0.06)
        assert out.beta == pytest.approx(0.01)

    def test_empty_frame_scales_beta(self):
        cfg = make_config(alpha=0.02, beta=0.01)
        out = adapt_birth_death_rates(frame_at(0.0, np.empty((0, 2))), self._hyps(5), cfg)
        assert out.alpha == pytest.approx(0.02)
        assert out.beta == pytest.approx(0.05)

    def test_clamped_at_half(self):
        cfg = make_config(alpha=0.2, beta=0.2)
        out = adapt_birth_death_rates(frame_at(0.0, [[1.0, 0.0]] * 20), self._hyps(2), cfg)
        assert out.alpha == 0.5


class TestCountBound:
    def _hyps(self, n_tracks):
        tracks = tuple(track_at(f"t{i:02d}", 100.0 + 10 * i, 0.0) for i in range(n_tracks))
        return [Hypothesis(id="h0", parent_id=None, log_weight=0.0, tracks=tracks)]

    def test_association_only_matches_known_value(self):
        assert hypothesis_count_bound(
            self._hyps(10), 5, 0, allow_deaths=False
        ) == 63591

    def test_zero_returns_counts_death_subsets(self):
        # One 3-track hypothesis, no returns, no births: every death subset
        # yields exactly one association child.
        assert hypothesis_count_bound(self._hyps(3), 0, 0, allow_births=False) == 8

    def test_sums_over_hypotheses(self):
        hyps = self._hyps(2) + [
            Hypothesis(id="h1", parent_id=None, log_weight=-math.inf,
                       tracks=(track_at("x00", 0.0, 10.0),))
        ]
        single = hypothesis_count_bound([hyps[0]], 1, 1)
        other = hypothesis_count_bound([hyps[1]], 1, 1)
        assert hypothesis_count_bound(hyps, 1, 1) == single + other

    def test_counts_once_per_distinct_object_count(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return count_grandchildren(*args, **kwargs)

        monkeypatch.setattr(tracker_module, "count_grandchildren", counting)
        hyps = self._hyps(2) * 3 + self._hyps(3) * 2
        bound = hypothesis_count_bound(hyps, 2, 3)
        assert sorted(calls) == [(2, 2, 3), (3, 2, 3)]
        assert bound == 3 * count_grandchildren(2, 2, 3) + 2 * count_grandchildren(3, 2, 3)


class TestReportBound:
    def test_bound_matches_recomputation_from_parents(self):
        cfg = make_config(p_d=0.9, alpha=0.02, beta=0.02, clutter_density=1e-5,
                          mode=TrackerMode.MCMC, h_inf=10)
        tracker = Tracker(cfg)
        hyps = tracker.initial_hypotheses(
            [track_at("t00", 100.0, 0.0), track_at("t01", 60.0, -40.0)]
        )
        rng = np.random.default_rng(3)
        t = 0.0
        for _ in range(4):
            t += 10.0
            points = rng.normal(0, 1.0, size=(2, 2)) + np.array([[100.0, 0.0], [60.0, -40.0]])
            frame = frame_at(t, points)
            expected = hypothesis_count_bound(
                hyps, frame.n_returns, cfg.birth_death.n_pixels,
                allow_births=cfg.birth_death.alpha > 0,
                allow_deaths=cfg.birth_death.beta > 0,
            )
            hyps, report = tracker.step(hyps, frame)
            assert report.hypothesis_count_bound == expected


class TestRunTracker:
    def test_reports_per_frame(self):
        cfg = make_config(p_d=1.0, alpha=0.0, beta=0.0, clutter_density=0.0)
        tracker = Tracker(cfg)
        hyps = tracker.initial_hypotheses([track_at("t00", 100.0, 0.0)])
        frames = [frame_at(10.0 * (k + 1), [[100.0, 0.0]]) for k in range(3)]
        final, reports = run_tracker(tracker, hyps, frames)
        assert [r.scan for r in reports] == [1, 2, 3]
        assert all(r.estimated_count == 1 for r in reports)
        assert reports[-1].hypothesis_count_bound >= 1


def preset_start(preset):
    scenario = preset(seed=0)
    _, frames = simulate_scenario(scenario)
    tracker = Tracker(tracker_config_for(scenario, seed=0))
    hyps = tracker.initial_hypotheses([
        GaussianTrack(f"t{i:02d}", s, scenario.initial_covariance())
        for i, s in enumerate(scenario.objects)
    ])
    return tracker, hyps, frames


def digest(hyps):
    return [
        (h.id, h.parent_id, h.log_weight,
         [(t.label, t.mean.tobytes(), t.covariance.tobytes()) for t in h.tracks])
        for h in hyps
    ]


class TestSeedGolden:
    # Per scan of single-spawn at seed 0: (top hypothesis id, estimated
    # count, hypotheses kept, weight entropy). The walk's rng stream and its
    # summation order fix these, so a change to either shows at tracker
    # level and not only in the sampler's goldens.
    GOLDEN = [
        ("h1-00000", 1, 2, 0.005048299525944081),
        ("h2-00000", 1, 2, 0.00021464879672199023),
        ("h3-00000", 1, 2, 8.333111862613285e-06),
        ("h4-00000", 1, 2, 3.0679971964385934e-07),
        ("h5-00000", 1, 8, 1.0964694600867837),
        ("h6-00000", 1, 13, 1.1744638803872833),
        ("h7-00000", 2, 27, 0.675872984107659),
        ("h8-00000", 2, 50, 0.6303238419978321),
        ("h9-00000", 2, 50, 0.475413510921152),
        ("h10-00000", 4, 50, 0.7595451617581647),
        ("h11-00000", 4, 50, 0.006521848939166481),
        ("h12-00000", 4, 50, 0.03846032061169108),
        ("h13-00000", 4, 50, 0.5186101269202779),
        ("h14-00000", 3, 50, 0.5496496637083482),
    ]

    def test_single_spawn_seed0_reports(self):
        _, reports = run_tracker(*preset_start(preset_single_spawn))
        assert [
            (r.top_hypothesis_id, r.estimated_count, r.n_hypotheses) for r in reports
        ] == [g[:3] for g in self.GOLDEN]
        for r, g in zip(reports, self.GOLDEN):
            assert r.weight_entropy == pytest.approx(g[3], rel=1e-9, abs=1e-15)

    # Per scan of each preset's seed-0 run (single-spawn: the run above):
    # SHA-256 over each kept hypothesis's id, parent id, log weight and track
    # means and covariances, as bytes. Labels stay out, so the numbers are
    # pinned whatever newborns are named. Twenty-object and sixty-object are
    # where parents share the most tracks.
    NUMBERS = {
        "single-spawn": [
            "a11a5b247b28914755644501a44a0751824bddc5bffdcf1b95ba32b3753f22a2",
            "82feda235a36b8e76cfe8453077135c1056bdc9eec2fdec82a448167d36f9a9f",
            "b121bb347f4d2e98bd4a1bb478cf695d50d8dd1a3e2320b7b7eb5c494ba93b49",
            "340e0c09c11686bda9ce281e5b9867ebaa012fe70af7d961f11fabc467d47818",
            "742dddfad07512c4649e942264e65da50ba37ebde04f28d8d88fb261373c7161",
            "5efb2aca52d9910486ff61055255b835594d319ffa47a2a62da72ffa432034b6",
            "5a82ec699214790c36fe74de8404c0debbfa3aae649ebd8f675166c273d4ecbd",
            "0028d00c010a22b352953a2f7b4ff52372eef7c79a9c491ba575927c49f93d01",
            "f837e9b637c1a32fbd16ef807cdd5fdf6ea0da32c752999db89b5040a8cf0bf8",
            "0a506a4dd8e18ff34b22e1957d6bfbd752bba15c680a12dcae97c5f256c39b6a",
            "fa3ba6f4d7c4620f67b3ffe2dd41b319ba003c2cb43fcef42f834d300e848168",
            "601f2d322ff3fdc10e2cee1e2b9f8e5504da108dcc8939d42c0bd29e3e801351",
            "b0ce8389b15099088013e30c06477fafa28acd2c9f1b4051757828542fcd0bb1",
            "1d97f1d789c8e3685accb94f9947aa8400fc4ad7fb9b79bddfecb7e1197ff6b4",
        ],
        "twenty-object": [
            "dd82ceb0eeeba4a9b0f688032b8b4ea34c8e5a45662a16684b1a799b74e9a08e",
            "e1ef77beb2f06c4943c85fec4f3c7218d10af0c2503856a591c1686ca4ba039e",
            "a7a9b44b926b49f9a63aeca1132d1229c37883327266acb23efdee4f1234d1ea",
            "45cbeff167ae5f21b1a4d2943360b3d539b3154b25287815b1f4210580243fa9",
            "a300528a620eff400f1050ae513078ae3a75a7602ac1de221dae56e08848f170",
            "5a8e73733cfc287aa4b6ea2956bd1121ff0ed9a7d934e010f34006365af1fd1b",
            "b738f257da5bff5ed4e5686142d7155b872316c11a69313714316918d2e26c15",
            "f1a5a5074ee2a32d9bd83a2d0b904b6e642f4e6b8ba1c64acf71eca014a3c176",
            "15b96f198d10828119a3dbbad0e8fedd45b4f125e4b641557e9acd787cefe6c4",
            "76e0aec973b3ce76d70d687f7d5616f9e26fc481bf3fffa2f785d92260738d0b",
            "bbcca76f8a688db91d5f33475b2e604177f3ad0980820cf1e95af27351e04628",
            "275bc54fe8f50481dd234b168ad81876d14d75c6903233d28217eca61469cc0e",
            "a307d25e253fed426143bb3b05b0fbf708a0b00d560d3a99c50448b8013ec852",
            "e94b89d9b57165d529892353f665a00367d6614cd67aec0151762c81892b5cfe",
        ],
        "sixty-object": [
            "bdc8b891689aa0440948ac6a6ea24e58126966f70c02d81b7587b88894da6530",
            "37e8a813eaba7ba498723ded1891abf6687c29c57c48463280e52d44a37fba38",
            "da0de3e92d4b76ddd5737b291b17a2bcbde754abcf0a1370056b7efff0fc3168",
            "37f3cf8fabdae28a2b15ee0dee77d3197186280217e4ca6e84fe1448d396cf97",
            "f69ff9288347061a3eb35731c3402d544642fe0dfdfbae9bfabe5f5cb689e866",
            "84ff740721fa15dc9810599ec063d773030fc364722edcc65844dc1a54f64c7c",
        ],
    }

    @pytest.mark.parametrize("name", sorted(NUMBERS))
    def test_seed0_numbers(self, name):
        tracker, hyps, frames = preset_start(PRESETS[name])
        digests = []
        for frame in frames:
            hyps, _ = tracker.step(hyps, frame)
            sha = hashlib.sha256()
            for h in hyps:
                sha.update(f"{h.id}|{h.parent_id}|".encode())
                sha.update(np.float64(h.log_weight).tobytes())
                for t in h.tracks:
                    sha.update(t.mean.tobytes())
                    sha.update(t.covariance.tobytes())
            digests.append(sha.hexdigest())
        assert digests == self.NUMBERS[name]


class TestBoundGolden:
    # Per-scan hypothesis_count_bound at seed 0, recorded from the term-by-term
    # double sum. TestReportBound recomputes the bound with the function under
    # test, so only these pin its value on the presets.
    BOUNDS = {
        "single-spawn": [
            39651379969230110720, 181269885001662464, 181269885001662464,
            4777193304733253632, 123611987822298267648, 632391519025691099136,
            1239463237996351848448, 1746595041707678263934976,
            4034447269288336162816, 130838743007553862500352,
            5812197623246612332544, 6920762049223580450816,
            190310498713838731395072, 8901306116702629527552,
        ],
        "sixty-object": [
            1034696547902745729165943490088337551042543616,
            1034696547902745729165943490088337551042543616,
            1010155786647639153295219236391255975832308978548736,
            84505044887608481388985155125895096032389875577651200,
            104078832809265215470388718903885493722693193602957312,
            1484877191186132113114740418228543602125190505431040,
        ],
    }

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_seed0_bounds(self, name):
        _, reports = run_tracker(*preset_start(PRESETS[name]))
        assert [r.hypothesis_count_bound for r in reports] == self.BOUNDS[name]


def two_track_job(exhaustive=False):
    cfg = make_config(mode=TrackerMode.MCMC)
    tracks = (track_at("t00", 100.0, 0.0), track_at("t01", 110.0, 0.0))
    matrix = build_matrix(tracks, np.array([[100.0, 0.0], [110.5, 0.0]]),
                          cfg.sensor, cfg.clutter, cfg.birth_death)
    parent = Hypothesis(id="h0", parent_id=None, log_weight=0.0, tracks=tracks)
    return ChildJob(parent, matrix, cfg.sampler, cfg.birth_death, cfg.sensor, exhaustive)


@pytest.mark.skipif(tracker_module._worker_count() < 2,
                    reason="one usable CPU: every job runs in process")
class TestWalkPool:
    # single-spawn is multi-parent from its second scan already.
    @pytest.mark.parametrize("preset", [preset_single_spawn, preset_twenty_object],
                             ids=["single-spawn", "twenty-object"])
    def test_pool_and_in_process_reports_identical(self, preset, tmp_path, monkeypatch):
        written = []
        for run in ("pool", "in-process"):
            if run == "in-process":
                monkeypatch.setattr(tracker_module, "_worker_count", lambda: 1)
            tracker, hyps, frames = preset_start(preset)
            _, reports = run_tracker(tracker, hyps, frames)
            if run == "pool":
                assert tracker_module._pool_pid == os.getpid()
            path = tmp_path / f"{run}.ldjson"
            write_reports_ldjson(reports, path)
            written.append(path.read_bytes())
        assert written[0] == written[1]

    def test_forked_process_starts_its_own_pool(self):
        # A fork of the pool's owner must not hand jobs to workers that
        # answer the owner alone: it would wait forever.
        tracker, hyps, frames = preset_start(preset_single_spawn)
        for frame in frames[:6]:
            hyps, _ = tracker.step(hyps, frame)
        assert len(hyps) > 1 and tracker_module._pool_pid == os.getpid()
        forked = copy.deepcopy(tracker)
        expected = digest(tracker.step(hyps, frames[6])[0])
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(60)
                new, _ = forked.step(hyps, frames[6])
                own = tracker_module._pool_pid == os.getpid()
                code = 0 if own and digest(new) == expected else 2
            finally:
                tracker_module._close_pool()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


    @pytest.mark.parametrize("exhaustive", [False, True], ids=["walk", "exhaustive"])
    def test_single_job_runs_in_process(self, exhaustive, monkeypatch):
        # So do enumerations in any number: their children cost more to send
        # back than a second CPU saves.
        job = two_track_job(exhaustive)
        expected = [job_children(job)]

        def no_pool(method):
            raise AssertionError("an in-process map started a pool")

        monkeypatch.setattr(tracker_module, "_pool", None)
        monkeypatch.setattr(tracker_module, "_pool_pid", 0)
        monkeypatch.setattr(tracker_module.multiprocessing, "get_context", no_pool)
        assert tracker_module.map_children([job]) == expected
        if exhaustive:
            assert tracker_module.map_children([job, job]) == expected * 2
        assert tracker_module._pool_pid == 0

    def test_threads_reaching_the_first_scan_together_share_one_pool(self, monkeypatch):
        job = two_track_job()
        expected = [job_children(job)] * 2
        started = []
        fork = multiprocessing.get_context("fork")

        class CountingContext:
            def Pool(self, processes):
                started.append(processes)
                return fork.Pool(processes)

        # A process with no pool yet; the suite's own pool is put back after.
        monkeypatch.setattr(tracker_module, "_pool", None)
        monkeypatch.setattr(tracker_module, "_pool_pid", 0)
        monkeypatch.setattr(tracker_module.multiprocessing, "get_context",
                            lambda method: CountingContext())
        barrier = threading.Barrier(4)
        results = []

        def scan():
            barrier.wait(timeout=30)
            results.append(tracker_module.map_children([job, job]))

        threads = [threading.Thread(target=scan) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            tracker_module._close_pool()
        assert len(started) == 1
        assert results == [expected] * 4


class TestPresetConfig:
    def test_unknown_override_raises(self):
        scenario = preset_single_spawn(seed=0)
        assert tracker_config_for(scenario, h_inf=3).h_inf == 3
        with pytest.raises(TypeError, match="h_infinity"):
            tracker_config_for(scenario, h_infinity=3)


class TestPresetQuality:
    def test_sixty_object_final_cardinality_error(self):
        # Known miss: at seed 0 sixty-object ends at 59 tracks against a
        # truth of 63, because the walk does not recover the whole breakup.
        # The bound holds that miss and fails on anything worse, so a change
        # to child generation shows here whether it closes or widens it.
        scenario = preset_sixty_object(seed=0)
        truth, frames = simulate_scenario(scenario)
        tracker = Tracker(tracker_config_for(scenario, seed=0))
        hyps = tracker.initial_hypotheses([
            GaussianTrack(f"t{i:02d}", s, scenario.initial_covariance())
            for i, s in enumerate(scenario.objects)
        ])
        _, reports = run_tracker(tracker, hyps, frames)
        error = reports[-1].estimated_count - truth[-1].count
        print(f"sixty-object seed 0: final {reports[-1].estimated_count} tracks, "
              f"truth {truth[-1].count}, error {error:+d}")
        assert abs(error) <= 4
