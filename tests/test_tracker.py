"""Per-scan recursion: weighting, bookkeeping, reduction properties."""

import hashlib
import math

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


class TestSeedGolden:
    # Per scan of single-spawn at seed 0: (top hypothesis's parent id, its
    # weight, estimated count, hypotheses kept, weight entropy). The walk's
    # rng stream and its summation order fix these, so a change to either
    # shows at tracker level and not only in the sampler's goldens.
    GOLDEN = [
        ("h0", 1.0, 1, 1, 0.0),
        ("h1-00000", 1.0, 1, 1, 0.0),
        ("h2-00000", 1.0, 1, 1, 0.0),
        ("h3-00000", 0.9994003597841296, 1, 2, 0.005048299525944081),
        ("h4-00000", 0.356573675466554, 1, 9, 1.095325954382754),
        ("h5-00001", 0.6554662832144802, 1, 19, 0.7396042146517197),
        ("h6-00003", 0.448782263299982, 2, 50, 1.104915598807792),
        ("h7-00008", 0.7070759678542143, 3, 50, 0.6351531442763609),
        ("h8-00000", 0.9999999021774852, 3, 50, 1.7941828498157879e-06),
        ("h9-00000", 0.9999999940203346, 3, 50, 1.2338093690702373e-07),
        ("h10-00000", 0.9999999956185512, 3, 50, 9.18671680424527e-08),
        ("h11-00000", 0.9999999953819814, 3, 50, 9.70921109507644e-08),
        ("h12-00000", 0.9999999954616143, 3, 50, 9.519083793214259e-08),
        ("h13-00000", 0.9999999950786189, 3, 50, 1.0298635477158986e-07),
    ]

    def test_single_spawn_seed0_reports(self):
        _, reports = run_tracker(*preset_start(preset_single_spawn))
        assert [
            (r.top_parent_id, r.estimated_count, r.n_hypotheses) for r in reports
        ] == [(g[0], *g[2:4]) for g in self.GOLDEN]
        for r, g in zip(reports, self.GOLDEN):
            assert r.top_weight == pytest.approx(g[1], rel=1e-9)
            assert r.weight_entropy == pytest.approx(g[4], rel=1e-9, abs=1e-15)

    # Per scan of each preset's seed-0 run (single-spawn: the run above):
    # SHA-256 over each kept hypothesis's id, parent id, log weight and track
    # means and covariances, as bytes. Labels stay out, so the numbers are
    # pinned whatever newborns are named. Twenty-object and sixty-object are
    # where parents share the most tracks.
    NUMBERS = {
        "single-spawn": [
            "189f0ea1c986dc7acb6697abe27825d180571fb4f1e4fdd9a5177d48504d2b9a",
            "e678ae7dd9b740334ad4d942a6e16454bbb4d346bd548ef6fcf1d51697de92b5",
            "c441fb4de6fc6da9f51085c63f4ffc647d61245b5734ddf882440af6b8bef7e5",
            "e72bca67f99812f882e63e87d4db8c7eff3c68723d448d0f256008221faa48d5",
            "ecc80f680493762ca018316fbfd035205c4c398c90bad4a705e6779f61d9eb4d",
            "4026b7ae57b441b0b5a180cbbc1393813d0c80fa499cb974d2ad00ec5a26a182",
            "ad1158cce68244664e7f17374571a9c9fe282c73f8e8d113d043c74b0ff8289e",
            "6ee7170acf1a59b9668a140de1d6c6044102c2d6af480a2be7aaa8ed9a37ea4b",
            "146fcbd64a449f77ed3e0edd3b1a39a56ed85d4ff8deda83fbcfc6dcd6e1e1b5",
            "a3bfcd1fce54fc7ebd8fff25a6db2fd0500c978eca21bdb75b9117d94d97cb87",
            "d5301c8d803df1a38232669ffc42039448e3e7559a845d77c988fb3d332e62a2",
            "30459cf684a305da832ce4837c7087fcef8a72236b6980cb5d9b5fd3bfe51823",
            "d6bc64781297d458e7d028c8b23a4fdff73c5f32f9d4551c08591f7a8ae3bd0b",
            "ba72502759b88060cf81a947abaae3bbd9b7f955d11800154716e89923f28b9e",
        ],
        "twenty-object": [
            "dd82ceb0eeeba4a9b0f688032b8b4ea34c8e5a45662a16684b1a799b74e9a08e",
            "e1ef77beb2f06c4943c85fec4f3c7218d10af0c2503856a591c1686ca4ba039e",
            "a7a9b44b926b49f9a63aeca1132d1229c37883327266acb23efdee4f1234d1ea",
            "236d4ffee9c8382b21f82c3c482abec8ab72d7a141da3a108ddfa02549fbfb18",
            "60ff89fffd34824afdaa944be6d487bc7e8234ff455c58809f58d0be57ad3c26",
            "6886a727e84ff562b51e3113fa02662c82289555e4d1a5b7e8daa1d63a59a7af",
            "67b304aef9cc9a7ea84c059afd05ad83785764ab98228f5ff9fe523e886d40d7",
            "4bdcd28328811056c320a9726f0d76c065317ca99ffbdcdde1f7f686c6f3405e",
            "65d591ed98091630f9c71c824cd51bd5bc2c679e63b6d921759c568c37b3131a",
            "b92256cf52b0354310ad2416476fa7a34dbe83df15e9d1e86c8cee57d51d4f77",
            "22af690918f4dc6ba51b9a28080ea2dad223cfa5773396ca2f842700158c2bee",
            "f7be971382381daf27b81172b6f89db764d1c70ac8b2345c475a2d1a9914fd15",
            "63f6db52b68cf8380cb1ff5005baa825b5c0bc5334e3a68d688079f59fc15974",
            "b6987f63edafafdafb5ab1fbe20d3e96174e047a91b579ce72a8970582f220ce",
        ],
        "sixty-object": [
            "ce83b5952656d7c45aadbb952a163f0b517537fdbdea4dac34753367c5890800",
            "cffbb32a3c31e6d06cd1a50ace1b2e9f32c64b41284e8b500b04402c8755619f",
            "865a57fc8b90886a6fe64724837831fcd1bc7147cd7b66df1b265bac468de438",
            "55521767b359178007c2419fb5b3826d3ede1558eb128d633e428b58626491f5",
            "ba73cb8ce309c3734b53fcad967ce5a846ea8b7306564cbb93f1006f363c9990",
            "4e32173f1952cd46874b9de8833295d8fc960a9acad3fcb17bfa7048fbf9e0b3",
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
            39651379969230110720, 59672695062659072, 59672695062659072,
            1552615971535978496, 123611987822298267648, 489790103374585135104,
            1290102838106412548096, 2535547787527135374082048,
            5115143983721089073152, 142744013126107396046848,
            6367039408488797175808, 6362023524403813285888,
            172189700411360305741824, 8078651587169370505216,
        ],
        "sixty-object": [
            1034696547902745729165943490088337551042543616,
            4830394612053187964662843481329866234423934976,
            1506761791478689908320256095969686787947617847345152,
            169001298847897794289170694449687984786308694026485760,
            104078832809265215470388718903885493722693193602957312,
            2284311334325323783328171783460658698358973588832256,
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


class TestWalkPool:
    """map_children runs every job, walk or enumeration, in this process
    and returns the children of each in job order."""

    @pytest.mark.parametrize("exhaustive", [False, True], ids=["walk", "exhaustive"])
    def test_single_job_runs_in_process(self, exhaustive):
        job = two_track_job(exhaustive)
        expected = [job_children(job)]
        assert tracker_module.map_children([job]) == expected
        assert tracker_module.map_children([job, job]) == expected * 2


class TestPresetConfig:
    def test_unknown_override_raises(self):
        scenario = preset_single_spawn(seed=0)
        assert tracker_config_for(scenario, h_inf=3).h_inf == 3
        with pytest.raises(TypeError, match="h_infinity"):
            tracker_config_for(scenario, h_infinity=3)


class TestPresetQuality:
    def test_sixty_object_final_cardinality_error(self):
        # Known miss: at seed 0 sixty-object ends at 61 tracks against a
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
