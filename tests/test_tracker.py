"""Per-scan recursion: weighting, bookkeeping, reduction properties."""

import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from mcmctrack.errors import EnumerationLimitError
from mcmctrack.filters import (
    MU_EARTH,
    DynamicsConfig,
    GaussianTrack,
    SensorModel,
    likelihood_table,
    predict_track,
    propagate_flows,
    update_track,
    update_tracks,
)
from mcmctrack.hypotheses import BirthDeathConfig, Hypothesis, count_grandchildren
from mcmctrack.io import report_to_dict
from mcmctrack.likelihoods import ClutterModel, build_matrix
from mcmctrack.presets import (
    PRESETS,
    preset_single_spawn,
    preset_sixty_object,
    preset_twenty_object,
    tracker_config_for,
)
from mcmctrack.sampler import SamplerConfig
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
        # Each fallback hypothesis is its parent's child that claims no
        # return, at the parent's prior weight, in parent-id order, and the
        # parents' shared track stays one predicted object.
        cfg = make_config(p_d=1.0, alpha=0.0, beta=0.0, clutter_density=0.0)
        tracker = Tracker(cfg)
        shared = track_at("t00", 100.0, 0.0)
        hyps = [
            Hypothesis(id=f"h{i}", parent_id=None, log_weight=math.log(w),
                       tracks=(shared, track_at("t01", 0.0, 100.0)))
            for i, w in [(1, 0.75), (0, 0.25)]
        ]
        calls = []

        def counting_predict(*args):
            calls.append(args[0].label)
            return predict_track(*args)

        monkeypatch.setattr(tracker_module, "predict_track", counting_predict)
        new_hyps, report = tracker.step(hyps, frame_at(10.0, [[3000.0, 5000.0]]))
        assert report.degenerate
        assert sorted(calls) == ["t00", "t01", "t01"]
        assert [(h.id, h.parent_id, h.log_weight.hex()) for h in new_hyps] == [
            ("h1-00000", "h0", math.log(0.25).hex()),
            ("h1-00001", "h1", math.log(0.75).hex()),
        ]
        assert new_hyps[0].tracks[0] is new_hyps[1].tracks[0]
        assert new_hyps[0].tracks[1] is not new_hyps[1].tracks[1]
        for new, old in zip(new_hyps, sorted(hyps, key=lambda h: h.id)):
            for got, track in zip(new.tracks, old.tracks, strict=True):
                want = predict_track(track, cfg.dynamics)
                np.testing.assert_array_equal(got.mean, want.mean)
                np.testing.assert_array_equal(got.covariance, want.covariance)

    def test_shared_track_predicted_and_updated_once(self, monkeypatch):
        # Children share their parent's track objects, so parents share
        # tracks: one scan predicts each object once, pairs it with the
        # returns in one scan-level matrix (one likelihood per (track,
        # return) pair), and updates each predicted track with a given
        # return once, in one batched update of the pairs the kept children
        # claim.
        cfg = make_config(p_d=1.0, alpha=0.0, beta=0.0, clutter_density=0.0)
        tracker = Tracker(cfg)
        shared = track_at("t00", 100.0, 0.0)
        hyps = [
            Hypothesis(id=f"h{i}", parent_id=None, log_weight=math.log(0.5), tracks=(shared,))
            for i in range(2)
        ]
        calls = []
        batches = []
        tables = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        def batched_update(tracks, zs, sensor):
            batches.append(len(tracks))
            return update_tracks(tracks, zs, sensor)

        def counted_table(tracks, returns, sensor):
            table = likelihood_table(tracks, returns, sensor)
            tables.append(table.shape)
            return table

        monkeypatch.setattr(tracker_module, "predict_track", counting("predict", predict_track))
        monkeypatch.setattr(tracker_module, "update_tracks", counting("update", batched_update))
        monkeypatch.setattr(tracker_module, "build_matrix", counting("matrix", build_matrix))
        monkeypatch.setattr(likelihoods_module, "likelihood_table", counted_table)
        z = np.array([100.0, 0.5])
        new_hyps, _ = tracker.step(hyps, frame_at(10.0, [z]))
        assert sorted(calls) == ["matrix", "predict", "update"]
        assert batches == [1]
        assert tables == [(1, 1)]
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

        def counting_predict(*args):
            calls.append(id(args[0]))
            return predict_track(*args)

        monkeypatch.setattr(tracker_module, "predict_track", counting_predict)
        distinct = {id(t) for h in hyps for t in h.tracks}
        hyps, _ = tracker.step(hyps, frame_at(20.0, [[100.0, 0.8], [2000.0, -3000.0]]))
        assert calls.count(id(newborn)) == 1
        assert sorted(calls) == sorted(distinct)
        top = max(hyps, key=lambda h: (h.log_weight, h.id))
        newborns = [lbl for lbl in top.labels if lbl != "t00"]
        assert newborns == ["b00009-001", "b00009-002", "b00010-001"]
        assert newborns == sorted(newborns)

    def test_one_flow_pass_per_scan_then_one_predict_per_track(self, monkeypatch):
        # The scan's distinct tracks, in first-seen order over the parents
        # sorted by id, are propagated by one propagate_flows call; each is
        # then predicted once from its row of that pass, through the
        # tracker's own predict_track name, as the untraced predict would.
        cfg = make_config(mode=TrackerMode.MCMC, mu=MU_EARTH)
        tracker = Tracker(cfg)
        speed = math.sqrt(MU_EARTH / 7000.0)
        a = track_at("t00", 7000.0, 0.0, 0.0, speed)
        b = track_at("t01", 0.0, 7000.0, -speed, 0.0)
        c = track_at("t02", -7000.0, 0.0, 0.0, -speed)
        hyps = [
            Hypothesis(id="h1", parent_id=None, log_weight=math.log(0.5), tracks=(b, c)),
            Hypothesis(id="h0", parent_id=None, log_weight=math.log(0.5), tracks=(a, b)),
        ]
        flows, predicts = [], []

        def counting_flows(states, dynamics):
            out = propagate_flows(states, dynamics)
            flows.append((states.copy(), out))
            return out

        def counting_predict(*args):
            predicts.append(args)
            return predict_track(*args)

        monkeypatch.setattr(tracker_module, "propagate_flows", counting_flows)
        monkeypatch.setattr(tracker_module, "predict_track", counting_predict)
        returns = [predict_track(t, cfg.dynamics).mean[:2] + 0.3 for t in (a, b, c)]
        new_hyps, report = tracker.step(hyps, frame_at(10.0, returns))
        assert not report.degenerate
        assert len(flows) == 1
        states, (means, jacobians) = flows[0]
        np.testing.assert_array_equal(states, np.array([a.mean, b.mean, c.mean]))
        assert [args[0] for args in predicts] == [a, b, c]
        for j, (track, dynamics, flow) in enumerate(predicts):
            assert dynamics is cfg.dynamics
            assert flow[0].tobytes() == means[j].tobytes()
            assert flow[1].tobytes() == jacobians[j].tobytes()
            alone = predict_track(track, cfg.dynamics)
            got = predict_track(track, cfg.dynamics, flow)
            assert got.mean.tobytes() == alone.mean.tobytes()
            assert got.covariance.tobytes() == alone.covariance.tobytes()
        assert math.fsum(h.weight for h in new_hyps) == pytest.approx(1.0, abs=1e-12)

    def test_scan_over_parents_without_tracks_steps(self, monkeypatch):
        # No tracks: the flow pass gets an empty (0, 4) stack, and the scan
        # still births from its returns.
        cfg = make_config(alpha=0.3, mu=MU_EARTH)
        tracker = Tracker(cfg)
        shapes = []

        def counting_flows(states, dynamics):
            shapes.append(states.shape)
            return propagate_flows(states, dynamics)

        monkeypatch.setattr(tracker_module, "propagate_flows", counting_flows)
        hyps = tracker.initial_hypotheses([])
        hyps, report = tracker.step(hyps, frame_at(10.0, [[7000.0, 0.0]]))
        assert shapes == [(0, 4)]
        assert math.fsum(h.weight for h in hyps) == pytest.approx(1.0, abs=1e-12)
        assert any(h.labels == ("b00001-000",) for h in hyps)
        hyps, report = tracker.step(tracker.initial_hypotheses([]), frame_at(20.0, []))
        assert shapes == [(0, 4), (0, 4)]
        assert report.n_hypotheses == 1 and report.estimated_count == 0

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

    @pytest.mark.parametrize("n_returns,n_tracks", [(9, 3), (0, 5)], ids=["surplus", "deficit"])
    def test_zero_rate_stays_zero(self, n_returns, n_tracks):
        # The floor of 1e-6 applies to a positive rate only: adapting must
        # not turn on births or deaths that the config switched off.
        cfg = make_config(alpha=0.0, beta=0.0)
        frame = frame_at(0.0, [[1.0, 0.0]] * n_returns)
        out = adapt_birth_death_rates(frame, self._hyps(n_tracks), cfg)
        assert (out.alpha, out.beta) == (0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_twenty_object_without_births_or_deaths(self):
        # Every scan: the rates stay off, and with no birth column the walk
        # starts on states of positive mass, so clutter explains the returns
        # and no update is degenerate. Scan 7 stands the walk on a state
        # whose leave probability is subnormal; its holds are drawn without
        # an overflow warning (any warning fails the test).
        scenario = preset_twenty_object(seed=0)
        _, frames = simulate_scenario(scenario)
        cfg = tracker_config_for(scenario, alpha=0.0, beta=0.0)
        assert cfg.adapt_rates
        tracker = Tracker(cfg)
        hyps = tracker.initial_hypotheses([
            GaussianTrack(f"t{i:02d}", s, scenario.initial_covariance())
            for i, s in enumerate(scenario.objects)
        ])
        _, reports = run_tracker(tracker, hyps, frames)
        assert len(reports) == 14
        assert [(r.alpha_used, r.beta_used) for r in reports] == [(0.0, 0.0)] * len(frames)
        assert not any(r.degenerate for r in reports)


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


def preset_start(preset, seed=0, mode=None):
    scenario = preset(seed=seed)
    _, frames = simulate_scenario(scenario)
    tracker = Tracker(tracker_config_for(scenario, seed=seed, mode=mode))
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
        ("h0", 0.9988014382740689, 1, 3, 0.010090907706225208),
        ("h1-00000", 0.9999520023038896, 1, 4, 0.0005772456878889455),
        ("h2-00000", 0.9999865601806314, 1, 5, 0.0001703326586265418),
        ("h3-00000", 0.9993879821694869, 1, 8, 0.00520243758535967),
        ("h4-00000", 0.35635546201964174, 1, 43, 1.1005275362788935),
        ("h5-00004", 0.2891014298258976, 2, 50, 1.7130328841987401),
        ("h6-00000", 0.5606510671489177, 2, 50, 1.0861482629073955),
        ("h7-00001", 0.6974960777538866, 2, 50, 0.911393703315895),
        ("h8-00006", 0.9936882906762143, 3, 50, 0.04674040287639024),
        ("h9-00000", 0.9989998748856755, 3, 50, 0.008446461166218147),
        ("h10-00000", 0.9976025035420361, 3, 50, 0.018130972975901553),
        ("h11-00000", 0.9986437916226513, 3, 50, 0.011112477751589881),
        ("h12-00000", 0.9981819846158073, 3, 50, 0.014173122265527397),
        ("h13-00000", 0.998888223646821, 3, 50, 0.00916984651137301),
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
            "d862495786b2ef770b9f4461165ceefbe938ec632c967c746b232d890dd01d62",
            "585ceb2e01df20c268482acef955514cf1fba12138403614fd36c0eab1327da7",
            "07b5a52ab0edd30e24765c3c8fa5dbdfb18aca8c0999aee95170900aa146d794",
            "22b1121205c71fe40e25688d031a8587f6de7e34ed177127489ed5a77b40f0ab",
            "ca6a84745c75fd6072abe0d74f87f998fb467ab99daf94964cbfc9a8653636f3",
            "d42baa9c5b65b62142f389dab57c814e35b70e902927cf53f704aa1813262ae2",
            "bb3dafcd836d19091903bec20ca8f0d143007f67c3496e1d13ac031f49e0eaac",
            "a30d7724e0dd29b37028c132273ff25eca8db60990d36267fa952095263a1d67",
            "7f2e1c70fe94253c9b99000ae81633dd699b79bba08e11991d98e5a0c1af1bfa",
            "80f59e80d388934a9bf431dfbe8c9d9ba3cfa67f2e06c9f1337f964af778e0ca",
            "12ea66b9d7321d16c472ba13760c894da9609d267e6079a7f74c42196b77b29a",
            "0dec286b460435c0e9a22042a8363d5da9b83f718a998839ed3ec4b4e0550d87",
            "3bb05e2cc82a56ec142bcec20dadf3abc6db535c121916a296356433ce3d0f15",
            "062e0615bc21f11a3e17e68754b6d8009a72b5bd58cb76cfef6c91c7d52f9b76",
        ],
        "twenty-object": [
            "dd82ceb0eeeba4a9b0f688032b8b4ea34c8e5a45662a16684b1a799b74e9a08e",
            "e1ef77beb2f06c4943c85fec4f3c7218d10af0c2503856a591c1686ca4ba039e",
            "23d3d275cb670d2b2adabfa89ebbdff74948565ffafddcdf1a35f1386131ea67",
            "d065cfc3ee06c3844b1d5139c8422c076beb8fa90aca0bf1cc373887689e16fc",
            "1773e7688f1133c46c547125deb1f95a09596c1e675be271455eb907f1b98205",
            "92eaef337f3e5f4992cc6d5772692a694db0fab95e58ce23138ad665bd3f70d9",
            "9d4bb8fc9e24ab208e264dcf5e1d3e1b2f2c2ade19c43c66622c807b1ea8f064",
            "a5494d2fe19c94a2729dcf7f2201e518279180549369bcc4f20fcb9e2aa0b8a9",
            "06de7cab0186f7347cc9f6445942f3c1db060d69a4ef980df41161013236bfed",
            "92f45d936c855a45a06c30359dd32c1b04bccb08e0e54014251e79fcba1e3178",
            "4a73de60a2eb2af05ca92f1742e675a3ee8294faa910b580e757097425d217ce",
            "d59481c5d943359a998172e3d016656fc4904896f2e48ca7c25c4120e6088461",
            "4c5e589b84ad7dc6cb7eb6c445d6333fa4f13645c4850cdff6acf24d28a818f3",
            "557c6e9e0d282082aff38e8fc358f1d569c93e4f9cef344f511b17a211c38ea4",
        ],
        "sixty-object": [
            "23b6683e14490f2952932aa80aac08871155804409daa778dc7e954b9bb472da",
            "a5f5bfa289b894b9b8e95932246efb5ff86370330b4d8fbbc65375b461aac200",
            "bbf4e3026e692551cddd056fceb697dac82b6410d30a73ee31b70056027ddddb",
            "7a1742057c8e34b23f94f8b624e6f8c463495c15d9189878010d72eb9911e4a2",
            "2e2100caf89e10d28524fecf6d0085ab96ad82802113d963321f189a97b3b9b9",
            "34ff9508739d60f8b193a615d7710edfddcd40019cb26793ade1c9b61a8320af",
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
            39651379969230110720, 302867074940665856, 362539770003324928,
            11107002581002485760, 632391519025691099136, 3892414433090185723904,
            4193848237449440919552, 2481274792450003121995776, 5065818871752267137024,
            147530125809902656946176, 6416364520457619111936, 7412807893061524783104,
            202718872702165264105472, 9816086280213379416064,
        ],
        "sixty-object": [
            1034696547902745729165943490088337551042543616,
            4830394612053187964662843481329866234423934976,
            1117987020055372970816298252224200832741939976601600,
            84505044887608481388985155125895096032389875577651200,
            104078832809265215470388718903885493722693193602957312,
            2499973801140791418370329815126548412178235584937984,
        ],
    }

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_seed0_bounds(self, name):
        _, reports = run_tracker(*preset_start(PRESETS[name]))
        assert [r.hypothesis_count_bound for r in reports] == self.BOUNDS[name]


def traced_names() -> tuple[str, ...]:
    """The names of mcmctrack.tracker that bench/tracing.py rebinds to trace
    the calls the tracker makes into each layer: the keys of its
    TRACKER_LAYERS, parsed from the source, so the bench is not imported."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "tracing.py").read_text())
    layers = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACKER_LAYERS"])
    return tuple(ast.literal_eval(layers))


TRACED_NAMES = traced_names()


class TestChildCalls:
    """The tracker generates each parent's children by at most one call,
    through its own module names, so rebinding a name traces every call; a
    parent it skips (TrackerReport.parents_skipped) gets none."""

    def test_traced_names_are_module_functions(self):
        for name in TRACED_NAMES:
            assert callable(getattr(tracker_module, name)), name

    @pytest.mark.parametrize("mode,expected", [
        (TrackerMode.MCMC, ("sample_children",)),
        (TrackerMode.EXHAUSTIVE, ("enumerate_children",)),
    ], ids=["mcmc", "exhaustive"])
    def test_one_call_per_parent(self, monkeypatch, mode, expected):
        calls = {"sample_children": 0, "enumerate_children": 0}

        def counting(name):
            inner = getattr(tracker_module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(tracker_module, name, counting(name))
        scenario = preset_single_spawn(seed=0)
        _, frames = simulate_scenario(scenario)
        tracker = Tracker(tracker_config_for(scenario, seed=0, mode=mode))
        hyps = tracker.initial_hypotheses([
            GaussianTrack(f"t{i:02d}", s, scenario.initial_covariance())
            for i, s in enumerate(scenario.objects)
        ])
        parents = skipped = 0
        for frame in frames:
            n_parents = len(hyps)
            hyps, report = tracker.step(hyps, frame)
            parents += n_parents
            skipped += report.parents_skipped
            assert 0 <= report.parents_skipped < n_parents
            assert calls == {
                name: parents - skipped if name in expected else 0 for name in calls
            }
        assert skipped > 0

    def test_one_select_per_visited_parent(self, monkeypatch):
        # The bound reads the scan matrix, so a parent's matrix is selected
        # only when its children are generated: once per visited parent,
        # none for a skipped one.
        select = likelihoods_module.AssociationMatrix.select
        selects = 0

        def counted(matrix, cols):
            nonlocal selects
            selects += 1
            return select(matrix, cols)

        monkeypatch.setattr(likelihoods_module.AssociationMatrix, "select", counted)
        tracker, hyps, frames = preset_start(preset_single_spawn)
        skipped = 0
        for frame in frames:
            n_parents = len(hyps)
            selects = 0
            hyps, report = tracker.step(hyps, frame)
            assert selects == n_parents - report.parents_skipped
            skipped += report.parents_skipped
        assert skipped > 0


class TestSkipExactness:
    """Skipping the parents whose children prune would drop changes no bit:
    with every bound +inf no parent is skipped, and each scan's hypotheses
    and report are the default run's."""

    @staticmethod
    def _run(name, seed, mode):
        tracker, hyps, frames = preset_start(PRESETS[name], seed=seed, mode=mode)
        scans = []
        for frame in frames:
            hyps, report = tracker.step(hyps, frame)
            record = report_to_dict(report)
            skipped = record.pop("parents_skipped")
            kept = [
                (h.id, h.parent_id, h.log_weight.hex(), [
                    (t.label, t.mean.tobytes(), t.covariance.tobytes()) for t in h.tracks
                ])
                for h in hyps
            ]
            scans.append((kept, record, skipped))
        return scans

    @pytest.mark.parametrize("name,seed,mode", [
        ("single-spawn", 0, TrackerMode.MCMC),
        ("single-spawn", 9001, TrackerMode.MCMC),
        ("twenty-object", 0, TrackerMode.MCMC),
        ("sixty-object", 0, TrackerMode.MCMC),
        ("single-spawn", 0, TrackerMode.EXHAUSTIVE),
    ], ids=["single-spawn-0", "single-spawn-9001", "twenty-object-0", "sixty-object-0",
            "single-spawn-exhaustive-0"])
    def test_skip_matches_no_skip(self, monkeypatch, name, seed, mode):
        default = self._run(name, seed, mode)
        monkeypatch.setattr(
            tracker_module, "child_score_bounds",
            lambda scan_matrix, cols_by_parent, *_: [math.inf] * len(cols_by_parent),
        )
        unbounded = self._run(name, seed, mode)
        assert [s[:2] for s in unbounded] == [s[:2] for s in default]
        assert all(s[2] == 0 for s in unbounded)
        assert any(s[2] > 0 for s in default)


class TestPresetConfig:
    def test_unknown_override_raises(self):
        scenario = preset_single_spawn(seed=0)
        assert tracker_config_for(scenario, h_inf=3).h_inf == 3
        with pytest.raises(TypeError, match="h_infinity"):
            tracker_config_for(scenario, h_infinity=3)


class TestPresetQuality:
    def test_sixty_object_final_cardinality_error(self):
        # Known miss: at seed 0 sixty-object ends at 60 tracks against a
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
