"""Per-scan recursion: weighting, bookkeeping, reduction properties."""

import ast
import hashlib
import math
from dataclasses import replace
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
from mcmctrack.hypotheses import (
    BirthDeathConfig,
    Candidate,
    Hypothesis,
    count_grandchildren,
    prune,
)
from mcmctrack.io import report_to_dict
from mcmctrack.likelihoods import ClutterModel, build_matrix
from mcmctrack.presets import (
    PRESETS,
    preset_single_spawn,
    preset_sixty_object,
    preset_twenty_object,
    tracker_config_for,
)
from mcmctrack.sampler import SamplerConfig, enumerate_children, sample_children
from mcmctrack.simulate import MeasurementFrame, simulate_scenario
from mcmctrack import oracle
from mcmctrack import likelihoods as likelihoods_module
from mcmctrack import tracker as tracker_module
from mcmctrack.tracker import (
    Tracker,
    TrackerConfig,
    TrackerMode,
    hypothesis_count_bound,
    run_tracker,
)


def wide_sensor(p_d=0.9):
    return SensorModel(
        origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=math.pi,
        r=np.eye(2), p_d=p_d, max_range=1.0e4,
    )


def make_config(p_d=0.9, alpha=0.01, beta=0.01, clutter_density=1e-6,
                mode=TrackerMode.EXHAUSTIVE, h_inf=50, seed=0,
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
        hyps = tracker.initial_hypotheses(scenario.initial_tracks())
        new_hyps, report = tracker.step(hyps, frames[0])
        assert not report.degenerate
        assert math.fsum(h.weight for h in new_hyps) == pytest.approx(1.0, abs=1e-12)

    def test_every_walk_finds_its_parents_best_child(self, monkeypatch):
        # Single-spawn, seed 0: the top child of every walk the tracker runs
        # scores the largest enumerate_children score over the same kernel.
        walks = []

        def checked(parent, matrix, scfg, bd, sensor, kernel):
            samples = sample_children(parent, matrix, scfg, bd, sensor, kernel)
            walks.append((samples[0].log_score,
                          max(s.log_score for s in enumerate_children(kernel))))
            return samples

        monkeypatch.setattr(tracker_module, "sample_children", checked)
        run_tracker(*preset_start(preset_single_spawn))
        assert walks
        assert [top for top, _ in walks] == [best for _, best in walks]

    def test_walk_keeps_the_exact_kept_mass(self, monkeypatch):
        # Single-spawn, seed 0, scan by scan: prune of the walks' children
        # holds at least 0.99 of the normalized mass of prune of every
        # enumerated child of the same walked parents. Members are matched
        # by (parent id, canonical key); the least scan reads 0.997.
        walked = []

        def both(parent, matrix, scfg, bd, sensor, kernel):
            samples = sample_children(parent, matrix, scfg, bd, sensor, kernel)
            walked.append((parent, samples, enumerate_children(kernel)))
            return samples

        def kept(children, h_inf):
            return prune([Candidate(parent.id, (), s.event, parent.log_weight + s.log_score)
                          for parent, samples in children for s in samples], h_inf)

        monkeypatch.setattr(tracker_module, "sample_children", both)
        tracker, hyps, frames = preset_start(preset_single_spawn)
        masses = []
        for frame in frames:
            walked.clear()
            hyps, _ = tracker.step(hyps, frame)
            walk = {(c.parent_id, c.event.canonical_key())
                    for c in kept([(p, s) for p, s, _ in walked], tracker.cfg.h_inf)}
            exact = kept([(p, e) for p, _, e in walked], tracker.cfg.h_inf)
            masses.append(math.fsum(math.exp(c.log_weight) for c in exact
                                    if (c.parent_id, c.event.canonical_key()) in walk))
        assert len(masses) == len(frames)
        assert min(masses) >= 0.99, masses


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


class TestRatesOff:
    @pytest.mark.filterwarnings("error")
    def test_twenty_object_without_births_or_deaths(self):
        # With both rates zero no child births or kills a track, so every
        # kept hypothesis of every scan holds exactly the 20 initial labels.
        # With no birth column the walk starts on states of positive mass,
        # so clutter explains the returns and no update is degenerate. Scan
        # 7 stands the walk on a state whose leave probability is subnormal;
        # its holds are drawn without an overflow warning (any warning fails
        # the test).
        scenario = preset_twenty_object(seed=0)
        _, frames = simulate_scenario(scenario)
        tracker = Tracker(tracker_config_for(scenario, alpha=0.0, beta=0.0))
        hyps = tracker.initial_hypotheses(scenario.initial_tracks())
        labels = sorted(hyps[0].labels)
        assert len(labels) == 20 and len(frames) == 14
        for frame in frames:
            hyps, report = tracker.step(hyps, frame)
            assert not report.degenerate
            assert all(sorted(h.labels) == labels for h in hyps)


class TestCountBound:
    def _hyps(self, n_tracks):
        tracks = tuple(track_at(f"t{i:02d}", 100.0 + 10 * i, 0.0) for i in range(n_tracks))
        return [Hypothesis(id="h0", parent_id=None, log_weight=0.0, tracks=tracks)]

    def test_association_only_matches_known_value(self):
        # A zero alpha counts no pixels, a zero beta no deaths.
        assert hypothesis_count_bound(
            self._hyps(10), 5, BirthDeathConfig(alpha=0.0, beta=0.0)
        ) == 63591

    def test_zero_returns_counts_death_subsets(self):
        # One 3-track hypothesis, no returns, no births: every death subset
        # yields exactly one association child.
        assert hypothesis_count_bound(self._hyps(3), 0, BirthDeathConfig(alpha=0.0)) == 8

    def test_sums_over_hypotheses(self):
        hyps = self._hyps(2) + [
            Hypothesis(id="h1", parent_id=None, log_weight=-math.inf,
                       tracks=(track_at("x00", 0.0, 10.0),))
        ]
        bd = BirthDeathConfig(n_pixels=1)
        single = hypothesis_count_bound([hyps[0]], 1, bd)
        other = hypothesis_count_bound([hyps[1]], 1, bd)
        assert hypothesis_count_bound(hyps, 1, bd) == single + other

    def test_counts_once_per_distinct_object_count(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return count_grandchildren(*args, **kwargs)

        monkeypatch.setattr(tracker_module, "count_grandchildren", counting)
        hyps = self._hyps(2) * 3 + self._hyps(3) * 2
        bound = hypothesis_count_bound(hyps, 2, BirthDeathConfig(n_pixels=3))
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
            expected = hypothesis_count_bound(hyps, frame.n_returns, cfg.birth_death)
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
    hyps = tracker.initial_hypotheses(scenario.initial_tracks())
    return tracker, hyps, frames


class TestSeedGolden:
    # Per scan of single-spawn at seed 0: (top hypothesis's parent id, its
    # weight, estimated count, hypotheses kept, weight entropy). The walk's
    # rng stream and its summation order fix these, so a change to either
    # shows at tracker level and not only in the sampler's goldens.
    GOLDEN = [
        ("h0", 0.9994003597841283, 1, 2, 0.005048299525945299),
        ("h1-00000", 0.9999820003239938, 1, 2, 0.0002146487967223233),
        ("h2-00000", 0.9999994600002916, 1, 2, 8.333111862502263e-06),
        ("h3-00000", 0.9994003436035521, 1, 3, 0.00504860606967229),
        ("h4-00000", 0.3565736665865259, 1, 20, 1.095326441163992),
        ("h5-00001", 0.6553945842962792, 1, 50, 0.7408463004353963),
        ("h6-00004", 0.42314270287629635, 2, 50, 1.7292285626297124),
        ("h7-00001", 0.35979574984242896, 2, 50, 1.959980855957774),
        ("h8-00001", 0.7699705852818991, 3, 50, 0.8834954379318989),
        ("h9-00000", 0.752221600573082, 3, 50, 0.9199974403719715),
        ("h10-00000", 0.8066601306370879, 3, 50, 0.7539892635243893),
        ("h11-00000", 0.7763180985359646, 3, 50, 0.8557828802209242),
        ("h12-00000", 0.7701001005674063, 3, 50, 0.8790571908202387),
        ("h13-00000", 0.7353688682401045, 3, 50, 0.9616519643263547),
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
            "f060b4618df41095570848af7cb9305dc9c057f96cfa712f9cb109864ff628dd",
            "422059bfcd8068a4278d23fe1fe4c61afdabe924359cbdae2e982fd83adb37da",
            "1d0a3d27fc895e306301365d796c303d919f0cf750308d28f39501107391985a",
            "c8d32de74f97a9981767775ac904b6f06b922e9e065e07298e5f77e715da9ca9",
            "2dcabc77d798fc6a81fccd2c104c5331909df03dcb961d8d78a010c6a6bb248e",
            "1f033b6c386ba3166f8112cdf5ba4685bc6179bec0487bae9bc38db1e82ead24",
            "ef384434aa433f645c552ebebf8dd7f1b4db9f40b962208348b99284c0eb2d41",
            "dd0a21703f26981a09b2b6f187124da11b1fe4ea2637e2328cdb3b06c0321e85",
            "6388617cef7eb91291341efaa2498919a0a0c4492a064c90025e7cb3f56f83d8",
            "2920767e85b2787e7cbceca57914135f55dd0e46b3214a247fb8b5de4528921d",
            "4356c0e7dde9d413e37ed728b58f1c385e56c4259ac33072e8dda609a619ecb1",
            "a8b59e6e07c2f1ea1c297615610f18c4442059e2f6c377fabd180bce58c01a6e",
            "467856a1a8d519f43546c82dc311eaefa603a811ca90a569823895791c75de2e",
            "651bcaa1b494ae6c82ab2330625ef06a61cee620fb6af32ef0a336b75d800640",
        ],
        "twenty-object": [
            "dd82ceb0eeeba4a9b0f688032b8b4ea34c8e5a45662a16684b1a799b74e9a08e",
            "e1ef77beb2f06c4943c85fec4f3c7218d10af0c2503856a591c1686ca4ba039e",
            "23d3d275cb670d2b2adabfa89ebbdff74948565ffafddcdf1a35f1386131ea67",
            "8803306bd36cebf3356446d9d3b47daa389761cc049d8ad398882409a89b7367",
            "71d979b7b2c5f1a3b03e3a126f2a1292b0fb8532b1068ade3b6d04440243411b",
            "62c44338273a0264e5912584cec3f358a551e63d335f993bbe9404abb4d2f0d7",
            "48ea375830e14beac4b820df6c9b831b77a53553a5fd0e4014f20206891f6622",
            "0202b0f6c21e81339a5b3e74da5703b2a744510c4d25bfee215c05759383f0d7",
            "1a8703781408ba1a72dfd4da4da5b273940b85038a098eaa8278e542498cd8df",
            "c9c34d260841b2c7f3241a5337244afddbb27cc0353b7c99abe9d7f3f3b0e024",
            "2b90ecf8c0c5ac0ed5a5de29d27f994729ea97aa2acdf9f5ac5f504721a118d9",
            "d7a3d6f12a00b1b50a9fa1a3d43aa1f803566ba26981f8324bbdef9e773a7d09",
            "7203fbb5cbef69539ad152aa57e70cfef98c99c5d33b8e3315e1a9bee91db18f",
            "17cc366783091e9317897a32af2f7a36cd895d1db264c820c809455ba1ac5bab",
        ],
        "sixty-object": [
            "bdc8b891689aa0440948ac6a6ea24e58126966f70c02d81b7587b88894da6530",
            "d35dfbc234c66f4b17bf562ccc7f95da658c1443d32935746ebf72008d02ef6c",
            "63269c0fb7fee21ba0607a8d28b16e57f3d3c273a42a3ddfefa9da8a676c16d4",
            "38f7bbe9b6aa227d8c4c7ee8e2e48ac2ea3f0edc374fbe27ba5ec4e97a18f5e6",
            "ab71ca4bde1afafe28dd6fcdd1e75f1bf3cf6249cad2f01b144a5c0d10b67555",
            "c605aa6814759df40b6d47f06467d5ee913920c6674effaa2d7ed8350e0c8a51",
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
            39651379969230110720, 181269885001662464, 181269885001662464, 4777193304733253632,
            207572595675366424576, 1787894149168974790656, 5016493759783445200896,
            3288855832577248250036224, 6268389184551153303552, 167226350816029692657664,
            10274606765475224354816, 11699928493543575781376, 306896463541672748253184,
            12876313752209023041536,
        ],
        "sixty-object": [
            1034696547902745729165943490088337551042543616,
            1034696547902745729165943490088337551042543616,
            2726493793168215723090017493891301271822791002292224,
            169001298847897794289170694449687984786308694026485760,
            117451518457259572977220998470044593420290965280653312,
            1823242727837685214866603550527878538809538865266688,
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

    # A mode may be given by its value, to either constructor.
    @pytest.mark.parametrize("config,expected", [
        (lambda s: tracker_config_for(s, seed=0, mode=TrackerMode.MCMC), ("sample_children",)),
        (lambda s: tracker_config_for(s, seed=0, mode=TrackerMode.EXHAUSTIVE),
         ("enumerate_children",)),
        (lambda s: tracker_config_for(s, seed=0, mode="exhaustive"), ("enumerate_children",)),
        (lambda s: replace(tracker_config_for(s, seed=0), mode="exhaustive"),
         ("enumerate_children",)),
    ], ids=["mcmc", "exhaustive", "exhaustive-value", "exhaustive-value-config"])
    def test_one_call_per_parent(self, monkeypatch, config, expected):
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
        tracker = Tracker(config(scenario))
        hyps = tracker.initial_hypotheses(scenario.initial_tracks())
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

    def test_one_select_per_distinct_visited_columns(self, monkeypatch):
        # The bound reads the scan matrix, so a parent's matrix is selected
        # only when its children are generated, and parents that hold the
        # same tracks in the same order share it: one select per distinct
        # column tuple among the visited parents, none for a skipped one,
        # and every walk over those columns gets the same kernel.
        select = likelihoods_module.AssociationMatrix.select
        selects = 0

        def counted(matrix, cols):
            nonlocal selects
            selects += 1
            return select(matrix, cols)

        walked = []
        sample = tracker_module.sample_children

        def recorded(parent, matrix, scfg, bd, sensor, kernel):
            walked.append((parent, kernel))
            return sample(parent, matrix, scfg, bd, sensor, kernel)

        monkeypatch.setattr(likelihoods_module.AssociationMatrix, "select", counted)
        monkeypatch.setattr(tracker_module, "sample_children", recorded)
        tracker, hyps, frames = preset_start(preset_single_spawn)
        skipped = shared = 0
        for frame in frames:
            n_parents = len(hyps)
            selects = 0
            walked.clear()
            hyps, report = tracker.step(hyps, frame)
            assert len(walked) == n_parents - report.parents_skipped
            kernels = {}
            for parent, kernel in walked:
                assert kernels.setdefault(tuple(map(id, parent.tracks)), kernel) is kernel
            assert len({id(kernel) for kernel in kernels.values()}) == len(kernels)
            assert selects == len(kernels)
            skipped += report.parents_skipped
            shared += len(walked) - len(kernels)
        assert skipped > 0 and shared > 0


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
        # The rates are fixed for the run: the removed switch that rescaled
        # them each scan is unknown too, on the presets that used it.
        with pytest.raises(TypeError, match=r"unknown overrides \['adapt_rates'\]"):
            tracker_config_for(preset_twenty_object(seed=0), adapt_rates=True)


class TestPresetQuality:
    def test_sixty_object_final_cardinality_error(self):
        # Known miss: at seed 0 sixty-object ends at 60 tracks against a
        # truth of 63, at its fixed rates (alpha 0.02, beta 0.01) and its
        # walk budget (no burn-in, 2,000 record steps). Every seed 0-29 ends
        # 1-5 short: the breakup's fragments make returns on every scan
        # after it, but a birth is scored no higher than clutter.
        # The bound holds that miss and fails on anything worse, so a change
        # to child generation or to the birth model shows here whether it
        # closes or widens it.
        scenario = preset_sixty_object(seed=0)
        truth, frames = simulate_scenario(scenario)
        tracker = Tracker(tracker_config_for(scenario, seed=0))
        hyps = tracker.initial_hypotheses(scenario.initial_tracks())
        _, reports = run_tracker(tracker, hyps, frames)
        error = reports[-1].estimated_count - truth[-1].count
        print(f"sixty-object seed 0: final {reports[-1].estimated_count} tracks, "
              f"truth {truth[-1].count}, error {error:+d}")
        assert abs(error) <= 4
