"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mcmctrack.cli import main as cli_main
from mcmctrack.filters import GaussianTrack, SensorModel, predict_track, update_track
from mcmctrack.hypotheses import (
    CLUTTER,
    AssociationEvent,
    BirthDeathConfig,
    Hypothesis,
    count_associations,
    count_grandchildren,
)
from mcmctrack.likelihoods import (
    ClutterModel,
    build_matrix,
    compare_likelihood_forms,
)
from mcmctrack.oracle import (
    enumerate_grandchildren,
    exact_posterior,
    tv_distance,
)
from mcmctrack.presets import (
    preset_single_spawn,
    preset_sixty_object,
    preset_twenty_object,
    tracker_config_for,
)
from mcmctrack.sampler import SamplerConfig, sample_children, visit_distribution
from mcmctrack.simulate import simulate_scenario
from mcmctrack.tracker import (
    Tracker,
    TrackerMode,
    hypothesis_count_bound,
    run_tracker,
)


def _criterion(number, name, budget_s, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    print(f"ACCEPTANCE {number} {name}: {verdict} "
          f"({elapsed:.3f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"


def wide_sensor(p_d=0.9):
    return SensorModel(
        origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=math.pi,
        r=np.eye(2), p_d=p_d, max_range=1.0e4,
    )


def test_criterion_1_association_count_paper_number():
    count_associations(10, 5)  # warm

    def check():
        assert count_associations(10, 5) == 63591

    _criterion(1, "association count (10, 5) = 63,591", 1e-3, check)


def test_criterion_2_sixty_object_bound_in_the_billions():
    cfg = preset_sixty_object(seed=0)
    truth, frames = simulate_scenario(cfg)
    # Spawn passage: the scan right after the breakup enters the frames.
    spawn_scan = next(i for i, scan in enumerate(truth) if scan.count > 60)
    hyp = Hypothesis(id="h0", parent_id=None, log_weight=0.0,
                     tracks=tuple(cfg.initial_tracks()))

    def check():
        bound = hypothesis_count_bound(
            [hyp], frames[spawn_scan].n_returns, BirthDeathConfig(n_pixels=60)
        )
        assert bound > 10**9
        assert bound.bit_length() > 64  # genuinely on the big-integer path

    _criterion(2, "sixty-object bound exceeds 1e9", 1.0, check)


def test_criterion_3_oracle_count_equivalence(tmp_path):
    def check():
        for n_objects in range(4):
            labels = [f"t{i:02d}" for i in range(n_objects)]
            for n_returns in range(4):
                for n_pixels in range(4):
                    events = enumerate_grandchildren(labels, n_returns, n_pixels)
                    assert len(events) == count_grandchildren(
                        n_objects, n_returns, n_pixels
                    ), (n_objects, n_returns, n_pixels)
        # The known index overlap in the grouped formula is recorded in a
        # generated report, not patched.
        assert cli_main(["selftest", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "count_reconciliation.csv").read_text().splitlines()
        rows = [line.split(",") for line in report[2:]]
        assert all(r[6] == "True" for r in rows)   # enumeration == direct
        assert any(r[7] == "False" for r in rows)  # grouped-formula discrepancy recorded

    _criterion(3, "enumeration matches direct count, discrepancy reported", 30.0, check)


def test_criterion_4_prior_normalization():
    def check():
        p_d = Fraction(9, 10)
        for n_objects in range(5):
            for n_returns in range(7):
                total = Fraction(0)
                for k in range(min(n_objects, n_returns) + 1):
                    n_events = (
                        math.comb(n_objects, k)
                        * math.comb(n_returns, k)
                        * math.factorial(k)
                    )
                    prior = (
                        p_d**k * (1 - p_d) ** (n_objects - k)
                        / (math.comb(n_returns, k) * math.factorial(k))
                    )
                    total += n_events * prior
                if n_returns >= n_objects:
                    assert total == 1, (n_objects, n_returns)
                    assert abs(float(total) - 1.0) <= 1e-12
                else:
                    truncated = sum(
                        Fraction(math.comb(n_objects, k))
                        * p_d**k * (1 - p_d) ** (n_objects - k)
                        for k in range(n_returns + 1)
                    )
                    assert total == truncated, (n_objects, n_returns)

    _criterion(4, "association prior normalization (exact)", 10.0, check)


def test_criterion_5_mcmc_matches_oracle_posterior():
    def check():
        rng = np.random.default_rng(20260810)
        sensor = wide_sensor(p_d=0.9)
        bd = BirthDeathConfig(alpha=0.05, beta=0.05, n_pixels=1)
        failures = []
        agree = 0
        for i in range(20):
            centers = rng.uniform(-60.0, 60.0, size=(2, 2)) + np.array([100.0, 0.0])
            returns = centers + rng.normal(0.0, 3.0, size=(2, 2))
            tracks = tuple(
                GaussianTrack(f"t{j:02d}", np.array([c[0], c[1], 0.0, 0.0]),
                              np.diag([4.0, 4.0, 0.1, 0.1]))
                for j, c in enumerate(centers)
            )
            parent = Hypothesis(id="h0", parent_id=None, log_weight=0.0, tracks=tracks)
            matrix = build_matrix(tracks, returns, sensor, ClutterModel(1e-3), bd)
            samples = sample_children(
                parent, matrix,
                SamplerConfig(burn_in_steps=5000, record_steps=100_000,
                              children_kept=10**6, seed=i),
                bd, sensor,
            )
            empirical = visit_distribution(samples)
            post = exact_posterior(parent, matrix, bd, sensor)
            tv = tv_distance(empirical, post)
            if tv >= 0.05:
                failures.append((i, tv))
            top_mcmc = samples[0].event.canonical_key()
            top_oracle = max(post.items(), key=lambda kv: kv[1])[0]
            agree += top_mcmc == top_oracle
        assert not failures, f"TV >= 0.05 on instances {failures}"
        assert agree >= 19, f"top-child agreement only {agree}/20"

    _criterion(5, "MCMC visit distribution vs oracle (20 instances)", 120.0, check)


def _top_hypothesis(hyps):
    return max(hyps, key=lambda h: (h.log_weight, h.id))


def test_criterion_6_spawn_recovery():
    """Single-spawn recovered exactly at seed 0, and twenty-object's exact
    final count in at least 8 of seeds 0-9.

    At its fixed rates (alpha 0.1, beta 0.01) and its walk budget (no
    burn-in, 3,000 record steps) twenty-object ends on the true count on 79
    of seeds 0-79, all of seeds 0-9 among them, and on 75 of held-out seeds
    80-159. Over seeds 0-159 at walk seeds seed, seed + 10**6 and
    seed + 2*10**6 it wins 462 of 480 runs (about 96%), and all 30 runs of
    seeds 0-9. Single-spawn ends on the true count on all 240 runs of seeds
    0-79 at those walk seeds. A change that moves the walk's realization,
    though not its law, can still move a run or two here. The bound is kept
    as it is."""

    def check():
        # Single-spawn: exactly three tracks at the final scan, each truth
        # object within 3 sigma of some top-hypothesis track.
        cfg = preset_single_spawn(seed=0)
        truth, frames = simulate_scenario(cfg)
        tracker = Tracker(tracker_config_for(cfg, seed=0))
        final, _ = run_tracker(tracker, tracker.initial_hypotheses(cfg.initial_tracks()), frames)
        top = _top_hypothesis(final)
        assert truth[-1].count == 3
        assert len(top.tracks) == 3
        for oid, s in truth[-1].objects:
            maha = min(
                math.sqrt(
                    float((s[:2] - t.mean[:2])
                          @ np.linalg.inv(t.covariance[:2, :2])
                          @ (s[:2] - t.mean[:2]))
                )
                for t in top.tracks
            )
            assert maha <= 3.0, f"{oid} at {maha:.2f} sigma"
        # Twenty-object: final count equals truth count in >= 8/10 seeded runs.
        wins = 0
        for seed in range(10):
            cfg = preset_twenty_object(seed=seed)
            truth, frames = simulate_scenario(cfg)
            tracker = Tracker(tracker_config_for(cfg, seed=seed))
            final, _ = run_tracker(
                tracker, tracker.initial_hypotheses(cfg.initial_tracks()), frames
            )
            wins += len(_top_hypothesis(final).tracks) == truth[-1].count
        assert wins >= 8, f"exact final count in only {wins}/10 runs"

    _criterion(6, "spawn recovery (single-spawn exact, twenty-object 8/10)", 600.0, check)


def test_criterion_7_kalman_reduction():
    def check():
        mu = 398600.4418
        sensor = wide_sensor(p_d=1.0)
        from mcmctrack.filters import DynamicsConfig
        from mcmctrack.tracker import TrackerConfig

        cfg = TrackerConfig(
            sensor=sensor,
            dynamics=DynamicsConfig(mu=mu, dt=300.0, q=1e-9),
            clutter=ClutterModel(0.0),
            birth_death=BirthDeathConfig(alpha=0.0, beta=0.0, n_pixels=4),
            sampler=SamplerConfig(seed=0),
            h_inf=50,
            mode=TrackerMode.EXHAUSTIVE,
        )
        tracker = Tracker(cfg)
        speed = math.sqrt(mu / 30000.0)
        tracks = [
            GaussianTrack("t00", np.array([30000.0, 0.0, 0.0, speed]),
                          np.diag([4.0, 4.0, 1e-4, 1e-4])),
            GaussianTrack("t01", np.array([0.0, 31000.0, -speed, 0.0]),
                          np.diag([4.0, 4.0, 1e-4, 1e-4])),
            GaussianTrack("t02", np.array([-32000.0, 0.0, 0.0, -speed]),
                          np.diag([4.0, 4.0, 1e-4, 1e-4])),
        ]
        hyps = tracker.initial_hypotheses(tracks)
        rng = np.random.default_rng(7)
        independent = {t.label: t for t in tracks}
        t = 0.0
        for _ in range(4):
            t += 300.0
            points = []
            for label in ("t00", "t01", "t02"):
                ind = predict_track(independent[label], cfg.dynamics)
                z = ind.mean[:2] + rng.normal(0.0, 1.0, size=2)
                points.append(z)
                independent[label] = update_track(ind, z, sensor)[0]
            from mcmctrack.simulate import MeasurementFrame

            hyps, _ = tracker.step(hyps, MeasurementFrame(time=t, returns=np.array(points)))
        top = _top_hypothesis(hyps)
        assert len(top.tracks) == 3
        for track in top.tracks:
            ind = independent[track.label]
            np.testing.assert_allclose(track.mean, ind.mean, atol=1e-9)
            np.testing.assert_allclose(track.covariance, ind.covariance, atol=1e-9)

    _criterion(7, "exhaustive tracker reduces to independent EKFs", 5.0, check)


def test_criterion_8_likelihood_normalizer_factor():
    def check():
        sensor = wide_sensor(p_d=0.9)
        bd = BirthDeathConfig(alpha=0.01, beta=0.01, n_pixels=1)
        for m, k in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            tracks = tuple(
                GaussianTrack(
                    f"t{i:02d}",
                    np.array([100.0 + 400.0 * i, 50.0 * i, 0.0, 0.0]),
                    np.diag([2.0, 2.0, 0.01, 0.01]) * 1e-8,
                )
                for i in range(max(k, 1))
            )
            parent = Hypothesis(id="h0", parent_id=None, log_weight=0.0, tracks=tracks)
            returns = np.array(
                [[100.0 + 400.0 * i + 0.5, 50.0 * i - 0.4] for i in range(m)]
            )
            matrix = build_matrix(tracks, returns, sensor, ClutterModel(1e-9), bd)
            assignments = tuple(
                f"t{i:02d}" if i < k else CLUTTER for i in range(m)
            )
            eta_mean, eta_marginal = compare_likelihood_forms(
                AssociationEvent(assignments=assignments), parent, matrix, returns, sensor
            )
            expected = 1.0 / (math.comb(m, k) * math.factorial(k))
            assert eta_marginal / eta_mean == pytest.approx(expected, rel=1e-6), (m, k)

    _criterion(8, "marginal/mean likelihood ratio -> association normalizer", 1.0, check)


def test_criterion_9_weight_simplex_and_determinism(tmp_path):
    def check():
        # Weight simplex after every step of every preset.
        for factory in (preset_single_spawn, preset_twenty_object, preset_sixty_object):
            cfg = factory(seed=0)
            truth, frames = simulate_scenario(cfg)
            tracker = Tracker(tracker_config_for(cfg, seed=0))
            hyps = tracker.initial_hypotheses(cfg.initial_tracks())
            for frame in frames:
                hyps, _ = tracker.step(hyps, frame)
                assert abs(sum(h.weight for h in hyps) - 1.0) <= 1e-12, cfg.name
        # Fixed-seed reruns are byte-identical through the CLI.
        for name in ("single-spawn", "twenty-object", "sixty-object"):
            sim = tmp_path / f"{name}-sim"
            assert cli_main(["simulate", "--scenario", name, "--out", str(sim),
                             "--seed", "0"]) == 0
            blobs = []
            for run in ("a", "b"):
                out = tmp_path / f"{name}-{run}"
                assert cli_main([
                    "track", "--frames", str(sim / "frames.csv"),
                    "--scenario", name, "--out", str(out), "--seed", "0",
                ]) == 0
                fig = tmp_path / f"{name}-{run}-fig"
                assert cli_main([
                    "figdata", "--reports", str(out / "reports.ldjson"),
                    "--truth", str(sim / "truth.csv"), "--out", str(fig),
                ]) == 0
                blobs.append(
                    (out / "reports.ldjson").read_bytes()
                    + (out / "summary.json").read_bytes()
                    + (fig / "fig_estimates.csv").read_bytes()
                    + (fig / "fig_counts.csv").read_bytes()
                )
            assert blobs[0] == blobs[1], f"{name} rerun differs"
            # Simulate reruns are byte-identical as well.
            sim2 = tmp_path / f"{name}-sim2"
            assert cli_main(["simulate", "--scenario", name, "--out", str(sim2),
                             "--seed", "0"]) == 0
            for fname in ("truth.csv", "frames.csv", "scenario.json"):
                assert (sim / fname).read_bytes() == (sim2 / fname).read_bytes()

    _criterion(9, "weight simplex and byte-identical reruns", 300.0, check)
