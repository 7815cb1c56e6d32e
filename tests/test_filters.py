"""Dynamics, EKF, and field-of-view checks."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from mcmctrack.errors import ConfigError, NumericalError, SingularStateError
from mcmctrack.filters import (
    GATE_D2,
    MU_EARTH,
    DynamicsConfig,
    GaussianTrack,
    SensorModel,
    _rk4_block,
    _rk4_step,
    in_bounded_fov,
    in_fov,
    likelihood_table,
    predict_track,
    process_noise,
    propagate_flows,
    propagate_state,
    sample_fov_point,
    update_track,
    update_tracks,
)
from mcmctrack.presets import PRESETS


def default_sensor(p_d=0.9, r=None, half=math.pi / 12, max_range=5.0e4):
    return SensorModel(
        origin=np.zeros(2),
        boresight_angle=0.0,
        fov_half_angle=half,
        r=np.eye(2) if r is None else r,
        p_d=p_d,
        max_range=max_range,
    )


class TestPropagate:
    def test_circular_orbit_closes_after_one_period(self):
        radius = 7000.0
        speed = math.sqrt(MU_EARTH / radius)
        period = 2.0 * math.pi * math.sqrt(radius**3 / MU_EARTH)
        s0 = np.array([radius, 0.0, 0.0, speed])
        cfg = DynamicsConfig(mu=MU_EARTH, dt=period, integrator_substeps=4096)
        s1 = propagate_state(s0, cfg)
        assert np.linalg.norm(s1[:2] - s0[:2]) / radius < 1e-6
        assert np.linalg.norm(s1[2:] - s0[2:]) / speed < 1e-6

    def test_zero_dt_is_identity(self):
        s = np.array([1.0e4, -2.0e3, 1.0, -2.0])
        out = propagate_state(s, DynamicsConfig(dt=0.0))
        np.testing.assert_array_equal(out, s)

    def test_zero_mu_is_straight_line(self):
        out = propagate_state(
            np.array([1.0, 0.0, 1.0, 0.0]), DynamicsConfig(mu=0.0, dt=2.0)
        )
        np.testing.assert_allclose(out, [3.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_reversible_under_negated_dt(self):
        s0 = np.array([20000.0, 5000.0, -1.0, 3.5])
        fwd = DynamicsConfig(mu=MU_EARTH, dt=600.0, integrator_substeps=64)
        back = DynamicsConfig(mu=MU_EARTH, dt=-600.0, integrator_substeps=64)
        s2 = propagate_state(propagate_state(s0, fwd), back)
        assert np.linalg.norm(s2 - s0) / np.linalg.norm(s0) < 1e-6

    def test_singularity_guard(self):
        with pytest.raises(SingularStateError):
            propagate_state(np.array([0.5, 0.0, 0.0, 0.0]), DynamicsConfig(dt=10.0))

    def test_deterministic(self):
        s = np.array([15000.0, 2000.0, -0.5, 3.0])
        cfg = DynamicsConfig(dt=300.0)
        np.testing.assert_array_equal(propagate_state(s, cfg), propagate_state(s, cfg))

    # The float check must refuse everything np.isfinite refused.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("index", range(4), ids=["x", "y", "vx", "vy"])
    @pytest.mark.parametrize("dt", [0.0, 300.0])
    def test_non_finite_state_rejected(self, index, bad, dt):
        s = np.array([7000.0, 0.0, 0.0, 7.5])
        s[index] = bad
        with pytest.raises(ValueError, match="state must be finite"):
            propagate_state(s, DynamicsConfig(dt=dt))

    def test_state_leaving_the_float_range_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="propagated state is not finite"):
            propagate_state(np.array([7000.0, 0.0, 0.0, 1e306]), DynamicsConfig(dt=300.0))


def preset_step_error(scenario, cfg, propagate):
    """Largest position error (km) over a whole run of scenario, every scan
    integrated by propagate(states, cfg), against 256 substeps per scan. The
    states are the preset's objects and copies of each kicked by 0.1 km/s
    along x and y, both ways, as a breakup's fragments are."""
    kicks = [(0.0, 0.0), (0.1, 0.0), (-0.1, 0.0), (0.0, 0.1), (0.0, -0.1)]
    states = np.array([obj + [0.0, 0.0, *kick] for obj in scenario.objects for kick in kicks])
    fine = replace(cfg, integrator_substeps=256)
    got = ref = states
    error = 0.0
    for _ in range(round(scenario.duration / scenario.scan_interval)):
        got = propagate(got, cfg)
        ref = propagate_flows(ref, fine)[0]
        error = max(error, float(np.hypot(*(got[:, :2] - ref[:, :2]).T).max()))
    return error


class TestPresetStep:
    """The presets integrate each scan in the fewest RK4 substeps whose
    position error over a whole run stays below 1e-4 km, through the
    simulator's integrator and the tracker's block alike."""

    INTEGRATORS = {
        "propagate_state": lambda states, cfg: np.array([propagate_state(s, cfg) for s in states]),
        "propagate_flows": lambda states, cfg: propagate_flows(states, cfg)[0],
    }

    @pytest.mark.parametrize("integrator", sorted(INTEGRATORS))
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_run_stays_within_1e4_km_of_fine_reference(self, name, integrator):
        scenario = PRESETS[name](seed=0)
        error = preset_step_error(scenario, scenario.dynamics, self.INTEGRATORS[integrator])
        assert error < 1e-4

    def test_one_substep_fewer_breaks_the_bound(self):
        errors = [
            preset_step_error(scenario, replace(scenario.dynamics, integrator_substeps=n - 1),
                              self.INTEGRATORS["propagate_flows"])
            for scenario in (make(seed=0) for make in PRESETS.values())
            if (n := scenario.dynamics.integrator_substeps) > 1
        ]
        assert errors and max(errors) >= 1e-4


class TestSensorNoiseFactor:
    R = [np.eye(2), np.array([[4.0, 1.2], [1.2, 0.5]]), np.array([[2.0, 0.3], [0.1, 1.0]])]

    @pytest.mark.parametrize("r", R, ids=["identity", "correlated", "asymmetric"])
    def test_is_the_cholesky_factor_of_r(self, r):
        sensor = default_sensor(r=r)
        assert sensor.noise_factor.tobytes() == np.linalg.cholesky(sensor.r).tobytes()

    def test_is_read_only_and_not_an_argument(self):
        sensor = default_sensor()
        with pytest.raises(ValueError, match="read-only"):
            sensor.noise_factor[0, 0] = 2.0
        with pytest.raises(AttributeError):
            sensor.noise_factor = np.eye(2)
        with pytest.raises(TypeError, match="noise_factor"):
            SensorModel(np.zeros(2), 0.0, 0.2, np.eye(2), 0.9, noise_factor=np.eye(2))
        assert "noise_factor" not in repr(sensor)

    def test_replace_refactors_the_new_r(self):
        sensor = replace(default_sensor(), r=np.array([[9.0, 0.0], [0.0, 4.0]]))
        assert sensor.noise_factor.tobytes() == np.diag([3.0, 2.0]).tobytes()


class TestDynamicsConfig:
    def test_rejects_negative_q(self):
        with pytest.raises(ConfigError):
            DynamicsConfig(q=-1.0)

    def test_rejects_zero_substeps(self):
        with pytest.raises(ConfigError):
            DynamicsConfig(integrator_substeps=0)


def _cv_transition(dt):
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    return f


def reference_flow_jacobian(s: np.ndarray, cfg: DynamicsConfig) -> np.ndarray:
    """The scalar central-difference Jacobian that propagate_flows batches,
    one propagate_state call per perturbed state."""
    if cfg.mu == 0.0:
        jac = np.eye(4)
        jac[0, 2] = jac[1, 3] = cfg.dt
        return jac
    s = np.asarray(s, dtype=float).reshape(4)
    jac = np.empty((4, 4))
    for j in range(4):
        h = 1e-6 * max(1.0, abs(float(s[j])))
        sp = s.copy()
        sm = s.copy()
        sp[j] += h
        sm[j] -= h
        jac[:, j] = (propagate_state(sp, cfg) - propagate_state(sm, cfg)) / (2.0 * h)
    return jac


def reference_raises(s: np.ndarray, cfg: DynamicsConfig) -> bool:
    try:
        propagate_state(s, cfg)
        reference_flow_jacobian(s, cfg)
    except SingularStateError:
        return True
    return False


def batch_raises(states: np.ndarray, cfg: DynamicsConfig) -> bool:
    try:
        propagate_flows(states, cfg)
    except SingularStateError:
        return True
    return False


@st.composite
def near_orbit_states(draw):
    """Rows [x, y, vx, vy] from 6,600 to 42,000 km at 0.7-1.3 times the
    circular speed, heading up to 0.3 rad off the circular direction."""
    n = draw(st.sampled_from([1, 2, 7]))
    rows = []
    for _ in range(n):
        radius = draw(st.floats(6600.0, 42000.0))
        angle = draw(st.floats(-math.pi, math.pi))
        speed = math.sqrt(MU_EARTH / radius) * draw(st.floats(0.7, 1.3))
        heading = angle + math.pi / 2 + draw(st.floats(-0.3, 0.3))
        rows.append([radius * math.cos(angle), radius * math.sin(angle),
                     speed * math.cos(heading), speed * math.sin(heading)])
    return np.array(rows)


class TestPropagateFlows:
    @settings(max_examples=60, deadline=None)
    @given(
        states=near_orbit_states(),
        mu=st.sampled_from([0.0, MU_EARTH]),
        dt=st.sampled_from([0.0, -60.0, 300.0]),
        substeps=st.sampled_from([1, 16]),
    )
    def test_bit_identical_to_scalar_reference(self, states, mu, dt, substeps):
        cfg = DynamicsConfig(mu=mu, dt=dt, integrator_substeps=substeps)
        means, jacobians = propagate_flows(states, cfg)
        assert means.shape == (len(states), 4)
        assert jacobians.shape == (len(states), 4, 4)
        for s, mean, jac in zip(states, means, jacobians, strict=True):
            assert mean.tobytes() == propagate_state(s, cfg).tobytes()
            want = reference_flow_jacobian(s, cfg)
            assert jac.tobytes() == want.tobytes()
            assert propagate_flows(s, cfg)[1][0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("mu", [0.0, MU_EARTH])
    @pytest.mark.parametrize("dt", [0.0, 300.0])
    def test_no_states(self, mu, dt):
        means, jacobians = propagate_flows(np.empty((0, 4)), DynamicsConfig(mu=mu, dt=dt))
        assert means.shape == (0, 4)
        assert jacobians.shape == (0, 4, 4)

    @pytest.mark.parametrize("mu", [0.0, MU_EARTH])
    @pytest.mark.parametrize("dt", [0.0, 300.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_state_rejected(self, mu, dt, bad):
        states = np.array([[7000.0, 0.0, 0.0, 7.5], [7000.0, bad, 0.0, 7.5]])
        with pytest.raises(ValueError, match="finite"):
            propagate_flows(states, DynamicsConfig(mu=mu, dt=dt))

    @pytest.mark.parametrize("substeps", [1, 2, 16])
    def test_lanes_leaving_the_float_range_are_a_numerical_error(self, substeps):
        # Past about 1.3e154 km a position's square overflows: that is
        # quiet, and only the integrated block's check speaks.
        states = np.array([[7000.0, 0.0, 0.0, 7.5], [7000.0, 0.0, 0.0, 1e306]])
        cfg = DynamicsConfig(dt=300.0, integrator_substeps=substeps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="propagated state is not finite"):
                propagate_flows(states, cfg)

    def test_guard_parity_with_reference(self):
        # States straddling the 1 km guard radius: the batch raises exactly
        # when the scalar predict (nominal, then each +/- lane) raises, for
        # each state alone and for all of them in one pass.
        states = [
            np.array([(1.0 + offset) * math.cos(angle), (1.0 + offset) * math.sin(angle),
                      speed * math.cos(angle), speed * math.sin(angle)])
            for offset in (-2e-6, -0.5e-6, 0.0, 0.5e-6, 2e-6, 1e-3)
            for angle in (0.0, 0.3)
            for speed in (-1.0, 0.0, 1.0)
        ]
        outcomes = []
        for mu in (0.0, 1e-9, MU_EARTH):
            for dt in (0.0, 1e-4, -1e-4):
                cfg = DynamicsConfig(mu=mu, dt=dt, integrator_substeps=2)
                for s in states:
                    want = reference_raises(s, cfg)
                    assert batch_raises(s[None], cfg) == want, (s, cfg)
                    nominal_only = not batch_raises(s[None], replace(cfg, mu=0.0))
                    outcomes.append((want, nominal_only))
                assert batch_raises(np.array(states), cfg) == any(
                    reference_raises(s, cfg) for s in states
                )
        # Non-vacuous: some states pass, some raise, and some raise only
        # through a perturbed lane.
        assert (False, True) in outcomes
        assert (True, False) in outcomes
        assert (True, True) in outcomes


class TestPredict:
    def test_linear_case_matches_closed_form(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 0.1 * np.eye(4)
        track = GaussianTrack("t00", [10.0, -3.0, 0.5, 0.2], cov)
        cfg = DynamicsConfig(mu=0.0, dt=5.0, q=0.0)
        out = predict_track(track, cfg)
        f = _cv_transition(5.0)
        np.testing.assert_allclose(out.covariance, f @ cov @ f.T, rtol=0, atol=1e-10)
        np.testing.assert_allclose(out.mean, f @ track.mean, atol=1e-10)

    def test_zero_dt_zero_q_identity(self):
        track = GaussianTrack("t00", [1.0e4, 0.0, 0.0, 2.0], np.diag([4.0, 4.0, 0.01, 0.01]))
        out = predict_track(track, DynamicsConfig(dt=0.0, q=0.0))
        np.testing.assert_array_equal(out.mean, track.mean)
        np.testing.assert_allclose(out.covariance, track.covariance, atol=1e-15)

    def test_label_preserved_and_process_noise_added(self):
        track = GaussianTrack("abc", [2.0e4, 0.0, 0.0, 4.0], np.eye(4))
        out = predict_track(track, DynamicsConfig(dt=60.0, q=1e-6))
        assert out.label == "abc"
        assert np.trace(out.covariance) > np.trace(track.covariance)

    def test_psd_preserved_over_random_inputs(self):
        rng = np.random.default_rng(42)
        cfg = DynamicsConfig(dt=300.0, q=1e-9)
        for _ in range(1000):
            radius = rng.uniform(7000.0, 50000.0)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            state = np.array(
                [
                    radius * math.cos(theta),
                    radius * math.sin(theta),
                    rng.uniform(-8.0, 8.0),
                    rng.uniform(-8.0, 8.0),
                ]
            )
            a = rng.normal(size=(4, 4))
            cov = a @ a.T + 1e-6 * np.eye(4)
            out = predict_track(GaussianTrack("t00", state, cov), cfg)
            scale = max(1.0, float(np.abs(out.covariance).max()))
            assert np.linalg.eigvalsh(out.covariance).min() >= -1e-9 * scale
            np.testing.assert_allclose(out.covariance, out.covariance.T)

    def test_process_noise_matches_formula(self):
        cfg = DynamicsConfig(dt=10.0, q=2.0)
        q = process_noise(cfg)
        assert q[0, 0] == pytest.approx(2.0 * 1000.0 / 3.0)
        assert q[0, 2] == pytest.approx(2.0 * 100.0 / 2.0)
        assert q[2, 2] == pytest.approx(20.0)

    def test_process_noise_is_built_once_and_read_only(self):
        # Equal configs share one array, which no caller can change.
        q = process_noise(DynamicsConfig(dt=10.0, q=2.0))
        assert process_noise(DynamicsConfig(dt=10.0, q=2.0)) is q
        assert not q.flags.writeable
        with pytest.raises(ValueError):
            q[0, 0] = 0.0


class TestUpdate:
    def test_likelihood_at_mode_with_unit_noise(self):
        # Zero prior covariance, unit measurement noise, return at the
        # predicted measurement: density equals the bivariate normal mode.
        track = GaussianTrack("t00", [0.0, 0.0, 0.0, 0.0], np.zeros((4, 4)))
        lik = math.exp(likelihood_table([track], np.zeros((1, 2)), default_sensor())[0, 0])
        assert lik == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_zero_gain_limit(self):
        track = GaussianTrack("t00", [1.0, 2.0, 0.3, 0.4], np.zeros((4, 4)))
        post = update_track(track, np.array([5.0, -7.0]), default_sensor())
        np.testing.assert_allclose(post.mean, track.mean, atol=1e-12)

    def test_posterior_moves_toward_measurement(self):
        track = GaussianTrack("t00", [0.0, 0.0, 0.0, 0.0], np.eye(4))
        post = update_track(track, np.array([1.0, 0.0]), default_sensor())
        assert 0.0 < post.mean[0] < 1.0
        assert post.covariance[0, 0] < track.covariance[0, 0]

    def test_matches_grid_bayes_posterior(self):
        # Full 4-D grid quadrature oracle on a unit-scale linear-Gaussian
        # instance.
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) * 0.3
        prior_cov = a @ a.T + np.eye(4)
        prior_mean = rng.normal(size=4)
        z = prior_mean[:2] + rng.normal(size=2) * 0.5
        sensor = default_sensor(r=np.array([[0.5, 0.1], [0.1, 0.4]]))
        track = GaussianTrack("t00", prior_mean, prior_cov)
        post = update_track(track, z, sensor)

        sig = np.sqrt(np.diag(prior_cov))
        axes = [np.linspace(prior_mean[i] - 6 * sig[i], prior_mean[i] + 6 * sig[i], 33)
                for i in range(4)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        dev = grid - prior_mean
        pinv = np.linalg.inv(prior_cov)
        log_prior = -0.5 * np.einsum("ni,ij,nj->n", dev, pinv, dev)
        rinv = np.linalg.inv(sensor.r)
        zdev = grid[:, :2] - z
        log_lik = -0.5 * np.einsum("ni,ij,nj->n", zdev, rinv, zdev)
        w = np.exp(log_prior + log_lik - (log_prior + log_lik).max())
        w /= w.sum()
        mean_grid = w @ grid
        dev_post = grid - mean_grid
        cov_grid = (w[:, None] * dev_post).T @ dev_post
        np.testing.assert_allclose(post.mean, mean_grid, atol=1e-3)
        np.testing.assert_allclose(post.covariance, cov_grid, atol=1e-3)

    def test_likelihood_integrates_to_one(self):
        track = GaussianTrack(
            "t00", [0.0, 0.0, 0.0, 0.0], np.diag([2.0, 1.0, 0.1, 0.1])
        )
        sensor = default_sensor(r=np.array([[1.0, 0.3], [0.3, 2.0]]))
        s_cov = track.covariance[:2, :2] + sensor.r
        half = 6.0 * np.sqrt(np.diag(s_cov))
        rng = np.random.default_rng(11)
        n = 100_000
        pts = rng.uniform(-half, half, size=(n, 2))
        vals = np.exp(likelihood_table([track], pts, sensor)[:, 0])
        volume = float(np.prod(2.0 * half))
        integral = vals.mean() * volume
        assert abs(integral - 1.0) < 0.02

    def test_singular_innovation_raises(self):
        track = GaussianTrack("t00", np.zeros(4), np.zeros((4, 4)))
        bad = SensorModel(
            origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=1.0,
            r=np.array([[1.0, 0.0], [0.0, 1.0]]), p_d=0.9,
        )
        object.__setattr__(bad, "r", np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(NumericalError):
            update_track(track, np.zeros(2), bad)

    def test_matches_kalman_closed_form_linear(self):
        rng = np.random.default_rng(5)
        cov = np.diag([4.0, 3.0, 0.5, 0.25])
        mean = rng.normal(size=4)
        z = rng.normal(size=2)
        sensor = default_sensor(r=np.diag([0.5, 0.5]))
        track = GaussianTrack("t00", mean, cov)
        post = update_track(track, z, sensor)
        lik = math.exp(likelihood_table([track], z.reshape(1, 2), sensor)[0, 0])
        h = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        s = h @ cov @ h.T + sensor.r
        k = cov @ h.T @ np.linalg.inv(s)
        expect_mean = mean + k @ (z - h @ mean)
        expect_cov = (np.eye(4) - k @ h) @ cov
        np.testing.assert_allclose(post.mean, expect_mean, atol=1e-10)
        np.testing.assert_allclose(post.covariance, expect_cov, atol=1e-10)
        expect_lik = math.exp(
            -0.5 * (z - mean[:2]) @ np.linalg.inv(s) @ (z - mean[:2])
        ) / (2 * math.pi * math.sqrt(np.linalg.det(s)))
        assert lik == pytest.approx(expect_lik, rel=1e-10)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


# The per-pair EKF code that the stacked kernel replaced, kept here as the
# reference it must match bit for bit.
def reference_innovation(mean, cov, z, r):
    """Innovation, inverse innovation covariance and gated log marginal
    likelihood of one (track, return) pair. The log is numpy's, whose
    results math.log does not always match."""
    s_cov = cov[:2, :2] + r
    s_cov = 0.5 * (s_cov + s_cov.T)
    det = s_cov[0, 0] * s_cov[1, 1] - s_cov[0, 1] * s_cov[1, 0]
    inv = np.array([[s_cov[1, 1], -s_cov[0, 1]], [-s_cov[1, 0], s_cov[0, 0]]]) / det
    innov = z - mean[:2]
    d2 = float(innov @ inv @ innov)
    if d2 > GATE_D2:
        return innov, inv, -math.inf
    return innov, inv, -0.5 * d2 - float(np.log(2.0 * math.pi * math.sqrt(det)))


def reference_update(mean, cov, z, r):
    """Posterior mean and symmetrized posterior covariance of one pair."""
    innov, inv, _ = reference_innovation(mean, cov, z, r)
    gain = cov[:, :2] @ inv
    post_mean = mean + gain @ innov
    a = np.eye(4) - gain @ np.eye(2, 4)
    post_cov = a @ cov @ a.T + gain @ r @ gain.T
    return post_mean, 0.5 * (post_cov + post_cov.T)


@st.composite
def scan_tracks(draw):
    """0, 1 or several tracks near (30000, 0) km with random covariances of
    a drawn scale, returns near them, and a random sensor noise."""
    n_tracks = draw(st.sampled_from([0, 1, 2, 7]))
    n_returns = draw(st.sampled_from([0, 1, 3]))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tracks = []
    for j in range(n_tracks):
        a = rng.normal(size=(4, 4)) * scale
        mean = rng.normal(size=4) * [20.0, 20.0, 0.1, 0.1] + [30000.0, 0.0, 0.0, 3.0]
        tracks.append(GaussianTrack(f"t{j:02d}", mean, a @ a.T))
    returns = rng.normal(size=(n_returns, 2)) * 20.0 + [30000.0, 0.0]
    b = rng.normal(size=(2, 2))
    sensor = default_sensor(r=b @ b.T + 0.1 * np.eye(2))
    return tracks, returns, sensor


# A return coordinate: huge, of either sign, or within the presets' range.
huge_or_near = st.one_of(
    st.floats(1e150, 1.7e308).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-1e5, 1e5),
)


class TestStackedKernel:
    """The stacked innovation kernel, the batched update and the RK4 block
    against the per-pair and per-state code they replaced, float hex by
    float hex, on stacks of none, one and many."""

    @given(scan=scan_tracks())
    @settings(max_examples=150, deadline=None)
    def test_likelihood_table_matches_per_pair_reference(self, scan):
        tracks, returns, sensor = scan
        table = likelihood_table(tracks, returns, sensor)
        assert table.shape == (len(returns), len(tracks))
        want = [[reference_innovation(t.mean, t.covariance, z, sensor.r)[2] for t in tracks]
                for z in returns]
        assert hexes(table) == hexes(want)
        for i, z in enumerate(returns):
            for j, t in enumerate(tracks):
                one = likelihood_table([t], z.reshape(1, 2), sensor)[0, 0]
                assert one.hex() == float(want[i][j]).hex()

    @given(scan=scan_tracks(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_batched_update_matches_per_pair_reference(self, scan, data):
        tracks, returns, sensor = scan
        # Pair each track with a return, the same track twice allowed.
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, len(tracks) - 1), st.integers(0, len(returns) - 1)),
            max_size=6,
        )) if tracks and len(returns) else []
        paired = [tracks[j] for j, _ in pairs]
        zs = returns[[i for _, i in pairs]].reshape(-1, 2)
        posteriors = update_tracks(paired, zs, sensor)
        assert len(posteriors) == len(pairs)
        for track, z, post in zip(paired, zs, posteriors):
            mean, cov = reference_update(track.mean, track.covariance, z, sensor.r)
            assert post.label == track.label
            assert hexes(post.mean) == hexes(mean)
            assert hexes(post.covariance) == hexes(cov)
            one = update_track(track, z, sensor)
            assert hexes(one.mean) == hexes(mean)
            assert hexes(one.covariance) == hexes(cov)

    @given(
        states=near_orbit_states(),
        keep=st.sampled_from([0, 1, 7]),
        mu=st.sampled_from([0.0, MU_EARTH]),
        h=st.floats(-50.0, 400.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_rk4_block_lanes_match_scalar_step(self, states, keep, mu, h):
        states = states[:keep]
        block = _rk4_block(np.ascontiguousarray(states.T), h, mu)
        assert block.shape == (4, len(states))
        want = [_rk4_step(*map(float, s), h, mu) for s in states]
        assert hexes(block.T) == hexes(want)

    def test_singular_innovation_names_the_track(self):
        # S = P[:2, :2] + r is singular for the zero-covariance track only;
        # the kernel names it, and raises only when it is paired.
        sensor = default_sensor()
        object.__setattr__(sensor, "r", np.ones((2, 2)))
        tracks = [GaussianTrack("t00", np.zeros(4), np.eye(4)),
                  GaussianTrack("t01", np.zeros(4), np.zeros((4, 4)))]
        with pytest.raises(NumericalError, match="track t01: innovation covariance"):
            update_tracks(tracks, np.ones((2, 2)), sensor)
        with pytest.raises(NumericalError, match="track t01: innovation covariance"):
            likelihood_table(tracks, np.ones((1, 2)), sensor)
        assert likelihood_table(tracks, np.empty((0, 2)), sensor).shape == (0, 2)

    def test_batched_update_needs_one_return_per_track(self):
        track = GaussianTrack("t00", np.zeros(4), np.eye(4))
        with pytest.raises(ValueError, match="one return per track"):
            update_tracks([track, track], np.zeros((1, 2)), default_sensor())

    def test_huge_correlated_return_has_likelihood_zero(self):
        # With r correlated 0.9, d^2 of a return at (1e308, 1e308) meets
        # overflowed terms of opposite sign (inf - inf): its entry is -inf,
        # not nan, and no warning is raised.
        track = GaussianTrack("t00", [7000.0, 0.0, 0.0, 7.5], 1e-6 * np.eye(4))
        sensor = default_sensor(r=np.array([[1.0, 0.9], [0.9, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = likelihood_table([track], np.array([[1e308, 1e308]]), sensor)
        assert table.tolist() == [[-math.inf]]

    @given(
        returns=st.lists(st.tuples(huge_or_near, huge_or_near), min_size=1, max_size=4),
        rho=st.floats(-0.999, 0.999),
        var=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    @example(returns=[(1e150, 1e150), (1e150, 2.6965469130696285e158)], rho=0.5, var=1e-6)
    @settings(max_examples=150, deadline=None)
    def test_huge_returns_are_finite_or_gated(self, returns, rho, var):
        # Every entry is a number or -inf, whatever overflows, and no
        # warning is raised. In the example, BLAS's d^2 of the second
        # return overflows to -inf, which an upper gate alone scored +inf.
        tracks = [GaussianTrack("t00", [7000.0, 0.0, 0.0, 7.5], var * np.eye(4)),
                  GaussianTrack("t01", [-3.0e4, 2.0e4, 1.0, -2.0], np.eye(4))]
        sensor = default_sensor(r=np.array([[1.0, rho], [rho, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = likelihood_table(tracks, np.array(returns), sensor)
        assert np.all(np.isfinite(table) | (table == -math.inf))

    def test_far_return_has_likelihood_zero(self):
        # The Mahalanobis term of a return at 1e200 km overflows to inf,
        # quietly, and its log-likelihood is exactly -inf.
        track = GaussianTrack("t00", [7000.0, 0.0, 0.0, 7.5], np.eye(4))
        returns = np.array([[1e200, 0.0], [7000.0, 0.0]])
        table = likelihood_table([track], returns, default_sensor())
        assert table[0, 0] == -math.inf
        assert table[1, 0] > -math.inf


class TestGate:
    """Every (return, track) pair's log-likelihood, -inf exactly past the
    Mahalanobis gate GATE_D2."""

    def test_gate_edges(self):
        # The gate sits where exp(-d^2 / 2) underflows. S = I, so d^2 is the
        # squared x offset: just inside the gate the entry is the closed form
        # (its linear likelihood underflows to 0), just outside it is -inf.
        assert math.exp(-0.5 * 1490.0) > 0.0 == math.exp(-0.5 * 1491.0)
        track = GaussianTrack("t00", np.zeros(4), np.zeros((4, 4)))
        edge = math.sqrt(1490.0)
        returns = np.array([[edge - 1e-9, 0.0], [edge + 1e-9, 0.0]])
        inside, outside = likelihood_table([track], returns, default_sensor())[:, 0]
        d2 = returns[0, 0] ** 2
        assert d2 <= GATE_D2 < returns[1, 0] ** 2
        assert inside == pytest.approx(-0.5 * d2 - math.log(2.0 * math.pi), rel=1e-12)
        assert outside == -math.inf

    @given(scan=scan_tracks())
    @settings(max_examples=150, deadline=None)
    def test_table_matches_scipy_logpdf_inside_the_gate(self, scan):
        # An independent per-pair reference: scipy's log density, and d^2
        # by a linear solve. The two sides of -d^2 / 2 - log(2 pi sqrt(det S))
        # reach about 745 in size, so the tolerance is 1e-12 of their sum of
        # magnitudes.
        tracks, returns, sensor = scan
        table = likelihood_table(tracks, returns, sensor)
        for i, z in enumerate(returns):
            for j, t in enumerate(tracks):
                s_cov = t.covariance[:2, :2] + sensor.r
                innov = z - t.mean[:2]
                d2 = float(innov @ np.linalg.solve(s_cov, innov))
                if d2 > GATE_D2:
                    assert table[i, j] == -math.inf
                    continue
                want = multivariate_normal.logpdf(z, mean=t.mean[:2], cov=s_cov)
                scale = 0.5 * d2 + abs(math.log(2.0 * math.pi * math.sqrt(np.linalg.det(s_cov))))
                assert abs(table[i, j] - want) <= 1e-12 * scale


class TestFov:
    def test_along_boresight(self):
        sensor = default_sensor()
        assert in_fov(np.array([1000.0, 0.0, 0.0, 0.0]), sensor)

    def test_boundary_inclusive(self):
        half = 0.2
        sensor = default_sensor(half=half)
        ang = half
        pos = 1000.0 * np.array([math.cos(ang), math.sin(ang)])
        assert in_fov(np.array([pos[0], pos[1], 0.0, 0.0]), sensor)

    def test_outside(self):
        sensor = default_sensor(half=0.2)
        assert not in_fov(np.array([0.0, 1000.0, 0.0, 0.0]), sensor)

    def test_half_pi_always_true(self):
        sensor = default_sensor(half=math.pi)
        for ang in np.linspace(0, 2 * math.pi, 17):
            assert in_fov(np.array([math.cos(ang), 2.0 * math.sin(ang), 0, 0]) * 500, sensor)

    def test_origin_errors(self):
        with pytest.raises(ValueError):
            in_fov(np.zeros(4), default_sensor())

    def test_bounded_fov_respects_range(self):
        sensor = default_sensor(max_range=100.0)
        assert in_bounded_fov(np.array([50.0, 0.0]), sensor)
        assert not in_bounded_fov(np.array([150.0, 0.0]), sensor)

    def test_sampled_points_inside_wedge(self):
        sensor = default_sensor()
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = sample_fov_point(sensor, rng)
            assert in_bounded_fov(p, sensor)


# The stacked check that GaussianTrack's one-track check replaced, kept here
# as the reference it must match: the same inputs accepted and refused,
# with the same error, and the same stored arrays, float hex by float hex.
def reference_checked_covariances(labels, means, covs):
    finite_means = np.isfinite(means).all(axis=1)
    finite_covs = np.isfinite(covs).all(axis=(1, 2))
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    finite = finite_means & finite_covs
    if finite.all():
        min_eigs = np.linalg.eigvalsh(covs).min(axis=1)
    else:
        min_eigs = np.full(len(covs), -math.inf)
        min_eigs[finite] = np.linalg.eigvalsh(covs[finite]).min(axis=1)
    if (min_eigs < 0.0).any():
        failed = ~finite | (min_eigs < -1e-9 * np.maximum(1.0, np.abs(covs).max(axis=(1, 2))))
        if failed.any():
            k = failed.argmax()
            if not finite_means[k]:
                raise ValueError(f"track {labels[k]}: mean must be finite")
            if not finite_covs[k]:
                raise ValueError(f"track {labels[k]}: covariance must be finite")
            raise NumericalError(
                f"track {labels[k]}: covariance indefinite (min eigenvalue {min_eigs[k]:g})"
            )
    return covs


def reference_outcome(label, mean, cov):
    """The hexes of the mean and covariance the reference stores for one
    track, or the type and message of the error it raises."""
    mean = np.asarray(mean, dtype=float).reshape(1, 4)
    try:
        cov = reference_checked_covariances(
            (label,), mean, np.asarray(cov, dtype=float).reshape(1, 4, 4))
    except (ValueError, NumericalError) as err:
        return type(err), str(err)
    return hexes(mean[0]), hexes(cov[0])


def track_outcome(label, mean, cov):
    """The same for GaussianTrack(label, mean, cov)."""
    try:
        track = GaussianTrack(label, mean, cov)
    except (ValueError, NumericalError) as err:
        return type(err), str(err)
    return hexes(track.mean), hexes(track.covariance)


def shifted_to_tolerance(cov, factor):
    """cov plus a multiple of the identity that puts its smallest eigenvalue
    at factor times the check's tolerance, -1e-9 max(1, max|cov|): inside
    it for factor below 1, outside above. The shift moves max|cov|, so it
    is applied twice."""
    for _ in range(2):
        tol = 1e-9 * max(1.0, np.abs(cov).max())
        cov = cov - (np.linalg.eigvalsh(cov)[0] + factor * tol) * np.eye(4)
    return cov


@st.composite
def checked_inputs(draw):
    """A label, a mean and a 4 x 4 covariance for the track check: a random
    A A^T, or a random symmetric matrix with its smallest eigenvalue moved
    near the tolerance, of a drawn scale, then perhaps made asymmetric or
    given a NaN or an infinity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3, 1e8]))
    a = rng.normal(size=(4, 4)) * scale
    factor = draw(st.sampled_from([None, 0.0, 0.5, 0.99, 1.01, 2.0]))
    cov = a @ a.T if factor is None else shifted_to_tolerance(0.5 * (a + a.T), factor)
    if draw(st.booleans()):
        skew = rng.normal(size=(4, 4)) * scale * draw(st.sampled_from([1e-12, 1e-3, 1.0]))
        cov = cov + (skew if draw(st.booleans()) else skew - skew.T)
    mean = rng.normal(size=4) * 1e4
    if draw(st.booleans()):
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        where = draw(st.sampled_from(["mean", "covariance", "both"]))
        if where != "covariance":
            mean[draw(st.integers(0, 3))] = bad
        if where != "mean":
            cov[draw(st.integers(0, 3)), draw(st.integers(0, 3))] = bad
    return draw(st.sampled_from(["t00", "t17"])), mean, cov


class TestTrackValidation:
    @given(inputs=checked_inputs())
    @example(inputs=("t01", np.zeros(4), -np.eye(4)))
    @example(inputs=("t02", np.full(4, math.nan), np.full((4, 4), math.nan)))
    @settings(max_examples=300, deadline=None)
    def test_check_matches_the_stacked_reference(self, inputs):
        assert track_outcome(*inputs) == reference_outcome(*inputs)

    def test_tolerance_boundary_is_kept(self):
        a = np.random.default_rng(3).normal(size=(4, 4)) * 1e3
        cov = 0.5 * (a + a.T)
        GaussianTrack("t00", np.zeros(4), shifted_to_tolerance(cov, 0.99))
        with pytest.raises(NumericalError, match="track t00: covariance indefinite"):
            GaussianTrack("t00", np.zeros(4), shifted_to_tolerance(cov, 1.01))
        # A minimum exactly at the tolerance passes (eigvalsh returns a
        # diagonal exactly), and one a step below it fails.
        for low, accepted in ((-2e-9, True), (np.nextafter(-2e-9, -1.0), False)):
            diagonal = np.diag([low, 2.0, 0.5, 0.5])
            assert isinstance(track_outcome("t00", np.zeros(4), diagonal)[0], list) == accepted
            assert track_outcome("t00", np.zeros(4), diagonal) == reference_outcome(
                "t00", np.zeros(4), diagonal)

    def test_constructor_reports_the_failing_check(self):
        # The mean is checked before the covariance, and the covariance's
        # finiteness before its eigenvalues; each error names the track.
        with pytest.raises(NumericalError) as err:
            GaussianTrack("t01", np.zeros(4), -np.eye(4))
        assert str(err.value) == "track t01: covariance indefinite (min eigenvalue -1)"
        with pytest.raises(ValueError, match="track t02: covariance must be finite"):
            GaussianTrack("t02", np.zeros(4), np.full((4, 4), math.nan))
        with pytest.raises(ValueError, match="track t03: mean must be finite"):
            GaussianTrack("t03", np.full(4, math.inf), -np.eye(4))
        assert update_tracks([], np.empty((0, 2)), default_sensor()) == []
        assert likelihood_table([], np.empty((0, 2)), default_sensor()).shape == (0, 0)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(NumericalError):
            GaussianTrack("t00", np.zeros(4), -np.eye(4))

    def test_covariance_symmetrized(self):
        cov = np.eye(4)
        cov[0, 1] = 0.2
        track = GaussianTrack("t00", np.zeros(4), cov)
        assert track.covariance[1, 0] == pytest.approx(0.1)
        assert track.covariance[0, 1] == pytest.approx(0.1)

    def test_jacobian_close_to_identity_for_small_dt(self):
        s = np.array([2.0e4, 1.0e4, -1.0, 3.0])
        jac = propagate_flows(s, DynamicsConfig(dt=1.0))[1][0]
        np.testing.assert_allclose(jac, np.eye(4) + np.diag([1.0, 1.0], k=2), atol=1e-4)
