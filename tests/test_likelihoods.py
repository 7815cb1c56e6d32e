"""Data-association matrix, birth/clutter densities, likelihood comparison."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmctrack.errors import InvalidEventError
from mcmctrack.filters import GaussianTrack, SensorModel, update_track
from mcmctrack.hypotheses import (
    BIRTH,
    CLUTTER,
    AssociationEvent,
    BirthDeathConfig,
    Hypothesis,
)
from mcmctrack.likelihoods import (
    NEWBORN_VELOCITY_STD,
    AssociationMatrix,
    ClutterModel,
    birth_likelihood,
    build_matrix,
    compare_likelihood_forms,
    hypothesis_log_likelihood,
    newborn_track,
    uniform_clutter,
)
from test_filters import hexes, reference_innovation, scan_tracks
from test_oracle import sparse_matrices


def sensor_with(p_d=0.9, half=math.pi / 12, max_range=5.0e4):
    return SensorModel(
        origin=np.zeros(2),
        boresight_angle=0.0,
        fov_half_angle=half,
        r=np.eye(2),
        p_d=p_d,
        max_range=max_range,
    )


def track_at(label, x, y, var=1.0):
    cov = np.diag([var, var, 0.01, 0.01])
    return GaussianTrack(label, np.array([x, y, 0.0, 3.0]), cov)


class TestBuildMatrix:
    def test_empty_frame_has_no_rows(self):
        sensor = sensor_with()
        tracks = [track_at("t00", 30000.0, 0.0), track_at("t01", 31000.0, 100.0)]
        mat = build_matrix(tracks, np.empty((0, 2)), sensor, uniform_clutter(sensor), BirthDeathConfig())
        assert mat.log_entries.shape == (0, 4)
        assert mat.n_returns == 0
        assert mat.death_eligible == (True, True)

    def test_mode_entry_value(self):
        sensor = sensor_with()
        track = track_at("t00", 30000.0, 0.0, var=0.5)
        z = np.array([30000.0, 0.0])
        mat = build_matrix([track], z.reshape(1, 2), sensor, uniform_clutter(sensor), BirthDeathConfig())
        s_det = np.linalg.det(track.covariance[:2, :2] + sensor.r)
        assert math.exp(mat.log_entries[0, 0]) == pytest.approx(
            1.0 / (2.0 * math.pi * math.sqrt(s_det)), rel=1e-12
        )

    def test_object_entries_share_update_track_code_path(self):
        sensor = sensor_with()
        tracks = [track_at("t00", 30000.0, 500.0), track_at("t01", 30025.0, 480.0)]
        returns = np.array([[30010.0, 495.0], [30020.0, 485.0]])
        mat = build_matrix(tracks, returns, sensor, uniform_clutter(sensor), BirthDeathConfig())
        for i, z in enumerate(returns):
            for j, t in enumerate(tracks):
                _, lik = update_track(t, z, sensor)
                assert lik > 0.0
                assert mat.log_entries[i, j] == math.log(lik)

    @given(scan=scan_tracks())
    @settings(max_examples=100, deadline=None)
    def test_object_entries_match_per_pair_reference(self, scan):
        # Every object entry is the log of the per-pair likelihood, -inf
        # where it underflows to 0.
        tracks, returns, sensor = scan
        mat = build_matrix(tracks, returns, sensor, uniform_clutter(sensor), BirthDeathConfig())
        liks = [[reference_innovation(t.mean, t.covariance, z, sensor.r)[2] for t in tracks]
                for z in returns]
        want = [[math.log(lik) if lik > 0.0 else -math.inf for lik in row] for row in liks]
        assert hexes(mat.log_entries[:, :len(tracks)]) == hexes(want)

    def test_twelve_entries_match_hand_computation(self):
        # 2 tracks, 2 returns: a 2 x (2+2) matrix. Deaths carry no
        # likelihood, so there is no death row.
        sensor = sensor_with(p_d=0.8)
        t0 = track_at("t00", 30000.0, 0.0, var=2.0)
        t1 = track_at("t01", 30200.0, 300.0, var=1.0)
        returns = np.array([[30001.0, 1.0], [30199.0, 302.0]])
        clutter = ClutterModel(density_value=1e-8)
        mat = build_matrix([t0, t1], returns, sensor, clutter, BirthDeathConfig(beta=0.05))

        def gauss(z, mean, var):
            s = var + 1.0  # diagonal track var + unit noise var per axis
            d2 = float(np.sum((z - mean) ** 2))
            return math.exp(-0.5 * d2 / s) / (2.0 * math.pi * s)

        area = sensor.fov_area
        expected = np.array(
            [
                [gauss(returns[0], t0.mean[:2], 2.0), gauss(returns[0], t1.mean[:2], 1.0), 1.0 / area, 1e-8],
                [gauss(returns[1], t0.mean[:2], 2.0), gauss(returns[1], t1.mean[:2], 1.0), 1.0 / area, 1e-8],
            ]
        )
        assert mat.log_entries.shape == (2, 4)
        np.testing.assert_allclose(np.exp(mat.log_entries), expected, rtol=1e-10)

    def test_out_of_fov_object_not_death_candidate(self):
        sensor = sensor_with(half=0.1)
        inside = track_at("t00", 30000.0, 0.0)
        outside = track_at("t01", 0.0, 30000.0)
        mat = build_matrix(
            [inside, outside], np.empty((0, 2)), sensor, uniform_clutter(sensor), BirthDeathConfig()
        )
        assert mat.death_eligible == (True, False)

    def test_zero_death_probability_makes_no_death_candidate(self):
        sensor = sensor_with()
        mat = build_matrix(
            [track_at("t00", 30000.0, 0.0)], np.empty((0, 2)), sensor,
            uniform_clutter(sensor), BirthDeathConfig(beta=0.0),
        )
        assert mat.death_eligible == (False,)

    def test_zero_birth_probability_leaves_birth_column_unsupported(self):
        # A birth at alpha = 0 has zero prior mass: the column must not be
        # supported, or a walk could start on a zero-mass state.
        sensor = sensor_with()
        returns = np.array([[30000.0, 0.0], [30010.0, 5.0]])
        mat = build_matrix(
            [track_at("t00", 30000.0, 0.0)], returns, sensor,
            uniform_clutter(sensor), BirthDeathConfig(alpha=0.0),
        )
        assert (mat.log_entries[:, mat.birth_col] == -math.inf).all()
        assert all(mat.birth_col not in row for row in mat.supported)
        assert all(mat.clutter_col in row for row in mat.supported)

    def test_one_death_flag_per_object_required(self):
        with pytest.raises(ValueError, match="death-eligibility"):
            AssociationMatrix(
                log_entries=np.zeros((0, 3)),
                object_labels=("t00",),
                death_eligible=(True, True),
            )

    @staticmethod
    def one_row(first_entry):
        return AssociationMatrix(
            log_entries=np.array([[first_entry, 0.0, 0.0]]),
            object_labels=("t00",),
            death_eligible=(True,),
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_entries_must_be_finite_or_minus_inf(self, bad):
        # A +inf entry would be left out of supported, yet a walk could step
        # onto it and score inf.
        with pytest.raises(ValueError, match="finite or -inf"):
            self.one_row(bad)

    def test_minus_inf_entry_left_out_of_supported(self):
        assert self.one_row(-math.inf).supported == ((1, 2),)

    @pytest.mark.parametrize("shape", [(3,), (1, 3, 1)], ids=["1-D", "3-D"])
    def test_entries_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"2-D, got shape {shape}")):
            AssociationMatrix(
                log_entries=np.zeros(shape),
                object_labels=("t00",),
                death_eligible=(True,),
            )

    @staticmethod
    def assert_supported_is_each_rows_finite_columns(mat):
        assert mat.supported == tuple(
            tuple(np.flatnonzero(row).tolist()) for row in np.isfinite(mat.log_entries)
        )

    @given(mat=sparse_matrices())
    @settings(max_examples=200, deadline=None)
    def test_supported_is_each_rows_finite_columns(self, mat):
        self.assert_supported_is_each_rows_finite_columns(mat)

    # Sixty objects: one 62-column row with three finite entries.
    WIDE_ROW = np.full((1, 62), -math.inf)
    WIDE_ROW[0, [4, 37, 61]] = [-2.0, 0.5, -9.0]

    @pytest.mark.parametrize("entries", [
        np.empty((0, 4)),
        np.array([[-1.0, 0.0], [-math.inf, 3.0]]),
        np.array([[0.0, -math.inf, -1.0], [-math.inf, -math.inf, -math.inf], [2.0, 1.0, 0.0]]),
        WIDE_ROW,
    ], ids=["no-returns", "no-objects", "all-minus-inf-row", "wide-row"])
    def test_supported_hand_cases(self, entries):
        n_objects = entries.shape[1] - 2
        mat = AssociationMatrix(
            log_entries=entries,
            object_labels=tuple(f"t{i:02d}" for i in range(n_objects)),
            death_eligible=(True,) * n_objects,
        )
        self.assert_supported_is_each_rows_finite_columns(mat)
        assert len(mat.supported) == mat.n_returns == len(entries)

    # Two tracks near the returns, one in the FOV but far from every return
    # (its entries underflow to -inf), one outside a narrow FOV.
    SELECT_TRACKS = [
        track_at("t00", 30000.0, 0.0),
        track_at("t01", 30025.0, 480.0),
        track_at("t02", 45000.0, 0.0),
        track_at("t03", 0.0, 30000.0),
    ]
    SELECT_RETURNS = np.array([[30010.0, 495.0], [30002.0, 3.0], [30020.0, 485.0]])

    @pytest.mark.parametrize("cols,beta,n_returns", [
        ([2, 0], 0.01, 3),
        ([3, 1], 0.01, 3),
        ([0, 1, 2, 3], 0.0, 3),
        ([3, 2, 1, 0], 0.01, 3),
        ([], 0.01, 3),
        ([1, 3], 0.01, 0),
    ], ids=["far-track", "out-of-fov", "beta-zero", "reversed", "empty", "no-returns"])
    def test_select_equals_matrix_of_selected_tracks(self, cols, beta, n_returns):
        sensor = sensor_with(half=0.1)
        returns = self.SELECT_RETURNS[:n_returns]
        args = (returns, sensor, ClutterModel(1e-9), BirthDeathConfig(beta=beta))
        full = build_matrix(self.SELECT_TRACKS, *args)
        assert n_returns == 0 or np.isneginf(full.log_entries[:, 2]).all()
        assert full.death_eligible == (beta > 0.0, beta > 0.0, beta > 0.0, False)
        got = full.select(cols)
        want = build_matrix([self.SELECT_TRACKS[j] for j in cols], *args)
        assert np.array_equal(got.log_entries, want.log_entries)
        assert got.object_labels == want.object_labels
        assert got.death_eligible == want.death_eligible
        assert got.supported == want.supported
        assert got.n_returns == want.n_returns

    @given(mat=sparse_matrices(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_select_supported_equals_a_fresh_derivation(self, mat, data):
        # Any distinct columns in any order, none included: the selected
        # matrix's support, derived from the taken entries, equals the one a
        # new matrix of the same entries derives.
        cols = data.draw(
            st.lists(st.integers(0, mat.n_objects - 1), unique=True) if mat.n_objects
            else st.just([])
        )
        got = mat.select(cols)
        fresh = AssociationMatrix(
            log_entries=got.log_entries,
            object_labels=got.object_labels,
            death_eligible=got.death_eligible,
        )
        assert got.supported == fresh.supported
        assert got.column_entries == fresh.column_entries
        assert got.log_entries.flags.c_contiguous

    def test_select_refuses_repeated_columns(self):
        mat = build_matrix(self.SELECT_TRACKS, self.SELECT_RETURNS, sensor_with(half=0.1),
                           ClutterModel(1e-9), BirthDeathConfig())
        with pytest.raises(ValueError, match="distinct columns"):
            mat.select([1, 1])

    @pytest.mark.parametrize("col", [-1, 2, 7], ids=["negative", "birth", "past-clutter"])
    def test_select_refuses_columns_outside_the_objects(self, col):
        # numpy would wrap -1 to the clutter column, and 2 is the birth column.
        mat = build_matrix(self.SELECT_TRACKS[:2], self.SELECT_RETURNS, sensor_with(half=0.1),
                           ClutterModel(1e-9), BirthDeathConfig())
        with pytest.raises(ValueError, match=r"object columns in 0\.\.1"):
            mat.select([col])


class TestBirthLikelihood:
    def test_uniform_inside(self):
        sensor = sensor_with()
        z = np.array([30000.0, 0.0])
        assert birth_likelihood(z, sensor) == pytest.approx(1.0 / sensor.fov_area)

    def test_zero_outside(self):
        sensor = sensor_with(half=0.1)
        assert birth_likelihood(np.array([0.0, 30000.0]), sensor) == 0.0
        assert birth_likelihood(np.array([9.0e4, 0.0]), sensor) == 0.0

    def test_integrates_to_one_by_quadrature(self):
        sensor = sensor_with(half=0.3, max_range=100.0)
        n_r, n_a = 4000, 400
        radii = (np.arange(n_r) + 0.5) * sensor.max_range / n_r
        angles = -0.3 + (np.arange(n_a) + 0.5) * 0.6 / n_a
        dr = sensor.max_range / n_r
        da = 0.6 / n_a
        total = 0.0
        density = 1.0 / sensor.fov_area
        for ang in angles:
            # 1/area * r dr dtheta over the wedge
            total += density * float(np.sum(radii)) * dr * da
        assert total == pytest.approx(1.0, abs=1e-6)


class TestHypothesisLikelihood:
    def _matrix(self):
        sensor = sensor_with()
        tracks = [track_at("t00", 30000.0, 0.0), track_at("t01", 30500.0, 200.0)]
        returns = np.array([[30002.0, 3.0], [30501.0, 200.0]])
        return (
            build_matrix(tracks, returns, sensor, ClutterModel(1e-9), BirthDeathConfig()),
            sensor,
        )

    def test_all_clutter(self):
        mat, _ = self._matrix()
        event = AssociationEvent(assignments=(CLUTTER, CLUTTER))
        assert hypothesis_log_likelihood(event, mat) == pytest.approx(2.0 * math.log(1e-9))

    def test_empty_product(self):
        sensor = sensor_with()
        mat = build_matrix(
            [track_at("t00", 30000.0, 0.0)], np.empty((0, 2)), sensor,
            uniform_clutter(sensor), BirthDeathConfig(),
        )
        event = AssociationEvent(assignments=())
        assert hypothesis_log_likelihood(event, mat) == 0.0

    def test_mixed_event_is_sum_of_entries(self):
        mat, _ = self._matrix()
        event = AssociationEvent(assignments=("t01", BIRTH))
        expected = mat.log_entries[0, 1] + mat.log_entries[1, mat.birth_col]
        assert hypothesis_log_likelihood(event, mat) == pytest.approx(expected)

    def test_permutation_invariance(self):
        sensor = sensor_with()
        tracks = [track_at("t00", 30000.0, 0.0), track_at("t01", 30500.0, 200.0)]
        returns = np.array([[30002.0, 3.0], [30501.0, 200.0]])
        mat = build_matrix(tracks, returns, sensor, ClutterModel(1e-9), BirthDeathConfig())
        swapped = build_matrix(tracks, returns[::-1].copy(), sensor, ClutterModel(1e-9), BirthDeathConfig())
        ev = AssociationEvent(assignments=("t00", "t01"))
        ev_swapped = AssociationEvent(assignments=("t01", "t00"))
        assert hypothesis_log_likelihood(ev, mat) == pytest.approx(
            hypothesis_log_likelihood(ev_swapped, swapped)
        )

    def test_zero_entry_gives_minus_inf_not_nan(self):
        sensor = sensor_with()
        tracks = [track_at("t00", 30000.0, 0.0)]
        returns = np.array([[30000.0, 0.0]])
        mat = build_matrix(tracks, returns, sensor, ClutterModel(0.0), BirthDeathConfig())
        event = AssociationEvent(assignments=(CLUTTER,))
        out = hypothesis_log_likelihood(event, mat)
        assert out == -math.inf and not math.isnan(out)

    def test_missing_column_raises(self):
        mat, _ = self._matrix()
        event = AssociationEvent(assignments=("ghost", CLUTTER))
        with pytest.raises(InvalidEventError):
            hypothesis_log_likelihood(event, mat)


class TestNewbornTrack:
    def test_position_block_is_measurement_noise(self):
        sensor = sensor_with()
        z = np.array([30000.0, 5.0])
        t = newborn_track("b0", z, sensor, mu=398600.4418)
        np.testing.assert_allclose(t.mean[:2], z)
        np.testing.assert_allclose(t.covariance[:2, :2], sensor.r)

    def test_velocity_prior_is_prograde_circular(self):
        sensor = sensor_with()
        z = np.array([30000.0, 0.0])
        mu = 398600.4418
        t = newborn_track("b0", z, sensor, mu=mu)
        speed = math.sqrt(mu / 30000.0)
        np.testing.assert_allclose(t.mean[2:], [0.0, speed], atol=1e-12)
        assert NEWBORN_VELOCITY_STD == 0.3
        assert t.covariance[2, 2] == t.covariance[3, 3] == NEWBORN_VELOCITY_STD ** 2


class TestCompareLikelihoodForms:
    def _setup(self, n_tracks, returns, cov_scale=1.0, p_d=0.9):
        sensor = sensor_with(p_d=p_d)
        tracks = []
        for i in range(n_tracks):
            cov = np.diag([2.0, 2.0, 0.01, 0.01]) * cov_scale
            tracks.append(
                GaussianTrack(f"t{i:02d}", np.array([30000.0 + 400.0 * i, 50.0 * i, 0.0, 3.0]), cov)
            )
        parent = Hypothesis(id="h0", parent_id=None, log_weight=0.0, tracks=tuple(tracks))
        mat = build_matrix(tracks, returns, sensor, ClutterModel(1e-9), BirthDeathConfig())
        return parent, mat, sensor

    @pytest.mark.parametrize("m,k", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_zero_covariance_limit_ratio(self, m, k):
        # With track covariances scaled to nothing, the marginal equals the
        # mean evaluation and the ratio reduces to the association-count
        # normalizer 1/(C(m,k) k!).
        returns = np.array(
            [[30000.0 + 400.0 * i + 0.5, 50.0 * i - 0.4] for i in range(m)]
        )
        parent, mat, sensor = self._setup(max(k, 1), returns, cov_scale=1e-8)
        assignments = [f"t{i:02d}" if i < k else CLUTTER for i in range(m)]
        event = AssociationEvent(assignments=tuple(assignments))
        eta_mean, eta_marginal = compare_likelihood_forms(event, parent, mat, returns, sensor)
        expected = 1.0 / (math.comb(m, k) * math.factorial(k))
        assert eta_marginal / eta_mean == pytest.approx(expected, rel=1e-6)

    def test_k_zero_ratio_is_one(self):
        returns = np.array([[30000.0, 10.0], [30100.0, -20.0]])
        parent, mat, sensor = self._setup(1, returns)
        event = AssociationEvent(assignments=(CLUTTER, CLUTTER))
        eta_mean, eta_marginal = compare_likelihood_forms(event, parent, mat, returns, sensor)
        assert eta_marginal == pytest.approx(eta_mean, rel=1e-12)

    def test_generic_marginal_below_mode(self):
        # With real covariance the marginal at the predicted position sits
        # below the mean-evaluated density, on top of the normalizer gap.
        returns = np.array([[30000.0, 0.0]])
        parent, mat, sensor = self._setup(1, returns, cov_scale=1.0)
        event = AssociationEvent(assignments=("t00",))
        eta_mean, eta_marginal = compare_likelihood_forms(event, parent, mat, returns, sensor)
        assert eta_marginal < eta_mean

    def test_rejects_birth_death_events(self):
        returns = np.array([[30000.0, 0.0]])
        parent, mat, sensor = self._setup(1, returns)
        with pytest.raises(InvalidEventError):
            compare_likelihood_forms(
                AssociationEvent(assignments=(BIRTH,)), parent, mat, returns, sensor
            )
        with pytest.raises(InvalidEventError):
            compare_likelihood_forms(
                AssociationEvent(assignments=(CLUTTER,), deaths=frozenset({"t00"})),
                parent, mat, returns, sensor,
            )

    def test_rejects_returns_the_matrix_was_not_built_from(self):
        returns = np.array([[30000.0, 0.0]])
        parent, mat, sensor = self._setup(1, returns)
        with pytest.raises(ValueError, match="returns the matrix was built from"):
            compare_likelihood_forms(
                AssociationEvent(assignments=("t00",)), parent, mat,
                np.vstack([returns, returns]), sensor,
            )
