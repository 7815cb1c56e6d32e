"""Counting, the transition prior, joint normalization, and pruning."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcmctrack.errors import ConfigError, DegenerateUpdateError, InvalidEventError
from mcmctrack.filters import GaussianTrack
from mcmctrack.hypotheses import (
    BIRTH,
    CLUTTER,
    AssociationEvent,
    BirthDeathConfig,
    Candidate,
    Hypothesis,
    count_associations,
    count_grandchildren,
    count_grandchildren_by_net_change,
    log_child_prior,
    log_count_prior,
    prune,
    weight_entropy,
)


def make_hypothesis(n_tracks, hid="h0", log_weight=0.0):
    tracks = tuple(
        GaussianTrack(f"t{i:02d}", np.array([1.0e4 + i, 0.0, 0.0, 3.0]), np.eye(4))
        for i in range(n_tracks)
    )
    return Hypothesis(id=hid, parent_id=None, log_weight=log_weight, tracks=tracks)


def grandchildren_double_sum(n_objects, n_returns, n_pixels, allow_births, allow_deaths):
    """Reference count, term by term: sum over birth count n_b and death
    count n_d of C(N, n_b) C(M, n_d) A(M + n_b - n_d, m). A disallowed kind
    keeps only its zero term."""
    return sum(
        math.comb(n_pixels, n_b) * math.comb(n_objects, n_d)
        * count_associations(n_objects + n_b - n_d, n_returns)
        for n_b in range(n_pixels + 1 if allow_births else 1)
        for n_d in range(n_objects + 1 if allow_deaths else 1)
    )


class TestCounts:
    def test_paper_value(self):
        assert count_associations(10, 5) == 63591

    def test_trivial_edges(self):
        assert count_associations(0, 7) == 1
        assert count_associations(7, 0) == 1
        assert count_associations(0, 0) == 1

    def test_two_objects_one_return_by_enumeration(self):
        # {z->C}, {z->T1}, {z->T2}
        assert count_associations(2, 1) == 3

    def test_grandchildren_trivial(self):
        assert count_grandchildren(0, 0, 0) == 1

    def test_grandchildren_exceeds_billion_at_sixty(self):
        assert count_grandchildren(60, 10, 60) > 10**9

    def test_grandchildren_memoized(self):
        # Memoized on its arguments: a repeated call is a cache hit and
        # returns the formula's value; bad counts still raise.
        count_grandchildren.cache_clear()
        first = count_grandchildren(7, 5, 0)
        assert first == count_grandchildren(7, 5, 0)
        assert first == count_grandchildren.__wrapped__(7, 5, 0)
        info = count_grandchildren.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        with pytest.raises(ValueError):
            count_grandchildren(-1, 0, 0)

    def test_grandchildren_gating(self):
        assert count_grandchildren(10, 5, 0, allow_deaths=False) == 63591
        # No births is no pixels.
        assert count_grandchildren(3, 2, 0, allow_deaths=False) == count_associations(3, 2)

    @pytest.mark.parametrize("allow_births", [True, False])
    @pytest.mark.parametrize("allow_deaths", [True, False])
    def test_grandchildren_closed_form_equals_double_sum(self, allow_births, allow_deaths):
        grid = [(m_obj, m_ret, n_pix)
                for m_obj in range(13) for m_ret in range(9) for n_pix in range(11)]
        for m_obj, m_ret, n_pix in grid + [(60, 12, 60), (63, 20, 60), (60, 40, 60)]:
            closed = count_grandchildren(
                m_obj, m_ret, n_pix if allow_births else 0, allow_deaths=allow_deaths)
            assert closed == grandchildren_double_sum(
                m_obj, m_ret, n_pix, allow_births, allow_deaths)

    def test_net_change_formula_overshoots_by_known_terms(self):
        # The grouped formula re-adds the net 0 and net +1 groups.
        for m_objects, m_returns, n_pixels in [(1, 1, 1), (2, 2, 1), (2, 1, 3), (3, 3, 2)]:
            direct = count_grandchildren(m_objects, m_returns, n_pixels)
            grouped = count_grandchildren_by_net_change(m_objects, m_returns, n_pixels)
            net0 = sum(
                math.comb(n_pixels, j) * math.comb(m_objects, j)
                for j in range(min(n_pixels, m_objects) + 1)
            ) * count_associations(m_objects, m_returns)
            net1 = sum(
                math.comb(n_pixels, 1 + j) * math.comb(m_objects, j)
                for j in range(n_pixels + 1)
            ) * count_associations(m_objects + 1, m_returns)
            assert grouped == direct + net0 + net1


def assoc_prior(n_objects, n_returns, k, p_d):
    """Linear association prior of one data association with k matches (no
    births or deaths, so the birth/death rates do not enter)."""
    cfg = BirthDeathConfig(alpha=0.5, beta=0.5, n_pixels=1)
    return math.exp(log_count_prior(k, 0, 0, n_objects, n_returns, cfg, p_d))


class TestAssociationPrior:
    def test_worked_example(self):
        assert assoc_prior(2, 2, 2, p_d=0.9) == pytest.approx(0.405)
        # Mass over all children: 2 full matches, 4 single matches, 1 none.
        total = 2 * 0.405 + 4 * assoc_prior(2, 2, 1, 0.9) + assoc_prior(2, 2, 0, 0.9)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_certain_detection(self):
        m_objects, m_returns = 3, 5
        assert assoc_prior(m_objects, m_returns, 3, p_d=1.0) == pytest.approx(
            1.0 / (math.comb(5, 3) * math.factorial(3))
        )
        # With p_d = 1 a missed detection has zero mass.
        assert assoc_prior(m_objects, m_returns, 2, p_d=1.0) == 0.0

    def test_zero_detection(self):
        assert assoc_prior(4, 2, 0, p_d=0.0) == 1.0
        assert assoc_prior(4, 2, 1, p_d=0.0) == 0.0

    def test_out_of_range_k(self):
        cfg = BirthDeathConfig()
        with pytest.raises(InvalidEventError):
            log_count_prior(3, 0, 0, 2, 2, cfg, 0.5)  # k > M
        with pytest.raises(InvalidEventError):
            log_count_prior(2, 0, 0, 3, 1, cfg, 0.5)  # k > m
        with pytest.raises(InvalidEventError):
            log_count_prior(-1, 0, 0, 2, 2, cfg, 0.5)
        # A death shrinks the child: one object left cannot take two returns.
        with pytest.raises(InvalidEventError):
            log_count_prior(2, 0, 1, 2, 2, cfg, 0.5)

    @pytest.mark.parametrize("m_objects", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("m_returns", [0, 1, 2, 3, 4, 5, 6])
    def test_normalization_exact_by_fractions(self, m_objects, m_returns):
        """Sum over all enumerated associations is exactly 1 when m >= M and
        exactly the truncated binomial sum when m < M (Fraction arithmetic);
        the log prior matches each exact per-association prior."""
        p_d = Fraction(9, 10)
        total = Fraction(0)
        for k in range(min(m_objects, m_returns) + 1):
            n_events = (
                math.comb(m_objects, k) * math.comb(m_returns, k) * math.factorial(k)
            )
            prior = (
                p_d**k
                * (1 - p_d) ** (m_objects - k)
                / (math.comb(m_returns, k) * math.factorial(k))
            )
            assert assoc_prior(m_objects, m_returns, k, 0.9) == pytest.approx(
                float(prior), rel=1e-12
            )
            total += n_events * prior
        expected = sum(
            Fraction(math.comb(m_objects, k)) * p_d**k * (1 - p_d) ** (m_objects - k)
            for k in range(min(m_objects, m_returns) + 1)
        )
        assert total == expected
        if m_returns >= m_objects:
            assert total == 1

    def test_log_matches_linear(self):
        cfg = BirthDeathConfig(alpha=0.05, beta=0.2, n_pixels=6)
        for k in range(3):
            for n_b in range(3):
                for n_d in range(2):
                    m_child = 3 + n_b - n_d
                    lin = (
                        0.05**n_b * 0.2**n_d * 0.7**k * 0.3 ** (m_child - k)
                        / (math.comb(4, k) * math.factorial(k))
                    )
                    log = log_count_prior(k, n_b, n_d, 3, 4, cfg, 0.7)
                    assert math.exp(log) == pytest.approx(lin, rel=1e-12)


class TestBirthDeathPrior:
    # p_d = 0 with no returns leaves only the birth/death instance factor.

    def test_raw_arithmetic(self):
        cfg = BirthDeathConfig(alpha=0.01, beta=0.02, n_pixels=10)
        assert math.exp(log_count_prior(0, 1, 1, 5, 0, cfg, 0.0)) == pytest.approx(2e-4)

    def test_raw_empty_is_one(self):
        cfg = BirthDeathConfig(alpha=0.3, beta=0.4, n_pixels=4)
        assert log_count_prior(0, 0, 0, 3, 0, cfg, 0.0) == 0.0

    def test_out_of_range(self):
        cfg = BirthDeathConfig(alpha=0.1, beta=0.1, n_pixels=2)
        with pytest.raises(InvalidEventError):
            log_count_prior(0, -1, 0, 1, 0, cfg, 0.0)
        with pytest.raises(InvalidEventError):
            log_count_prior(0, 0, 2, 1, 0, cfg, 0.0)
        # More births than pixels is possible but carries no mass.
        assert log_count_prior(0, 3, 0, 1, 0, cfg, 0.0) == -math.inf

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BirthDeathConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            BirthDeathConfig(n_pixels=0)


class TestChildPrior:
    def test_all_clutter_event(self):
        parent = make_hypothesis(3)
        cfg = BirthDeathConfig(alpha=0.05, beta=0.1, n_pixels=4)
        event = AssociationEvent(assignments=(CLUTTER, CLUTTER))
        expected = (1.0 - 0.9) ** 3
        log = log_child_prior(event, parent, cfg, p_d=0.9, n_returns=2)
        assert math.exp(log) == pytest.approx(expected, rel=1e-12)

    def test_birth_changes_child_count(self):
        parent = make_hypothesis(1)
        cfg = BirthDeathConfig(alpha=0.01, beta=0.02, n_pixels=4)
        event = AssociationEvent(assignments=("t00", BIRTH))
        # One birth: child has 2 objects, 1 associated.
        expected = 0.01 * 0.9 * 0.1 / (math.comb(2, 1) * 1)
        log = log_child_prior(event, parent, cfg, p_d=0.9, n_returns=2)
        assert math.exp(log) == pytest.approx(expected, rel=1e-12)
        assert log == log_count_prior(1, 1, 0, 1, 2, cfg, 0.9)

    def test_death_event(self):
        parent = make_hypothesis(2)
        cfg = BirthDeathConfig(alpha=0.01, beta=0.02, n_pixels=4)
        event = AssociationEvent(assignments=(CLUTTER,), deaths=frozenset({"t01"}))
        # One death: child has 1 object, missed.
        expected = 0.02 * 0.1
        log = log_child_prior(event, parent, cfg, p_d=0.9, n_returns=1)
        assert math.exp(log) == pytest.approx(expected, rel=1e-12)

    def test_dead_object_in_assignments_rejected(self):
        with pytest.raises(InvalidEventError):
            AssociationEvent(assignments=("t00",), deaths=frozenset({"t00"}))

    def test_unknown_label_rejected(self):
        parent = make_hypothesis(1)
        cfg = BirthDeathConfig()
        with pytest.raises(InvalidEventError):
            log_child_prior(AssociationEvent(assignments=("nope",)), parent, cfg, 0.9, 1)
        with pytest.raises(InvalidEventError):
            log_child_prior(
                AssociationEvent(assignments=(CLUTTER,), deaths=frozenset({"nope"})),
                parent, cfg, 0.9, 1,
            )
        with pytest.raises(InvalidEventError):
            # Assignment count must match the return count.
            log_child_prior(AssociationEvent(assignments=(CLUTTER,)), parent, cfg, 0.9, 2)

    def test_more_births_than_pixels_is_zero_mass(self):
        parent = make_hypothesis(0)
        cfg = BirthDeathConfig(alpha=0.5, beta=0.5, n_pixels=1)
        event = AssociationEvent(assignments=(BIRTH, BIRTH))
        assert log_child_prior(event, parent, cfg, 0.9, 2) == -math.inf


def candidates(log_weights):
    """One candidate per log weight, parent ids c0, c1, ... and the same
    empty event, so ties fall back to the parent id."""
    event = AssociationEvent(assignments=())
    return [Candidate(f"c{i}", (), event, w) for i, w in enumerate(log_weights)]


def weights_of(kept):
    return [math.exp(c.log_weight) for c in kept]


class TestBayesUpdate:
    """Joint posterior normalization of (prior weight, likelihood) scores,
    as prune does it when it keeps every candidate."""

    def _posterior(self, pairs):
        """Posterior weights w*l / sum(w*l) of (prior weight, likelihood)
        pairs, in input order."""
        logs = [
            math.log(w) + math.log(lik) if w > 0.0 and lik > 0.0 else -math.inf
            for w, lik in pairs
        ]
        by_id = {
            c.parent_id: math.exp(c.log_weight)
            for c in prune(candidates(logs), len(pairs))
        }
        return [by_id.get(f"c{i}", 0.0) for i in range(len(pairs))]

    def test_spec_example(self):
        out = self._posterior([(0.5, 0.2), (0.5, 0.8)])
        assert out == pytest.approx([0.2, 0.8], abs=1e-15)

    def test_equal_likelihoods_leave_weights(self):
        out = self._posterior([(0.3, 5.0), (0.7, 5.0)])
        assert out == pytest.approx([0.3, 0.7], abs=1e-15)

    def test_matches_direct_normalization(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.1, 1.0, size=10)
        w /= w.sum()
        lik = rng.uniform(1e-6, 1.0, size=10)
        out = self._posterior(list(zip(w, lik)))
        direct = (w * lik) / (w * lik).sum()
        np.testing.assert_allclose(out, direct, atol=1e-12)
        assert math.fsum(out) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateUpdateError):
            self._posterior([(0.5, 0.0), (0.5, 0.0)])

    def test_extreme_log_scores_stable(self):
        # exp(-1000) underflows to zero in linear space; the log-space path
        # with max subtraction must still recover the exact ratio.
        kept = prune(candidates([-1000.0, -1000.0 + math.log(3.0)]), 2)
        assert [c.parent_id for c in kept] == ["c1", "c0"]
        assert weights_of(kept) == pytest.approx([0.75, 0.25], abs=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-3, max_value=1.0),
                st.floats(min_value=1e-6, max_value=1e3),
            ),
            min_size=2,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_sum_and_ratio_properties(self, pairs):
        out = self._posterior(pairs)
        assert math.fsum(out) == pytest.approx(1.0, abs=1e-12)
        (w_a, l_a), (w_b, l_b) = pairs[0], pairs[1]
        if out[1] > 1e-12:
            assert out[0] / out[1] == pytest.approx((w_a * l_a) / (w_b * l_b), rel=1e-9)


class TestPrune:
    def _cands(self, weights):
        return candidates([math.log(w) for w in weights])

    def test_identity_when_small(self):
        out = prune(self._cands([0.5, 0.3, 0.2]), 3)
        assert [c.parent_id for c in out] == ["c0", "c1", "c2"]
        assert math.fsum(weights_of(out)) == pytest.approx(1.0, abs=1e-12)

    def test_top_k_renormalizes(self):
        out = prune(self._cands([0.7, 0.2, 0.1]), 2)
        assert [c.parent_id for c in out] == ["c0", "c1"]
        assert weights_of(out) == pytest.approx([0.7 / 0.9, 0.2 / 0.9], abs=1e-12)

    def test_top_k_never_grows_and_preserves_order(self):
        out = prune(self._cands([0.05, 0.5, 0.25, 0.2]), 3)
        assert len(out) == 3
        weights = weights_of(out)
        assert weights == sorted(weights, reverse=True)

    def test_tie_break_by_id(self):
        out = prune(self._cands([0.25, 0.25, 0.25, 0.25]), 2)
        assert [c.parent_id for c in out] == ["c0", "c1"]

    def test_tie_break_by_event_within_parent(self):
        events = [
            AssociationEvent(assignments=(CLUTTER,)),
            AssociationEvent(assignments=(BIRTH,)),
            AssociationEvent(assignments=("t00",)),
        ]
        cands = [Candidate("c0", (), e, math.log(1 / 3)) for e in events]
        out = prune(cands, 3)
        assert [c.event for c in out] == sorted(events, key=AssociationEvent.canonical_key)

    def test_zero_mass_candidates_dropped(self):
        out = prune(candidates([math.log(0.6), -math.inf, math.log(0.4)]), 5)
        assert [c.parent_id for c in out] == ["c0", "c2"]
        assert weights_of(out) == pytest.approx([0.6, 0.4], abs=1e-12)

    def test_weights_relative_to_all_finite_then_renormalized(self):
        # The truncated candidate's mass does not count: the kept set is
        # normalized on its own.
        out = prune(self._cands([0.6, 0.3, 0.1]), 2)
        assert weights_of(out) == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
        assert all(c.log_weight <= 0.0 for c in out)

    def test_h_inf_validated(self):
        with pytest.raises(ConfigError):
            prune(self._cands([1.0]), 0)

    @given(
        log_weights=st.lists(
            st.one_of(st.floats(min_value=-50.0, max_value=5.0), st.just(-math.inf)),
            min_size=1, max_size=12,
        ),
        h_inf=st.integers(1, 6),
        gaps=st.lists(
            st.one_of(st.floats(min_value=1e-12, max_value=20.0), st.just(math.inf)),
            max_size=6,
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_lighter_candidates_change_no_bit(self, log_weights, h_inf, gaps, data):
        # The output depends only on the kept set: candidates strictly
        # lighter than the h_inf-th kept one, inserted anywhere in the
        # input, leave it bit for bit.
        finite = [w for w in log_weights if w > -math.inf]
        assume(len(finite) >= h_inf)
        cands = candidates(log_weights)
        kept = prune(cands, h_inf)
        floor = kept[-1].parent_id
        lightest = next(c.log_weight for c in cands if c.parent_id == floor)
        event = AssociationEvent(assignments=())
        extra = [Candidate(f"x{i}", (), event, lightest - gap) for i, gap in enumerate(gaps)]
        assume(all(c.log_weight < lightest for c in extra))
        mixed = list(cands)
        for c in extra:
            mixed.insert(data.draw(st.integers(0, len(mixed))), c)

        def bits(out):
            return [(c.parent_id, c.event, c.log_weight.hex()) for c in out]

        assert bits(prune(mixed, h_inf)) == bits(kept)


class TestHypothesisType:
    def test_duplicate_labels_rejected(self):
        tracks = (
            GaussianTrack("t00", np.array([1e4, 0, 0, 3.0]), np.eye(4)),
            GaussianTrack("t00", np.array([2e4, 0, 0, 3.0]), np.eye(4)),
        )
        with pytest.raises(InvalidEventError):
            Hypothesis(id="h0", parent_id=None, log_weight=0.0, tracks=tracks)

    def test_entropy_of_uniform(self):
        hyps = [
            make_hypothesis(1, hid=f"h{i}", log_weight=math.log(0.25)) for i in range(4)
        ]
        assert weight_entropy(hyps) == pytest.approx(math.log(4.0))

    def test_event_duplicate_object_rejected(self):
        with pytest.raises(InvalidEventError):
            AssociationEvent(assignments=("t00", "t00"))

    def test_event_allows_repeated_birth_and_clutter(self):
        ev = AssociationEvent(assignments=(BIRTH, BIRTH, CLUTTER, CLUTTER))
        assert ev.n_births == 2
