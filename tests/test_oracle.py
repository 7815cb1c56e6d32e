"""Exhaustive enumeration checks: counts, exact posterior, TV distance."""

import hashlib
import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmctrack.errors import DegenerateUpdateError, EnumerationLimitError
from mcmctrack.filters import GaussianTrack, SensorModel
from mcmctrack import oracle
from mcmctrack.hypotheses import (
    BIRTH,
    CLUTTER,
    AssociationEvent,
    BirthDeathConfig,
    Hypothesis,
    count_associations,
    count_grandchildren,
    log_child_prior,
    log_count_prior,
)
from mcmctrack.likelihoods import (
    AssociationMatrix,
    ClutterModel,
    build_matrix,
    hypothesis_log_likelihood,
)
from mcmctrack.oracle import (
    _independent_log_score,
    enumerate_child_events,
    enumerate_child_keys,
    enumerate_grandchildren,
    exact_posterior,
    tv_distance,
)
from mcmctrack.sampler import (
    Kernel,
    _Walk,
    child_score_bounds,
    enumerate_children,
    prior_table,
)


def wide_sensor(p_d=0.9):
    return SensorModel(
        origin=np.zeros(2),
        boresight_angle=0.0,
        fov_half_angle=math.pi,
        r=np.eye(2),
        p_d=p_d,
        max_range=1.0e4,
    )


def hypothesis_with(positions, hid="h0"):
    tracks = tuple(
        GaussianTrack(f"t{i:02d}", np.array([x, y, 0.0, 0.0]), np.diag([4.0, 4.0, 0.1, 0.1]))
        for i, (x, y) in enumerate(positions)
    )
    return Hypothesis(id=hid, parent_id=None, log_weight=0.0, tracks=tracks)


def dense_matrix(labels, n_returns, death_eligible):
    """A matrix whose every entry is finite (log-likelihood 0)."""
    return AssociationMatrix(
        log_entries=np.zeros((n_returns, len(labels) + 2)),
        object_labels=tuple(labels),
        death_eligible=tuple(death_eligible),
    )


def sparse_instance():
    """t00 sits on the first two returns; t01 is ~70 sigma from every
    return, beyond the point where its Gaussian underflows to 0; t02 is
    outside the FOV, so it may not die although beta > 0. The third return
    is far from every track."""
    sensor = SensorModel(
        origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=0.1,
        r=np.eye(2), p_d=0.9, max_range=5.0e4,
    )
    parent = hypothesis_with([(30000.0, 0.0), (30000.0, 100.0), (0.0, 30000.0)])
    returns = np.array([[30001.0, 0.0], [30000.5, 1.0], [31000.0, -1000.0]])
    cfg = BirthDeathConfig(alpha=0.01, beta=0.02, n_pixels=2)
    mat = build_matrix(parent.tracks, returns, sensor, ClutterModel(1e-9), cfg)
    return parent, mat, cfg, sensor


class TestEnumerateGrandchildren:
    @pytest.mark.parametrize("n_objects", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_returns", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_pixels", [0, 1, 2, 3])
    def test_count_matches_formula(self, n_objects, n_returns, n_pixels):
        labels = [f"t{i:02d}" for i in range(n_objects)]
        events = enumerate_grandchildren(labels, n_returns, n_pixels)
        assert len(events) == count_grandchildren(n_objects, n_returns, n_pixels)
        assert len(set(events)) == len(events)

    def test_trivial_empty(self):
        events = enumerate_grandchildren([], 0, 0)
        assert len(events) == 1
        assert events[0].assignments == ()

    def test_hand_checkable_one_one_one(self):
        events = enumerate_grandchildren(["t00"], 1, 1)
        assert len(events) == 8
        keys = {
            (e.birth_pixels, e.deaths, e.assignments) for e in events
        }
        # survivor kept, no birth: z -> {t00, C}
        assert ((), (), ("t00",)) in keys
        assert ((), (), (CLUTTER,)) in keys
        # survivor dead, no birth: z -> C only
        assert ((), ("t00",), (CLUTTER,)) in keys
        # birth in the single pixel, survivor kept: z -> {t00, newborn, C}
        assert ((0,), (), (("b", 0),)) in keys
        assert ((0,), (), ("t00",)) in keys
        assert ((0,), (), (CLUTTER,)) in keys
        # birth plus death: z -> {newborn, C}
        assert ((0,), ("t00",), (("b", 0),)) in keys
        assert ((0,), ("t00",), (CLUTTER,)) in keys

    def test_no_deaths_slice_matches_association_count(self):
        events = enumerate_grandchildren(["t00", "t01"], 1, 0)
        per_death_subset = {}
        for e in events:
            per_death_subset.setdefault(e.deaths, []).append(e)
        assert len(per_death_subset[()]) == count_associations(2, 1) == 3

    def test_limit_enforced(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_EVENTS", 10)
        with pytest.raises(EnumerationLimitError):
            enumerate_grandchildren([f"t{i:02d}" for i in range(3)], 3, 3)
        with pytest.raises(EnumerationLimitError):
            enumerate_grandchildren([f"t{i:02d}" for i in range(9)], 1, 1)

    def test_refusal_follows_the_count_not_the_size(self, monkeypatch):
        # Nine labels exceed no budget when nothing can be associated or
        # born: only the 2^9 death subsets remain.
        labels = [f"t{i:02d}" for i in range(9)]
        count = count_grandchildren(9, 0, 0)
        assert count == 512
        assert len(enumerate_grandchildren(labels, 0, 0)) == count
        monkeypatch.setattr(oracle, "MAX_EVENTS", count - 1)
        with pytest.raises(EnumerationLimitError):
            enumerate_grandchildren(labels, 0, 0)
        monkeypatch.setattr(oracle, "MAX_EVENTS", count)
        assert len(enumerate_grandchildren(labels, 0, 0)) == count

    def test_oversized_instance_refused_before_building(self, monkeypatch):
        # 8 objects, 8 returns, 8 pixels: 608,619,069,440 events, refused up
        # front instead of after building MAX_EVENTS of them (with the real
        # budget that was about 1.5 GB of events).
        assert count_grandchildren(8, 8, 8) == 608_619_069_440
        monkeypatch.setattr(oracle, "MAX_EVENTS", 1000)
        with pytest.raises(EnumerationLimitError, match="refused"):
            enumerate_grandchildren([f"t{i:02d}" for i in range(8)], 8, 8)


def reference_child_events(matrix):
    """The label-walking enumerator enumerate_child_events replaced, kept as
    the reference: the same row-by-row walk over each return's supported
    columns, mapped to labels first."""
    m = matrix.n_returns
    labels = matrix.object_labels + (BIRTH, CLUTTER)
    columns = [[labels[j] for j in cols] for cols in matrix.supported]
    can_die = [lbl for lbl, ok in zip(matrix.object_labels, matrix.death_eligible) if ok]
    assignment = [CLUTTER] * m
    claimed = set()

    def walk(i):
        if i == m:
            free = [lbl for lbl in can_die if lbl not in claimed]
            for n_d in range(len(free) + 1):
                for death_set in combinations(free, n_d):
                    yield AssociationEvent(tuple(assignment), frozenset(death_set))
            return
        for entry in columns[i]:
            if entry in claimed:
                continue
            assignment[i] = entry
            is_object = entry != BIRTH and entry != CLUTTER
            if is_object:
                claimed.add(entry)
            yield from walk(i + 1)
            if is_object:
                claimed.remove(entry)

    return list(walk(0))


@st.composite
def sparse_matrices(draw):
    """0-5 objects, 0-4 returns, each entry -inf or one of a few finite
    values, random death flags."""
    n_objects = draw(st.integers(0, 5))
    n_returns = draw(st.integers(0, 4))
    values = st.sampled_from([-math.inf, -math.inf, 0.0, -1.5, 2.25])
    entries = [[draw(values) for _ in range(n_objects + 2)] for _ in range(n_returns)]
    return AssociationMatrix(
        log_entries=np.array(entries, dtype=float).reshape(n_returns, n_objects + 2),
        object_labels=tuple(f"t{i:02d}" for i in range(n_objects)),
        death_eligible=tuple(draw(st.lists(st.booleans(), min_size=n_objects,
                                           max_size=n_objects))),
    )


def reference_child_score_bounds(scan_matrix, cols_by_parent, birth_cfg, p_d):
    """child_score_bounds with one entries[:, cols] maximum and one sum of
    death flags per parent: the per-parent loop its padded index replaced."""
    if not cols_by_parent:
        return []
    m = scan_matrix.n_returns
    n_k = min(max(map(len, cols_by_parent)), m) + 1
    n_b = min(birth_cfg.n_pixels, m) + 1
    entries = scan_matrix.log_entries
    prior = np.empty((len(cols_by_parent), n_k, n_b))
    best = np.full((m, len(cols_by_parent)), -math.inf)
    for p, cols in enumerate(cols_by_parent):
        key = (len(cols), sum(scan_matrix.death_eligible[j] for j in cols))
        prior[p] = -math.inf
        for k, births in enumerate(prior_table(*key, m, birth_cfg, p_d)):
            cells = [max(deaths) for deaths in births[:n_b]]
            prior[p, k, :len(cells)] = cells
        if cols:
            best[:, p] = entries[:, cols].max(axis=1)
    dp = np.full((len(cols_by_parent), n_k, n_b), -math.inf)
    dp[:, 0, 0] = 0.0
    for obj, (birth, clutter) in zip(best[:, :, None, None], entries[:, scan_matrix.birth_col:]):
        new = dp + clutter
        np.maximum(new[:, 1:], dp[:, :-1] + obj, out=new[:, 1:])
        np.maximum(new[:, :, 1:], dp[:, :, :-1] + birth, out=new[:, :, 1:])
        dp = new
    return (prior + dp).max(axis=(1, 2)).tolist()


class TestChildScoreBounds:
    @given(
        mat=sparse_matrices(),
        data=st.data(),
        n_pixels=st.integers(1, 2),
        p_d=st.sampled_from([0.9, 1.0]),
        beta=st.sampled_from([0.0, 0.1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bound_is_at_least_every_enumerated_score(self, mat, data, n_pixels, p_d, beta):
        # mat is a scan-level matrix and each column list, empty or not, in
        # any order, one parent's columns of it, as the tracker passes them:
        # no child of a parent's selected matrix outscores its bound, and
        # permuting a parent's columns leaves its bound as it is.
        cols_by_parent = data.draw(st.lists(
            st.lists(st.integers(0, mat.n_objects - 1), unique=True) if mat.n_objects
            else st.just([]),
            min_size=1, max_size=3,
        ))
        permuted = [data.draw(st.permutations(cols)) for cols in cols_by_parent]
        cfg = BirthDeathConfig(alpha=0.05, beta=beta, n_pixels=n_pixels)
        bounds = child_score_bounds(mat, cols_by_parent, cfg, p_d)
        assert len(bounds) == len(cols_by_parent)
        assert child_score_bounds(mat, permuted, cfg, p_d) == bounds
        for cols, bound in zip(cols_by_parent, bounds):
            children = enumerate_children(Kernel(mat.select(cols), cfg, p_d))
            assert all(s.log_score <= bound for s in children)

    @given(
        mat=sparse_matrices(),
        data=st.data(),
        n_pixels=st.integers(1, 2),
        p_d=st.sampled_from([0.9, 1.0]),
        beta=st.sampled_from([0.0, 0.1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_match_per_parent_reference(self, mat, data, n_pixels, p_d, beta):
        cols_by_parent = data.draw(st.lists(
            st.lists(st.integers(0, mat.n_objects - 1), unique=True) if mat.n_objects
            else st.just([]),
            max_size=4,
        ))
        cfg = BirthDeathConfig(alpha=0.05, beta=beta, n_pixels=n_pixels)
        got = child_score_bounds(mat, cols_by_parent, cfg, p_d)
        want = reference_child_score_bounds(mat, cols_by_parent, cfg, p_d)
        assert [b.hex() for b in got] == [b.hex() for b in want]

    def test_bound_is_tight_without_conflicts(self):
        # One return, one object: the relaxation gives up nothing, so the
        # bound is the best child's score, bit for bit.
        mat = AssociationMatrix(
            log_entries=np.array([[0.5, -2.0, -3.0]]),
            object_labels=("t00",),
            death_eligible=(True,),
        )
        cfg = BirthDeathConfig(alpha=0.05, beta=0.1, n_pixels=1)
        best = max(s.log_score for s in enumerate_children(Kernel(mat, cfg, 0.9)))
        assert child_score_bounds(mat, [[0]], cfg, 0.9) == [best]
        assert child_score_bounds(mat, [], cfg, 0.9) == []


class TestEnumerateChildEvents:
    @given(
        mat=sparse_matrices(),
        n_pixels=st.integers(1, 2),
        p_d=st.sampled_from([0.9, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_enumerator_and_scoring(self, mat, n_pixels, p_d):
        # The column-key enumerator yields the reference's events in its
        # order, and enumerate_children scores each one log_count_prior +
        # likelihood bit for bit (-inf where the prior is zero).
        expected = reference_child_events(mat)
        assert list(enumerate_child_events(mat)) == expected
        cfg = BirthDeathConfig(alpha=0.05, beta=0.1, n_pixels=n_pixels)
        assert [s.log_score for s in enumerate_children(Kernel(mat, cfg, p_d))] == [
            log_count_prior(len(e.associated_labels), e.n_births, e.n_deaths,
                            mat.n_objects, mat.n_returns, cfg, p_d)
            + hypothesis_log_likelihood(e, mat)
            for e in expected
        ]

    def test_space_size_no_deaths(self):
        # Assignments with both returns over {t00, B, C} injective on t00,
        # no death candidates.
        events = list(enumerate_child_events(dense_matrix(["t00"], 2, [False])))
        # k=0: 2^2 birth/clutter fills; k=1: 2 slots * 2 fills.
        assert len(events) == 4 + 4
        assert len({e.canonical_key() for e in events}) == len(events)

    def test_deaths_only_over_unassociated_candidates(self):
        events = list(enumerate_child_events(dense_matrix(["t00", "t01"], 1, [True, True])))
        for e in events:
            assert not (e.deaths & set(e.associated_labels))
        # Death subsets appear for unclaimed objects.
        assert any(len(e.deaths) == 2 for e in events)
        assert any(e.deaths == frozenset({"t01"}) and e.assignments == ("t00",) for e in events)

    def test_zero_returns(self):
        events = list(enumerate_child_events(dense_matrix(["t00"], 0, [True])))
        keys = {e.canonical_key() for e in events}
        assert keys == {((), ()), ((), ("t00",))}

    def test_sparse_matrix_yields_exactly_the_supported_events(self):
        parent, mat, cfg, sensor = sparse_instance()
        assert mat.death_eligible == (True, True, False)
        assert np.isneginf(mat.log_entries[:, 1]).all()
        assert np.isfinite(mat.log_entries[:2, 0]).all()

        # Brute force: every column per row, injective on objects, deaths
        # over the unclaimed eligible objects, kept when the likelihood is
        # finite.
        expected = set()
        columns = list(parent.labels) + [BIRTH, CLUTTER]
        for assignment in product(columns, repeat=mat.n_returns):
            objects = [a for a in assignment if a not in (BIRTH, CLUTTER)]
            if len(set(objects)) != len(objects):
                continue
            free = [lbl for lbl in ("t00", "t01") if lbl not in objects]
            for n_d in range(len(free) + 1):
                for deaths in combinations(free, n_d):
                    event = AssociationEvent(assignment, frozenset(deaths))
                    if hypothesis_log_likelihood(event, mat) > -math.inf:
                        expected.add(event.canonical_key())

        keys = [e.canonical_key() for e in enumerate_child_events(mat)]
        assert len(keys) == len(set(keys))
        assert set(keys) == expected
        # Rows 0 and 1 take {t00, B, C}, row 2 takes {B, C}. With t00
        # unclaimed: 2 * 2 * 2 assignments times 4 death sets; with t00
        # claimed by one of the two rows: 2 * 2 * 2 times 2 death sets.
        assert len(keys) == 8 * 4 + 8 * 2

    def test_enumeration_job_scores_each_event_like_log_child_prior(self):
        # enumerate_children keeps the enumeration order, and each score is
        # log_child_prior + likelihood bit for bit.
        parent, mat, cfg, sensor = sparse_instance()
        samples = enumerate_children(Kernel(mat, cfg, sensor.p_d))
        assert [(s.event.canonical_key(), s.log_score) for s in samples] == [
            (
                e.canonical_key(),
                log_child_prior(e, parent, cfg, sensor.p_d, mat.n_returns)
                + hypothesis_log_likelihood(e, mat),
            )
            for e in enumerate_child_events(mat)
        ]
        assert all(s.visits == 0 for s in samples)

    def test_supported_pattern_is_the_finite_columns(self):
        parent, mat, cfg, sensor = sparse_instance()
        # Rows 0 and 1 take t00, birth and clutter; row 2 takes birth and
        # clutter.
        assert mat.supported == ((0, 3, 4), (0, 3, 4), (3, 4))
        for row, cols in zip(mat.log_entries, mat.supported):
            assert cols == tuple(j for j, v in enumerate(row) if math.isfinite(v))
        # The walk's random initial state draws only from that pattern (a
        # second draw of t00 resolves to clutter, which is supported too).
        for seed in range(50):
            kernel = Kernel(mat, cfg, sensor.p_d)
            walk = _Walk(kernel)
            walk.start(np.random.default_rng(seed))
            assign, deaths = kernel.keys[walk.sid]
            assert all(col in mat.supported[i] for i, col in enumerate(assign))
            # No selected zero-likelihood entry: the score is the prior plus
            # the finite sum rather than tally's -inf short cut.
            _, k, n_b, finite, score = kernel.tally((assign, deaths))
            assert score == kernel.prior[k][n_b][len(deaths)] + finite

    def test_budget_raises_on_the_event_past_it(self, monkeypatch):
        mat = dense_matrix(["t00"], 2, [False])  # eight supported events
        monkeypatch.setattr(oracle, "MAX_EVENTS", 5)
        events = enumerate_child_events(mat)
        for _ in range(5):
            next(events)
        with pytest.raises(EnumerationLimitError):
            next(events)
        monkeypatch.setattr(oracle, "MAX_EVENTS", 8)
        assert len(list(enumerate_child_events(mat))) == 8


def workload_instance(seed, i):
    """The i-th dense instance of a posterior benchmark pass at seed: n = 2
    tracks and returns for even i, 3 for odd, within 2 km of (100, 0), with
    the dense rates, clutter and wide sensor."""
    n = 2 + i % 2
    rng = np.random.default_rng([seed, i])
    centers = np.array([100.0, 0.0]) + rng.uniform(-2.0, 2.0, size=(n, 2))
    returns = centers + rng.standard_normal((n, 2))
    parent = hypothesis_with([tuple(c) for c in centers])
    cfg = BirthDeathConfig(alpha=0.05, beta=0.05, n_pixels=1)
    sensor = wide_sensor()
    return parent, build_matrix(parent.tracks, returns, sensor, ClutterModel(1e-3), cfg), cfg, sensor


def pinned_instances():
    """The instances whose exact posteriors TestExactPosterior pins: two
    dense ones of each size, the sparse one (t00 and t01 may die), and one
    track with two returns where n_pixels = 1 gives the two-birth key -inf."""
    one = hypothesis_with([(100.0, 0.0)])
    return {
        **{f"dense{i}": workload_instance(0, i) for i in range(4)},
        "sparse": sparse_instance(),
        "capped": (one, dense_matrix(["t00"], 2, [True]),
                   BirthDeathConfig(alpha=0.05, beta=0.05, n_pixels=1), wide_sensor()),
    }


def posterior_digest(post):
    """sha256 of the posterior's items in order, each value as float.hex."""
    items = [(key, value.hex()) for key, value in post.items()]
    return hashlib.sha256(repr(items).encode()).hexdigest()


class TestExactPosterior:
    def test_certain_association(self):
        # Single track, return at its predicted position, clutter density
        # zero, alpha = beta = 0: the association event takes all the mass.
        sensor = wide_sensor(p_d=1.0)
        parent = hypothesis_with([(100.0, 0.0)])
        returns = np.array([[100.0, 0.0]])
        cfg = BirthDeathConfig(alpha=0.0, beta=0.0, n_pixels=1)
        mat = build_matrix(parent.tracks, returns, sensor, ClutterModel(0.0), cfg)
        post = exact_posterior(parent, mat, cfg, sensor)
        key = AssociationEvent(assignments=("t00",)).canonical_key()
        assert post[key] == pytest.approx(1.0)
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_two_track_case(self):
        # Tracks mirror-imaged about the x axis, one return on the axis:
        # the two pairing events must carry equal weight.
        sensor = wide_sensor(p_d=0.9)
        parent = hypothesis_with([(100.0, 50.0), (100.0, -50.0)])
        returns = np.array([[100.0, 0.0]])
        cfg = BirthDeathConfig(alpha=0.01, beta=0.01, n_pixels=2)
        mat = build_matrix(parent.tracks, returns, sensor, ClutterModel(1e-8), cfg)
        post = exact_posterior(parent, mat, cfg, sensor)
        up = AssociationEvent(assignments=("t00",)).canonical_key()
        down = AssociationEvent(assignments=("t01",)).canonical_key()
        assert post[up] == pytest.approx(post[down], rel=1e-9)
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)

    def test_generic_weights_sum_to_one(self):
        rng = np.random.default_rng(17)
        sensor = wide_sensor(p_d=0.85)
        parent = hypothesis_with([(100.0, 20.0), (80.0, -30.0)])
        returns = rng.normal(size=(2, 2)) * 30.0 + np.array([90.0, 0.0])
        cfg = BirthDeathConfig(alpha=0.05, beta=0.05, n_pixels=2)
        mat = build_matrix(parent.tracks, returns, sensor, ClutterModel(1e-6), cfg)
        post = exact_posterior(parent, mat, cfg, sensor)
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)

    def test_matches_production_scoring(self):
        # The independent composition must agree with the production
        # child_prior * likelihood scoring on every event.
        sensor = wide_sensor(p_d=0.8)
        parent = hypothesis_with([(120.0, 10.0), (90.0, -40.0)])
        returns = np.array([[118.0, 12.0], [60.0, 70.0]])
        cfg = BirthDeathConfig(alpha=0.02, beta=0.03, n_pixels=3)
        mat = build_matrix(parent.tracks, returns, sensor, ClutterModel(1e-7), cfg)
        post = exact_posterior(parent, mat, cfg, sensor)
        scores = {}
        for event in enumerate_child_events(mat):
            s = log_child_prior(event, parent, cfg, sensor.p_d, 2) + hypothesis_log_likelihood(
                event, mat
            )
            scores[event.canonical_key()] = s
        top = max(scores.values())
        total = sum(math.exp(v - top) for v in scores.values())
        for key, value in post.items():
            expected = math.exp(scores[key] - top) / total
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_permutation_covariance(self):
        sensor = wide_sensor(p_d=0.9)
        pos = [(100.0, 30.0), (70.0, -50.0)]
        returns = np.array([[95.0, 25.0], [72.0, -45.0]])
        cfg = BirthDeathConfig(alpha=0.02, beta=0.02, n_pixels=1)
        parent_a = hypothesis_with(pos)
        parent_b = hypothesis_with(pos[::-1])  # labels swapped over positions
        mat_a = build_matrix(parent_a.tracks, returns, sensor, ClutterModel(1e-7), cfg)
        mat_b = build_matrix(parent_b.tracks, returns, sensor, ClutterModel(1e-7), cfg)
        post_a = exact_posterior(parent_a, mat_a, cfg, sensor)
        post_b = exact_posterior(parent_b, mat_b, cfg, sensor)
        swap = {"t00": "t01", "t01": "t00"}

        def relabel(key):
            assignments, deaths = key
            return (
                tuple(swap.get(a, a) for a in assignments),
                tuple(sorted(swap.get(d, d) for d in deaths)),
            )

        for key, value in post_a.items():
            assert post_b[relabel(key)] == pytest.approx(value, rel=1e-9, abs=1e-300)

    # posterior_digest of each pinned instance's exact_posterior, recorded
    # from one that built, validated and re-keyed an event per enumerated
    # key: these pin every key, their order and every value's bits.
    DIGESTS = {
        "dense0": "ed41ace1aa667990268c53e7262008851c4e3c7eea12c909491b4f7eabd6a23c",
        "dense1": "0583fc260b6af3519f849eaae4b82b3aec60366ffbc16939bf0caa00a78bf5bb",
        "dense2": "998931a82602dfbfd8f776876b814b01687ae0580e2363580f92a554b7e7209f",
        "dense3": "f6a5e6818c94111ff67fad347849d9352c2cb1dd7945fc769bbcf2ac28a15268",
        "sparse": "6d4d37f6e020bb8185689aec9a7c80fa8f56e5c69078f65cef25b8cbbd4d4a78",
        "capped": "b98a78fdc500eba2ccf79d62937f96332f503bf086b502975f1f5e8ed2758d33",
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_items_match_recorded_digest(self, name):
        parent, mat, cfg, sensor = pinned_instances()[name]
        post = exact_posterior(parent, mat, cfg, sensor)
        assert posterior_digest(post) == self.DIGESTS[name]

    def test_pinned_instances_cover_their_cases(self):
        # The sparse instance has keys with deaths, and the capped one a
        # key of zero mass (two births, one pixel).
        instances = pinned_instances()
        post = exact_posterior(*instances["sparse"])
        assert any(deaths for _, deaths in post)
        post = exact_posterior(*instances["capped"])
        assert post[(BIRTH, BIRTH), ()] == 0.0
        assert [instances[f"dense{i}"][1].n_returns for i in range(4)] == [2, 3, 2, 3]

    @given(
        mat=sparse_matrices(),
        n_pixels=st.integers(1, 2),
        p_d=st.sampled_from([0.9, 1.0]),
        beta=st.sampled_from([0.0, 0.1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_event_score_is_the_key_score(self, mat, n_pixels, p_d, beta):
        # _independent_log_score maps each enumerated event back to its key
        # and scores it with the one key scorer, bit for bit.
        cfg = BirthDeathConfig(alpha=0.05, beta=beta, n_pixels=n_pixels)
        sensor = wide_sensor(p_d)
        score = oracle._key_scorer(mat, cfg, sensor, mat.n_objects)
        for key in enumerate_child_keys(mat):
            got = _independent_log_score(mat.event_of(key), mat, cfg, sensor, mat.n_objects)
            assert got.hex() == score(key).hex()

    def test_all_zero_mass_degenerate(self):
        sensor = wide_sensor(p_d=1.0)
        parent = hypothesis_with([(100.0, 0.0)])
        # Return far enough that the Gaussian underflows to 0, clutter zero,
        # births zero: nothing can explain the return.
        returns = np.array([[100.0, 9000.0]])
        cfg = BirthDeathConfig(alpha=0.0, beta=0.0, n_pixels=1)
        mat = build_matrix(parent.tracks, returns, sensor, ClutterModel(0.0), cfg)
        with pytest.raises(DegenerateUpdateError):
            exact_posterior(parent, mat, cfg, sensor)

    def test_no_supported_event_is_degenerate(self):
        # The return lies outside the FOV, far from the track, and clutter
        # density is zero: its row has no finite column.
        sensor = SensorModel(
            origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=0.1,
            r=np.eye(2), p_d=0.9, max_range=5.0e4,
        )
        parent = hypothesis_with([(30000.0, 0.0)])
        cfg = BirthDeathConfig(alpha=0.05, beta=0.05, n_pixels=1)
        mat = build_matrix(
            parent.tracks, np.array([[0.0, 30000.0]]), sensor, ClutterModel(0.0), cfg
        )
        assert np.isneginf(mat.log_entries).all()
        assert list(enumerate_child_events(mat)) == []
        with pytest.raises(DegenerateUpdateError):
            exact_posterior(parent, mat, cfg, sensor)

    def test_event_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_EVENTS", 3)
        parent = hypothesis_with([(100.0, 0.0)])
        cfg = BirthDeathConfig(alpha=0.05, beta=0.05, n_pixels=1)
        with pytest.raises(EnumerationLimitError):
            exact_posterior(parent, dense_matrix(["t00"], 1, [True]), cfg, wide_sensor())


class TestTvDistance:
    def test_identical(self):
        p = {"a": 0.5, "b": 0.5}
        assert tv_distance(p, dict(p)) == 0.0

    def test_disjoint(self):
        assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1.0

    def test_arithmetic(self):
        assert tv_distance({"a": 0.6, "b": 0.4}, {"a": 0.5, "b": 0.5}) == pytest.approx(0.1)

    def test_key_order_moves_no_bit(self):
        # Summed from the largest term, 1 + 2**-53 + 2**-53 rounds to 1;
        # from the smallest, to 1 + 2**-52. The exact sum is the latter.
        terms = {"a": 1.0, "b": 2.0**-53, "c": 2.0**-53}
        for order in (["a", "b", "c"], ["c", "b", "a"], ["b", "a", "c"]):
            p = {k: terms[k] for k in order}
            assert tv_distance(p, {}).hex() == (0.5 + 2.0**-53).hex()
            assert tv_distance({}, p).hex() == (0.5 + 2.0**-53).hex()
