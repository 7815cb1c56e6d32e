"""Metropolis walk: proposal rules, acceptance, dedup, oracle agreement."""

import math
import pickle
import random
import sys
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from mcmctrack.filters import GaussianTrack, SensorModel
from mcmctrack.hypotheses import (
    BIRTH,
    CLUTTER,
    AssociationEvent,
    BirthDeathConfig,
    Hypothesis,
    log_child_prior,
    log_count_prior,
)
from mcmctrack.likelihoods import ClutterModel, build_matrix, hypothesis_log_likelihood
from mcmctrack.oracle import enumerate_child_events, exact_posterior, tv_distance
from mcmctrack.sampler import (
    ChildJob,
    SamplerConfig,
    _Chain,
    job_children,
    sample_children,
    visit_distribution,
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


def make_instance(positions, returns, p_d=0.9, alpha=0.05, beta=0.05, n_pixels=1,
                  clutter_density=None):
    sensor = wide_sensor(p_d)
    tracks = tuple(
        GaussianTrack(f"t{i:02d}", np.array([x, y, 0.0, 0.0]), np.diag([4.0, 4.0, 0.1, 0.1]))
        for i, (x, y) in enumerate(positions)
    )
    parent = Hypothesis(id="h0", parent_id=None, log_weight=0.0, tracks=tracks)
    cfg = BirthDeathConfig(alpha=alpha, beta=beta, n_pixels=n_pixels)
    density = clutter_density if clutter_density is not None else 1.0 / sensor.fov_area
    matrix = build_matrix(
        tracks, np.asarray(returns, dtype=float).reshape(-1, 2), sensor,
        ClutterModel(density), cfg,
    )
    return parent, matrix, cfg, sensor


def key_of(matrix, event):
    """event's column key in matrix: (per-return columns, death columns)."""
    return (
        tuple(matrix.column_of(a) for a in event.assignments),
        tuple(sorted(matrix.column_of(d) for d in event.deaths)),
    )


def walk_for(matrix, cfg, sensor):
    """_Chain over one instance, awaiting only (rng, event=None): started
    from rng, or loaded with event and drawing from rng."""

    def walk(rng, event=None):
        chain = _Chain(matrix, cfg, sensor.p_d)
        if event is None:
            chain.start(rng)
        else:
            chain.load(key_of(matrix, event))
            chain.rng = rng
        return chain

    return walk


def make_walk(positions, returns, **kwargs):
    parent, matrix, cfg, sensor = make_instance(positions, returns, **kwargs)
    return parent, walk_for(matrix, cfg, sensor)


class _ScriptRng:
    """Stand-in for the walk's rng at its seam. getrandbits(bits) pops the
    next scripted (value, bound) pair and checks that the walk asked for
    bound.bit_length() bits, as randrange(bound) would; random() returns u
    (0.0 by default, which accepts every finite candidate) and counts its
    calls."""

    def __init__(self, script, u=0.0):
        self.script = list(script)
        self.u = u
        self.uniforms = 0

    def getrandbits(self, bits):
        value, bound = self.script.pop(0)
        assert bits == bound.bit_length()
        return value

    def random(self):
        self.uniforms += 1
        return self.u


def loaded(walk, event, script=(), u=0.0):
    """walk's chain loaded with event, drawing from a _ScriptRng."""
    return walk(_ScriptRng(script, u), event)


def scripted(walk, event, script, u=0.0):
    """The chain loaded with event after one run(1) that consumes exactly
    script."""
    chain = loaded(walk, event, script, u)
    chain.run(1)
    assert chain.rng.script == []
    return chain


def draw_paths(chain):
    """Every integer-draw script of one step from chain's state, with its
    probability: a row out of m+1, then one of the M+1 other columns, or a
    member of the unclaimed death-eligible pool (no draw when it is empty)."""
    m, n_objects = chain.m, chain.n_objects
    pool = [j for j, ok in enumerate(chain.matrix.death_eligible)
            if ok and j not in chain.assign]
    for row in range(m):
        for col in range(n_objects + 1):
            yield [(row, m + 1), (col, n_objects + 1)], 1.0 / ((m + 1) * (n_objects + 1))
    if pool:
        for r in range(len(pool)):
            yield [(m, m + 1), (r, len(pool))], 1.0 / ((m + 1) * len(pool))
    else:
        yield [(m, m + 1)], 1.0 / (m + 1)


def scripted_proposals(walk, event):
    """Every outcome of one run(1) from event with every finite candidate
    accepted: yields (chain after the step, probability of its draws). The
    chain stays at event on a no-change proposal and on a zero-mass
    candidate from a supported state."""
    for script, prob in draw_paths(loaded(walk, event)):
        yield scripted(walk, event, script), prob


def proposal_support(walk, event):
    """All events one accepted proposal away from event (itself included
    when some step leaves the state unchanged)."""
    return {chain.event().canonical_key() for chain, _ in scripted_proposals(walk, event)}


class TestInitChain:
    def test_deterministic_given_seed(self):
        parent, walk = make_walk(
            [(100.0, 0.0), (50.0, 60.0)], [[99.0, 1.0], [52.0, 58.0]]
        )
        a = walk(random.Random(7))
        b = walk(random.Random(7))
        assert a.event() == b.event()
        assert a.log_score == b.log_score

    def test_zero_returns(self):
        parent, matrix, cfg, sensor = make_instance([(100.0, 0.0)], np.empty((0, 2)))
        chain = _Chain(matrix, cfg, sensor.p_d)
        chain.start(random.Random(0))
        assert chain.event().assignments == ()
        assert chain.event().deaths == frozenset()
        expected = log_child_prior(chain.event(), parent, cfg, sensor.p_d, 0)
        assert chain.log_score == pytest.approx(expected, rel=1e-12)

    def test_no_objects_only_birth_or_clutter(self):
        parent, walk = make_walk([], [[10.0, 0.0], [20.0, 5.0]])
        for seed in range(20):
            chain = walk(random.Random(seed))
            assert all(a in (BIRTH, CLUTTER) for a in chain.event().assignments)

    def test_no_duplicate_claims_and_empty_deaths(self):
        parent, walk = make_walk(
            [(100.0, 0.0)], [[99.0, 1.0], [101.0, -1.0], [100.0, 0.5]]
        )
        for seed in range(50):
            event = walk(random.Random(seed)).event()
            objs = event.associated_labels
            assert len(objs) == len(set(objs))
            assert event.deaths == frozenset()

    def test_loaded_event_scored_from_scratch(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0), (50.0, 60.0), (0.0, -80.0)],
            [[99.0, 1.0], [52.0, 58.0]],
        )
        event = AssociationEvent(assignments=(BIRTH, "t01"), deaths=frozenset({"t02"}))
        chain = _Chain(matrix, cfg, sensor.p_d)
        chain.load(key_of(matrix, event))
        assert chain.event() == event
        assert (chain.k, chain.n_b) == (1, 1)
        expected = log_child_prior(event, parent, cfg, sensor.p_d, 2) + (
            hypothesis_log_likelihood(event, matrix)
        )
        assert chain.log_score == pytest.approx(expected, rel=1e-12)


class TestPropose:
    def test_support_for_one_track_one_return(self):
        parent, walk = make_walk([(100.0, 0.0)], [[99.0, 1.0]])
        event = AssociationEvent(assignments=("t00",))
        # From {z->t00}: reassign z to B or C; no unassociated object, so the
        # death row proposes no change.
        expected = {
            AssociationEvent(assignments=(BIRTH,)).canonical_key(),
            AssociationEvent(assignments=(CLUTTER,)).canonical_key(),
            event.canonical_key(),
        }
        assert proposal_support(walk, event) == expected

    # Three tracks, two returns; z1 holds t02 and z0 proposes t02. A swap
    # hands z0's old column to z1 (a bump would send z1 to clutter whatever
    # z0 held), so the counts of associations and births keep.
    @pytest.mark.parametrize("old,choice", [
        pytest.param(CLUTTER, 2, id="clutter"),
        pytest.param(BIRTH, 2, id="birth"),
        pytest.param("t00", 1, id="object"),  # choices skip z0's own column 0
    ])
    def test_conflict_swaps_with_claiming_return(self, old, choice):
        parent, walk = make_walk(
            [(100.0, 0.0), (50.0, 60.0), (0.0, -80.0)],
            [[99.0, 1.0], [52.0, 58.0]],
        )
        event = AssociationEvent(assignments=(old, "t02"))
        before = loaded(walk, event)
        chain = scripted(walk, event, [(0, 3), (choice, 4)])
        assert chain.event().assignments == ("t02", old)
        assert (chain.k, chain.n_b) == (before.k, before.n_b)

    def test_claiming_dead_object_is_no_change(self):
        # Assigning a return to an object in the death set would be invalid;
        # the proposal resolves to no change, drawing no acceptance variate
        # (revival goes through the death row instead).
        parent, walk = make_walk([(100.0, 0.0)], [[99.0, 1.0]])
        event = AssociationEvent(assignments=(CLUTTER,), deaths=frozenset({"t00"}))
        chain = scripted(walk, event, [(0, 2), (0, 2)])
        assert chain.event() == event
        assert chain.rng.uniforms == 0

    def test_death_toggle_both_ways(self):
        parent, walk = make_walk([(100.0, 0.0)], [[99.0, 1.0]])
        chain = loaded(walk, AssociationEvent(assignments=(CLUTTER,)), [(1, 2), (0, 1)] * 2)
        chain.run(1)
        assert chain.event().deaths == frozenset({"t00"})
        chain.run(1)
        assert chain.event().deaths == frozenset()
        assert chain.rng.script == []

    def test_death_move_without_death_probability_is_no_change(self):
        # beta = 0: no object is death-eligible, so the death move draws no
        # object and proposes nothing instead of a zero-mass death.
        parent, walk = make_walk([(100.0, 0.0)], [[99.0, 1.0]], beta=0.0)
        chain = scripted(walk, AssociationEvent(assignments=(CLUTTER,)), [(1, 2)])
        assert chain.event().deaths == frozenset()
        assert chain.rng.uniforms == 0

    def test_zero_entry_candidate_skips_prior(self):
        # The far return cannot come from t00: that entry is -inf.
        parent, walk = make_walk([(100.0, 0.0)], [[5000.0, 0.0]])
        lookups = []

        class RecordingMemo(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        chain = loaded(walk, AssociationEvent(assignments=(CLUTTER,)))
        assert chain.rows[0][0] == -math.inf
        assert (0, 0, 0) in chain._prior_memo  # the loaded state's counts
        chain._prior_memo = RecordingMemo(chain._prior_memo)
        # Row 0 from clutter: column draw 0 is t00, 1 is birth; from birth,
        # draw 1 skips birth itself and is clutter.
        for draw, to, reads in [
            (0, CLUTTER, []),  # zero entry: no lookup, rejected
            (1, BIRTH, [(0, 1, 0)] * 2),  # a miss reads inline and in log_prior
            (1, CLUTTER, [(0, 0, 0)]),  # a hit reads once
        ]:
            lookups.clear()
            chain.rng.script = [(0, 2), (draw, 2)]
            chain.run(1)
            assert chain.event().assignments == (to,)
            assert lookups == reads

    def test_prior_memo_matches_log_count_prior(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0), (50.0, 60.0)], [[99.0, 1.0], [52.0, 58.0]], n_pixels=1
        )
        chain = _Chain(matrix, cfg, sensor.p_d)
        for k in range(3):
            for n_b in range(3 - k):
                for n_d in range(3 - k):
                    expected = log_count_prior(k, n_b, n_d, 2, 2, cfg, sensor.p_d)
                    assert chain.log_prior(k, n_b, n_d) == expected
                    assert chain.log_prior(k, n_b, n_d) == expected  # memoized
        assert chain.log_prior(0, 2, 0) == -math.inf  # more births than pixels

    def test_never_produces_duplicate_claims(self):
        parent, walk = make_walk(
            [(100.0, 0.0), (50.0, 60.0)],
            [[99.0, 1.0], [52.0, 58.0], [75.0, 30.0]],
        )
        chain = walk(random.Random(123))
        for _ in range(100_000):
            chain.run(1)
            event = chain.event()
            objs = event.associated_labels
            assert len(objs) == len(set(objs))
            assert not (event.deaths & set(objs))

    def test_scores_consistent_with_production_composition(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0), (50.0, 60.0)], [[99.0, 1.0], [52.0, 58.0]]
        )
        chain = _Chain(matrix, cfg, sensor.p_d)
        chain.start(random.Random(5))
        for _ in range(200):
            chain.run(1)
            event = chain.event()
            expected = log_child_prior(
                event, parent, cfg, sensor.p_d, 2
            ) + hypothesis_log_likelihood(event, matrix)
            if expected == -math.inf:
                assert chain.log_score == -math.inf
            else:
                assert chain.log_score == pytest.approx(expected, rel=1e-12)


class TestMetropolis:
    """One run(1) from {z -> clutter} proposing z -> t00 (row 0, column draw
    0), from a current score set by the test."""

    FAR = [[5000.0, 0.0]]  # t00's entry is -inf: a zero-mass candidate

    @staticmethod
    def setup(returns=((99.0, 1.0),)):
        """(walk, start event, candidate's log score)."""
        parent, walk = make_walk([(100.0, 0.0)], list(returns))
        cand = loaded(walk, AssociationEvent(assignments=("t00",))).log_score
        return walk, AssociationEvent(assignments=(CLUTTER,)), cand

    @staticmethod
    def step(walk, start, current, u):
        """(moved, acceptance variates drawn) of that step."""
        chain = loaded(walk, start, [(0, 2), (0, 2)], u)
        chain.log_score = current
        chain.run(1)
        return chain.assign == [0], chain.rng.uniforms

    def test_higher_score_always_accepted(self):
        # No variate is drawn, so even the largest one cannot reject.
        walk, start, cand = self.setup()
        assert self.step(walk, start, cand - 2.0, u=1.0 - 2.0**-53) == (True, 0)

    def test_half_ratio_accepted_half_the_time(self):
        walk, start, cand = self.setup()
        rng = random.Random(321)
        hits = sum(
            self.step(walk, start, cand + math.log(2.0), rng.random())[0]
            for _ in range(100_000)
        )
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_minus_inf_always_rejected(self):
        # Rejected without a variate, so even u = 0 cannot accept it.
        walk, start, cand = self.setup(self.FAR)
        assert cand == -math.inf
        assert self.step(walk, start, -10.0, u=0.0) == (False, 0)

    def test_minus_inf_accepted_on_zero_mass_plateau(self):
        # From a zero-mass state the walk moves freely, so a random init on
        # the plateau can leave it.
        for returns in (self.FAR, [[99.0, 1.0]]):
            walk, start, cand = self.setup(returns)
            assert self.step(walk, start, -math.inf, u=1.0 - 2.0**-53) == (True, 0)


class TestSampleChildren:
    def test_top_three_match_oracle_ranking(self):
        # Ambiguous geometry (returns between the two tracks, competitive
        # clutter) so the leading children carry comparable mass and the
        # walk visits them all.
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0), (112.0, 0.0)], [[103.0, 0.5], [108.0, -0.5]],
            n_pixels=1, clutter_density=3e-3,
        )
        samples = sample_children(
            parent, matrix,
            SamplerConfig(burn_in_steps=2000, record_steps=20000, children_kept=3, seed=4),
            cfg, sensor,
        )
        post = exact_posterior(parent, matrix, cfg, sensor)
        oracle_top = sorted(post.items(), key=lambda kv: -kv[1])[:3]
        assert [s.event.canonical_key() for s in samples] == [k for k, _ in oracle_top]

    def test_dominant_child_found(self):
        # One track far from everything else, one return right on it: the
        # physically correct association dominates.
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0)], [[100.0, 0.2]], alpha=0.01, beta=0.01,
        )
        samples = sample_children(
            parent, matrix,
            SamplerConfig(burn_in_steps=500, record_steps=5000, children_kept=1, seed=9),
            cfg, sensor,
        )
        assert samples[0].event.assignments == ("t00",)
        assert samples[0].event.deaths == frozenset()

    def test_zero_returns_noop_child(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0)], np.empty((0, 2)), beta=0.0,
        )
        samples = sample_children(
            parent, matrix,
            SamplerConfig(burn_in_steps=10, record_steps=50, children_kept=5, seed=0),
            cfg, sensor,
        )
        assert samples[0].event.assignments == ()
        assert samples[0].event.deaths == frozenset()

    def test_recorded_scores_exact(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0), (50.0, 60.0)], [[99.0, 1.0], [52.0, 58.0]]
        )
        samples = sample_children(
            parent, matrix,
            SamplerConfig(burn_in_steps=500, record_steps=5000, children_kept=100, seed=2),
            cfg, sensor,
        )
        assert samples
        for s in samples:
            expected = log_child_prior(
                s.event, parent, cfg, sensor.p_d, 2
            ) + hypothesis_log_likelihood(s.event, matrix)
            assert s.log_score == pytest.approx(expected, rel=1e-12)

    def test_deterministic_given_seed(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0), (50.0, 60.0)], [[99.0, 1.0], [52.0, 58.0]]
        )
        scfg = SamplerConfig(burn_in_steps=200, record_steps=2000, children_kept=10, seed=77)
        a = sample_children(parent, matrix, scfg, cfg, sensor)
        b = sample_children(parent, matrix, scfg, cfg, sensor)
        assert [(s.event, s.log_score, s.visits) for s in a] == [
            (s.event, s.log_score, s.visits) for s in b
        ]

    def test_visits_sum_to_record_steps(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0)], [[100.0, 0.2]]
        )
        scfg = SamplerConfig(
            burn_in_steps=100, record_steps=1000, children_kept=50, seed=1,
        )
        samples = sample_children(parent, matrix, scfg, cfg, sensor)
        assert sum(s.visits for s in samples) == 1000


class TestIrreducibility:
    @pytest.mark.parametrize("n_objects,n_returns", [(1, 1), (2, 2), (3, 2), (2, 3)])
    def test_walk_strongly_connected(self, n_objects, n_returns):
        positions = [(100.0 + 30.0 * i, -20.0 * i) for i in range(n_objects)]
        returns = [[100.0 + 10.0 * i, 5.0 * i] for i in range(n_returns)]
        parent, matrix, cfg, sensor = make_instance(positions, returns, n_pixels=1)
        walk = walk_for(matrix, cfg, sensor)
        # The posterior's support: supported events with a finite prior
        # (n_pixels = 1 gives two births zero mass). The walk never accepts
        # a move out of it.
        all_events = {
            e.canonical_key(): e
            for e in enumerate_child_events(matrix)
            if loaded(walk, e).log_score > -math.inf
        }

        def neighbors(key):
            return proposal_support(walk, all_events[key])

        start = next(iter(all_events))
        seen = {start}
        frontier = deque([start])
        edges = {}
        while frontier:
            key = frontier.popleft()
            edges[key] = neighbors(key)
            for nxt in edges[key]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == set(all_events)
        # Reverse reachability: every state reaches the start.
        reverse = {k: set() for k in all_events}
        for src, dsts in edges.items():
            for dst in dsts:
                reverse[dst].add(src)
        seen_rev = {start}
        frontier = deque([start])
        while frontier:
            key = frontier.popleft()
            for prv in reverse[key]:
                if prv not in seen_rev:
                    seen_rev.add(prv)
                    frontier.append(prv)
        assert seen_rev == set(all_events)


def kernel_stationary(walk, events):
    """Stationary distribution of the exact transition kernel of the walk
    restricted to the finite-score events: every draw path of one step
    weighted by its probability, its target accepted with
    min(1, pi(t)/pi(s))."""
    index = {}
    scores = []
    for event in events:
        score = loaded(walk, event).log_score
        if score > -math.inf:
            index[event.canonical_key()] = len(scores)
            scores.append((event, score))
    P = np.zeros((len(scores), len(scores)))
    for s, (event, score) in enumerate(scores):
        total = 0.0
        for chain, prob in scripted_proposals(walk, event):
            total += prob
            t = index[chain.event().canonical_key()]
            accept = min(1.0, math.exp(chain.log_score - score))
            P[s, t] += prob * accept
            P[s, s] += prob * (1.0 - accept)
        assert total == pytest.approx(1.0, abs=1e-12)
    values, vectors = np.linalg.eig(P.T)
    v = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
    v = v / v.sum()
    return {event.canonical_key(): float(p) for (event, _), p in zip(scores, v)}


class TestExactKernel:
    # Tracks a few km apart with returns between them, so every pairing is
    # plausible and the conflict move is exercised on most steps. In sparse,
    # the third return is far from every track, so its row supports only
    # birth and clutter, and t02 is far from every return: proposals onto
    # those -inf entries exercise the rejection branch.
    INSTANCES = {
        "2x2": ([(100.0, 0.0), (103.0, 0.0)], [[101.0, 0.5], [102.0, -0.5]]),
        "3x3": (
            [(100.0, 0.0), (102.0, 1.5), (101.0, -2.0)],
            [[100.5, 0.5], [102.0, 0.0], [101.0, -1.0]],
        ),
        "sparse": (
            [(100.0, 0.0), (103.0, 0.0), (0.0, -80.0)],
            [[101.0, 0.5], [102.0, -0.5], [5000.0, 0.0]],
        ),
    }

    @pytest.mark.parametrize("beta", [0.05, 0.0])
    @pytest.mark.parametrize("name", ["2x2", "3x3", "sparse"])
    def test_stationary_distribution_is_exact_posterior(self, name, beta):
        positions, returns = self.INSTANCES[name]
        parent, matrix, cfg, sensor = make_instance(
            positions, returns, beta=beta, clutter_density=1e-3,
        )
        events = enumerate_child_events(matrix)
        stationary = kernel_stationary(walk_for(matrix, cfg, sensor), events)
        post = exact_posterior(parent, matrix, cfg, sensor)
        assert tv_distance(stationary, post) <= 1e-9


class TestVisitDistribution:
    def test_tv_against_oracle_small_case(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0), (60.0, 40.0)], [[98.0, 2.0], [62.0, 38.0]],
            p_d=0.9, alpha=0.05, beta=0.05, n_pixels=1,
        )
        samples = sample_children(
            parent, matrix,
            SamplerConfig(burn_in_steps=5000, record_steps=100_000,
                          children_kept=100_000, seed=3),
            cfg, sensor,
        )
        empirical = visit_distribution(samples)
        post = exact_posterior(parent, matrix, cfg, sensor)
        assert tv_distance(empirical, post) < 0.05


class TestStream:
    """The walk draws the same Mersenne Twister words that rng.randrange
    would, so a seed fixes its output. The golden children were recorded
    when the walk still called randrange."""

    INSTANCES = {
        "sparse": TestExactKernel.INSTANCES["sparse"],
        "dense3x3": TestExactKernel.INSTANCES["3x3"],
    }

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_below_matches_randrange(self, seed):
        # Each integer draw, the init's and run()'s, is rng.randrange of the
        # bound the state sets (the row's support size; then m+1 rows and
        # M+1 other columns or the unclaimed death-eligible pool). A
        # reference rng making those calls, plus random() when the step drew
        # an acceptance variate, stays in the chain rng's state. Here m+1 = 4
        # and M+1 = 4 take 3 bits, so about half the raw draws are redrawn.
        parent, matrix, cfg, sensor = make_instance(*self.INSTANCES["sparse"])
        m, n_objects = matrix.n_returns, matrix.n_objects
        chain = _Chain(matrix, cfg, sensor.p_d)
        chain.start(random.Random(seed))
        ref = random.Random(seed)
        for supported in matrix.supported:
            ref.randrange(len(supported))
        assert ref.getstate() == chain.rng.getstate()
        variates = 0
        for _ in range(3000):
            pool = [j for j, ok in enumerate(matrix.death_eligible)
                    if ok and j not in chain.assign]
            chain.run(1)
            row = ref.randrange(m + 1)
            if row < m:
                ref.randrange(n_objects + 1)
            elif pool:
                ref.randrange(len(pool))
            if ref.getstate() != chain.rng.getstate():
                ref.random()
                variates += 1
            assert ref.getstate() == chain.rng.getstate()
        assert variates > 0

    C = CLUTTER
    GOLDEN = {
        "sparse": [
            ((("t00", "t01", C), ()), 1635, -17.258838541538672),
            ((("t01", "t00", C), ()), 832, -17.858838541538674),
            ((("t00", "t01", C), ("t02",)), 792, -17.95198572209862),
            ((("t01", "t00", C), ("t02",)), 434, -18.551985722098618),
            ((("t00", C, C), ()), 22, -20.99974394978553),
            (((C, "t01", C), ()), 67, -20.99974394978553),
            ((("t01", C, C), ()), 29, -21.29974394978553),
            (((C, "t00", C), ()), 30, -21.29974394978553),
            ((("t00", C, C), ("t01",)), 11, -21.692891130345473),
            ((("t00", C, C), ("t02",)), 13, -21.692891130345473),
        ],
        "dense3x3": [
            ((("t00", "t01", "t02"), ()), 1050, -12.824785952731872),
            ((("t01", "t00", "t02"), ()), 752, -13.274785952731872),
            ((("t01", "t02", "t00"), ()), 661, -13.474785952731873),
            ((("t02", "t01", "t00"), ()), 589, -13.524785952731873),
            ((("t00", "t02", "t01"), ()), 429, -13.724785952731873),
            ((("t02", "t00", "t01"), ()), 327, -14.224785952731873),
            ((("t00", C, "t02"), ()), 2, -17.158838541538675),
            ((("t00", "t01", C), ()), 15, -17.283838541538675),
            (((C, "t01", "t02"), ()), 12, -17.33383854153867),
            ((("t01", C, "t02"), ()), 5, -17.433838541538673),
        ],
    }

    @pytest.mark.parametrize("name", ["sparse", "dense3x3"])
    def test_children_match_golden(self, name):
        positions, returns = self.INSTANCES[name]
        parent, matrix, cfg, sensor = make_instance(
            positions, returns, clutter_density=3e-3,
        )
        scfg = SamplerConfig(burn_in_steps=300, record_steps=4000, children_kept=10, seed=11)
        samples = sample_children(parent, matrix, scfg, cfg, sensor)
        golden = self.GOLDEN[name]
        assert [(s.event.canonical_key(), s.visits) for s in samples] == [
            (key, visits) for key, visits, _ in golden
        ]
        for s, (_, _, score) in zip(samples, golden):
            assert s.log_score == pytest.approx(score, rel=1e-12)
        # Keeping every child returns the same ranking, extended.
        unbounded = sample_children(
            parent, matrix, replace(scfg, children_kept=sys.maxsize), cfg, sensor
        )
        assert unbounded[: len(samples)] == samples
        assert sum(s.visits for s in unbounded) == scfg.record_steps

    @pytest.mark.parametrize("name", ["sparse", "dense3x3"])
    def test_job_function_matches_sample_children(self, name):
        # A worker receives its job pickled and runs job_children on it;
        # sample_children runs the same function in process.
        positions, returns = self.INSTANCES[name]
        parent, matrix, cfg, sensor = make_instance(
            positions, returns, clutter_density=3e-3,
        )
        scfg = SamplerConfig(burn_in_steps=300, record_steps=4000, children_kept=10, seed=11)
        job = ChildJob(parent, matrix, scfg, cfg, sensor)

        def listed(samples):
            return [(s.event.canonical_key(), s.log_score, s.visits) for s in samples]

        expected = listed(sample_children(parent, matrix, scfg, cfg, sensor))
        assert listed(job_children(job)) == expected
        assert listed(job_children(pickle.loads(pickle.dumps(job)))) == expected


class TestKeyCache:
    def test_cached_key_follows_every_step(self):
        # run(1, table) adds one visit to the slot of the state the step
        # ends in, whether it moved or not, and only builds a key after a
        # move: the slot it adds to must always be the fresh state's.
        positions, returns = TestExactKernel.INSTANCES["3x3"]
        parent, matrix, cfg, sensor = make_instance(
            positions, returns, beta=0.05, clutter_density=3e-3,
        )
        chain = _Chain(matrix, cfg, sensor.p_d)
        chain.start(random.Random(8))
        table = {}
        before = chain.key()
        toggles = swaps = 0
        for step in range(1, 5001):
            chain.run(1, table)
            fresh = (tuple(chain.assign), tuple(sorted(chain.dead)))
            assert chain.key() == fresh
            assert table[fresh][0] == pytest.approx(chain.log_score, rel=1e-12)
            assert sum(visits for _, visits in table.values()) == step
            if fresh[1] != before[1]:
                toggles += 1
            elif sum(a != b for a, b in zip(fresh[0], before[0])) == 2:
                swaps += 1
            before = fresh
        assert toggles > 0 and swaps > 0
        assert len(table) > 1

    def test_run_leaves_state_consistent(self):
        # resync() rebinds claimed_by and resums the likelihood mid-loop.
        # After any run, the claims and counts are those the assignment
        # implies, and a state first visited on the run's last step carries
        # its from-scratch rescoring bit for bit.
        positions, returns = TestExactKernel.INSTANCES["sparse"]
        parent, matrix, cfg, sensor = make_instance(positions, returns)
        chain = _Chain(matrix, cfg, sensor.p_d)
        chain.start(random.Random(3))
        first_visits = 0
        for n in range(600):
            if n % 10 == 0:
                table = {}  # so that first visits keep coming
            chain.run(n % 5 + 1, table)
            fresh = _Chain(matrix, cfg, sensor.p_d)
            fresh.load(chain.key())
            assert chain.claimed_by == fresh.claimed_by
            assert (chain.k, chain.n_b, chain.zero_entries) == (
                fresh.k, fresh.n_b, fresh.zero_entries)
            if table[chain.key()][1] == 1:
                first_visits += 1
                assert chain.finite_loglik == fresh.finite_loglik
                assert chain.log_score == fresh.log_score
        assert first_visits > 50
