"""Metropolis walk: proposal rules, acceptance, dedup, oracle agreement."""

import math
import random
from collections import deque
from functools import partial

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
    SamplerConfig,
    _Chain,
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


def walk_for(matrix, cfg, sensor):
    """_Chain over one instance, awaiting only (rng, event=None)."""
    return partial(_Chain, matrix, cfg, sensor.p_d)


def make_walk(positions, returns, **kwargs):
    parent, matrix, cfg, sensor = make_instance(positions, returns, **kwargs)
    return parent, walk_for(matrix, cfg, sensor)


class _ScriptExhausted(Exception):
    """Raised by _ScriptRng when the chain asks for a choice past its script."""

    def __init__(self, bound):
        super().__init__(bound)
        self.bound = bound


class _ScriptRng:
    """Deterministic rng stub: randrange pops scripted choices and records
    each bound it was asked for, so the probability of a scripted path is the
    product of 1/bound."""

    def __init__(self, script):
        self.script = list(script)
        self.bounds = []

    def randrange(self, bound):
        if not self.script:
            raise _ScriptExhausted(bound)
        self.bounds.append(bound)
        return self.script.pop(0)


def scripted(walk, event, script):
    """The chain loaded with event after one scripted propose() (plus apply()
    when the proposal is a change)."""
    chain = walk(_ScriptRng(script), event)
    if chain.propose():
        chain.apply()
    return chain


def scripted_proposals(walk, event):
    """Every outcome of one _Chain.propose() from event, found by driving it
    through each branch of its rng choices. Yields (chain after the move or
    unmoved, moved, probability of that choice path)."""
    pending = [[]]
    while pending:
        script = pending.pop()
        rng = _ScriptRng(script)
        chain = walk(rng, event)
        try:
            moved = chain.propose()
        except _ScriptExhausted as branch:
            pending.extend(script + [c] for c in range(branch.bound))
            continue
        if moved:
            chain.apply()
        yield chain, moved, math.prod(1.0 / b for b in rng.bounds)


def proposal_support(walk, event):
    """All events one proposal away from event (itself included when some
    proposal is a no-change one)."""
    return {chain.event().canonical_key() for chain, _, _ in scripted_proposals(walk, event)}


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
        chain = _Chain(matrix, cfg, sensor.p_d, random.Random(0))
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
        chain = _Chain(matrix, cfg, sensor.p_d, random.Random(0), event)
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
        before = walk(None, event)
        chain = scripted(walk, event, [0, choice])
        assert chain.event().assignments == ("t02", old)
        assert (chain.k, chain.n_b) == (before.k, before.n_b)

    def test_claiming_dead_object_is_no_change(self):
        # Assigning a return to an object in the death set would be invalid;
        # the proposal resolves to no change (revival goes through the death
        # row instead).
        parent, walk = make_walk([(100.0, 0.0)], [[99.0, 1.0]])
        event = AssociationEvent(assignments=(CLUTTER,), deaths=frozenset({"t00"}))
        chain = walk(_ScriptRng([0, 0]), event)
        assert chain.propose() is False
        assert chain.event() == event

    def test_death_toggle_both_ways(self):
        parent, walk = make_walk([(100.0, 0.0)], [[99.0, 1.0]])
        chain = walk(_ScriptRng([1, 0, 1, 0]), AssociationEvent(assignments=(CLUTTER,)))
        assert chain.propose()
        chain.apply()
        assert chain.event().deaths == frozenset({"t00"})
        assert chain.propose()
        chain.apply()
        assert chain.event().deaths == frozenset()

    def test_death_move_without_death_probability_is_no_change(self):
        # beta = 0: no object is death-eligible, so the death move draws no
        # object and proposes nothing instead of a zero-mass death.
        parent, walk = make_walk([(100.0, 0.0)], [[99.0, 1.0]], beta=0.0)
        rng = _ScriptRng([1, 0])
        chain = walk(rng, AssociationEvent(assignments=(CLUTTER,)))
        assert chain.propose() is False
        assert rng.bounds == [2]
        assert chain.event().deaths == frozenset()

    def test_zero_entry_candidate_skips_prior(self, monkeypatch):
        # The far return cannot come from t00: that entry is -inf.
        parent, walk = make_walk([(100.0, 0.0)], [[5000.0, 0.0]])
        chain = walk(random.Random(0), AssociationEvent(assignments=(CLUTTER,)))
        assert chain.rows[0][0] == -math.inf
        calls = []
        # Slots leave no instance __dict__, so the memo is patched on the class.
        monkeypatch.setattr(
            _Chain, "log_prior", lambda self, *counts: calls.append(counts) or 0.0
        )
        seen = 0
        for seed in range(40):
            chain.rng = random.Random(seed)
            calls.clear()
            if chain.propose() and (chain._row, chain._col) == (0, 0):
                assert chain.cand_score == -math.inf
                assert calls == []
                seen += 1
            else:
                assert len(calls) == 1
        assert seen > 0

    def test_prior_memo_matches_log_count_prior(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0), (50.0, 60.0)], [[99.0, 1.0], [52.0, 58.0]], n_pixels=1
        )
        chain = _Chain(matrix, cfg, sensor.p_d, random.Random(0))
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
            if chain.propose():
                chain.apply()
            event = chain.event()
            objs = event.associated_labels
            assert len(objs) == len(set(objs))
            assert not (event.deaths & set(objs))

    def test_scores_consistent_with_production_composition(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0), (50.0, 60.0)], [[99.0, 1.0], [52.0, 58.0]]
        )
        chain = _Chain(matrix, cfg, sensor.p_d, random.Random(5))
        for _ in range(200):
            if chain.propose():
                chain.apply()
            event = chain.event()
            expected = log_child_prior(
                event, parent, cfg, sensor.p_d, 2
            ) + hypothesis_log_likelihood(event, matrix)
            if expected == -math.inf:
                assert chain.log_score == -math.inf
            else:
                assert chain.log_score == pytest.approx(expected, rel=1e-12)


def chain_scored(score, seed=0):
    """A chain whose current log-score is score, for exercising _accept."""
    parent, walk = make_walk([], [])
    chain = walk(random.Random(seed))
    chain.log_score = score
    return chain


class TestMetropolis:
    def test_higher_score_always_accepted(self):
        chain = chain_scored(-5.0)
        for _ in range(100):
            assert chain._accept(-1.0)

    def test_half_ratio_accepted_half_the_time(self):
        chain = chain_scored(0.0, seed=321)
        hits = sum(chain._accept(math.log(0.5)) for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_minus_inf_always_rejected(self):
        chain = chain_scored(-10.0, seed=1)
        for _ in range(100):
            assert not chain._accept(-math.inf)

    def test_minus_inf_accepted_on_zero_mass_plateau(self):
        # From a zero-mass state the walk moves freely, so a random init on
        # the plateau can leave it.
        chain = chain_scored(-math.inf)
        assert chain._accept(-math.inf)
        assert chain._accept(-3.0)


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
        all_events = {
            e.canonical_key(): e
            for e in enumerate_child_events(matrix)
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
    restricted to the finite-score events: every propose() outcome weighted
    by its probability, accepted with min(1, pi(t)/pi(s))."""
    index = {}
    scores = []
    for event in events:
        score = walk(None, event).log_score
        if score > -math.inf:
            index[event.canonical_key()] = len(scores)
            scores.append((event, score))
    P = np.zeros((len(scores), len(scores)))
    for s, (event, score) in enumerate(scores):
        total = 0.0
        for chain, moved, prob in scripted_proposals(walk, event):
            total += prob
            t = index.get(chain.event().canonical_key()) if moved else None
            if t is None:  # no-change or zero-mass candidate
                P[s, s] += prob
                continue
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
    # plausible and the conflict move is exercised on most steps.
    INSTANCES = {
        "2x2": ([(100.0, 0.0), (103.0, 0.0)], [[101.0, 0.5], [102.0, -0.5]]),
        "3x3": (
            [(100.0, 0.0), (102.0, 1.5), (101.0, -2.0)],
            [[100.5, 0.5], [102.0, 0.0], [101.0, -1.0]],
        ),
    }

    @pytest.mark.parametrize("beta", [0.05, 0.0])
    @pytest.mark.parametrize("name", ["2x2", "3x3"])
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
