"""Metropolis walk: proposal rules, acceptance, kernel rows, holding times,
dedup, oracle agreement."""

import math
import pickle
import random
import sys
from collections import deque
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mcmctrack.likelihoods import (
    AssociationMatrix,
    ClutterModel,
    build_matrix,
    hypothesis_log_likelihood,
)
from mcmctrack.oracle import enumerate_child_events, exact_posterior, tv_distance
from mcmctrack.sampler import (
    ChildJob,
    SamplerConfig,
    _Chain,
    _id_row,
    job_children,
    sample_children,
    visit_distribution,
)
from test_oracle import sparse_matrices


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


def loaded(walk, event):
    """walk's chain loaded with event."""
    return walk(random.Random(0), event)


def reference_score(matrix, cfg, p_d, key):
    """log_count_prior of key's counts plus its selected entries, summed
    here rather than by _Chain."""
    assign, deaths = key
    n_objects = matrix.n_objects
    entries = [matrix.log_entries[i, c] for i, c in enumerate(assign)]
    if -math.inf in entries:
        return -math.inf
    k = sum(c < n_objects for c in assign)
    n_b = sum(c == n_objects for c in assign)
    return log_count_prior(
        k, n_b, len(deaths), n_objects, matrix.n_returns, cfg, p_d
    ) + math.fsum(entries)


def all_keys(matrix):
    """Every state of the walk over matrix, supported or not: a column per
    return, each object claimed at most once, and a set of unclaimed
    death-eligible objects."""
    n_objects = matrix.n_objects
    eligible = [j for j, ok in enumerate(matrix.death_eligible) if ok]
    for assign in product(range(n_objects + 2), repeat=matrix.n_returns):
        claimed = [c for c in assign if c < n_objects]
        if len(claimed) != len(set(claimed)):
            continue
        pool = [j for j in eligible if j not in claimed]
        for r in range(len(pool) + 1):
            for deaths in combinations(pool, r):
                yield assign, deaths


def draw_paths(matrix, key):
    """Every proposal draw of one step from key, with its probability: a
    row out of m+1, then the index of one of the M+1 other columns, or of a
    member of the unclaimed death-eligible pool (None when it is empty)."""
    m, n_objects = matrix.n_returns, matrix.n_objects
    pool = [j for j, ok in enumerate(matrix.death_eligible) if ok and j not in key[0]]
    for row in range(m):
        for choice in range(n_objects + 1):
            yield (row, choice), 1.0 / ((m + 1) * (n_objects + 1))
    if pool:
        for choice in range(len(pool)):
            yield (m, choice), 1.0 / ((m + 1) * len(pool))
    else:
        yield (m, None), 1.0 / (m + 1)


def propose(matrix, key, path):
    """The key one proposal draw leads to from key, or None for a no-change
    proposal: a dead target object or an empty death pool."""
    m, n_objects = matrix.n_returns, matrix.n_objects
    assign, deaths = list(key[0]), set(key[1])
    row, choice = path
    if row == m:
        if choice is None:
            return None
        pool = [j for j, ok in enumerate(matrix.death_eligible) if ok and j not in assign]
        deaths ^= {pool[choice]}
    else:
        cur = assign[row]
        col = [c for c in range(n_objects + 2) if c != cur][choice]
        if col in deaths:
            return None
        if col < n_objects and col in assign:
            assign[assign.index(col)] = cur  # the swap
        assign[row] = col
    return tuple(assign), tuple(sorted(deaths))


def reference_row(matrix, cfg, p_d, key):
    """{destination: probability} of one step from key that leaves it:
    every draw path's probability times min(1, pi(t)/pi(s)), a -inf
    target never accepted from a finite state and always from a -inf one."""
    here = reference_score(matrix, cfg, p_d, key)
    row = {}
    for path, prob in draw_paths(matrix, key):
        dest = propose(matrix, key, path)
        if dest is None:
            continue
        there = reference_score(matrix, cfg, p_d, dest)
        if here == -math.inf:
            accept = 1.0
        elif there == -math.inf:
            accept = 0.0
        else:
            accept = min(1.0, math.exp(there - here))
        if accept > 0.0:
            row[dest] = row.get(dest, 0.0) + prob * accept
    return row


def production_row(chain, key):
    """chain.kernel_row(key) as {destination: probability}, after checking
    its shape: one cumulative entry per destination, non-decreasing from a
    positive first move, ending at p."""
    _, p, cumulative, destinations = chain.kernel_row(key)
    assert len(cumulative) == len(destinations)
    assert p == (cumulative[-1] if cumulative else 0.0)
    row = {}
    below = 0.0
    for c, dest in zip(cumulative, destinations):
        assert c > below
        row[dest] = row.get(dest, 0.0) + (c - below)
        below = c
    return row


def assert_rows_match(production, reference, tol=1e-12):
    assert set(production) == set(reference)
    for dest, prob in reference.items():
        assert production[dest] == pytest.approx(prob, rel=0.0, abs=tol)


def row_of(walk, event):
    """The production row of event's state, keyed by destination event."""
    chain = walk(random.Random(0), event)
    key = chain.key()
    return {chain.matrix.event_of(d): prob for d, prob in production_row(chain, key).items()}


def proposal_support(walk, event):
    """All events one accepted proposal away from event (itself included
    when some step leaves the state unchanged)."""
    chain = walk(random.Random(0), event)
    _, p, _, destinations = chain.kernel_row(chain.key())
    out = {chain.matrix.event_of(d).canonical_key() for d in destinations}
    if p < 1.0:
        out.add(event.canonical_key())
    return out


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
    """The proposal law, read off production kernel rows."""

    def test_support_for_one_track_one_return(self):
        parent, walk = make_walk([(100.0, 0.0)], [[99.0, 1.0]])
        event = AssociationEvent(assignments=("t00",))
        # From {z->t00}: reassign z to B or C; no unassociated object, so the
        # death row proposes no change and the row leaves with p < 1.
        expected = {
            AssociationEvent(assignments=(BIRTH,)).canonical_key(),
            AssociationEvent(assignments=(CLUTTER,)).canonical_key(),
            event.canonical_key(),
        }
        assert proposal_support(walk, event) == expected

    # Three tracks, two returns; z1 holds t02 and z0 proposes t02. A swap
    # hands z0's old column to z1 (a bump would send z1 to clutter whatever
    # z0 held), so the counts of associations and births keep. t02 is far
    # from both returns, so the state scores -inf and its row holds every
    # proposal that changes it: one draw in (m+1)(M+1) = 12 each, and two
    # for an object swap, which z1 proposing t00 draws as well.
    @pytest.mark.parametrize("old,draws", [
        pytest.param(CLUTTER, 1, id="clutter"),
        pytest.param(BIRTH, 1, id="birth"),
        pytest.param("t00", 2, id="object"),
    ])
    def test_conflict_swaps_with_claiming_return(self, old, draws):
        parent, walk = make_walk(
            [(100.0, 0.0), (50.0, 60.0), (0.0, -80.0)],
            [[99.0, 1.0], [52.0, 58.0]],
        )
        event = AssociationEvent(assignments=(old, "t02"))
        before = loaded(walk, event)
        assert before.log_score == -math.inf
        row = row_of(walk, event)
        swapped = AssociationEvent(assignments=("t02", old))
        assert row[swapped] == pytest.approx(draws / (3 * 4), rel=1e-15)
        after = loaded(walk, swapped)
        assert (after.k, after.n_b) == (before.k, before.n_b)
        if old != CLUTTER:
            assert AssociationEvent(assignments=("t02", CLUTTER)) not in row

    def test_swap_from_finite_state(self):
        # Both returns between two tracks: every pairing is finite, and the
        # swap (t00, t01) -> (t01, t00) is drawn from either row, so its
        # probability is twice one draw's times the acceptance.
        parent, walk = make_walk(
            [(100.0, 0.0), (103.0, 0.0)], [[101.0, 0.5], [102.0, -0.5]]
        )
        event = AssociationEvent(assignments=("t00", "t01"))
        swapped = AssociationEvent(assignments=("t01", "t00"))
        here, there = loaded(walk, event).log_score, loaded(walk, swapped).log_score
        assert here > -math.inf and there > -math.inf
        accept = min(1.0, math.exp(there - here))
        assert row_of(walk, event)[swapped] == pytest.approx(2 * accept / (3 * 3), rel=1e-12)

    def test_claiming_dead_object_is_no_change(self):
        # Assigning a return to an object in the death set would be invalid:
        # the row has no such destination (revival goes through the death
        # row instead), and the proposal's mass stays on the state.
        parent, walk = make_walk([(100.0, 0.0)], [[99.0, 1.0]])
        event = AssociationEvent(assignments=(CLUTTER,), deaths=frozenset({"t00"}))
        row = row_of(walk, event)
        assert all("t00" not in dest.assignments for dest in row)
        assert AssociationEvent(assignments=(CLUTTER,)) in row  # revival
        assert sum(row.values()) < 1.0

    def test_death_toggle_both_ways(self):
        parent, walk = make_walk([(100.0, 0.0)], [[99.0, 1.0]])
        alive = AssociationEvent(assignments=(CLUTTER,))
        dead = AssociationEvent(assignments=(CLUTTER,), deaths=frozenset({"t00"}))
        assert dead in row_of(walk, alive)
        assert alive in row_of(walk, dead)

    def test_death_move_without_death_probability_is_no_change(self):
        # beta = 0: no object is death-eligible, so the death move proposes
        # nothing instead of a zero-mass death: no destination toggles a
        # death, and the death row's 1/2 stays on the state.
        parent, walk = make_walk([(100.0, 0.0)], [[99.0, 1.0]], beta=0.0)
        row = row_of(walk, AssociationEvent(assignments=(CLUTTER,)))
        assert row and all(dest.deaths == frozenset() for dest in row)
        assert sum(row.values()) <= 0.5

    def test_zero_entry_candidate_skips_prior(self):
        # The far return cannot come from t00: that entry is -inf. From a
        # finite state the row scores only the supported columns, so the
        # candidate z -> t00 is neither a destination nor a prior lookup.
        parent, walk = make_walk([(100.0, 0.0)], [[5000.0, 0.0]])
        lookups = []

        class RecordingMemo(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        chain = loaded(walk, AssociationEvent(assignments=(CLUTTER,)))
        assert chain.entries[0][0] == -math.inf
        chain._prior_memo = RecordingMemo(chain._prior_memo)
        _, _, _, destinations = chain.kernel_row(chain.key())
        assert destinations == [((1,), ()), ((2,), (0,))]  # birth, t00 dies
        # resync reads the state's counts, then the row birth's and the
        # death's.
        assert lookups == [(0, 0, 0), (0, 1, 0), (0, 0, 1)]

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
        # Nor does any row's destination.
        for row in filter(None, chain.rows):
            for assign, deaths in (chain.keys[d] for d in row[5]):
                objs = [c for c in assign if c < chain.n_objects]
                assert len(objs) == len(set(objs))
                assert not set(deaths) & set(objs)

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
            for score in (chain.log_score, chain.rows[chain.ids[chain.key()]][0]):
                if expected == -math.inf:
                    assert score == -math.inf
                else:
                    assert score == pytest.approx(expected, rel=1e-12)


class TestMetropolis:
    """The acceptance of the move z -> t00 from {z -> clutter} (one return,
    one track), read off the row: one draw in (m+1)(M+1) = 4 proposes it,
    accepted with min(1, exp(candidate - current))."""

    Q = 1.0 / 4

    @staticmethod
    def matrix(t00_entry, clutter_entry=0.0):
        """One return, one track that may not die, chosen entries."""
        return AssociationMatrix(
            log_entries=np.array([[t00_entry, -30.0, clutter_entry]]),
            object_labels=("t00",),
            death_eligible=(False,),
            returns=np.zeros((1, 2)),
        )

    @staticmethod
    def chain(matrix):
        return _Chain(matrix, BirthDeathConfig(alpha=0.05, beta=0.0, n_pixels=1), 0.9)

    def gap(self, chain):
        """t00's entry that makes candidate - current equal 0."""
        return chain.log_prior(0, 0, 0) - chain.log_prior(1, 0, 0)

    START = ((2,), ())
    TO_T00 = ((0,), ())

    def test_higher_score_always_accepted(self):
        chain = self.chain(self.matrix(0.0))
        chain = self.chain(self.matrix(self.gap(chain) + 2.0))
        assert production_row(chain, self.START)[self.TO_T00] == self.Q

    def test_half_ratio_accepted_half_the_time(self):
        chain = self.chain(self.matrix(0.0))
        chain = self.chain(self.matrix(self.gap(chain) - math.log(2.0)))
        assert production_row(chain, self.START)[self.TO_T00] == pytest.approx(
            self.Q / 2, rel=1e-12)
        # And one-step walks from the start take the move that often.
        chain.rng = random.Random(321)
        hits = 0
        for _ in range(100_000):
            chain.load(self.START)
            chain.run(1)
            hits += chain.key() == self.TO_T00
        assert abs(hits / 100_000 - self.Q / 2) < 0.005

    def test_minus_inf_always_rejected(self):
        chain = self.chain(self.matrix(-math.inf))
        assert self.TO_T00 not in production_row(chain, self.START)

    def test_minus_inf_accepted_on_zero_mass_plateau(self):
        # From a zero-mass state every proposal that changes the state is
        # accepted, whatever the target scores, so a random init on the
        # plateau can leave it: here clutter's entry is -inf, and both the
        # finite t00 and the -inf birth are destinations.
        for t00 in (-math.inf, 0.0):
            chain = self.chain(self.matrix(t00, clutter_entry=-math.inf))
            row = production_row(chain, self.START)
            assert chain.rows[chain.ids[self.START]][0] == -math.inf
            assert row == {self.TO_T00: self.Q, ((1,), ()): self.Q}


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


def stationary(rows):
    """Stationary distribution of the kernel whose rows ({state:
    {destination: probability}}) leave each state, over the states rows
    holds; what a row does not spend stays on its state."""
    keys = list(rows)
    index = {key: s for s, key in enumerate(keys)}
    P = np.zeros((len(keys), len(keys)))
    for s, key in enumerate(keys):
        for dest, prob in rows[key].items():
            P[s, index[dest]] += prob
        P[s, s] += 1.0 - sum(rows[key].values())
    values, vectors = np.linalg.eig(P.T)
    v = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
    v = v / v.sum()
    return dict(zip(keys, v))


class TestExactKernel:
    # Tracks a few km apart with returns between them, so every pairing is
    # plausible and the conflict move is exercised on most steps. In sparse,
    # the third return is far from every track, so its row supports only
    # birth and clutter, and t02 is far from every return: proposals onto
    # those -inf entries exercise the rejection branch. In staggered the
    # rows support 4, 3 and 2 columns. In plateau both returns are far from
    # the track, and n_pixels = 1 gives their two births zero mass: that
    # supported state scores -inf and its row accepts every change.
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
        "staggered": (
            [(100.0, 0.0), (106.0, 0.0), (300.0, 0.0)],
            [[99.0, 0.0], [300.0, 1.0], [5000.0, 0.0]],
        ),
        "plateau": ([(100.0, 0.0)], [[5000.0, 0.0], [0.0, 5000.0]]),
    }

    @pytest.mark.parametrize("beta", [0.05, 0.0])
    @pytest.mark.parametrize("name", list(INSTANCES))
    def test_stationary_distribution_is_exact_posterior(self, name, beta):
        # The reference kernel follows the proposal rules written out in
        # this file; the production rows must equal it on every state,
        # supported or not, and both kernels, restricted to the
        # finite-score states (which no accepted move leaves), must have
        # the oracle's posterior as their stationary distribution.
        positions, returns = self.INSTANCES[name]
        parent, matrix, cfg, sensor = make_instance(
            positions, returns, beta=beta, clutter_density=1e-3,
        )
        chain = _Chain(matrix, cfg, sensor.p_d)
        keys = list(all_keys(matrix))
        reference = {key: reference_row(matrix, cfg, sensor.p_d, key) for key in keys}
        production = {key: production_row(chain, key) for key in keys}
        for key in keys:
            assert_rows_match(production[key], reference[key])
        finite = {key for key in keys
                  if reference_score(matrix, cfg, sensor.p_d, key) > -math.inf}
        assert finite and len(finite) < len(keys)
        post = exact_posterior(parent, matrix, cfg, sensor)
        for rows in (reference, production):
            pi = stationary({key: rows[key] for key in finite})
            pi = {matrix.event_of(key).canonical_key(): p for key, p in pi.items()}
            assert tv_distance(pi, post) <= 1e-9

    def test_instances_cover_their_cases(self):
        _, matrix, cfg, sensor = make_instance(*self.INSTANCES["staggered"])
        assert [len(s) for s in matrix.supported] == [4, 3, 2]
        _, matrix, cfg, sensor = make_instance(*self.INSTANCES["plateau"])
        births = ((1, 1), ())
        assert matrix.supported == ((1, 2), (1, 2))
        chain = _Chain(matrix, cfg, sensor.p_d)
        score, p, _, destinations = chain.kernel_row(births)
        assert score == -math.inf
        # Each row proposes t00 (-inf entry) or clutter, and the death row
        # toggles t00: five changes, each accepted, none left on the state.
        assert len(destinations) == 5
        assert p == pytest.approx(1.0, abs=1e-15)

    @given(
        mat=sparse_matrices(),
        n_pixels=st.integers(1, 2),
        p_d=st.sampled_from([0.9, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_match_reference_on_random_sparse_matrices(self, mat, n_pixels, p_d, data):
        cfg = BirthDeathConfig(alpha=0.05, beta=0.1, n_pixels=n_pixels)
        chain = _Chain(mat, cfg, p_d)
        n_objects = mat.n_objects
        for _ in range(6):
            assign = []
            for _ in range(mat.n_returns):
                col = data.draw(st.integers(0, n_objects + 1))
                if col < n_objects and col in assign:
                    col = n_objects + 1
                assign.append(col)
            pool = [j for j, ok in enumerate(mat.death_eligible) if ok and j not in assign]
            deaths = tuple(j for j in pool if data.draw(st.booleans()))
            key = (tuple(assign), deaths)
            expected = reference_row(mat, cfg, p_d, key)
            assert_rows_match(production_row(chain, key), expected)
            if reference_score(mat, cfg, p_d, key) > -math.inf:
                # No -inf destination from a finite state.
                assert all(reference_score(mat, cfg, p_d, d) > -math.inf for d in expected)


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
    """What the walk draws from its rng, and the children a seed gives."""

    INSTANCES = {
        "sparse": TestExactKernel.INSTANCES["sparse"],
        "dense3x3": TestExactKernel.INSTANCES["3x3"],
    }

    @staticmethod
    def replay(rows, rng, key, steps, visits):
        """The jump chain as the stream contract states it, over the rows
        of a second chain, drawing from rng: one random() per holding time
        where 0 < p < 1, then one per move. Returns (final key, holding
        draws, moves)."""
        holds = moves = 0
        left, count = steps, 0
        while left:
            _, p, cumulative, destinations = rows.kernel_row(key)
            if p <= 0.0:
                hold = left
            elif p >= 1.0:
                hold = 0
            else:
                holds += 1
                h = math.log(1.0 - rng.random()) / math.log1p(-p)
                hold = left if h >= left else int(h)
            if hold >= left:
                count += left
                break
            count += hold
            left -= hold + 1
            if visits is not None and count:
                visits[key] = visits.get(key, 0) + count
            u = rng.random() * p
            moves += 1
            j = next((j for j, c in enumerate(cumulative) if u < c), len(cumulative) - 1)
            key = destinations[j]
            count = 1
        if visits is not None and count:
            visits[key] = visits.get(key, 0) + count
        return key, holds, moves

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_stream_contract(self, seed):
        # start's integer draws are rng.randrange of each row's support
        # size, as before the walk ran as a jump chain. A reference rng
        # replaying the documented jump chain over the same rows then stays
        # in the chain rng's state, run by run, and the visits agree.
        parent, matrix, cfg, sensor = make_instance(
            *self.INSTANCES["sparse"], clutter_density=3e-3,
        )
        chain = _Chain(matrix, cfg, sensor.p_d)
        chain.start(random.Random(seed))
        ref = random.Random(seed)
        for supported in matrix.supported:
            ref.randrange(len(supported))
        assert ref.getstate() == chain.rng.getstate()
        rows = _Chain(matrix, cfg, sensor.p_d)
        key = chain.key()
        visits, expected = {}, {}
        holds = moves = 0
        for steps, table, mirror in [(300, None, None), (4000, visits, expected)]:
            chain.run(steps, table)
            key, h, mv = self.replay(rows, ref, key, steps, mirror)
            holds += h
            moves += mv
            assert chain.key() == key
            assert ref.getstate() == chain.rng.getstate()
        assert visits == expected
        assert sum(visits.values()) == 4000
        assert holds > 0 and moves > 0

    @classmethod
    def assert_runs_follow_replay(cls, matrix, cfg, p_d, seed, budgets):
        """Runs of budgets[i] = (steps, recorded) steps each end where the
        replay over a second chain's rows ends, with its rng state and its
        visits."""
        chain = _Chain(matrix, cfg, p_d)
        chain.start(random.Random(seed))
        ref = random.Random()
        ref.setstate(chain.rng.getstate())
        rows = _Chain(matrix, cfg, p_d)
        key = chain.key()
        visits, expected = {}, {}
        for steps, recorded in budgets:
            chain.run(steps, visits if recorded else None)
            key, _, _ = cls.replay(rows, ref, key, steps, expected if recorded else None)
            assert chain.key() == key
            assert ref.getstate() == chain.rng.getstate()
        assert visits == expected

    BUDGETS = st.lists(st.tuples(st.integers(0, 400), st.booleans()), min_size=1, max_size=4)

    @given(
        mat=sparse_matrices(),
        n_pixels=st.integers(1, 2),
        p_d=st.sampled_from([0.9, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        budgets=BUDGETS,
    )
    @settings(max_examples=150, deadline=None)
    def test_runs_follow_replay_on_random_sparse_matrices(self, mat, n_pixels, p_d, seed,
                                                          budgets):
        cfg = BirthDeathConfig(alpha=0.05, beta=0.1, n_pixels=n_pixels)
        self.assert_runs_follow_replay(mat, cfg, p_d, seed, budgets)

    @pytest.mark.parametrize("name", list(TestExactKernel.INSTANCES))
    @given(seed=st.integers(0, 2**32 - 1), budgets=BUDGETS)
    @settings(max_examples=25, deadline=None)
    def test_runs_follow_replay_on_instances(self, name, seed, budgets):
        _, matrix, cfg, sensor = make_instance(
            *TestExactKernel.INSTANCES[name], clutter_density=3e-3,
        )
        self.assert_runs_follow_replay(matrix, cfg, sensor.p_d, seed, budgets)

    C = CLUTTER
    # The seed fixes the children and their visits, through start's draws
    # and the jump chain's.
    GOLDEN = {
        "sparse": [
            ((("t00", "t01", C), ()), 1474, -17.258838541538672),
            ((("t01", "t00", C), ()), 875, -17.858838541538674),
            ((("t00", "t01", C), ("t02",)), 757, -17.95198572209862),
            ((("t01", "t00", C), ("t02",)), 418, -18.551985722098618),
            ((("t00", C, C), ()), 46, -20.99974394978553),
            (((C, "t01", C), ()), 77, -20.99974394978553),
            ((("t01", C, C), ()), 27, -21.29974394978553),
            (((C, "t00", C), ()), 51, -21.29974394978553),
            ((("t00", C, C), ("t01",)), 37, -21.692891130345473),
            ((("t00", C, C), ("t02",)), 24, -21.692891130345473),
        ],
        "dense3x3": [
            ((("t00", "t01", "t02"), ()), 1123, -12.824785952731872),
            ((("t01", "t00", "t02"), ()), 684, -13.274785952731872),
            ((("t01", "t02", "t00"), ()), 573, -13.474785952731873),
            ((("t02", "t01", "t00"), ()), 439, -13.524785952731873),
            ((("t00", "t02", "t01"), ()), 452, -13.724785952731873),
            ((("t02", "t00", "t01"), ()), 253, -14.224785952731873),
            ((("t00", C, "t02"), ()), 12, -17.158838541538675),
            ((("t00", "t01", C), ()), 27, -17.283838541538675),
            (((C, "t01", "t02"), ()), 22, -17.33383854153867),
            ((("t01", C, "t02"), ()), 28, -17.433838541538673),
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
        # sample_children runs job_children on a walk job, and a job is
        # plain data: a pickled copy gives the same children.
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
        # run(1, visits) adds one visit to the key of the state the step
        # ends in, whether it moved or not, and that key is the chain's
        # fresh state, whose memoized row carries its from-scratch score.
        positions, returns = TestExactKernel.INSTANCES["3x3"]
        parent, matrix, cfg, sensor = make_instance(
            positions, returns, beta=0.05, clutter_density=3e-3,
        )
        chain = _Chain(matrix, cfg, sensor.p_d)
        chain.start(random.Random(8))
        visits = {}
        before = chain.key()
        toggles = swaps = 0
        for step in range(1, 5001):
            chain.run(1, visits)
            fresh = (tuple(chain.assign), tuple(sorted(chain.dead)))
            assert chain.key() == fresh
            assert chain.rows[chain.ids[fresh]][0] == pytest.approx(chain.log_score, rel=1e-12)
            assert sum(visits.values()) == step
            if fresh[1] != before[1]:
                toggles += 1
            elif sum(a != b for a, b in zip(fresh[0], before[0])) == 2:
                swaps += 1
            before = fresh
        assert toggles > 0 and swaps > 0
        assert len(visits) > 1

    def test_run_leaves_state_consistent(self):
        # Building a row loads its state, so a run that reaches new states
        # reloads the one it ends in: after any run, the claims and counts
        # are those the assignment implies, and the score and likelihood sum
        # are its from-scratch ones bit for bit, as is its row's score.
        positions, returns = TestExactKernel.INSTANCES["sparse"]
        parent, matrix, cfg, sensor = make_instance(positions, returns)
        chain = _Chain(matrix, cfg, sensor.p_d)
        chain.start(random.Random(3))
        for n in range(600):
            if n % 10 == 0:
                chain.rows[:] = [None] * len(chain.rows)  # so that rows keep being built
            chain.run(n % 5 + 1)
            fresh = _Chain(matrix, cfg, sensor.p_d)
            fresh.load(chain.key())
            assert chain.claimed_by == fresh.claimed_by
            assert (chain.k, chain.n_b, chain.zero_entries) == (
                fresh.k, fresh.n_b, fresh.zero_entries)
            assert chain.finite_loglik == fresh.finite_loglik
            assert chain.log_score == fresh.log_score
            assert chain.rows[chain.ids[chain.key()]][0] == fresh.log_score
        assert sum(row is not None for row in chain.rows) > 1


class TestIdRows:
    @pytest.mark.parametrize("name", ["3x3", "sparse"])
    def test_walk_builds_each_reached_row_once(self, name):
        # A state's row is built the first time the walk stands on it and
        # read from the memo ever after, across runs; a state that is only
        # named as a destination gets an id and no row.
        class CountingChain(_Chain):
            __slots__ = ("built",)

            def build_row(self, sid):
                self.built.append(sid)
                return super().build_row(sid)

        _, matrix, cfg, sensor = make_instance(
            *TestExactKernel.INSTANCES[name], clutter_density=3e-3,
        )
        chain = CountingChain(matrix, cfg, sensor.p_d)
        chain.built = []
        chain.start(random.Random(4))
        start = chain.key()
        visits = {}
        for steps in (500, 20_000, 20_000):
            chain.run(steps, visits)
        assert len(chain.built) == len(set(chain.built)) > 1
        assert {chain.keys[s] for s in chain.built} == set(visits) | {start}
        assert [s for s, row in enumerate(chain.rows) if row is not None] == sorted(chain.built)
        assert len(chain.keys) == len(chain.ids) == len(chain.rows)
        assert all(chain.ids[key] == s for s, key in enumerate(chain.keys))


class _CountingRng(random.Random):
    """A Random that counts its random() calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.uniforms = 0

    def random(self):
        self.uniforms += 1
        return super().random()


class TestHolding:
    def test_absorbing_single_state_walk(self):
        # No returns and beta = 0: the one state has no move at all (p = 0),
        # so any budget is held there at once, with no draw, no log(0) and
        # no loop over the steps.
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0)], np.empty((0, 2)), beta=0.0,
        )
        chain = _Chain(matrix, cfg, sensor.p_d)
        chain.start(_CountingRng(0))
        visits = {}
        chain.run(10**15, visits)
        assert visits == {((), ()): 10**15}
        assert chain.kernel_row(((), ()))[1] == 0.0
        assert chain.rng.uniforms == 0

    @pytest.mark.parametrize("burn,record", [(0, 1), (0, 7), (3, 1), (0, 5000)])
    def test_small_budgets(self, burn, record):
        parent, matrix, cfg, sensor = make_instance(*TestExactKernel.INSTANCES["3x3"])
        samples = sample_children(
            parent, matrix,
            SamplerConfig(burn_in_steps=burn, record_steps=record,
                          children_kept=10**6, seed=5),
            cfg, sensor,
        )
        assert sum(s.visits for s in samples) == record
        assert all(s.visits > 0 for s in samples)

    def test_zero_steps_draw_nothing(self):
        parent, matrix, cfg, sensor = make_instance(*TestExactKernel.INSTANCES["2x2"])
        chain = _Chain(matrix, cfg, sensor.p_d)
        chain.start(_CountingRng(0))
        key = chain.key()
        visits = {}
        chain.run(0, visits)
        assert (visits, chain.key(), chain.rng.uniforms) == ({}, key, 0)

    def test_leave_probability_past_one_is_guarded(self):
        # Summation can carry p a rounding error past 1. Such a state holds
        # no step and draws no holding variate (log1p(-p) would be NaN):
        # each step is a move, one random() each, and the largest variate
        # still lands on the last destination.
        parent, matrix, cfg, sensor = make_instance(*TestExactKernel.INSTANCES["2x2"])
        chain = _Chain(matrix, cfg, sensor.p_d)
        a, b = ((0, 1), ()), ((1, 0), ())
        ia, ib = chain.state_id(a), chain.state_id(b)
        p = 1.0 + 2.0**-52
        chain.rows[ia] = _id_row(0.0, p, [0.5, p], [ib, ib])
        chain.rows[ib] = _id_row(0.0, p, [0.5, p], [ia, ia])

        class TopRng(_CountingRng):
            def random(self):
                super().random()
                return 1.0 - 2.0**-53

        chain.load(a)
        chain.rng = TopRng(0)
        visits = {}
        chain.run(5, visits)
        assert visits == {b: 3, a: 2}
        assert chain.rng.uniforms == 5

    @given(seed=st.integers(0, 2**32 - 1), budgets=st.lists(st.integers(0, 300), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_visits_sum_to_the_steps_run(self, seed, budgets):
        parent, matrix, cfg, sensor = make_instance(
            *TestExactKernel.INSTANCES["sparse"], clutter_density=3e-3,
        )
        chain = _Chain(matrix, cfg, sensor.p_d)
        chain.start(random.Random(seed))
        visits = {}
        for n, steps in enumerate(budgets, 1):
            chain.run(steps, visits)
            assert sum(visits.values()) == sum(budgets[:n])
        assert all(v > 0 for v in visits.values())
