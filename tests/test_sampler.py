"""Metropolis walk: proposal rules, acceptance, kernel rows, holding times,
dedup, oracle agreement."""

import itertools
import math
import sys
import warnings
import zlib
from collections import Counter
from dataclasses import replace
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from mcmctrack import sampler
from mcmctrack import tracker as tracker_module
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
from mcmctrack.oracle import (
    _independent_log_score,
    enumerate_child_events,
    enumerate_child_keys,
    exact_posterior,
    tv_distance,
)
from mcmctrack.presets import PRESETS, preset_single_spawn, tracker_config_for
from mcmctrack.sampler import (
    Kernel,
    SamplerConfig,
    _Walk,
    enumerate_children,
    prior_table,
    sample_children,
    visit_distribution,
)
from mcmctrack.simulate import simulate_scenario
from mcmctrack.tracker import Tracker, run_tracker
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
    """A _Walk over a fresh Kernel of one instance, awaiting only (rng,
    event=None): started from rng, or standing on event and drawing from
    rng."""

    def walk(rng, event=None):
        chain = _Walk(Kernel(matrix, cfg, sensor.p_d))
        if event is None:
            chain.start(rng)
        else:
            chain.sid = chain.kernel.state_id(key_of(matrix, event))
            chain.rng = rng
        return chain

    return walk


def make_walk(positions, returns, **kwargs):
    parent, matrix, cfg, sensor = make_instance(positions, returns, **kwargs)
    return parent, walk_for(matrix, cfg, sensor)


def loaded(walk, event):
    """walk's chain standing on event."""
    return walk(np.random.default_rng(0), event)


def key_at(chain):
    """The key of the walk chain's state."""
    return chain.kernel.keys[chain.sid]


def event_at(chain):
    """The event of the walk chain's state."""
    return chain.kernel.matrix.event_of(key_at(chain))


def tally_at(chain):
    """The kernel's tally of the walk chain's state: (claimed_by, k, n_b,
    finite, score)."""
    return chain.kernel.tally(key_at(chain))


def visits_of(chain):
    """The walk chain's visits by key, for the ids with a visit."""
    return {chain.kernel.keys[sid]: n for sid, n in enumerate(chain.visits) if n}


def reset_visits(chain):
    """Zero the walk chain's visits, as sample_children does after burn-in."""
    chain.visits = [0] * len(chain.visits)


def kernel_row(kernel, key):
    """The one-step kernel row of state key as (score, p, cumulative,
    destinations), destinations as keys: a view of its kernel row, which is
    built on the first request (build_row) and memoized in the kernel."""
    sid = kernel.state_id(key)
    score, p, cumulative, destinations = kernel.rows[sid] or kernel.build_row(sid)
    return score, p, cumulative, [kernel.keys[d] for d in destinations]


def reference_score(matrix, cfg, p_d, key):
    """log_count_prior of key's counts plus its selected entries, summed
    here rather than by Kernel."""
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


def production_row(kernel, key):
    """kernel_row(kernel, key) as {destination: probability}, after checking
    its shape: one cumulative entry per destination, non-decreasing from a
    positive first move, ending at p."""
    _, p, cumulative, destinations = kernel_row(kernel, key)
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
    chain = walk(np.random.default_rng(0), event)
    row = production_row(chain.kernel, key_at(chain))
    return {chain.kernel.matrix.event_of(d): prob for d, prob in row.items()}


def proposal_support(walk, event):
    """All events one accepted proposal away from event (itself included
    when some step leaves the state unchanged)."""
    chain = walk(np.random.default_rng(0), event)
    _, p, _, destinations = kernel_row(chain.kernel, key_at(chain))
    out = {chain.kernel.matrix.event_of(d).canonical_key() for d in destinations}
    if p < 1.0:
        out.add(event.canonical_key())
    return out


class TestInitChain:
    def test_deterministic_given_seed(self):
        parent, walk = make_walk(
            [(100.0, 0.0), (50.0, 60.0)], [[99.0, 1.0], [52.0, 58.0]]
        )
        a = walk(np.random.default_rng(7))
        b = walk(np.random.default_rng(7))
        assert event_at(a) == event_at(b)
        assert tally_at(a)[4] == tally_at(b)[4]

    def test_zero_returns(self):
        parent, matrix, cfg, sensor = make_instance([(100.0, 0.0)], np.empty((0, 2)))
        chain = _Walk(Kernel(matrix, cfg, sensor.p_d))
        chain.start(np.random.default_rng(0))
        assert event_at(chain).assignments == ()
        assert event_at(chain).deaths == frozenset()
        expected = log_child_prior(event_at(chain), parent, cfg, sensor.p_d, 0)
        assert tally_at(chain)[4] == pytest.approx(expected, rel=1e-12)

    def test_no_objects_only_birth_or_clutter(self):
        parent, walk = make_walk([], [[10.0, 0.0], [20.0, 5.0]])
        for seed in range(20):
            chain = walk(np.random.default_rng(seed))
            assert all(a in (BIRTH, CLUTTER) for a in event_at(chain).assignments)

    def test_no_duplicate_claims_and_empty_deaths(self):
        parent, walk = make_walk(
            [(100.0, 0.0)], [[99.0, 1.0], [101.0, -1.0], [100.0, 0.5]]
        )
        for seed in range(50):
            event = event_at(walk(np.random.default_rng(seed)))
            objs = event.associated_labels
            assert len(objs) == len(set(objs))
            assert event.deaths == frozenset()

    def test_loaded_event_scored_from_scratch(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0), (50.0, 60.0), (0.0, -80.0)],
            [[99.0, 1.0], [52.0, 58.0]],
        )
        event = AssociationEvent(assignments=(BIRTH, "t01"), deaths=frozenset({"t02"}))
        chain = _Walk(Kernel(matrix, cfg, sensor.p_d))
        chain.sid = chain.kernel.state_id(key_of(matrix, event))
        assert event_at(chain) == event
        _, k, n_b, _, score = tally_at(chain)
        assert (k, n_b) == (1, 1)
        expected = log_child_prior(event, parent, cfg, sensor.p_d, 2) + (
            hypothesis_log_likelihood(event, matrix)
        )
        assert score == pytest.approx(expected, rel=1e-12)


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
        assert tally_at(before)[4] == -math.inf
        row = row_of(walk, event)
        swapped = AssociationEvent(assignments=("t02", old))
        assert row[swapped] == pytest.approx(draws / (3 * 4), rel=1e-15)
        after = loaded(walk, swapped)
        assert tally_at(after)[1:3] == tally_at(before)[1:3]
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
        here, there = tally_at(loaded(walk, event))[4], tally_at(loaded(walk, swapped))[4]
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

        class RecordingTable:
            """A view of a prior table that records each (k, n_b, n_d) cell
            read through it."""

            def __init__(self, table, index=()):
                self.table, self.index = table, index

            def __getitem__(self, i):
                index = self.index + (i,)
                if len(index) < 3:
                    return RecordingTable(self.table[i], index)
                lookups.append(index)
                return self.table[i]

        chain = loaded(walk, AssociationEvent(assignments=(CLUTTER,)))
        kernel = chain.kernel
        assert kernel.entries[0][0] == -math.inf
        kernel.prior = RecordingTable(kernel.prior)
        _, _, _, destinations = kernel_row(kernel, key_at(chain))
        assert destinations == [((1,), ()), ((2,), (0,))]  # birth, t00 dies
        # tally reads the state's counts, then the row birth's and the
        # death's.
        assert lookups == [(0, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_prior_table_matches_log_count_prior(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0), (50.0, 60.0)], [[99.0, 1.0], [52.0, 58.0]], n_pixels=1
        )
        assert matrix.death_eligible == (True, True)
        kernel = Kernel(matrix, cfg, sensor.p_d)
        # The table holds exactly the triples k + n_b <= 2, k + n_d <= 2.
        cells = [(k, n_b, n_d) for k in range(3) for n_b in range(3 - k) for n_d in range(3 - k)]
        assert cells == [
            (k, n_b, n_d)
            for k, births in enumerate(kernel.prior)
            for n_b, deaths in enumerate(births)
            for n_d in range(len(deaths))
        ]
        for k, n_b, n_d in cells:
            expected = log_count_prior(k, n_b, n_d, 2, 2, cfg, sensor.p_d)
            assert kernel.prior[k][n_b][n_d] == expected
        assert kernel.prior[0][2][0] == -math.inf  # more births than pixels
        # Kernels over matrices of one key share one table; another key
        # (here p_d, or one object fewer) has its own.
        assert Kernel(matrix.select([1, 0]), cfg, sensor.p_d).prior is kernel.prior
        assert Kernel(matrix, cfg, 0.5).prior is not kernel.prior
        assert Kernel(matrix.select([0]), cfg, sensor.p_d).prior is not kernel.prior

    def test_never_produces_duplicate_claims(self):
        parent, walk = make_walk(
            [(100.0, 0.0), (50.0, 60.0)],
            [[99.0, 1.0], [52.0, 58.0], [75.0, 30.0]],
        )
        chain = walk(np.random.default_rng(123))
        for _ in range(100_000):
            chain.run(1)
            event = event_at(chain)
            objs = event.associated_labels
            assert len(objs) == len(set(objs))
            assert not (event.deaths & set(objs))
        # Nor does any row's destination.
        kernel = chain.kernel
        for row in filter(None, kernel.rows):
            for assign, deaths in (kernel.keys[d] for d in row[3]):
                objs = [c for c in assign if c < kernel.n_objects]
                assert len(objs) == len(set(objs))
                assert not set(deaths) & set(objs)

    def test_scores_consistent_with_production_composition(self):
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0), (50.0, 60.0)], [[99.0, 1.0], [52.0, 58.0]]
        )
        chain = _Walk(Kernel(matrix, cfg, sensor.p_d))
        chain.start(np.random.default_rng(5))
        for _ in range(200):
            chain.run(1)
            event = event_at(chain)
            expected = log_child_prior(
                event, parent, cfg, sensor.p_d, 2
            ) + hypothesis_log_likelihood(event, matrix)
            for score in (tally_at(chain)[4], chain.kernel.rows[chain.sid][0]):
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
        )

    @staticmethod
    def kernel(matrix):
        return Kernel(matrix, BirthDeathConfig(alpha=0.05, beta=0.0, n_pixels=1), 0.9)

    def gap(self, kernel):
        """t00's entry that makes candidate - current equal 0."""
        return kernel.prior[0][0][0] - kernel.prior[1][0][0]

    START = ((2,), ())
    TO_T00 = ((0,), ())

    def test_higher_score_always_accepted(self):
        kernel = self.kernel(self.matrix(0.0))
        kernel = self.kernel(self.matrix(self.gap(kernel) + 2.0))
        assert production_row(kernel, self.START)[self.TO_T00] == self.Q

    def test_half_ratio_accepted_half_the_time(self):
        kernel = self.kernel(self.matrix(0.0))
        kernel = self.kernel(self.matrix(self.gap(kernel) - math.log(2.0)))
        assert production_row(kernel, self.START)[self.TO_T00] == pytest.approx(
            self.Q / 2, rel=1e-12)
        # And one-step walks from the start take the move that often.
        chain = _Walk(kernel)
        chain.rng = np.random.default_rng(321)
        hits = 0
        for _ in range(100_000):
            chain.sid = kernel.state_id(self.START)
            chain.run(1)
            hits += key_at(chain) == self.TO_T00
        assert abs(hits / 100_000 - self.Q / 2) < 0.005

    def test_minus_inf_always_rejected(self):
        kernel = self.kernel(self.matrix(-math.inf))
        assert self.TO_T00 not in production_row(kernel, self.START)

    def test_minus_inf_accepted_on_zero_mass_plateau(self):
        # From a zero-mass state every proposal that changes the state is
        # accepted, whatever the target scores, so a random init on the
        # plateau can leave it: here clutter's entry is -inf, and both the
        # finite t00 and the -inf birth are destinations.
        for t00 in (-math.inf, 0.0):
            kernel = self.kernel(self.matrix(t00, clutter_entry=-math.inf))
            row = production_row(kernel, self.START)
            assert kernel.rows[kernel.ids[self.START]][0] == -math.inf
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
        for burn_in_steps in (100, 0):
            scfg = SamplerConfig(
                burn_in_steps=burn_in_steps, record_steps=1000, children_kept=50, seed=1,
            )
            samples = sample_children(parent, matrix, scfg, cfg, sensor)
            assert sum(s.visits for s in samples) == 1000
        # The last input, burn-in 0, is the presets' path: the record run
        # starts at the walk's start state, and children_kept covers every
        # visited state, so the start state is one of the children.
        walk = _Walk(Kernel(matrix, cfg, sensor.p_d))
        walk.start(np.random.default_rng(sampler.chain_seed(scfg.seed, parent.id)))
        assert len(samples) < scfg.children_kept
        assert walk.kernel.keys[walk.sid] in [key_of(matrix, s.event) for s in samples]


def assert_one_class(edges, states):
    """Assert that states, joined by edges ({state: destinations}), form
    one communicating class: every state is reached from the first and
    reaches it back."""
    reverse = {key: set() for key in states}
    for src, dsts in edges.items():
        for dst in dsts:
            reverse[dst].add(src)
    start = next(iter(states))
    for links in (edges, reverse):
        reached, frontier = {start}, [start]
        while frontier:
            for dest in links[frontier.pop()]:
                if dest not in reached:
                    reached.add(dest)
                    frontier.append(dest)
        assert reached == set(states)


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
            if tally_at(loaded(walk, e))[4] > -math.inf
        }
        assert_one_class(
            {key: proposal_support(walk, event) for key, event in all_events.items()},
            set(all_events),
        )

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
        kernel = Kernel(matrix, cfg, sensor.p_d)
        keys = list(all_keys(matrix))
        reference = {key: reference_row(matrix, cfg, sensor.p_d, key) for key in keys}
        production = {key: production_row(kernel, key) for key in keys}
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
        kernel = Kernel(matrix, cfg, sensor.p_d)
        score, p, _, destinations = kernel_row(kernel, births)
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
        kernel = Kernel(mat, cfg, p_d)
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
            assert_rows_match(production_row(kernel, key), expected)
            if reference_score(mat, cfg, p_d, key) > -math.inf:
                # No -inf destination from a finite state.
                assert all(reference_score(mat, cfg, p_d, d) > -math.inf for d in expected)

    def test_preset_parents_kernel_is_exact(self, monkeypatch):
        # The first parent each scan visits in single-spawn and
        # twenty-object runs at seeds 0 and 9001, with its selected matrix:
        # on every finite key the production rows form one communicating
        # class that no row leaves, and the posterior scored independently
        # of the rows (the oracle's scorer) is stationary to rounding.
        # Relative pairwise balance would be the wrong check: tiny moves
        # round in the cumulative sums.
        captured = []
        real = tracker_module.sample_children

        def capturing(parent, matrix, scfg, bd, sensor, kernel):
            captured.append((parent, matrix, bd, sensor))
            return real(parent, matrix, scfg, bd, sensor, kernel)

        monkeypatch.setattr(tracker_module, "sample_children", capturing)
        instances = []
        for name, seed in product(["single-spawn", "twenty-object"], [0, 9001]):
            scenario = PRESETS[name](seed=seed)
            _, frames = simulate_scenario(scenario)
            tracker = Tracker(tracker_config_for(scenario, seed=seed))
            hyps = tracker.initial_hypotheses(scenario.initial_tracks())
            for frame in frames:
                captured.clear()
                hyps, _ = tracker.step(hyps, frame)
                instances.extend(captured[:1])
        assert len(instances) == 56
        for parent, matrix, bd, sensor in instances:
            pi = {}
            for key in enumerate_child_keys(matrix):
                score = _independent_log_score(
                    matrix.event_of(key), matrix, bd, sensor, len(parent.tracks))
                if score > -math.inf:
                    pi[key] = score
            top = max(pi.values())
            pi = {key: math.exp(score - top) for key, score in pi.items()}
            kernel = Kernel(matrix, bd, sensor.p_d)
            rows = {}
            for key in pi:
                _, _, cumulative, destinations = kernel_row(kernel, key)
                assert all(dest in pi for dest in destinations)
                # A move far less likely than the row's sum so far leaves the
                # cumulative sum unchanged: probability 0 here, but still a
                # move of the row, so an edge of the class.
                rows[key] = row = dict.fromkeys(destinations, 0.0)
                for below, c, dest in zip([0.0, *cumulative], cumulative, destinations):
                    row[dest] += c - below
            assert_one_class(rows, pi)
            moved = {key: p * (1.0 - sum(rows[key].values())) for key, p in pi.items()}
            for key, row in rows.items():
                for dest, prob in row.items():
                    moved[dest] += pi[key] * prob
            error = sum(abs(moved[key] - p) for key, p in pi.items())
            assert error <= 1e-12 * sum(pi.values())


class TestOneScorer:
    @given(
        mat=sparse_matrices(),
        n_pixels=st.integers(1, 2),
        p_d=st.sampled_from([0.9, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_enumerated_scores_are_row_scores(self, mat, n_pixels, p_d):
        # Enumerated and walked children share one scorer: each child of
        # enumerate_children, in enumeration order, carries bit for bit the
        # score of its key's kernel row in a fresh kernel.
        cfg = BirthDeathConfig(alpha=0.05, beta=0.1, n_pixels=n_pixels)
        keys = list(enumerate_child_keys(mat))
        children = enumerate_children(Kernel(mat, cfg, p_d))
        assert [c.event for c in children] == [mat.event_of(key) for key in keys]
        for key, child in zip(keys, children):
            score = kernel_row(Kernel(mat, cfg, p_d), key)[0]
            assert score.hex() == child.log_score.hex()
            assert child.visits == 0


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
    def replay(rows, rng, stacks, key, steps, visits):
        """The jump chain as the stream contract states it, over the rows
        of a second kernel, drawing from rng: each departure from a state
        with p > 0 (or hold of a budget there) pops the next pair of the
        state's stack in stacks (key -> [pairs left, next batch size]),
        which is refilled when empty with a batch of n pairs, n = 16 at
        first and doubling up to 1024: rng.random(n), each times p and
        found among the cumulative probabilities, for the destinations,
        then, where p < 1, rng.standard_exponential(n), floor(E /
        -log1p(-p)) each, for the holds. A state with p = 0 holds the
        budget and draws nothing. Adds each step's visit to visits by key.
        Returns (final key, batches drawn, moves)."""
        batches = moves = 0
        left, count = steps, 0
        while left:
            _, p, cumulative, destinations = kernel_row(rows, key)
            if p <= 0.0:
                hold = left
            else:
                stack = stacks.setdefault(key, [[], 16])
                if not stack[0]:
                    n = stack[1]
                    stack[1] = min(2 * n, 1024)
                    batches += 1
                    last = len(cumulative) - 1
                    dests = [
                        destinations[next((j for j, c in enumerate(cumulative) if u * p < c),
                                          last)]
                        for u in rng.random(n)
                    ]
                    if p >= 1.0:
                        holds = [0] * n
                    else:
                        holds = [math.floor(min(e / -math.log1p(-p), sampler.MAX_HOLD))
                                 for e in rng.standard_exponential(n)]
                    stack[0] = list(zip(holds, dests))[::-1]
                hold, dest = stack[0].pop()
            if hold >= left:
                count += left
                break
            count += hold
            left -= hold + 1
            if count:
                visits[key] = visits.get(key, 0) + count
            moves += 1
            key, count = dest, 1
        if count:
            visits[key] = visits.get(key, 0) + count
        return key, batches, moves

    @staticmethod
    def start_key(matrix, u):
        """The start state the stream contract gives for uniforms u, one
        per return, computed from matrix.log_entries here rather than by
        Kernel: a return weighs its finite columns by exp(entry - the row's
        largest finite entry), or every column by 1 when none is finite, and
        takes the first column whose running weight, summed left to right,
        exceeds u times the row's total (the last if none does). An object
        already claimed resolves to clutter, and no object dies."""
        assign = []
        for row, u_i in zip(matrix.log_entries.tolist(), u):
            finite = [(c, e) for c, e in enumerate(row) if e > -math.inf]
            if finite:
                top = max(e for _, e in finite)
                weighted = [(c, math.exp(e - top)) for c, e in finite]
            else:
                weighted = [(c, 1.0) for c in range(len(row))]
            running, total = [], 0.0
            for _, w in weighted:
                total += w
                running.append(total)
            col = next((c for (c, _), r in zip(weighted, running) if u_i * total < r),
                       weighted[-1][0])
            if col < matrix.n_objects and col in assign:
                col = matrix.clutter_col
            assign.append(col)
        return tuple(assign), ()

    @classmethod
    def started(cls, matrix, cfg, p_d, seed):
        """A walk chain started from default_rng(seed), and a second
        generator of the same entropy that has drawn what start draws,
        rng.random(m): the chain stands on start_key of those draws."""
        chain = _Walk(Kernel(matrix, cfg, p_d))
        chain.start(np.random.default_rng(seed))
        ref = np.random.default_rng(seed)
        assert key_at(chain) == cls.start_key(matrix, ref.random(matrix.n_returns))
        assert ref.bit_generator.state == chain.rng.bit_generator.state
        return chain, ref

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_stream_contract(self, seed):
        # start draws rng.random(m) and stands on the state start_key gives
        # for those draws. A reference generator of the same entropy replaying
        # the documented jump chain over the same rows then stays in the
        # chain generator's state, run by run, and the visits recorded
        # after burn-in agree.
        parent, matrix, cfg, sensor = make_instance(
            *self.INSTANCES["sparse"], clutter_density=3e-3,
        )
        chain, ref = self.started(matrix, cfg, sensor.p_d, seed)
        rows = Kernel(matrix, cfg, sensor.p_d)
        key = key_at(chain)
        stacks, expected = {}, {}
        batches = moves = 0
        for steps, reset in [(300, False), (4000, True)]:
            if reset:
                reset_visits(chain)
                expected.clear()
            chain.run(steps)
            key, b, mv = self.replay(rows, ref, stacks, key, steps, expected)
            batches += b
            moves += mv
            assert key_at(chain) == key
            assert ref.bit_generator.state == chain.rng.bit_generator.state
        assert visits_of(chain) == expected
        assert sum(chain.visits) == 4000
        assert moves > 0
        # Some state used up its first two batches and drew a third.
        assert batches > len(stacks) and max(size for _, size in stacks.values()) > 64

    def test_start_follows_the_likelihood(self):
        # One return whose supported columns have likelihoods 1 and 3
        # starts on the heavier one 3/4 of the time. A return with no
        # supported column draws among all M+2 columns, and a return that
        # draws an object already claimed resolves to clutter: here every
        # row supports only t00, so row 2 always ends on clutter.
        C = CLUTTER
        seeds = range(4000)
        weighted = AssociationMatrix(
            np.array([[math.log(1.0), -math.inf, math.log(3.0)]]), ("t00",), (False,))
        plateau = AssociationMatrix(
            np.array([[-math.inf] * 4, [0.0, *[-math.inf] * 3], [-2.0, *[-math.inf] * 3]]),
            ("t00", "t01"), (False, False))
        bd = BirthDeathConfig(alpha=0.05, beta=0.0)
        starts = {}
        for name, matrix in (("weighted", weighted), ("plateau", plateau)):
            starts[name] = [event_at(self.started(matrix, bd, 0.9, seed)[0]).assignments
                            for seed in seeds]

        def within_5_sigma(hits, p):
            return abs(hits - p * len(seeds)) <= 5 * math.sqrt(len(seeds) * p * (1 - p))

        assert within_5_sigma(starts["weighted"].count((C,)), 3 / 4)
        assert set(starts["weighted"]) == {(C,), ("t00",)}
        first = Counter(a[0] for a in starts["plateau"])
        assert set(first) == {"t00", "t01", BIRTH, C}
        assert all(within_5_sigma(n, 1 / 4) for n in first.values())
        assert {a[1:] for a in starts["plateau"]} == {("t00", C), (C, C)}
        assert all(a[1] == C for a in starts["plateau"] if a[0] == "t00")

    @classmethod
    def assert_runs_follow_replay(cls, matrix, cfg, p_d, seed, budgets):
        """Runs of budgets[i] = (steps, reset) steps each, the visits zeroed
        before the run where reset is true, end where the replay over a
        second kernel's rows ends, with its generator state and its
        visits."""
        chain, ref = cls.started(matrix, cfg, p_d, seed)
        rows = Kernel(matrix, cfg, p_d)
        key = key_at(chain)
        stacks, expected = {}, {}
        for steps, reset in budgets:
            if reset:
                reset_visits(chain)
                expected.clear()
            chain.run(steps)
            key, _, _ = cls.replay(rows, ref, stacks, key, steps, expected)
            assert key_at(chain) == key
            assert ref.bit_generator.state == chain.rng.bit_generator.state
        assert visits_of(chain) == expected

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
            ((("t00", "t01", C), ()), 1459, -17.258838541538672),
            ((("t01", "t00", C), ()), 973, -17.858838541538674),
            ((("t00", "t01", C), ("t02",)), 723, -17.95198572209862),
            ((("t01", "t00", C), ("t02",)), 493, -18.551985722098618),
            ((("t00", C, C), ()), 31, -20.99974394978553),
            (((C, "t01", C), ()), 73, -20.99974394978553),
            ((("t01", C, C), ()), 24, -21.29974394978553),
            (((C, "t00", C), ()), 30, -21.29974394978553),
            ((("t00", C, C), ("t01",)), 13, -21.692891130345473),
            ((("t00", C, C), ("t02",)), 27, -21.692891130345473),
        ],
        "dense3x3": [
            ((("t00", "t01", "t02"), ()), 1165, -12.824785952731872),
            ((("t01", "t00", "t02"), ()), 636, -13.274785952731872),
            ((("t01", "t02", "t00"), ()), 590, -13.474785952731873),
            ((("t02", "t01", "t00"), ()), 574, -13.524785952731873),
            ((("t00", "t02", "t01"), ()), 513, -13.724785952731873),
            ((("t02", "t00", "t01"), ()), 314, -14.224785952731873),
            ((("t00", C, "t02"), ()), 10, -17.158838541538675),
            ((("t00", "t01", C), ()), 17, -17.283838541538675),
            (((C, "t01", "t02"), ()), 10, -17.33383854153867),
            ((("t01", C, "t02"), ()), 23, -17.433838541538673),
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


class TestPriorTable:
    @given(
        mat=sparse_matrices(),
        n_pixels=st.integers(1, 2),
        p_d=st.sampled_from([0.9, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_child_key_lies_in_the_table(self, mat, n_pixels, p_d):
        # Each key's counts (k, n_b, n_d) index a cell of the matrix's
        # table, so no tally or row lookup can fall outside it.
        cfg = BirthDeathConfig(alpha=0.05, beta=0.1, n_pixels=n_pixels)
        table = prior_table(mat.n_objects, sum(mat.death_eligible), mat.n_returns, cfg, p_d)
        for assign, deaths in enumerate_child_keys(mat):
            k = sum(c < mat.n_objects for c in assign)
            n_b = assign.count(mat.birth_col)
            assert k < len(table)
            assert n_b < len(table[k])
            assert len(deaths) < len(table[k][n_b])

    def test_each_table_built_once_per_run(self, monkeypatch):
        # Over a seed-0 single-spawn run the formula is called once per
        # cell of each distinct table the run asks for: tables are built
        # once per run, not once per scan or per walk.
        prior_table.cache_clear()
        calls = []
        formula = sampler.log_count_prior
        monkeypatch.setattr(
            sampler, "log_count_prior", lambda *args: calls.append(args) or formula(*args))
        requested = set()

        def recorded(*args):
            requested.add(args)
            return prior_table(*args)

        monkeypatch.setattr(sampler, "prior_table", recorded)
        scenario = preset_single_spawn(seed=0)
        _, frames = simulate_scenario(scenario)
        tracker = Tracker(tracker_config_for(scenario, seed=0))
        run_tracker(tracker, tracker.initial_hypotheses(scenario.initial_tracks()), frames)
        n_calls = len(calls)
        assert prior_table.cache_info().misses == len(requested) > 1
        assert prior_table.cache_info().hits > 0
        assert n_calls == sum(
            len(deaths) for args in requested for births in prior_table(*args) for deaths in births
        )
        assert len(calls) == n_calls  # the tables were still cached


class TestKeyCache:
    def test_cached_key_follows_every_step(self):
        # run(1) adds one visit to the id of the state the step ends in,
        # whether it moved or not, and that state's memoized row carries its
        # from-scratch score.
        positions, returns = TestExactKernel.INSTANCES["3x3"]
        parent, matrix, cfg, sensor = make_instance(
            positions, returns, beta=0.05, clutter_density=3e-3,
        )
        chain = _Walk(Kernel(matrix, cfg, sensor.p_d))
        chain.start(np.random.default_rng(8))
        before = key_at(chain)
        toggles = swaps = 0
        for step in range(1, 5001):
            chain.run(1)
            fresh = key_at(chain)
            assert chain.kernel.rows[chain.sid][0] == pytest.approx(
                reference_score(matrix, cfg, sensor.p_d, fresh), rel=1e-12)
            assert sum(chain.visits) == step
            if fresh[1] != before[1]:
                toggles += 1
            elif sum(a != b for a, b in zip(fresh[0], before[0])) == 2:
                swaps += 1
            before = fresh
        assert toggles > 0 and swaps > 0
        assert len(visits_of(chain)) > 1


class TestIdRows:
    @pytest.mark.parametrize("name", ["3x3", "sparse"])
    def test_walk_builds_each_reached_row_once(self, name):
        # A state's row is built the first time the walk stands on it and
        # read from the memo ever after, across runs; a state that is only
        # named as a destination gets an id and no row.
        class CountingKernel(Kernel):
            __slots__ = ("built",)

            def build_row(self, sid):
                self.built.append(sid)
                return super().build_row(sid)

        _, matrix, cfg, sensor = make_instance(
            *TestExactKernel.INSTANCES[name], clutter_density=3e-3,
        )
        kernel = CountingKernel(matrix, cfg, sensor.p_d)
        kernel.built = []
        chain = _Walk(kernel)
        chain.start(np.random.default_rng(4))
        start = key_at(chain)
        for steps in (500, 20_000, 20_000):
            chain.run(steps)
        assert len(kernel.built) == len(set(kernel.built)) > 1
        assert {kernel.keys[s] for s in kernel.built} == set(visits_of(chain)) | {start}
        assert [s for s, row in enumerate(kernel.rows) if row is not None] == sorted(kernel.built)
        assert len(kernel.keys) == len(kernel.ids) == len(kernel.rows)
        assert len(chain.visits) == len(kernel.keys) == len(kernel.rows)
        assert all(kernel.ids[key] == s for s, key in enumerate(kernel.keys))


class TestHolding:
    def test_absorbing_single_state_walk(self):
        # No returns and beta = 0: the one state has no move at all (p = 0),
        # so any budget is held there at once, with no draw, no log(0) and
        # no loop over the steps. start has no column to draw either, so the
        # generator stays as seeded. A budget past MAX_HOLD runs in parts.
        parent, matrix, cfg, sensor = make_instance(
            [(100.0, 0.0)], np.empty((0, 2)), beta=0.0,
        )
        chain = _Walk(Kernel(matrix, cfg, sensor.p_d))
        chain.start(np.random.default_rng(0))
        chain.run(10**15)
        assert visits_of(chain) == {((), ()): 10**15}
        assert kernel_row(chain.kernel, ((), ()))[1] == 0.0
        chain.run(2**70)
        assert visits_of(chain) == {((), ()): 10**15 + 2**70}
        assert chain.rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_hold_past_max_hold_runs_in_parts(self):
        # A state that leaves with p = 1e-300 draws holds near 1e300, kept
        # at MAX_HOLD. A budget past MAX_HOLD runs as runs of at most
        # MAX_HOLD steps, so each part holds out on one pair: the whole
        # budget stays on the state, from one batch of pairs.
        parent, matrix, cfg, sensor = make_instance(*TestExactKernel.INSTANCES["2x2"])
        kernel = Kernel(matrix, cfg, sensor.p_d)
        a, b = ((0, 1), ()), ((1, 0), ())
        ia, ib = kernel.state_id(a), kernel.state_id(b)
        kernel.rows[ia] = (0.0, 1e-300, [1e-300], [ib])
        chain = _Walk(kernel)
        chain.sid = ia
        chain.rng = np.random.default_rng(0)
        steps = 3 * sampler.MAX_HOLD + 5
        chain.run(steps)
        assert visits_of(chain) == {a: steps}
        ref = np.random.default_rng(0)
        ref.random(sampler.FIRST_BATCH)
        holds = ref.standard_exponential(sampler.FIRST_BATCH) / -math.log1p(-1e-300)
        assert (holds > sampler.MAX_HOLD).all()
        assert chain.rng.bit_generator.state == ref.bit_generator.state

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
        chain = _Walk(Kernel(matrix, cfg, sensor.p_d))
        chain.start(np.random.default_rng(0))
        key = key_at(chain)
        state = chain.rng.bit_generator.state
        chain.run(0)
        assert (visits_of(chain), key_at(chain)) == ({}, key)
        assert chain.rng.bit_generator.state == state

    @staticmethod
    def scripted(spans_a, spans_b):
        """A walk chain on two states a and b of the 2x2 instance, standing
        on a, whose pair sources give spans_a and spans_b in turn, each
        moving to the other state: run takes its pairs from them and draws
        nothing."""
        parent, matrix, cfg, sensor = make_instance(*TestExactKernel.INSTANCES["2x2"])
        kernel = Kernel(matrix, cfg, sensor.p_d)
        ia, ib = kernel.state_id(((0, 1), ())), kernel.state_id(((1, 0), ()))
        kernel.rows[ia] = (0.0, 0.5, [0.5], [ib])
        kernel.rows[ib] = (0.0, 0.5, [0.5], [ia])
        chain = _Walk(kernel)
        chain._cover()
        chain.pairs[ia] = iter([(span, ib) for span in spans_a])
        chain.pairs[ib] = iter([(span, ia) for span in spans_b])
        chain.sid = ia
        return chain, ia, ib

    def test_budget_ends_where_a_span_ends(self):
        # A span of 3 in a budget of 3: two steps held on a, the move step
        # to b, and b's source untouched. A span of 5 past a budget of 4 is
        # spent holding on b; run(0) takes no pair and adds no visit; a
        # span of 1 is a move step alone.
        chain, ia, ib = self.scripted([3, 2], [5, 1, 9])
        a, b = chain.kernel.keys[ia], chain.kernel.keys[ib]
        chain.run(3)
        assert (visits_of(chain), chain.sid) == ({a: 2, b: 1}, ib)
        chain.run(4)
        assert (visits_of(chain), chain.sid) == ({a: 2, b: 5}, ib)
        chain.run(0)
        assert (visits_of(chain), chain.sid) == ({a: 2, b: 5}, ib)
        chain.run(1)
        assert (visits_of(chain), chain.sid) == ({a: 3, b: 5}, ia)
        assert (next(chain.pairs[ia]), next(chain.pairs[ib])) == ((2, ib), (9, ia))

    @pytest.mark.parametrize("budgets", [[0, 0, 5], [1] * 12, [2, 0, 3, 1, 6], [19]])
    def test_split_runs_add_exactly_their_steps(self, budgets):
        # Whatever the split, each run adds exactly its budget to the visits,
        # and the one a run's start state gives back up front never leaves
        # a count below zero.
        chain, ia, ib = self.scripted([1, 4, 2, 1] * 5, [3, 1, 5, 2] * 5)
        for n, steps in enumerate(budgets, 1):
            chain.run(steps)
            assert sum(chain.visits) == sum(budgets[:n])
        assert min(chain.visits) >= 0

    def test_leave_probability_past_one_is_guarded(self):
        # Summation can carry p a rounding error past 1. Such a state holds
        # no step and draws no exponential (log1p(-p) would be NaN): each
        # step is a move, and each state's first batch draws only its
        # uniforms, and every span is 1. The largest uniform still lands on
        # the last destination.
        parent, matrix, cfg, sensor = make_instance(*TestExactKernel.INSTANCES["2x2"])
        kernel = Kernel(matrix, cfg, sensor.p_d)
        a, b = ((0, 1), ()), ((1, 0), ())
        ia, ib = kernel.state_id(a), kernel.state_id(b)
        p = 1.0 + 2.0**-52
        kernel.rows[ia] = (0.0, p, [0.5, p], [ib, ib])
        kernel.rows[ib] = (0.0, p, [0.5, p], [ia, ia])
        chain = _Walk(kernel)
        chain.sid = ia
        chain.rng = np.random.default_rng(0)
        chain.run(5)
        assert visits_of(chain) == {b: 3, a: 2}
        ref = np.random.default_rng(0)
        ref.random(sampler.FIRST_BATCH)
        ref.random(sampler.FIRST_BATCH)
        assert chain.rng.bit_generator.state == ref.bit_generator.state

        class TopRng:
            """Draws only the largest uniform below 1, and no exponential."""

            def random(self, n):
                return np.full(n, 1.0 - 2.0**-53)

        # So do the first pair, turned in Python floats, the rest of its
        # batch and the next batch, turned by numpy.
        row = (0.0, p, [0.5, p], [ia, ib])
        n = sampler.FIRST_BATCH + 3
        assert list(islice(source(TopRng(), row, ia), n)) == [(1, ib)] * n

    def test_one_source_per_state(self, monkeypatch):
        # Two states that every step moves between (p = 1), each left more
        # than 3 * FIRST_BATCH times, so across at least two batch
        # boundaries: each makes one _batches generator, at its first
        # departure, and keeps that one source in pairs for the whole walk.
        # The generator yields 4 times: the first pair, the rest of the
        # first batch, and the batches of 32 and 64.
        parent, matrix, cfg, sensor = make_instance(*TestExactKernel.INSTANCES["2x2"])
        kernel = Kernel(matrix, cfg, sensor.p_d)
        ia, ib = kernel.state_id(((0, 1), ())), kernel.state_id(((1, 0), ()))
        kernel.rows[ia] = (0.0, 1.0, [0.5, 1.0], [ib, ib])
        kernel.rows[ib] = (0.0, 1.0, [0.5, 1.0], [ia, ia])
        chain = _Walk(kernel)
        chain.sid = ia
        chain.rng = np.random.default_rng(0)
        made = []
        batches = sampler._batches

        def counted(rng, row, sid):
            made.append(0)
            n = len(made) - 1
            for batch in batches(rng, row, sid):
                made[n] += 1
                yield batch

        monkeypatch.setattr(sampler, "_batches", counted)
        chain.run(2)
        sources = chain.pairs[ia], chain.pairs[ib]
        leaves = 3 * sampler.FIRST_BATCH + 8
        chain.run(2 * leaves - 2)
        assert visits_of(chain) == {((0, 1), ()): leaves, ((1, 0), ()): leaves}
        assert made == [4, 4]
        assert chain.pairs[ia] is sources[0] and chain.pairs[ib] is sources[1]

    @given(seed=st.integers(0, 2**32 - 1), budgets=st.lists(st.integers(0, 300), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_visits_sum_to_the_steps_run(self, seed, budgets):
        parent, matrix, cfg, sensor = make_instance(
            *TestExactKernel.INSTANCES["sparse"], clutter_density=3e-3,
        )
        chain = _Walk(Kernel(matrix, cfg, sensor.p_d))
        chain.start(np.random.default_rng(seed))
        for n, steps in enumerate(budgets, 1):
            chain.run(steps)
            assert sum(chain.visits) == sum(budgets[:n])
        assert all(v > 0 for v in visits_of(chain).values())


def pooled(expected, counts, least=5.0):
    """(expected, counts) summed over groups of bins, taken from the
    smallest expected count up, each group reaching least (the last group
    takes what is left), so a chi-square test sees no tiny bin."""
    groups = []
    e_sum = c_sum = 0.0
    for e, c in sorted(zip(expected, counts)):
        e_sum += e
        c_sum += c
        if e_sum >= least:
            groups.append((e_sum, c_sum))
            e_sum = c_sum = 0.0
    if e_sum or c_sum:
        e_last, c_last = groups.pop() if groups else (0.0, 0.0)
        groups.append((e_last + e_sum, c_last + c_sum))
    return [e for e, _ in groups], [c for _, c in groups]


def source(rng, row, sid=0):
    """The pair stream of state sid with kernel row row, drawn from rng, as
    _Walk.run installs it."""
    return itertools.chain.from_iterable(sampler._batches(rng, row, sid))


def eager_pairs(rng, row, sid=0):
    """A reference of the same stream, each batch drawn whole and turned at
    once by numpy: n pairs, n = FIRST_BATCH at first and doubling up to
    LAST_BATCH, each destination found by a searchsorted of U * p over
    cumulative[:-1], each span E / -log1p(-p) clamped to MAX_HOLD,
    truncated and plus 1 (1 where p >= 1, with no exponential drawn). A
    state with p = 0 holds for ever and draws nothing."""
    _, p, cumulative, destinations = row
    if p == 0.0:
        yield from itertools.repeat((sampler.MAX_HOLD + 1, sid))
    bounds = np.array(cumulative[:-1], dtype=float)
    n = sampler.FIRST_BATCH
    while True:
        dests = np.array(destinations)[np.searchsorted(bounds, rng.random(n) * p, "right")]
        if p >= 1.0:
            spans = [1] * n
        else:
            with np.errstate(over="ignore"):
                holds = rng.standard_exponential(n) / -math.log1p(-p)
            spans = (np.minimum(holds, float(sampler.MAX_HOLD)).astype(np.int64) + 1).tolist()
        yield from zip(spans, dests.tolist())
        n = min(2 * n, sampler.LAST_BATCH)


class TestBatches:
    """The pairs of a state's batches against its kernel row."""

    N = 20_000

    @pytest.mark.parametrize("name", list(TestExactKernel.INSTANCES))
    def test_pairs_follow_the_row(self, monkeypatch, name):
        # One batch of N pairs per state a walk reaches, at a fixed seed:
        # destinations fall on each destination with the row's probability
        # of it over p (chi-square), and holds (span - 1, each span at least
        # 1) average (1 - p) / p, the mean of the geometric count of steps
        # held, within 5 standard errors; a state with p >= 1 holds none.
        _, matrix, cfg, sensor = make_instance(
            *TestExactKernel.INSTANCES[name], clutter_density=3e-3,
        )
        kernel = Kernel(matrix, cfg, sensor.p_d)
        chain = _Walk(kernel)
        chain.start(np.random.default_rng(2))
        chain.run(20_000)
        monkeypatch.setattr(sampler, "FIRST_BATCH", self.N)
        rng = np.random.default_rng(3)
        checked = 0
        for sid in [sid for sid, row in enumerate(kernel.rows) if row is not None]:
            key = kernel.keys[sid]
            p = kernel.rows[sid][1]
            if p <= 0.0:
                continue
            row = production_row(kernel, key)
            spans, dests = zip(*islice(source(rng, kernel.rows[sid], sid), self.N))
            assert len(dests) == self.N and min(spans) >= 1
            holds = [span - 1 for span in spans]
            drawn = Counter(kernel.keys[d] for d in dests)
            assert set(drawn) <= set(row)
            expected, counts = pooled(
                [self.N * prob / p for prob in row.values()], [drawn[d] for d in row])
            if len(counts) > 1:
                stat = sum((c - e) ** 2 / e for e, c in zip(expected, counts))
                assert chi2.sf(stat, len(counts) - 1) > 1e-6, (key, stat)
            if p >= 1.0:
                assert set(holds) == {0}
            else:
                mean = (1.0 - p) / p
                se = math.sqrt((1.0 - p) / p**2 / self.N)
                assert abs(np.mean(holds) - mean) <= 5.0 * se, (key, np.mean(holds), mean)
            checked += 1
        assert checked > 1

    def test_subnormal_leave_probability_draws_quietly(self):
        # p = 7.2e-311 (a state twenty-object reaches at seed 0 with alpha =
        # beta = 0): every E / -log1p(-p) overflows to inf, which numpy
        # warns of by default. The batch draws as for any p < 1 and holds
        # each span at MAX_HOLD + 1, with no warning and numpy's error
        # state left as it was.
        p = 7.2e-311
        ref = np.random.default_rng(0)
        ref.random(sampler.FIRST_BATCH)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert (ref.standard_exponential(sampler.FIRST_BATCH) / -math.log1p(-p)
                    == math.inf).all()
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = list(islice(source(rng, (0.0, p, [p], [0])), sampler.FIRST_BATCH))
        assert batch == [(sampler.MAX_HOLD + 1, 0)] * sampler.FIRST_BATCH
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.geterr()["over"] == "warn"

    @pytest.mark.parametrize("p", [0.25, 1.0 + 2.0**-52])
    def test_batches_double_to_the_cap(self, p):
        # The first batch is yielded as its first pair and then the rest.
        row = (0.0, p, [p / 2, p], [0, 1])
        sizes = [len(list(batch)) for batch in
                 islice(sampler._batches(np.random.default_rng(0), row, 0), 10)]
        assert sizes[:2] == [1, sampler.FIRST_BATCH - 1]
        assert [sum(sizes[:2]), *sizes[2:]] == [16, 32, 64, 128, 256, 512, 1024, 1024, 1024]
        assert (sampler.FIRST_BATCH, sampler.LAST_BATCH) == (16, 1024)


# The smallest subnormal: a leave probability of three of them has so few
# significant bits that U * p rounds up to p for U > 5/6.
TINY = 2.0**-1074


class TestFirstPair:
    """_batches turns a state's first pair in Python floats at its first
    departure and the rest of its first batch by numpy later: the pairs,
    the draws and the walk are those of batches turned whole
    (eager_pairs)."""

    EDGE_ROWS = {
        # Every span is 1 and no exponential is drawn.
        "past-one": (1.0 + 2.0**-52, [0.5, 1.0 + 2.0**-52], [0, 1]),
        "one": (1.0, [0.5, 1.0], [0, 1]),
        # Rates under TINY_RATE, raised to it: every E / rate is past
        # MAX_HOLD, as E / -log1p(-p) is, and each span is clamped.
        "subnormal": (7.2e-311, [7.2e-311], [1]),
        "below-tiny": (2.0**-1001, [2.0**-1001], [1]),
        # A rate just over TINY_RATE, divided as it is.
        "above-tiny": (2.0**-999, [2.0**-999], [1]),
        # U * p rounds up to p and lands on the last move.
        "rounds-up": (3 * TINY, [2 * TINY, 3 * TINY], [0, 1]),
        # No move: held for ever, with no draw.
        "zero": (0.0, [], []),
    }
    COUNTS = (1, 2, 16, 17, 48)

    @classmethod
    def assert_stream_matches(cls, row, seed):
        """The pairs of _batches equal, pair for pair, those of eager_pairs
        over a generator of the same entropy, and the two generators agree
        after pair 1, 2, 16, 17 and 48."""
        rng, clone = np.random.default_rng(seed), np.random.default_rng(seed)
        lazy = source(rng, row)
        eager = eager_pairs(clone, row)
        for j in range(1, cls.COUNTS[-1] + 1):
            assert next(lazy) == next(eager), j
            if j in cls.COUNTS:
                assert rng.bit_generator.state == clone.bit_generator.state, j

    @staticmethod
    def ring(row_a, row_b):
        """A kernel whose states a and b of the 2x2 instance have the rows
        (p, cumulative, moves), each move 0 for a or 1 for b, and a walk
        factory over it, standing on a with default_rng(seed)."""
        _, matrix, cfg, sensor = make_instance(*TestExactKernel.INSTANCES["2x2"])
        kernel = Kernel(matrix, cfg, sensor.p_d)
        ids = kernel.state_id(((0, 1), ())), kernel.state_id(((1, 0), ()))
        for sid, (p, cumulative, moves) in zip(ids, (row_a, row_b)):
            kernel.rows[sid] = (0.0, p, cumulative, [ids[move] for move in moves])

        def walk(seed):
            chain = _Walk(kernel)
            chain.sid, chain.rng = ids[0], np.random.default_rng(seed)
            return chain

        return kernel, walk

    @classmethod
    def pair_ends(cls, kernel, rng, sid):
        """The budgets from sid that end right after pair j of sid's
        stream, j in COUNTS, with every pair drawn from rng by eager_pairs.
        A pair past MAX_HOLD takes one MAX_HOLD part of a run and does not
        move."""
        start, sources, steps, taken, ends = sid, {}, 0, 0, []
        while len(ends) < len(cls.COUNTS):
            if sid not in sources:
                sources[sid] = eager_pairs(rng, kernel.rows[sid], sid)
            span, dest = next(sources[sid])
            moved = span <= sampler.MAX_HOLD
            steps += span if moved else sampler.MAX_HOLD
            if sid == start:
                taken += 1
                if taken in cls.COUNTS:
                    ends.append(steps)
            if moved:
                sid = dest
        return ends, rng

    @classmethod
    def assert_split_runs_match(cls, row_a, row_b, seed):
        """Runs split where a pair of a's stream ends reach the key, visits
        and generator state of one unsplit run, which ends where the
        batch-by-batch replay ends."""
        kernel, walk = cls.ring(row_a, row_b)
        ends, ref = cls.pair_ends(kernel, np.random.default_rng(seed), walk(seed).sid)
        whole = walk(seed)
        whole.run(ends[-1])
        assert whole.rng.bit_generator.state == ref.bit_generator.state
        for cut in ends[:-1]:
            split = walk(seed)
            split.run(cut)
            split.run(ends[-1] - cut)
            assert key_at(split) == key_at(whole)
            assert visits_of(split) == visits_of(whole)
            assert split.rng.bit_generator.state == whole.rng.bit_generator.state
        return whole

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", list(EDGE_ROWS))
    def test_edge_rows_stream_and_split(self, name, seed):
        p, cumulative, moves = self.EDGE_ROWS[name]
        self.assert_stream_matches((0.0, p, cumulative, moves), seed)
        whole = self.assert_split_runs_match((p, cumulative, moves), (p, cumulative, moves), seed)
        if p >= 1.0:
            # Every step moves, and the walk stands on both states.
            assert set(visits_of(whole)) == {((0, 1), ()), ((1, 0), ())}
        else:
            # No move: each MAX_HOLD part of the run holds out one pair.
            assert visits_of(whole) == {((0, 1), ()): self.COUNTS[-1] * sampler.MAX_HOLD}

    def test_rounded_up_product_lands_on_the_last_move(self):
        # Seeds whose first uniform times 3 * TINY rounds up to p: the
        # first pair, turned in Python floats, takes the last move, as the
        # numpy search over cumulative[:-1] does.
        p, cumulative, moves = self.EDGE_ROWS["rounds-up"]
        seeds = [seed for seed in range(40) if np.random.default_rng(seed).random() * p == p]
        assert len(seeds) > 2
        for seed in seeds:
            rng = np.random.default_rng(seed)
            assert next(source(rng, (0.0, p, cumulative, moves)))[1] == 1

    def test_zero_leave_probability_installs_no_source(self):
        # p = 0: the walk holds every budget on the state, turns no pair
        # and draws nothing.
        kernel, walk = self.ring((0.0, [], []), (0.5, [0.5], [0]))
        chain = walk(7)
        for steps in (1, 16, 10**6):
            chain.run(steps)
        assert visits_of(chain) == {((0, 1), ()): 1 + 16 + 10**6}
        assert chain.rng.bit_generator.state == np.random.default_rng(7).bit_generator.state

    ROWS = st.tuples(
        st.one_of(st.floats(2.0**-10, 1.0), st.just(1.0 + 2.0**-52)),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
    ).map(lambda pw: (pw[0], [pw[0] * w / sum(pw[1]) for w in
                                   itertools.accumulate(pw[1])][:-1] + [pw[0]], pw[1]))

    @given(row_a=ROWS, row_b=ROWS, moves=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_rows_stream_and_split(self, row_a, row_b, moves, seed):
        rows = []
        for p, cumulative, weights in (row_a, row_b):
            picks = moves.draw(st.lists(st.integers(0, 1), min_size=len(weights),
                                        max_size=len(weights)))
            rows.append((p, cumulative, picks))
        # Some move of b returns to a, so a's stream runs on.
        rows[1][2][-1] = 0
        self.assert_stream_matches((0.0, *rows[0]), seed)
        self.assert_split_runs_match(*rows, seed)


class TestChainSeed:
    @given(seed=st.integers(0, 2**80), parent_id=st.text())
    @example(seed=0, parent_id="h0")
    @example(seed=2**32 - 1, parent_id="h3-00012")
    @example(seed=2**32, parent_id="h3-00012")
    @example(seed=2**40 + 5, parent_id="")
    @settings(max_examples=200, deadline=None)
    def test_words_seed_as_the_int_list(self, seed, parent_id):
        # chain_seed hands SeedSequence uint32 words; the state must be the
        # one numpy derives from the list [seed, crc32, 0] of Python ints.
        crc = zlib.crc32(parent_id.encode())
        expected = np.random.SeedSequence([seed, crc, 0]).generate_state(4, np.uint64)
        got = sampler.chain_seed(seed, parent_id).generate_state(4, np.uint64)
        assert got.tolist() == expected.tolist()


class TestKernelSharing:
    """Walks over one shared kernel return what walks over fresh kernels
    return, whichever parent walks first."""

    PARENTS = ("h1-00000", "h1-00001", "h1-00002")

    @staticmethod
    def children(samples):
        return [(s.event, s.log_score.hex(), s.visits) for s in samples]

    @classmethod
    def assert_shared_equal_fresh(cls, matrix, bd, sensor, scfg):
        parents = [Hypothesis(pid, "h0", 0.0, ()) for pid in cls.PARENTS]
        fresh = {
            parent.id: cls.children(sample_children(parent, matrix, scfg, bd, sensor))
            for parent in parents
        }
        for order in (parents, parents[::-1]):
            kernel = Kernel(matrix, bd, sensor.p_d)
            for parent in order:
                shared = sample_children(parent, matrix, scfg, bd, sensor, kernel)
                assert cls.children(shared) == fresh[parent.id]
        return kernel

    @pytest.mark.parametrize("name", list(TestExactKernel.INSTANCES))
    def test_shared_kernel_changes_no_child(self, name):
        parent, matrix, bd, sensor = make_instance(
            *TestExactKernel.INSTANCES[name], clutter_density=3e-3,
        )
        scfg = SamplerConfig(burn_in_steps=300, record_steps=4000, children_kept=10**6, seed=11)
        kernel = self.assert_shared_equal_fresh(matrix, bd, sensor, scfg)
        # The walks share rows: the kernel built each reached state's row
        # once, fewer than the walks over fresh kernels built together.
        fresh = 0
        for pid in self.PARENTS:
            walk = _Walk(Kernel(matrix, bd, sensor.p_d))
            walk.start(np.random.default_rng(sampler.chain_seed(scfg.seed, pid)))
            walk.run(scfg.burn_in_steps + scfg.record_steps)
            fresh += sum(row is not None for row in walk.kernel.rows)
        assert sum(row is not None for row in kernel.rows) < fresh

    def test_kernel_over_another_matrix_is_rejected(self):
        # A kernel's states are column keys of its own matrix. Here the
        # other matrix holds the same tracks in the other order, so its
        # keys would label each child with the wrong tracks: the call
        # raises instead.
        parent, matrix, bd, sensor = make_instance(*TestExactKernel.INSTANCES["2x2"])
        scfg = SamplerConfig(burn_in_steps=10, record_steps=100, seed=0)
        swapped = Kernel(matrix.select([1, 0]), bd, sensor.p_d)
        with pytest.raises(ValueError, match="another matrix"):
            sample_children(parent, matrix, scfg, bd, sensor, swapped)
        own = sample_children(parent, matrix, scfg, bd, sensor, Kernel(matrix, bd, sensor.p_d))
        assert own == sample_children(parent, matrix, scfg, bd, sensor)

    @given(
        mat=sparse_matrices(),
        n_pixels=st.integers(1, 2),
        p_d=st.sampled_from([0.9, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_kernel_changes_no_child_on_random_sparse_matrices(self, mat, n_pixels,
                                                                      p_d, seed):
        bd = BirthDeathConfig(alpha=0.05, beta=0.1, n_pixels=n_pixels)
        scfg = SamplerConfig(burn_in_steps=50, record_steps=400, children_kept=10**6, seed=seed)
        self.assert_shared_equal_fresh(mat, bd, wide_sensor(p_d), scfg)
