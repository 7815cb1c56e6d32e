"""Per-scan recursion: propagate the distinct tracks of the scan's parents
in one RK4 pass (filters.propagate_flows), predict each once and pair it
with the returns once, in one scan-level association matrix; bound each
parent's child scores from that matrix and the parent's columns of it
(sampler.child_score_bounds); for each parent whose best child could still
be among the h_inf heaviest, generate its children by one call:
sampler.sample_children (the MCMC walk) or sampler.enumerate_children
(exhaustive mode), over its columns of the matrix. Each distinct column
tuple among those parents (parents holding the same tracks in the same
order) is selected once per scan (AssociationMatrix.select) and gets one
sampler.Kernel, which every call over it shares: its rows are built once
for all the walks over that matrix. Nothing is kept across scans. Keep
the h_inf heaviest candidates, gathered in one list, and normalize over
them (one prune pass), realize them in one pass (_realize: one stacked
update, filters.update_tracks, of the (track, return) pairs they claim,
then birth/death bookkeeping), and report. A
birth is a hypothesis-level event: the return a scan reads as a birth is
one newborn track, labeled by scan and return index, in every child that
births it. A degenerate update (no candidate carries mass) realizes each
parent's child that claims no return, at the parent's prior weight.

Parents are visited by parent log weight plus bound, highest first, and a
min-heap keeps the h_inf heaviest candidate weights so far, -inf ones too:
no parent falls below a -inf minimum. Once the heap is full and a parent's
weight plus bound falls below its minimum, every child of that parent and
of every later one is strictly lighter than h_inf others, so prune would
drop it, and those parents are skipped (TrackerReport.parents_skipped): no
matrix is selected for them. prune's output depends only on what it keeps,
and it ranks them by a unique key, so neither the skip nor the order
candidates are gathered in changes a bit of a scan's hypotheses.

A walk (sampler._Walk.run, which simulates the Metropolis chain by its
jump chain) is seeded by the run seed and its parent's id alone, and a
kernel row is a pure function of its state, so neither the visiting order
nor the kernel a walk shares changes a walk."""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateUpdateError
from .filters import (
    DynamicsConfig,
    GaussianTrack,
    SensorModel,
    predict_track,
    propagate_flows,
    update_tracks,
)
from .hypotheses import (
    BIRTH,
    CLUTTER,
    AssociationEvent,
    BirthDeathConfig,
    Candidate,
    Hypothesis,
    count_grandchildren,
    prune,
    weight_entropy,
)
from .likelihoods import ClutterModel, build_matrix, newborn_track
from .sampler import (
    Kernel,
    SamplerConfig,
    child_score_bounds,
    enumerate_children,
    sample_children,
)
from .simulate import MeasurementFrame

# Not called here; bench/tracing.py's TRACKER_LAYERS still rebinds these names.
from .filters import update_track  # noqa: F401
from .hypotheses import log_child_prior  # noqa: F401
from .likelihoods import hypothesis_log_likelihood  # noqa: F401
from .oracle import enumerate_child_events  # noqa: F401


class TrackerMode(str, Enum):
    MCMC = "mcmc"
    EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class TrackerConfig:
    sensor: SensorModel
    dynamics: DynamicsConfig
    clutter: ClutterModel
    birth_death: BirthDeathConfig = BirthDeathConfig()
    sampler: SamplerConfig = SamplerConfig()
    h_inf: int = 50
    mode: TrackerMode = TrackerMode.MCMC

    def __post_init__(self) -> None:
        if self.h_inf < 1:
            raise ConfigError("tracker.h_inf must be >= 1")
        try:
            object.__setattr__(self, "mode", TrackerMode(self.mode))
        except ValueError:
            raise ConfigError(f"tracker.mode must be one of "
                              f"{[m.value for m in TrackerMode]}, not {self.mode!r}") from None


@dataclass(frozen=True)
class TrackerReport:
    """Per-scan summary: the top hypothesis's parent, weight and estimates,
    the weight entropy, the would-be exhaustive branching factor (big
    integer), and the parents whose children were not generated because
    none could be kept (parents_skipped)."""

    time: float
    scan: int
    top_parent_id: str | None
    top_weight: float
    estimated_count: int
    estimates: tuple[tuple[str, np.ndarray, np.ndarray], ...]
    weight_entropy: float
    hypothesis_count_bound: int
    n_hypotheses: int
    degenerate: bool
    parents_skipped: int


def hypothesis_count_bound(
    hypotheses: Sequence[Hypothesis], n_returns: int, birth_death: BirthDeathConfig
) -> int:
    """Sum over hypotheses of the exhaustive grandchild count they would
    spawn for this frame, computed once per distinct object count. A zero
    rate makes its instances impossible: a zero alpha counts no pixels, a
    zero beta no deaths."""
    n_pixels = birth_death.n_pixels if birth_death.alpha > 0.0 else 0
    allow_deaths = birth_death.beta > 0.0
    return sum(
        n_hyps * count_grandchildren(n_objects, n_returns, n_pixels, allow_deaths=allow_deaths)
        for n_objects, n_hyps in Counter(len(h.tracks) for h in hypotheses).items()
    )


def _realize(
    kept: Sequence[Candidate], frame: MeasurementFrame, cfg: TrackerConfig, scan: int
) -> list[Hypothesis]:
    """Apply each kept candidate's event to its predicted tracks: deaths
    removed, associated tracks updated with their returns, unassociated
    survivors kept as predicted, newborns instantiated from the birth pdf
    plus their return. Every (predicted track, return) pair a candidate
    claims is updated once, all in one stacked pass (update_tracks), in
    first-claim order, and each born return is one newborn track, so every
    child that births it holds the same object. A label need only be unique
    within a hypothesis (Hypothesis checks that), and a newborn's label
    b<scan>-<return>, zero-padded, sorts in (scan, return) order."""
    survivors = []
    claimed: dict[tuple[int, int], GaussianTrack] = {}  # (id(track), return) -> track
    for c in kept:
        event = c.event
        return_of = {
            entry: i for i, entry in enumerate(event.assignments) if entry not in (BIRTH, CLUTTER)
        }
        pairs = [(t, return_of.get(t.label)) for t in c.predicted if t.label not in event.deaths]
        for t, i in pairs:
            if i is not None:
                claimed.setdefault((id(t), i), t)
        survivors.append(pairs)
    posteriors, _ = update_tracks(
        list(claimed.values()), frame.returns[[i for _, i in claimed]], cfg.sensor
    )
    updated = dict(zip(claimed, posteriors))
    newborns: dict[int, GaussianTrack] = {}
    children = []
    for idx, (c, pairs) in enumerate(zip(kept, survivors)):
        tracks = [t if i is None else updated[id(t), i] for t, i in pairs]
        for i, entry in enumerate(c.event.assignments):
            if entry == BIRTH:
                if i not in newborns:
                    newborns[i] = newborn_track(
                        f"b{scan:05d}-{i:03d}", frame.returns[i], cfg.sensor, cfg.dynamics.mu
                    )
                tracks.append(newborns[i])
        children.append(
            Hypothesis(f"h{scan}-{idx:05d}", c.parent_id, c.log_weight, tuple(tracks))
        )
    return children


class Tracker:
    """Stateful driver for the per-scan recursion. Hypothesis collections are
    only mutated between phases; a step is atomic from the caller's view."""

    def __init__(self, cfg: TrackerConfig) -> None:
        self.cfg = cfg
        self.scan_index = 0

    def initial_hypotheses(self, tracks: Sequence[GaussianTrack]) -> list[Hypothesis]:
        return [Hypothesis(id="h0", parent_id=None, log_weight=0.0, tracks=tuple(tracks))]

    def step(
        self, hypotheses: Sequence[Hypothesis], frame: MeasurementFrame
    ) -> tuple[list[Hypothesis], TrackerReport]:
        cfg = self.cfg
        total_weight = math.fsum(h.weight for h in hypotheses)
        if abs(total_weight - 1.0) > 1e-12:
            raise ValueError(f"hypothesis weights sum to {total_weight}, expected 1")
        self.scan_index += 1
        bd = cfg.birth_death
        m = frame.n_returns
        bound = hypothesis_count_bound(hypotheses, m, bd)
        parents = sorted(hypotheses, key=lambda h: h.id)
        # Children share their parent's track objects, so most tracks recur
        # across parents: number the scan's distinct objects in first-seen
        # parent order, propagate them in one RK4 pass, predict each once and
        # pair it with the returns once, in one scan-level matrix. Keys are
        # ids of tracks that hypotheses holds for the whole call.
        col_of: dict[int, int] = {}
        sources: list[GaussianTrack] = []
        for parent in parents:
            for t in parent.tracks:
                if id(t) not in col_of:
                    col_of[id(t)] = len(sources)
                    sources.append(t)
        means, jacobians = propagate_flows(
            np.array([t.mean for t in sources]).reshape(-1, 4), cfg.dynamics
        )
        distinct = [
            predict_track(t, cfg.dynamics, (means[j], jacobians[j]))
            for j, t in enumerate(sources)
        ]
        scan_matrix = build_matrix(distinct, frame.returns, cfg.sensor, cfg.clutter, bd)
        cols_by_parent = [tuple(col_of[id(t)] for t in parent.tracks) for parent in parents]
        predicted_by_parent = [tuple(distinct[j] for j in cols) for cols in cols_by_parent]
        bounds = child_score_bounds(scan_matrix, cols_by_parent, bd, cfg.sensor.p_d)
        candidates: list[Candidate] = []
        heaviest: list[float] = []  # min-heap, the h_inf heaviest weights
        kernels: dict[tuple[int, ...], Kernel] = {}  # by the parent's columns
        unvisited = Counter(cols_by_parent)
        visited = 0
        # sorted is stable, so ties keep parent order.
        order = sorted(range(len(parents)), key=lambda p: -(parents[p].log_weight + bounds[p]))
        for p in order:
            parent = parents[p]
            if len(heaviest) == cfg.h_inf and parent.log_weight + bounds[p] < heaviest[0]:
                break
            visited += 1
            # A parent's matrix has the labels and track count of its
            # predicted tracks (prediction keeps labels); parents that hold
            # the same tracks in the same order share one matrix and kernel.
            # A kernel is let go once the last of its parents has walked:
            # rows held to the end of the scan only add to the garbage
            # collector's work (about 1% of a single-spawn scan).
            cols = cols_by_parent[p]
            kernel = kernels.pop(cols, None) or Kernel(
                scan_matrix.select(cols), bd, cfg.sensor.p_d)
            unvisited[cols] -= 1
            if unvisited[cols]:
                kernels[cols] = kernel
            if cfg.mode is TrackerMode.EXHAUSTIVE:
                samples = enumerate_children(kernel)
            else:
                samples = sample_children(
                    parent, kernel.matrix, cfg.sampler, bd, cfg.sensor, kernel)
            for s in samples:
                weight = parent.log_weight + s.log_score
                candidates.append(Candidate(parent.id, predicted_by_parent[p], s.event, weight))
                if len(heaviest) < cfg.h_inf:
                    heapq.heappush(heaviest, weight)
                elif weight > heaviest[0]:
                    heapq.heapreplace(heaviest, weight)
        skipped = len(parents) - visited
        degenerate = False
        try:
            kept = prune(candidates, cfg.h_inf)
        except DegenerateUpdateError:
            # Degenerate update: each parent's child that claims no return,
            # at the parent's prior weight, and a flagged report.
            no_return = AssociationEvent((CLUTTER,) * m)
            kept = [
                Candidate(parent.id, predicted, no_return, parent.log_weight)
                for parent, predicted in zip(parents, predicted_by_parent)
            ]
            degenerate = True
        new_hyps = _realize(kept, frame, cfg, self.scan_index)
        return new_hyps, self._report(frame, new_hyps, bound, skipped, degenerate)

    def _report(
        self,
        frame: MeasurementFrame,
        hypotheses: Sequence[Hypothesis],
        bound: int,
        parents_skipped: int,
        degenerate: bool,
    ) -> TrackerReport:
        top = max(hypotheses, key=lambda h: (h.log_weight, h.id))
        estimates = tuple(
            (t.label, t.mean.copy(), t.covariance.copy()) for t in top.tracks
        )
        return TrackerReport(
            time=frame.time,
            scan=self.scan_index,
            top_parent_id=top.parent_id,
            top_weight=top.weight,
            estimated_count=len(top.tracks),
            estimates=estimates,
            weight_entropy=weight_entropy(hypotheses),
            hypothesis_count_bound=bound,
            n_hypotheses=len(hypotheses),
            degenerate=degenerate,
            parents_skipped=parents_skipped,
        )


def run_tracker(
    tracker: Tracker,
    initial: Sequence[Hypothesis],
    frames: Sequence[MeasurementFrame],
) -> tuple[list[Hypothesis], list[TrackerReport]]:
    """Drive the recursion over a frame sequence."""
    hyps = list(initial)
    reports = []
    for frame in frames:
        hyps, report = tracker.step(hyps, frame)
        reports.append(report)
    return hyps, reports
