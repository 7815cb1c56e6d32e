"""Per-scan recursion: predict each distinct track of the scan's parents
once and pair it with the returns once, in one scan-level association
matrix; give each parent its columns of that matrix (AssociationMatrix.select);
generate each parent's children (by the MCMC walk or exhaustive
enumeration) through one job per parent (sampler.ChildJob, run by
map_children in this process, in parent order), normalize weights
jointly across all parents and prune in one pass, realize the surviving
children (birth/death bookkeeping), and report. A birth is a
hypothesis-level event: the return a scan reads as a birth is one newborn
track, labeled by scan and return index, in every child that births it.

A walk (sampler._Chain.run, which simulates the Metropolis chain by its
jump chain) is seeded by the run seed and its parent's id alone."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateUpdateError
from .filters import (
    DynamicsConfig,
    GaussianTrack,
    SensorModel,
    in_fov,
    predict_track,
    update_track,
)
from .hypotheses import (
    BIRTH,
    CLUTTER,
    BirthDeathConfig,
    Candidate,
    Hypothesis,
    count_grandchildren,
    prune,
    weight_entropy,
)
from .likelihoods import ClutterModel, build_matrix, newborn_track
from .sampler import ChildJob, ChildSample, SamplerConfig, job_children, sample_children
from .simulate import MeasurementFrame

# Not called here; bench/tracing.py's TRACKER_LAYERS still rebinds these names.
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
    adapt_rates: bool = False

    def __post_init__(self) -> None:
        if self.h_inf < 1:
            raise ConfigError("tracker.h_inf must be >= 1")


@dataclass(frozen=True)
class TrackerReport:
    """Per-scan summary: the top hypothesis's parent, weight and estimates,
    the weight entropy, and the would-be exhaustive branching factor (big
    integer)."""

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
    alpha_used: float
    beta_used: float


def hypothesis_count_bound(
    hypotheses: Sequence[Hypothesis],
    n_returns: int,
    n_pixels: int,
    *,
    allow_births: bool = True,
    allow_deaths: bool = True,
) -> int:
    """Sum over hypotheses of the exhaustive grandchild count they would
    spawn for this frame, computed once per distinct object count."""
    return sum(
        n_hyps * count_grandchildren(
            n_objects, n_returns, n_pixels, allow_births=allow_births, allow_deaths=allow_deaths
        )
        for n_objects, n_hyps in Counter(len(h.tracks) for h in hypotheses).items()
    )


def adapt_birth_death_rates(
    frame: MeasurementFrame,
    hypotheses: Sequence[Hypothesis],
    cfg: TrackerConfig,
) -> BirthDeathConfig:
    """One documented heuristic: compare the return count with the top
    hypothesis's in-FOV object count; a surplus of returns scales alpha up,
    a deficit scales beta up, both clamped to [1e-6, 0.5]."""
    base = cfg.birth_death
    top = max(hypotheses, key=lambda h: (h.log_weight, h.id))
    n_fov = sum(1 for t in top.tracks if in_fov(t.mean, cfg.sensor))
    m = frame.n_returns
    ratio_up = m / max(1, n_fov)
    ratio_down = n_fov / max(1, m)
    alpha = min(max(base.alpha * max(1.0, ratio_up), 1e-6), 0.5)
    beta = min(max(base.beta * max(1.0, ratio_down), 1e-6), 0.5)
    return replace(base, alpha=alpha, beta=beta)


def _realize_child(
    candidate: Candidate,
    child_id: str,
    frame: MeasurementFrame,
    cfg: TrackerConfig,
    scan: int,
    updated: dict[tuple[int, int], GaussianTrack],
    newborns: dict[int, GaussianTrack],
) -> Hypothesis:
    """Apply the candidate's event to its predicted tracks: deaths removed,
    associated tracks updated with their returns, unassociated survivors
    kept as predicted, newborns instantiated from the birth pdf plus their
    return. Two memos span the children of one scan: updated memoizes
    update_track by (id(predicted track), return index), and newborns holds
    the one newborn of each return index, so every child that births a
    return holds the same track object. A label need only be unique within
    a hypothesis (Hypothesis checks that), and a newborn's label
    b<scan>-<return>, zero-padded, sorts in (scan, return) order."""
    event = candidate.event
    claimed: dict[str, int] = {}
    for i, entry in enumerate(event.assignments):
        if entry not in (BIRTH, CLUTTER):
            claimed[entry] = i
    tracks: list[GaussianTrack] = []
    for track in candidate.predicted:
        if track.label in event.deaths:
            continue
        i = claimed.get(track.label)
        if i is None:
            tracks.append(track)
        else:
            key = (id(track), i)
            if key not in updated:
                updated[key] = update_track(track, frame.returns[i], cfg.sensor)[0]
            tracks.append(updated[key])
    for i, entry in enumerate(event.assignments):
        if entry == BIRTH:
            if i not in newborns:
                newborns[i] = newborn_track(
                    f"b{scan:05d}-{i:03d}", frame.returns[i], cfg.sensor, cfg.dynamics.mu
                )
            tracks.append(newborns[i])
    return Hypothesis(
        id=child_id,
        parent_id=candidate.parent_id,
        log_weight=candidate.log_weight,
        tracks=tuple(tracks),
    )


def map_children(jobs: Sequence[ChildJob]) -> list[list[ChildSample]]:
    """sampler.job_children of each job, in job order, in this process. A
    walk runs through this module's sample_children, the name the benchmark
    traces."""
    return [
        job_children(job) if job.exhaustive
        else sample_children(job.parent, job.matrix, job.cfg, job.birth_cfg, job.sensor)
        for job in jobs
    ]


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
        bd = (
            adapt_birth_death_rates(frame, hypotheses, cfg)
            if cfg.adapt_rates
            else cfg.birth_death
        )
        m = frame.n_returns
        bound = hypothesis_count_bound(
            hypotheses,
            m,
            bd.n_pixels,
            allow_births=bd.alpha > 0.0,
            allow_deaths=bd.beta > 0.0,
        )
        parents = sorted(hypotheses, key=lambda h: h.id)
        # Children share their parent's track objects, so most tracks recur
        # across parents: number the scan's distinct objects in first-seen
        # parent order, predict each once and pair it with the returns once,
        # in one scan-level matrix. Keys are ids of tracks that hypotheses
        # holds for the whole call.
        col_of: dict[int, int] = {}
        distinct: list[GaussianTrack] = []
        for parent in parents:
            for t in parent.tracks:
                if id(t) not in col_of:
                    col_of[id(t)] = len(distinct)
                    distinct.append(predict_track(t, cfg.dynamics))
        scan_matrix = build_matrix(distinct, frame.returns, cfg.sensor, cfg.clutter, bd)
        cols_by_parent = [[col_of[id(t)] for t in parent.tracks] for parent in parents]
        predicted_by_parent = [tuple(distinct[j] for j in cols) for cols in cols_by_parent]
        # A parent's matrix has the labels and track count of its predicted
        # tracks (prediction keeps labels).
        exhaustive = cfg.mode is TrackerMode.EXHAUSTIVE
        jobs = [
            ChildJob(parent, scan_matrix.select(cols), cfg.sampler, bd, cfg.sensor, exhaustive)
            for parent, cols in zip(parents, cols_by_parent)
        ]
        candidates = [
            Candidate(parent.id, predicted, s.event, parent.log_weight + s.log_score)
            for parent, predicted, samples in zip(parents, predicted_by_parent, map_children(jobs))
            for s in samples
        ]
        try:
            kept = prune(candidates, cfg.h_inf)
        except DegenerateUpdateError:
            # Degenerate update: fall back to prior weights on the predicted
            # hypotheses and flag the report.
            fallback = [
                Hypothesis(
                    id=f"h{self.scan_index}-{idx:05d}",
                    parent_id=parent.id,
                    log_weight=parent.log_weight,
                    tracks=predicted,
                )
                for idx, (parent, predicted) in enumerate(zip(parents, predicted_by_parent))
            ]
            report = self._report(frame, fallback, bound, bd, degenerate=True)
            return fallback, report
        updated: dict[tuple[int, int], GaussianTrack] = {}
        newborns: dict[int, GaussianTrack] = {}
        new_hyps = [
            _realize_child(
                c, f"h{self.scan_index}-{idx:05d}", frame, cfg, self.scan_index, updated, newborns
            )
            for idx, c in enumerate(kept)
        ]
        report = self._report(frame, new_hyps, bound, bd, degenerate=False)
        return new_hyps, report

    def _report(
        self,
        frame: MeasurementFrame,
        hypotheses: Sequence[Hypothesis],
        bound: int,
        bd: BirthDeathConfig,
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
            alpha_used=bd.alpha,
            beta_used=bd.beta,
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
