"""Per-scan recursion: predict and build the association matrix of every
parent, generate each parent's children (MCMC or exhaustive), normalize
weights jointly across all parents and prune in one pass, realize the
surviving children (birth/death bookkeeping), and report.

The MCMC walks of a scan with several parents run across the CPUs this
process may use, one job per parent on a pool of forked workers, and come
back in parent order. A walk is seeded by the run seed and its parent's id
alone, so its children do not depend on the process that runs it."""

from __future__ import annotations

import atexit
import math
import multiprocessing
import multiprocessing.pool
import os
import threading
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

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
    AssociationEvent,
    BirthDeathConfig,
    Candidate,
    Hypothesis,
    count_grandchildren,
    log_child_prior,
    prune,
    weight_entropy,
)
from .likelihoods import (
    AssociationMatrix,
    ClutterModel,
    build_matrix,
    hypothesis_log_likelihood,
    newborn_track,
)
from .oracle import enumerate_child_events
from .sampler import ChildSample, SamplerConfig, WalkJob, sample_children, walk_children
from .simulate import MeasurementFrame


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
    """Per-scan summary: the top hypothesis's estimates, the weight entropy,
    and the would-be exhaustive branching factor (big integer)."""

    time: float
    scan: int
    top_hypothesis_id: str
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
    spawn for this frame, computed once per distinct object count.
    Birth/death sums collapse when the corresponding rate is zero
    (association-only count)."""
    return sum(
        n_hyps
        * count_grandchildren(
            n_objects,
            n_returns,
            n_pixels,
            allow_births=allow_births,
            allow_deaths=allow_deaths,
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
    parent_id: str,
    child_id: str,
    log_weight: float,
    predicted: Sequence[GaussianTrack],
    event: AssociationEvent,
    frame: MeasurementFrame,
    cfg: TrackerConfig,
    next_label: "_LabelCounter",
    updated: dict[tuple[int, int], GaussianTrack],
) -> Hypothesis:
    """Apply the event to the predicted tracks: deaths removed, associated
    tracks updated with their returns, unassociated survivors kept as
    predicted, newborns instantiated from the birth pdf plus their return.
    updated memoizes update_track by (id(predicted track), return index)
    across the children of one scan, whose predicted tracks it outlives."""
    claimed: dict[str, int] = {}
    for i, entry in enumerate(event.assignments):
        if entry not in (BIRTH, CLUTTER):
            claimed[entry] = i
    tracks: list[GaussianTrack] = []
    for track in predicted:
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
            tracks.append(
                newborn_track(
                    next_label(), frame.returns[i], cfg.sensor, cfg.dynamics.mu
                )
            )
    return Hypothesis(id=child_id, parent_id=parent_id, log_weight=log_weight, tracks=tuple(tracks))


class _LabelCounter:
    """Globally fresh newborn labels for one tracker instance."""

    def __init__(self) -> None:
        self.n = 0

    def __call__(self) -> str:
        label = f"b{self.n:05d}"
        self.n += 1
        return label


def _worker_count() -> int:
    """CPUs this process may run on, or 1 where it cannot fork walk workers:
    without a CPU affinity API (outside Linux) and in a daemonic process,
    which may not have children."""
    if not hasattr(os, "sched_getaffinity") or multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


# The walk pool: created by the first map_walks call of a process, owned by
# that process alone (its pid), terminated at exit. The lock keeps threads
# that reach a first multi-parent scan together from starting two pools.
_pool: multiprocessing.pool.Pool | None = None
_pool_pid = 0
_pool_lock = threading.Lock()


def map_walks(jobs: Iterable[WalkJob]) -> list[list[ChildSample]]:
    """sampler.walk_children of each job, in job order, run on a fork pool
    of _worker_count() workers. Forked workers start in milliseconds with
    the modules already imported (a spawned pool took 0.6 s to start on a
    2-core Xeon), and a job carries all the state its walk reads. Workers
    run the sampler's function itself, never a name rebound on this module.
    A process forked from the pool's owner starts its own pool, since the
    owner's workers answer the owner alone."""
    global _pool, _pool_pid
    with _pool_lock:
        if _pool_pid != os.getpid():
            _pool = multiprocessing.get_context("fork").Pool(_worker_count())
            _pool_pid = os.getpid()
            atexit.register(_close_pool)
        pool = _pool
    return pool.map(walk_children, jobs, chunksize=1)


def _close_pool() -> None:
    global _pool, _pool_pid
    with _pool_lock:
        if _pool_pid == os.getpid():
            _pool.terminate()
            _pool, _pool_pid = None, 0


class Tracker:
    """Stateful driver for the per-scan recursion. Hypothesis collections are
    only mutated between phases; a step is atomic from the caller's view."""

    def __init__(self, cfg: TrackerConfig) -> None:
        self.cfg = cfg
        self.scan_index = 0
        self._labels = _LabelCounter()

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
        # across parents: predict each object once per scan. Keys are ids of
        # tracks that hypotheses holds for the whole call.
        predicted_of: dict[int, GaussianTrack] = {}
        predicted_by_parent = []
        matrices = []
        for parent in parents:
            for t in parent.tracks:
                if id(t) not in predicted_of:
                    predicted_of[id(t)] = predict_track(t, cfg.dynamics)
            predicted = tuple(predicted_of[id(t)] for t in parent.tracks)
            predicted_by_parent.append(predicted)
            matrices.append(build_matrix(predicted, frame.returns, cfg.sensor, cfg.clutter, bd))
        candidates = [
            Candidate(parent.id, predicted, event, parent.log_weight + log_score)
            for parent, predicted, children in zip(
                parents, predicted_by_parent, self._children(parents, matrices, bd)
            )
            for event, log_score in children
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
        new_hyps = [
            _realize_child(
                c.parent_id,
                f"h{self.scan_index}-{idx:05d}",
                c.log_weight,
                c.predicted,
                c.event,
                frame,
                cfg,
                self._labels,
                updated,
            )
            for idx, c in enumerate(kept)
        ]
        report = self._report(frame, new_hyps, bound, bd, degenerate=False)
        return new_hyps, report

    def _children(
        self,
        parents: Sequence[Hypothesis],
        matrices: Sequence[AssociationMatrix],
        bd: BirthDeathConfig,
    ) -> list[list[tuple[AssociationEvent, float]]]:
        """_children_of each parent, in parent order. The MCMC walks of a
        scan with several parents run through map_walks when the process may
        use more than one CPU; everything else runs in process, exhaustive
        mode under the event budget (oracle.MAX_EVENTS) this process sets."""
        cfg = self.cfg
        if cfg.mode is TrackerMode.MCMC and len(parents) > 1 and _worker_count() > 1:
            sampled = map_walks(
                WalkJob(parent.id, matrix, cfg.sampler, bd, cfg.sensor.p_d)
                for parent, matrix in zip(parents, matrices)
            )
            return [[(s.event, s.log_score) for s in samples] for samples in sampled]
        return [self._children_of(p, matrix, bd) for p, matrix in zip(parents, matrices)]

    def _children_of(
        self,
        parent: Hypothesis,
        matrix: AssociationMatrix,
        bd: BirthDeathConfig,
    ) -> list[tuple[AssociationEvent, float]]:
        """Scored children of parent, whose id, labels and track count are
        those of its predicted tracks (prediction keeps labels). Exhaustive
        mode inherits the enumerator's event budget (oracle.MAX_EVENTS)."""
        cfg = self.cfg
        if cfg.mode is TrackerMode.MCMC:
            samples = sample_children(parent, matrix, cfg.sampler, bd, cfg.sensor)
            return [(s.event, s.log_score) for s in samples]
        return [
            (
                event,
                log_child_prior(event, parent, bd, cfg.sensor.p_d, matrix.n_returns)
                + hypothesis_log_likelihood(event, matrix),
            )
            for event in enumerate_child_events(matrix)
        ]

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
            top_hypothesis_id=top.id,
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
