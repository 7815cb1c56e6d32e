"""The benchmark's workloads and the runner that times and checks them.

A pass runs one input (a simulated scenario, or a set of posterior
instances) from set-up to the last scan. Two passes of the same input must
produce identical output, scan by scan. The number of passes is the run
length over the workload's nominal pass time, so a given seed and length
run the same inputs unless a slow spell of the machine cuts the run short.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

import numpy as np

import mcmctrack.tracker as tracker_module
from mcmctrack.filters import GaussianTrack, SensorModel
from mcmctrack.hypotheses import BirthDeathConfig, Hypothesis
from mcmctrack.io import write_reports_ldjson
from mcmctrack.likelihoods import ClutterModel, build_matrix
from mcmctrack.oracle import exact_posterior
from mcmctrack.presets import PRESETS, tracker_config_for
from mcmctrack.sampler import SamplerConfig, sample_children
from mcmctrack.simulate import simulate_scenario
from mcmctrack.tracker import Tracker, TrackerMode

from quality import ospa, posterior_tv
from tracing import NULL_TRACER, Tracer

# The README promises hypothesis weights that sum to one within 1e-12.
WEIGHT_TOL = 1e-12
SETUP_REPEATS = 9

# The machine is shared, and the same work takes up to twice as long while
# other tenants load it, in spells that last seconds to minutes. A pass
# therefore times a fixed pure-Python loop before every scan and after the
# last, and scales each scan by REF_NOMINAL_S over the median of the loop
# times around it, CAL_WINDOW on each side: calibrated times read as seconds
# at the speed where the loop takes REF_NOMINAL_S, its time on the reference
# machine (2-core Intel Xeon) when unloaded.
REF_LOOP_N = 100_000
REF_NOMINAL_S = 0.006
CAL_WINDOW = 3


def reference_time() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_N):
        acc += i * i
    return time.perf_counter() - t0


@dataclass
class PassResult:
    setup_s: float
    latencies: list[float] = field(default_factory=list)
    loaded: list[bool] = field(default_factory=list)
    write_s: float = 0.0
    attempted: int = 0
    failed: dict[int, list[str]] = field(default_factory=dict)
    outputs: list[bytes] = field(default_factory=list)
    quality: dict[str, tuple[float, str]] = field(default_factory=dict)
    # Reference-loop times: one before each timed scan, one after the last.
    ref: list[float] = field(default_factory=list)

    @property
    def track_s(self) -> float:
        return sum(self.latencies) + self.write_s

    def calibrated(self) -> "PassResult":
        """This pass's timings scaled to the reference speed."""
        w = CAL_WINDOW

        def scale(refs):
            return REF_NOMINAL_S / statistics.median(refs)

        return PassResult(
            setup_s=self.setup_s * scale(self.ref[:w]),
            latencies=[
                x * scale(self.ref[max(0, i - w + 1): i + w + 1])
                for i, x in enumerate(self.latencies)
            ],
            loaded=self.loaded,
            write_s=self.write_s * scale(self.ref[-w:]),
        )

    def fail(self, index: int, reason: str) -> None:
        self.failed.setdefault(index, []).append(reason)


class TrackingWorkload:
    """A shipped preset simulated from the seed and tracked scan by scan
    through ``Tracker.step``."""

    unit = "scan"
    root_span = "tracker.step"

    def __init__(self, preset: str, mode: TrackerMode, pass_seconds: float) -> None:
        self.preset = preset
        self.mode = mode
        self.pass_seconds = pass_seconds

    def setup(self, seed: int, tracer=NULL_TRACER):
        scenario = PRESETS[self.preset](seed=seed)
        truth, frames = tracer.wrap("simulate.simulate_scenario", simulate_scenario)(scenario)
        tracker = Tracker(tracker_config_for(scenario, seed=seed, mode=self.mode))
        hyps = tracker.initial_hypotheses([
            GaussianTrack(f"t{i:02d}", state, scenario.initial_covariance())
            for i, state in enumerate(scenario.objects)
        ])
        return truth, frames, tracker, hyps

    def run_pass(self, seed: int, tracer, out_dir: Path) -> PassResult:
        start = time.perf_counter()
        truth, frames, tracker, hyps = self.setup(seed, tracer)
        res = PassResult(setup_s=time.perf_counter() - start)
        h_inf = tracker.cfg.h_inf
        reports = []
        with tracer.installed(tracker_module):
            for scan, frame in enumerate(frames):
                res.attempted += 1
                ref = reference_time()
                n_in = len(hyps)
                t0 = time.perf_counter()
                try:
                    with tracer.scan(self.root_span):
                        hyps, report = tracker.step(hyps, frame)
                except Exception:
                    res.fail(scan, traceback.format_exc(limit=-1).strip())
                    break
                res.latencies.append(time.perf_counter() - t0)
                res.ref.append(ref)
                res.loaded.append(n_in == h_inf)
                tracer.count("tracker.hypotheses_out", len(hyps))
                total = math.fsum(h.weight for h in hyps)
                if abs(total - 1.0) > WEIGHT_TOL:
                    res.fail(scan, f"weights sum to {total!r}")
                if len(hyps) > h_inf:
                    res.fail(scan, f"{len(hyps)} hypotheses exceed h_inf={h_inf}")
                if report.degenerate:
                    res.fail(scan, "degenerate update")
                reports.append(report)
        res.ref.append(reference_time())
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "reports.ldjson"
        t0 = time.perf_counter()
        tracer.wrap("io.write_reports_ldjson", write_reports_ldjson)(reports, path)
        res.write_s = time.perf_counter() - t0
        data = path.read_bytes()
        tracer.count("io.write_reports_ldjson.bytes", len(data))
        res.outputs = data.splitlines()[1:]  # one line per scan after the header
        if reports:
            res.quality["ospa_km"] = (
                statistics.fmean(
                    ospa([mean[:2] for _, mean, _ in r.estimates],
                         [state[:2] for _, state in truth[i].objects])
                    for i, r in enumerate(reports)
                ),
                "km",
            )
            res.quality["card_err_final"] = (
                abs(reports[-1].estimated_count - truth[len(reports) - 1].count),
                "count",
            )
        return res


# Dense instances: a sensor that sees everything and returns within a few km
# of the tracks, so every entry of a return row is finite and the walk moves
# often. Rates, clutter and detection are those of the acceptance test that
# compares the sampler with the oracle; the tracks here are closer together,
# which is where the walk's conflict repair decides the result.
_WIDE_SENSOR = SensorModel(
    origin=np.zeros(2), boresight_angle=0.0, fov_half_angle=math.pi,
    r=np.eye(2), p_d=0.9, max_range=1.0e4,
)
_DENSE_BD = BirthDeathConfig(alpha=0.05, beta=0.05, n_pixels=1)
_DENSE_CLUTTER = ClutterModel(1e-3)


class PosteriorWorkload:
    """Small dense instances sampled with ``sample_children`` (children kept
    unbounded) and scored against ``exact_posterior``."""

    unit = "instance"
    root_span = "posterior.instance"
    sizes = (2, 3)
    instances_per_pass = 16
    burn_in_steps = 5_000
    record_steps = 100_000
    spread_km = 2.0

    def __init__(self, pass_seconds: float) -> None:
        self.pass_seconds = pass_seconds

    def setup(self, seed: int):
        instances = []
        for i in range(self.instances_per_pass):
            n = self.sizes[i % len(self.sizes)]
            rng = np.random.default_rng([seed, i])
            centers = np.array([100.0, 0.0]) + rng.uniform(
                -self.spread_km, self.spread_km, size=(n, 2))
            returns = centers + rng.standard_normal((n, 2))
            tracks = tuple(
                GaussianTrack(f"t{j:02d}", np.array([c[0], c[1], 0.0, 0.0]),
                              np.diag([4.0, 4.0, 0.1, 0.1]))
                for j, c in enumerate(centers)
            )
            parent = Hypothesis(id="h0", parent_id=None, log_weight=0.0, tracks=tracks)
            matrix = build_matrix(tracks, returns, _WIDE_SENSOR, _DENSE_CLUTTER, _DENSE_BD)
            cfg = SamplerConfig(
                burn_in_steps=self.burn_in_steps,
                record_steps=self.record_steps,
                children_kept=sys.maxsize,
                seed=derive_seed(seed, i),
            )
            instances.append((n, parent, matrix, cfg))
        return instances

    def run_pass(self, seed: int, tracer, out_dir: Path) -> PassResult:
        start = time.perf_counter()
        instances = self.setup(seed)
        res = PassResult(setup_s=time.perf_counter() - start)
        sample = tracer.wrap("sampler.sample_children", sample_children)
        exact = tracer.wrap("oracle.exact_posterior", exact_posterior)
        tvs: dict[int, list[float]] = {n: [] for n in self.sizes}
        for i, (n, parent, matrix, cfg) in enumerate(instances):
            res.attempted += 1
            res.outputs.append(b"")
            ref = reference_time()
            t0 = time.perf_counter()
            try:
                with tracer.scan(self.root_span):
                    samples = sample(parent, matrix, cfg, _DENSE_BD, _WIDE_SENSOR)
                    post = exact(parent, matrix, _DENSE_BD, _WIDE_SENSOR)
            except Exception:
                res.fail(i, traceback.format_exc(limit=-1).strip())
                continue
            res.latencies.append(time.perf_counter() - t0)
            res.ref.append(ref)
            res.loaded.append(True)
            if not np.isfinite(matrix.log_entries[:n]).all():
                res.fail(i, "instance is not dense: a return row has a -inf entry")
            if not samples:
                res.fail(i, "sampler returned no children")
            total = math.fsum(post.values())
            if abs(total - 1.0) > WEIGHT_TOL:
                res.fail(i, f"oracle posterior sums to {total!r}")
            res.outputs[-1] = repr(
                [(s.event.canonical_key(), s.log_score, s.visits) for s in samples]
            ).encode()
            tvs[n].append(posterior_tv(samples, post))
        res.ref.append(reference_time())
        all_tvs = [tv for n in self.sizes for tv in tvs[n]]
        if all_tvs:
            res.quality["posterior_tv"] = (statistics.fmean(all_tvs), "tv")
            for n in self.sizes:
                if tvs[n]:
                    res.quality[f"posterior_tv_{n}x{n}"] = (statistics.fmean(tvs[n]), "tv")
        return res


# Nominal pass times are what one pass takes on the reference machine
# (2 cores, Intel Xeon); they only set how many inputs fit a run.
WORKLOADS = {
    "spawn-mcmc": TrackingWorkload("single-spawn", TrackerMode.MCMC, pass_seconds=8.0),
    "crowd-mcmc": TrackingWorkload("sixty-object", TrackerMode.MCMC, pass_seconds=2.8),
    "spawn-exhaustive": TrackingWorkload(
        "single-spawn", TrackerMode.EXHAUSTIVE, pass_seconds=6.0),
    "ambiguous-posterior": PosteriorWorkload(pass_seconds=4.8),
}
# A run starts no new input that would, at the pace of the inputs before
# it, end after this multiple of its length, so that a slow spell of the
# machine shortens the run rather than lengthening it.
DEADLINE_FACTOR = 1.3


def derive_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3


def _loaded_latencies(passes: list[PassResult]) -> list[float]:
    """Latencies of the scans that start with the full h_inf hypotheses: the
    first scans of a pass run with a few parents, and how many of them a
    pass has depends on its input. All scans if none reached h_inf, and NaN
    if every scan failed."""
    loaded = [x for p in passes for x, full in zip(p.latencies, p.loaded) if full]
    return loaded or [x for p in passes for x in p.latencies] or [math.nan]


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload and return its record: end-to-end metrics from the
    untraced passes, per-layer metrics from the traced ones when tracing.

    Input 0 is the seed's own: it is run twice, must give the same output
    both times, and gives the quality numbers. Untraced, inputs 1.. derived
    from the seed run once each and add timing samples over more inputs.
    Traced, every input is run twice, untraced then traced, so that the
    tracing overhead is measured on the same input, and end-to-end numbers
    come from the untraced passes.
    """
    wl = WORKLOADS[name]
    n_passes = max(2, round(seconds / wl.pass_seconds))
    n_inputs = n_passes // 2 if trace else n_passes - 1
    tracer = Tracer() if trace else NULL_TRACER
    started = time.perf_counter()

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(seed)
        setups.append((time.perf_counter() - t0) * REF_NOMINAL_S / reference_time())

    runs: list[tuple[int, list[PassResult]]] = []
    n_done = 0
    for k in range(n_inputs):
        reps = 2 if trace or k == 0 else 1
        elapsed = time.perf_counter() - started
        if k and elapsed + reps * elapsed / n_done > DEADLINE_FACTOR * seconds:
            break
        input_seed = seed if k == 0 else derive_seed(seed, k)
        passes = [wl.run_pass(input_seed, NULL_TRACER, out_dir / f"input{k}-a")]
        if reps == 2:
            first, second = passes[0], wl.run_pass(input_seed, tracer, out_dir / f"input{k}-b")
            for i, (a, b) in enumerate(zip_longest(first.outputs, second.outputs)):
                if a != b:
                    second.fail(i, "output differs from the first pass of the same input")
            passes.append(second)
        runs.append((input_seed, passes))
        n_done += reps

    every = [p for _, passes in runs for p in passes]
    timed = [passes[0] for _, passes in runs] if trace else every
    attempted = sum(p.attempted for p in every)
    failed = sum(len(p.failed) for p in every)
    failures = [
        f"input {input_seed} {wl.unit} {i}: {'; '.join(reasons)}"
        for input_seed, passes in runs
        for p in passes
        for i, reasons in sorted(p.failed.items())
    ]
    cal = [p.calibrated() for p in timed]
    setups += [p.setup_s for p in cal]
    latencies = _loaded_latencies(cal)
    raw_latencies = _loaded_latencies(timed)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "track_s": (statistics.median(p.track_s for p in cal), "s"),
        "scan_ms_p50": (_percentile_ms(latencies, 50), "ms"),
        "scan_ms_p75": (_percentile_ms(latencies, 75), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        **runs[0][1][0].quality,
        "failed_share": (failed / max(attempted, 1), "ratio"),
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": [input_seed for input_seed, _ in runs],
        "pass_track_s": [[p.track_s for p in passes] for _, passes in runs],
        "pass_latency_ms": [[[x * 1e3 for x in p.latencies] for p in passes] for _, passes in runs],
        "pass_ref_ms": [[[x * 1e3 for x in p.ref] for p in passes] for _, passes in runs],
        "uncalibrated": _as_metrics({
            "track_s": (statistics.median(p.track_s for p in timed), "s"),
            "scan_ms_p50": (_percentile_ms(raw_latencies, 50), "ms"),
            "scan_ms_p75": (_percentile_ms(raw_latencies, 75), "ms"),
        }),
        "latency_samples": len(latencies),
        "latency_unit": wl.unit,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "end_to_end": _as_metrics(e2e),
    }
    if trace:
        traced = [passes[1] for _, passes in runs]
        speed = statistics.median(REF_NOMINAL_S / r for p in traced for r in p.ref)
        layers = layer_metrics(tracer, speed, sum(p.track_s for p in traced), len(traced))
        overhead = [b.calibrated().track_s - a.calibrated().track_s for _, (a, b) in runs]
        layers["trace.overhead_s"] = (statistics.fmean(overhead), "s")
        record["per_layer"] = _as_metrics(layers)
        tracer.write(out_dir / "spans.npz")
    return record


def _as_metrics(values: dict) -> dict:
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


LAYERS = (
    "sampler.sample_children",
    "filters.predict_track",
    "filters.update_track",
    "hypotheses.count_grandchildren",
    "hypotheses.log_child_prior",
    "hypotheses.prune",
    "likelihoods.build_matrix",
    "likelihoods.hypothesis_log_likelihood",
    "oracle.enumerate_child_events",
    "oracle.exact_posterior",
    "simulate.simulate_scenario",
    "io.write_reports_ldjson",
)


def layer_metrics(tracer: Tracer, speed: float, traced_track_s: float, n_passes: int) -> dict:
    """Per-layer busy time, counts and waste ratios, per traced pass. Times
    are scaled by ``speed`` to the reference speed; shares are busy time
    over the traced passes' (uncalibrated) track time."""
    busy, calls, self_s = tracer.busy()
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0) / n_passes, "count")
        out[f"{layer}.busy_s"] = (busy.get(layer, 0.0) * speed / n_passes, "s")
        out[f"{layer}.share"] = (ratio(busy.get(layer, 0.0), traced_track_s), "ratio")
    children = c["sampler.sample_children.children"]
    events = c["oracle.enumerate_child_events.events"]
    out["sampler.sample_children.children"] = (children / n_passes, "count")
    out["sampler.sample_children.finite_share"] = (
        ratio(c["sampler.sample_children.finite"], children), "ratio")
    for layer in ("filters.predict_track", "hypotheses.count_grandchildren"):
        out[f"{layer}.distinct_ratio"] = (
            ratio(c[layer + ".distinct"], calls.get(layer, 0)), "ratio")
    out["likelihoods.build_matrix.finite_share"] = (
        ratio(c["likelihoods.build_matrix.finite"], c["likelihoods.build_matrix.entries"]),
        "ratio")
    out["oracle.enumerate_child_events.events"] = (events / n_passes, "count")
    out["oracle.exact_posterior.support"] = (
        c["oracle.exact_posterior.support"] / n_passes, "count")
    out["io.write_reports_ldjson.bytes"] = (
        c["io.write_reports_ldjson.bytes"] / n_passes, "bytes")
    out["tracker.step.self_s"] = (self_s.get("tracker.step", 0.0) * speed / n_passes, "s")
    out["tracker.kept_share"] = (
        ratio(c["tracker.hypotheses_out"], children + events), "ratio")
    return out
