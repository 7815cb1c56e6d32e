"""Command-line entry points: simulate, track, figdata, selftest.

Exit codes: 0 success, 2 configuration error, 3 input-data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .errors import ConfigError, InputDataError, NumericalError, TrackingError
from .filters import _MIN_RADIUS_KM
from .hypotheses import (
    count_associations,
    count_grandchildren,
    count_grandchildren_by_net_change,
)
from .io import (
    default_out_dir,
    finalize_manifest,
    load_scenario,
    read_frames_csv,
    read_reports_ldjson,
    read_truth_csv,
    report_to_dict,
    save_scenario,
    scenario_to_dict,
    summarize_run,
    write_count_reconciliation_csv,
    write_fig_counts_csv,
    write_fig_estimates_csv,
    write_frames_csv,
    write_history_ldjson,
    write_manifest,
    write_reports_ldjson,
    write_truth_csv,
)
from .oracle import enumerate_grandchildren
from .presets import PRESETS, TRACKER_TUNING, tracker_config_for
from .simulate import ScenarioConfig, simulate_scenario
from .tracker import Tracker, TrackerMode

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


def _resolve_scenario(spec: str, seed: int | None) -> ScenarioConfig:
    if spec in PRESETS:
        return PRESETS[spec](seed=seed if seed is not None else 0)
    cfg = load_scenario(spec)
    return cfg if seed is None else replace(cfg, seed=seed)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_scenario(args.scenario, args.seed)
    out = default_out_dir(args.out)
    write_manifest(
        out,
        {
            "command": "simulate",
            "scenario": scenario_to_dict(cfg),
            "seed": cfg.seed,
            "outputs": ["scenario.json", "truth.csv", "frames.csv"],
        },
    )
    truth, frames = simulate_scenario(cfg)
    save_scenario(cfg, out / "scenario.json")
    write_truth_csv(truth, out / "truth.csv")
    write_frames_csv(frames, out / "frames.csv")
    finalize_manifest(out)
    print(f"simulate: {len(truth)} scans, {sum(f.n_returns for f in frames)} returns -> {out}")
    return EXIT_OK


def cmd_track(args: argparse.Namespace) -> int:
    cfg = _resolve_scenario(args.scenario, None)
    frames = read_frames_csv(args.frames)
    if not frames:
        raise InputDataError("frames file contains no scans")
    for frame in frames:
        if (frame.returns == cfg.sensor.origin).all(axis=1).any():
            raise InputDataError(f"a return at time {frame.time} s lies at the sensor origin")
        # A return born as a track there would sit inside the radius that
        # propagation refuses. A far return's square overflows to inf and
        # passes.
        with np.errstate(over="ignore"):
            near = ((frame.returns ** 2).sum(axis=1) < _MIN_RADIUS_KM ** 2).any()
        if near:
            raise InputDataError(f"a return at time {frame.time} s lies within "
                                 f"{_MIN_RADIUS_KM} km of the gravitational center (0, 0)")
    for k, frame in enumerate(frames):
        # Every scan is predicted over one scan interval.
        due = cfg.scan_interval * (k + 1)
        if not math.isclose(frame.time, due, rel_tol=1e-9):
            raise InputDataError(f"frame {k} is at {frame.time} s, not at {due} s "
                                 f"(one scan every {cfg.scan_interval} s)")
    truth = read_truth_csv(args.truth) if args.truth else None
    # Each tuning flag's dest is its TRACKER_TUNING key; an unset one is None.
    tuning = {k: v for k, v in vars(args).items() if k in TRACKER_TUNING["custom"]}
    tracker_cfg = tracker_config_for(cfg, seed=args.seed, mode=args.mode, **tuning)
    out = default_out_dir(args.out)
    write_manifest(
        out,
        {
            "command": "track",
            "scenario": scenario_to_dict(cfg),
            "frames": str(args.frames),
            "mode": tracker_cfg.mode.value,
            "h_inf": tracker_cfg.h_inf,
            **asdict(tracker_cfg.birth_death),
            **asdict(tracker_cfg.sampler),
            "outputs": ["reports.ldjson", "summary.json"]
            + (["hypotheses.ldjson"] if args.history else []),
        },
    )
    tracker = Tracker(tracker_cfg)
    hypotheses = tracker.initial_hypotheses(cfg.initial_tracks())
    reports = []
    history = []
    for frame in frames:
        hypotheses, report = tracker.step(hypotheses, frame)
        reports.append(report)
        if args.history:
            history.append((report.scan, hypotheses))
    write_reports_ldjson(reports, out / "reports.ldjson")
    if args.history:
        write_history_ldjson(history, out / "hypotheses.ldjson")
    records = [report_to_dict(r) for r in reports]
    summary = summarize_run(records, truth)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    finalize_manifest(out)
    final = reports[-1]
    print(
        f"track: {len(reports)} scans, final count {final.estimated_count}, "
        f"{final.n_hypotheses} hypotheses -> {out}"
    )
    return EXIT_OK


def cmd_figdata(args: argparse.Namespace) -> int:
    records = read_reports_ldjson(args.reports)
    truth = read_truth_csv(args.truth) if args.truth else None
    out = default_out_dir(args.out)
    write_manifest(
        out,
        {
            "command": "figdata",
            "reports": str(args.reports),
            "outputs": ["fig_estimates.csv", "fig_counts.csv"],
        },
    )
    write_fig_estimates_csv(records, truth, out / "fig_estimates.csv")
    write_fig_counts_csv(records, out / "fig_counts.csv")
    finalize_manifest(out)
    print(f"figdata: {len(records)} scans -> {out}")
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    out = default_out_dir(args.out)
    write_manifest(
        out, {"command": "selftest", "outputs": ["count_reconciliation.csv"]}
    )
    failures = 0

    value = count_associations(10, 5)
    ok = value == 63591
    failures += not ok
    print(f"selftest: association count (10, 5) = {value} "
          f"{'PASS' if ok else 'FAIL (expected 63591)'}")

    rows = []
    mismatch_direct = 0
    mismatch_grouped = 0
    for n_objects in range(4):
        for n_returns in range(4):
            for n_pixels in range(4):
                labels = [f"t{i:02d}" for i in range(n_objects)]
                enumerated = len(enumerate_grandchildren(labels, n_returns, n_pixels))
                direct = count_grandchildren(n_objects, n_returns, n_pixels)
                grouped = count_grandchildren_by_net_change(n_objects, n_returns, n_pixels)
                mismatch_direct += enumerated != direct
                mismatch_grouped += grouped != direct
                rows.append(
                    [n_objects, n_returns, n_pixels, enumerated, direct, grouped,
                     enumerated == direct, grouped == direct]
                )
    report_path = out / "count_reconciliation.csv"
    write_count_reconciliation_csv(rows, report_path)
    ok = mismatch_direct == 0
    failures += not ok
    print(
        f"selftest: enumeration vs direct count on {len(rows)} instances "
        f"{'PASS' if ok else f'FAIL ({mismatch_direct} mismatches)'}"
    )
    print(
        f"selftest: net-change count formula differs from direct on "
        f"{mismatch_grouped}/{len(rows)} instances (recorded in {report_path.name}, "
        "known index overlap in its second summation)"
    )
    finalize_manifest(out)
    print(f"selftest: report -> {report_path}")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmctrack",
        description="Multi-target tracking with MCMC hypothesis generation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate truth and measurement frames")
    p_sim.add_argument("--scenario", required=True,
                       help=f"scenario JSON path or preset name {sorted(PRESETS)}")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_trk = sub.add_parser("track", help="run the tracker over a frames file")
    p_trk.add_argument("--frames", required=True, help="frames CSV from simulate")
    p_trk.add_argument("--scenario", required=True,
                       help="scenario JSON path or preset name (sensor, dynamics, priors)")
    p_trk.add_argument("--truth", default=None, help="optional truth CSV for scoring")
    p_trk.add_argument("--out", default=None, help="output directory")
    p_trk.add_argument("--seed", type=int, default=None, help="sampler seed")
    p_trk.add_argument("--mode", choices=[m.value for m in TrackerMode], default="mcmc")
    p_trk.add_argument("--h-inf", dest="h_inf", type=int, default=None,
                       help="hypotheses kept per scan")
    p_trk.add_argument("--alpha", type=float, default=None, help="per-pixel birth probability")
    p_trk.add_argument("--beta", type=float, default=None, help="per-object death probability")
    p_trk.add_argument("--children", dest="children_kept", type=int, default=None,
                       help="children kept per parent")
    p_trk.add_argument("--history", action="store_true",
                       help="also write the full per-scan hypothesis history (small runs)")
    p_trk.add_argument("--burn-in", dest="burn_in_steps", type=int, default=None)
    p_trk.add_argument("--record-steps", dest="record_steps", type=int, default=None)
    p_trk.set_defaults(func=cmd_track)

    p_fig = sub.add_parser("figdata", help="emit figure data tables from reports")
    p_fig.add_argument("--reports", required=True, help="reports.ldjson from track")
    p_fig.add_argument("--truth", default=None, help="optional truth CSV")
    p_fig.add_argument("--out", default=None, help="output directory")
    p_fig.set_defaults(func=cmd_figdata)

    p_self = sub.add_parser("selftest", help="run combinatorics self-checks and "
                                             "write the count reconciliation report")
    p_self.add_argument("--out", default=None, help="output directory")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputDataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except TrackingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
