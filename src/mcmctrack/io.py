"""File formats: scenario JSON, truth/frames/figure CSV, reports LDJSON,
and the run manifest.

Every data file carries a schema-version field in its header; reruns with
the same seed produce byte-identical data files. The manifest records
wall-clock timestamps and is therefore excluded from that guarantee; data
files reference it by name.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io as _io
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, InputDataError
from .filters import DynamicsConfig, SensorModel
from .likelihoods import ClutterModel, uniform_clutter
from .simulate import MeasurementFrame, ScenarioConfig, SpawnEvent, TruthScan
from .tracker import TrackerReport

SCENARIO_SCHEMA = "mcmctrack.scenario.v1"
TRUTH_SCHEMA = "mcmctrack.truth.v1"
FRAMES_SCHEMA = "mcmctrack.frames.v1"
REPORT_SCHEMA = "mcmctrack.report.v1"
HISTORY_SCHEMA = "mcmctrack.history.v1"
SUMMARY_SCHEMA = "mcmctrack.summary.v1"
FIG_ESTIMATES_SCHEMA = "mcmctrack.fig-estimates.v1"
FIG_COUNTS_SCHEMA = "mcmctrack.fig-counts.v1"
MANIFEST_SCHEMA = "mcmctrack.manifest.v1"

MANIFEST_NAME = "manifest.json"
OUT_DIR_ENV = "MCMCTRACK_OUT"


_MISSING = object()


def _field(section, key: str, path: str, convert=lambda v: v, default=_MISSING):
    """section[key] through convert, or default if absent or null; a bad
    section or field is a ConfigError naming the field's path."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be a JSON object")
    if section.get(key) is None:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key} is missing")
        return default
    try:
        return convert(section[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from exc


def _floats(*shape):
    return lambda value: np.asarray(value, dtype=float).reshape(shape)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "schema": SCENARIO_SCHEMA,
        "name": cfg.name,
        "seed": cfg.seed,
        "duration_s": cfg.duration,
        "scan_interval_s": cfg.scan_interval,
        "objects": [[float(v) for v in s] for s in cfg.objects],
        "spawn_events": [
            {
                "time_s": ev.time,
                "parent_index": ev.parent_index,
                "fragment_count": ev.fragment_count,
                "velocity_std_kmps": ev.velocity_std,
            }
            for ev in cfg.spawn_events
        ],
        "sensor": {
            "origin_km": [float(v) for v in cfg.sensor.origin],
            "boresight_angle_rad": cfg.sensor.boresight_angle,
            "fov_half_angle_rad": cfg.sensor.fov_half_angle,
            "noise_cov_km2": [[float(v) for v in row] for row in cfg.sensor.r],
            "p_d": cfg.sensor.p_d,
            "max_range_km": cfg.sensor.max_range,
        },
        "clutter": {
            "density_per_km2": cfg.clutter.density_value,
            "expected_count": cfg.clutter.expected_count,
        },
        "dynamics": {
            "mu_km3_s2": cfg.dynamics.mu,
            "q": cfg.dynamics.q,
            "integrator_substeps": cfg.dynamics.integrator_substeps,
        },
        "initial_position_std_km": cfg.initial_position_std_km,
        "initial_velocity_std_kmps": cfg.initial_velocity_std_kmps,
    }


def scenario_from_dict(payload: dict) -> ScenarioConfig:
    if _field(payload, "schema", "scenario", default=None) != SCENARIO_SCHEMA:
        raise ConfigError(f"schema must be {SCENARIO_SCHEMA}")
    sensor_d = _field(payload, "sensor", "scenario")
    sensor = SensorModel(
        origin=_field(sensor_d, "origin_km", "scenario.sensor", _floats(2)),
        boresight_angle=_field(sensor_d, "boresight_angle_rad", "scenario.sensor", float),
        fov_half_angle=_field(sensor_d, "fov_half_angle_rad", "scenario.sensor", float),
        r=_field(sensor_d, "noise_cov_km2", "scenario.sensor", _floats(2, 2)),
        p_d=_field(sensor_d, "p_d", "scenario.sensor", float),
        max_range=_field(sensor_d, "max_range_km", "scenario.sensor", float, 1.0e5),
    )
    clutter_d = _field(payload, "clutter", "scenario", default={})
    density = _field(clutter_d, "density_per_km2", "scenario.clutter", float, None)
    expected = _field(clutter_d, "expected_count", "scenario.clutter", float, 0.0)
    clutter = uniform_clutter(sensor, expected) if density is None else ClutterModel(density, expected)
    dyn_d = _field(payload, "dynamics", "scenario", default={})
    # dt is left at its default: ScenarioConfig sets it to the scan interval.
    dynamics = DynamicsConfig(
        mu=_field(dyn_d, "mu_km3_s2", "scenario.dynamics", float, 398600.4418),
        q=_field(dyn_d, "q", "scenario.dynamics", float, 0.0),
        integrator_substeps=_field(dyn_d, "integrator_substeps", "scenario.dynamics", int, 16),
    )
    spawns = [
        SpawnEvent(
            time=_field(ev, "time_s", f"scenario.spawn_events[{i}]", float),
            parent_index=_field(ev, "parent_index", f"scenario.spawn_events[{i}]", int),
            fragment_count=_field(ev, "fragment_count", f"scenario.spawn_events[{i}]", int),
            velocity_std=_field(ev, "velocity_std_kmps", f"scenario.spawn_events[{i}]", float),
        )
        for i, ev in enumerate(_field(payload, "spawn_events", "scenario", list, []))
    ]
    return ScenarioConfig(
        objects=_field(payload, "objects", "scenario", lambda rows: list(map(_floats(4), rows))),
        sensor=sensor,
        clutter=clutter,
        dynamics=dynamics,
        duration=_field(payload, "duration_s", "scenario", float),
        scan_interval=_field(payload, "scan_interval_s", "scenario", float),
        spawn_events=spawns,
        seed=_field(payload, "seed", "scenario", int, 0),
        name=_field(payload, "name", "scenario", str, "custom"),
        initial_position_std_km=_field(payload, "initial_position_std_km", "scenario", float, 2.0),
        initial_velocity_std_kmps=_field(
            payload, "initial_velocity_std_kmps", "scenario", float, 0.05
        ),
    )


def _input_file(path: str | Path, kind: str) -> Path:
    """path as a Path, or InputDataError if it is missing or not a file."""
    path = Path(path)
    if not path.is_file():
        raise InputDataError(f"no {kind} file at {path}")
    return path


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = _input_file(path, "scenario")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(payload)


def save_scenario(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(cfg), indent=2) + "\n")


def _float_repr(v: float) -> str:
    return repr(float(v))


@contextmanager
def _csv_writer(path: str | Path, schema: str, header: Sequence[str]):
    """A csv writer on a new data file at path, with the file's schema line
    and header row written."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={schema} manifest={MANIFEST_NAME}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        yield writer


def _write_ldjson(path: str | Path, schema: str, records) -> None:
    """A data file at path: a header line naming schema and the manifest,
    then one JSON line per record."""
    header = {"schema": schema + "-header", "manifest": MANIFEST_NAME}
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_truth_csv(truth: Sequence[TruthScan], path: str | Path) -> None:
    header = ["time_s", "object_id", "x_km", "y_km", "vx_kmps", "vy_kmps"]
    with _csv_writer(path, TRUTH_SCHEMA, header) as writer:
        for scan in truth:
            for oid, s in scan.objects:
                writer.writerow([_float_repr(scan.time), oid, *(_float_repr(v) for v in s)])


def _finite_floats(row: dict, keys: Sequence[str], kind: str) -> list[float]:
    """The row's values under keys as finite floats, or InputDataError."""
    try:
        values = [float(row[k]) for k in keys]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"bad {kind} row {row}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise InputDataError(f"bad {kind} row {row}: values must be finite")
    return values


def _csv_rows(path: str | Path, kind: str) -> csv.DictReader:
    """Rows of a data CSV file, its '#' header lines skipped."""
    with open(_input_file(path, kind), newline="") as fh:
        return csv.DictReader(_io.StringIO("".join(r for r in fh if not r.startswith("#"))))


def read_truth_csv(path: str | Path) -> list[TruthScan]:
    scans: dict[float, list[tuple[str, np.ndarray]]] = {}
    for row in _csv_rows(path, "truth"):
        t, *state = _finite_floats(row, ("time_s", "x_km", "y_km", "vx_kmps", "vy_kmps"), "truth")
        object_id = row.get("object_id")
        if object_id is None:
            raise InputDataError(f"bad truth row {row}: no object_id column")
        scans.setdefault(t, []).append((object_id, np.array(state)))
    return [TruthScan(time=t, objects=tuple(scans[t])) for t in sorted(scans)]


def write_frames_csv(frames: Sequence[MeasurementFrame], path: str | Path) -> None:
    header = ["time_s", "return_x_km", "return_y_km", "truth_tag"]
    with _csv_writer(path, FRAMES_SCHEMA, header) as writer:
        for frame in frames:
            tags = frame.truth_tags or [""] * frame.n_returns
            for z, tag in zip(frame.returns, tags):
                writer.writerow([_float_repr(frame.time), _float_repr(z[0]), _float_repr(z[1]), tag])
            if frame.n_returns == 0:
                writer.writerow([_float_repr(frame.time), "", "", "__empty__"])


def read_frames_csv(path: str | Path) -> list[MeasurementFrame]:
    by_time: dict[float, list[tuple[np.ndarray, str]]] = {}
    for row in _csv_rows(path, "frames"):
        empty = row.get("truth_tag") == "__empty__"
        keys = ("time_s",) if empty else ("time_s", "return_x_km", "return_y_km")
        t, *z = _finite_floats(row, keys, "frame")
        scan = by_time.setdefault(t, [])
        if not empty:
            scan.append((np.array(z), row.get("truth_tag", "")))
    frames = []
    for t in sorted(by_time):
        entries = by_time[t]
        returns = np.array([z for z, _ in entries]).reshape(-1, 2)
        tags = tuple(tag for _, tag in entries)
        frames.append(MeasurementFrame(time=t, returns=returns, truth_tags=tags))
    return frames


def report_to_dict(report: TrackerReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "scan": report.scan,
        "time_s": report.time,
        "top_hypothesis_id": report.top_hypothesis_id,
        "estimated_count": report.estimated_count,
        "n_hypotheses": report.n_hypotheses,
        "weight_entropy": report.weight_entropy,
        "hypothesis_count_bound": str(report.hypothesis_count_bound),
        "degenerate": report.degenerate,
        "alpha_used": report.alpha_used,
        "beta_used": report.beta_used,
        "estimates": [
            {
                "label": label,
                "x_km": float(mean[0]),
                "y_km": float(mean[1]),
                "vx_kmps": float(mean[2]),
                "vy_kmps": float(mean[3]),
                "covariance": [[float(v) for v in row] for row in cov],
            }
            for label, mean, cov in report.estimates
        ],
    }


def write_reports_ldjson(reports: Sequence[TrackerReport], path: str | Path) -> None:
    _write_ldjson(path, REPORT_SCHEMA, map(report_to_dict, reports))


def read_reports_ldjson(path: str | Path) -> list[dict]:
    out = []
    with open(_input_file(path, "reports")) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputDataError(f"{path} line {n} is not JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise InputDataError(f"{path} line {n} is not a JSON object")
            schema = record.get("schema")
            if schema == REPORT_SCHEMA + "-header":
                continue
            if schema != REPORT_SCHEMA:
                raise InputDataError(f"{path} line {n}: unexpected report schema {schema!r}")
            out.append(record)
    return out


def write_history_ldjson(history: Sequence[tuple[int, Sequence]], path: str | Path) -> None:
    """Full per-scan hypothesis history (weights, parents, track states);
    intended for small runs."""
    _write_ldjson(path, HISTORY_SCHEMA, (
        {
            "schema": HISTORY_SCHEMA,
            "scan": scan,
            "id": h.id,
            "parent_id": h.parent_id,
            "weight": h.weight,
            "tracks": [
                {
                    "label": t.label,
                    "state": [float(v) for v in t.mean],
                    "covariance": [[float(v) for v in row] for row in t.covariance],
                }
                for t in h.tracks
            ],
        }
        for scan, hypotheses in history
        for h in hypotheses
    ))


def write_manifest(out_dir: str | Path, payload: dict) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / MANIFEST_NAME
    record = {
        "schema": MANIFEST_SCHEMA,
        "tool_version": __version__,
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        **payload,
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def finalize_manifest(out_dir: str | Path) -> None:
    path = Path(out_dir) / MANIFEST_NAME
    record = json.loads(path.read_text())
    record["finished_utc"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def write_fig_estimates_csv(
    reports: Sequence[dict],
    truth: Sequence[TruthScan] | None,
    path: str | Path,
) -> None:
    """Per-scan truth-vs-estimate position table."""
    truth_by_time = {scan.time: scan for scan in truth or []}
    header = ["time_s", "kind", "id", "x_km", "y_km"]
    with _csv_writer(path, FIG_ESTIMATES_SCHEMA, header) as writer:
        for record in reports:
            t = record["time_s"]
            scan = truth_by_time.get(t)
            if scan is not None:
                for oid, s in scan.objects:
                    writer.writerow([_float_repr(t), "truth", oid, _float_repr(s[0]), _float_repr(s[1])])
            for est in record["estimates"]:
                writer.writerow(
                    [_float_repr(t), "estimate", est["label"], _float_repr(est["x_km"]), _float_repr(est["y_km"])]
                )


def write_fig_counts_csv(reports: Sequence[dict], path: str | Path) -> None:
    """Per-scan hypothesis-count-bound table (decimal strings)."""
    with _csv_writer(path, FIG_COUNTS_SCHEMA, ["time_s", "hypothesis_count_bound"]) as writer:
        for record in reports:
            writer.writerow([_float_repr(record["time_s"]), record["hypothesis_count_bound"]])


def summarize_run(
    reports: Sequence[dict], truth: Sequence[TruthScan] | None
) -> dict:
    """Cardinality-error time series plus top-hypothesis position RMSE
    against truth (nearest-estimate matching per truth object)."""
    truth_by_time = {scan.time: scan for scan in truth or []}
    scans = []
    for record in reports:
        t = record["time_s"]
        entry: dict = {
            "time_s": t,
            "estimated_count": record["estimated_count"],
            "degenerate": record["degenerate"],
        }
        scan = truth_by_time.get(t)
        if scan is not None:
            entry["truth_count"] = scan.count
            entry["cardinality_error"] = record["estimated_count"] - scan.count
            if record["estimates"] and scan.count:
                est = np.array([[e["x_km"], e["y_km"]] for e in record["estimates"]])
                errs = []
                for _, s in scan.objects:
                    d = np.linalg.norm(est - s[:2], axis=1)
                    errs.append(float(d.min()) ** 2)
                entry["position_rmse_km"] = math.sqrt(sum(errs) / len(errs))
        scans.append(entry)
    out = {"schema": SUMMARY_SCHEMA, "manifest": MANIFEST_NAME, "scans": scans}
    if scans:
        out["final_estimated_count"] = scans[-1]["estimated_count"]
        if "truth_count" in scans[-1]:
            out["final_truth_count"] = scans[-1]["truth_count"]
    return out


def default_out_dir(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    return Path("mcmctrack-out")
