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
REPORT_SCHEMA = "mcmctrack.report.v4"
HISTORY_SCHEMA = "mcmctrack.history.v1"
SUMMARY_SCHEMA = "mcmctrack.summary.v1"
FIG_ESTIMATES_SCHEMA = "mcmctrack.fig-estimates.v1"
FIG_COUNTS_SCHEMA = "mcmctrack.fig-counts.v1"
MANIFEST_SCHEMA = "mcmctrack.manifest.v1"
COUNT_RECONCILIATION_SCHEMA = "mcmctrack.count-reconciliation.v1"

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


def _json(kind, name: str):
    """A convert for _field that takes only a JSON value of kind, never a
    bool (an int or float for float, which it returns as a float)."""
    def convert(value):
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise TypeError(f"must be {name}, not {value!r}")
        return kind(value)
    return convert


_number, _integer, _string = _json(float, "a number"), _json(int, "an integer"), _json(str, "a string")


def _list(convert):
    """A convert for _field that takes only a JSON list and passes it to
    convert whole."""
    def convert_list(value):
        if not isinstance(value, list):
            raise TypeError(f"must be a JSON list, not {value!r}")
        return convert(value)
    return convert_list


def _floats(*shape):
    """A convert for _field that takes only JSON lists of shape, with a
    number at the last level, and returns them as a float array."""
    def numbers(value, shape):
        if not shape:
            return _number(value)
        if not isinstance(value, list) or len(value) != shape[0]:
            raise TypeError(f"must be a JSON list of length {shape[0]}, not {value!r}")
        return [numbers(v, shape[1:]) for v in value]
    return lambda value: np.array(numbers(value, shape))


# The scenario file's sections: one (JSON key, attribute, convert, required)
# row per field, in file order, which _write and _read both follow.
_SCENARIO = (
    ("name", "name", _string, False),
    ("seed", "seed", _integer, False),
    ("duration_s", "duration", _number, True),
    ("scan_interval_s", "scan_interval", _number, True),
)
_SPAWN_EVENT = (
    ("time_s", "time", _number, True),
    ("parent_index", "parent_index", _integer, True),
    ("fragment_count", "fragment_count", _integer, True),
    ("velocity_std_kmps", "velocity_std", _number, True),
)
_SENSOR = (
    ("origin_km", "origin", _floats(2), True),
    ("boresight_angle_rad", "boresight_angle", _number, True),
    ("fov_half_angle_rad", "fov_half_angle", _number, True),
    ("noise_cov_km2", "r", _floats(2, 2), True),
    ("p_d", "p_d", _number, True),
    ("max_range_km", "max_range", _number, False),
)
_CLUTTER = (
    ("density_per_km2", "density_value", _number, False),
    ("expected_count", "expected_count", _number, False),
)
# dt stays out of the file: ScenarioConfig sets it to the scan interval.
_DYNAMICS = (
    ("mu_km3_s2", "mu", _number, False),
    ("q", "q", _number, False),
    ("integrator_substeps", "integrator_substeps", _integer, False),
)
_INITIAL_STDS = (
    ("initial_position_std_km", "initial_position_std_km", _number, False),
    ("initial_velocity_std_kmps", "initial_velocity_std_kmps", _number, False),
)


def _write(obj, fields) -> dict:
    """obj's attributes as a section of the scenario file, arrays as lists."""
    values = ((key, getattr(obj, attr)) for key, attr, _, _ in fields)
    return {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in values}


def _read(section, path: str, fields) -> dict:
    """The fields of section as keyword arguments, read by _field; an optional
    field that is absent or null is left out, so its dataclass default applies."""
    absent = object()
    values = {attr: _field(section, key, path, convert, _MISSING if required else absent)
              for key, attr, convert, required in fields}
    return {attr: value for attr, value in values.items() if value is not absent}


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "schema": SCENARIO_SCHEMA,
        **_write(cfg, _SCENARIO),
        "objects": [s.tolist() for s in cfg.objects],
        "spawn_events": [_write(ev, _SPAWN_EVENT) for ev in cfg.spawn_events],
        "sensor": _write(cfg.sensor, _SENSOR),
        "clutter": _write(cfg.clutter, _CLUTTER),
        "dynamics": _write(cfg.dynamics, _DYNAMICS),
        **_write(cfg, _INITIAL_STDS),
    }


def scenario_from_dict(payload: dict) -> ScenarioConfig:
    if _field(payload, "schema", "scenario", default=None) != SCENARIO_SCHEMA:
        raise ConfigError(f"schema must be {SCENARIO_SCHEMA}")
    sensor = SensorModel(**_read(_field(payload, "sensor", "scenario"), "scenario.sensor", _SENSOR))
    clutter = _read(_field(payload, "clutter", "scenario", default={}), "scenario.clutter", _CLUTTER)
    clutter = ClutterModel(**clutter) if "density_value" in clutter else uniform_clutter(sensor, **clutter)
    dynamics = _read(_field(payload, "dynamics", "scenario", default={}), "scenario.dynamics", _DYNAMICS)
    events = _list(lambda evs: [SpawnEvent(**_read(ev, f"scenario.spawn_events[{i}]", _SPAWN_EVENT))
                                for i, ev in enumerate(evs)])
    return ScenarioConfig(
        objects=_field(payload, "objects", "scenario", _list(lambda rows: list(map(_floats(4), rows)))),
        **_read(payload, "scenario", _SCENARIO),
        spawn_events=_field(payload, "spawn_events", "scenario", events, []),
        sensor=sensor, clutter=clutter, dynamics=DynamicsConfig(**dynamics),
        **_read(payload, "scenario", _INITIAL_STDS),
    )


def _input_file(path: str | Path, kind: str) -> Path:
    """path as a Path, or InputDataError if it is missing or not a file."""
    path = Path(path)
    if not path.is_file():
        raise InputDataError(f"no {kind} file at {path}")
    return path


def _input_lines(path: str | Path, kind: str, newline: str | None = None) -> _io.StringIO:
    """The UTF-8 lines of the input file at path, split as open(newline=newline)
    splits them; InputDataError if it is missing, not a file or not UTF-8."""
    path = _input_file(path, kind)
    try:
        return _io.StringIO(path.read_bytes().decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{kind} file {path} is not UTF-8 text: {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    """The scenario in the JSON file at path, which is UTF-8 (RFC 8259)."""
    path = _input_file(path, "scenario")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
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
    lines = _input_lines(path, kind, newline="")
    return csv.DictReader(_io.StringIO("".join(r for r in lines if not r.startswith("#"))))


def read_truth_csv(path: str | Path) -> list[TruthScan]:
    scans: dict[float, dict[str, np.ndarray]] = {}
    for row in _csv_rows(path, "truth"):
        t, *state = _finite_floats(row, ("time_s", "x_km", "y_km", "vx_kmps", "vy_kmps"), "truth")
        object_id = row.get("object_id")
        if object_id is None:
            raise InputDataError(f"bad truth row {row}: no object_id column")
        scan = scans.setdefault(t, {})
        if object_id in scan:
            raise InputDataError(f"bad truth row {row}: object {object_id} repeats at {t!r} s")
        scan[object_id] = np.array(state)
    return [TruthScan(time=t, objects=tuple(scans[t].items())) for t in sorted(scans)]


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
        "top_parent_id": report.top_parent_id,
        "top_weight": report.top_weight,
        "estimated_count": report.estimated_count,
        "n_hypotheses": report.n_hypotheses,
        "weight_entropy": report.weight_entropy,
        "hypothesis_count_bound": str(report.hypothesis_count_bound),
        "degenerate": report.degenerate,
        "parents_skipped": report.parents_skipped,
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
    for n, line in enumerate(_input_lines(path, "reports"), 1):
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
        problem = _report_problem(record)
        if problem:
            raise InputDataError(f"{path} line {n}: {problem}")
        out.append(record)
    return out


def _finite_number(value) -> bool:
    try:
        return math.isfinite(_number(value))
    except (TypeError, OverflowError):  # not a number, or an int too large for a float
        return False


def _report_problem(record: dict) -> str | None:
    """What is wrong with the fields of a report record that figdata reads,
    or None: a finite time_s, a decimal-string hypothesis_count_bound, and
    estimates, a list of objects each with a string label and finite x_km
    and y_km."""
    if not _finite_number(record.get("time_s")):
        return "time_s must be a finite number"
    bound = record.get("hypothesis_count_bound")
    if not (isinstance(bound, str) and bound.isascii() and bound.isdigit()):
        return "hypothesis_count_bound must be a decimal string"
    estimates = record.get("estimates")
    if not isinstance(estimates, list):
        return "estimates must be a list"
    for i, est in enumerate(estimates):
        if not isinstance(est, dict):
            return f"estimates[{i}] must be a JSON object"
        if not isinstance(est.get("label"), str):
            return f"estimates[{i}].label must be a string"
        for key in ("x_km", "y_km"):
            if not _finite_number(est.get(key)):
                return f"estimates[{i}].{key} must be a finite number"
    return None


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


def write_count_reconciliation_csv(rows: Sequence[Sequence], path: str | Path) -> None:
    """selftest's table of grandchild counts: enumerated, by the direct
    formula and by the net-change formula, per instance."""
    header = [
        "n_objects", "n_returns", "n_pixels", "enumerated", "direct_formula",
        "net_change_formula", "direct_matches_enumeration", "net_change_matches_direct",
    ]
    with _csv_writer(path, COUNT_RECONCILIATION_SCHEMA, header) as writer:
        writer.writerows(rows)


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
