"""CLI subcommands, file formats, exit codes, reproducibility."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcmctrack
from mcmctrack import cli
from mcmctrack.cli import build_parser, main
from mcmctrack.errors import NumericalError, TrackingError
from mcmctrack.filters import DynamicsConfig, SensorModel
from mcmctrack.hypotheses import count_grandchildren
from mcmctrack.io import (
    default_out_dir,
    load_scenario,
    read_frames_csv,
    read_reports_ldjson,
    read_truth_csv,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from mcmctrack.likelihoods import ClutterModel, uniform_clutter
from mcmctrack.presets import TRACKER_TUNING, preset_single_spawn
from mcmctrack.simulate import ScenarioConfig, SpawnEvent, simulate_scenario


@pytest.fixture(scope="module")
def small_scenario_file(tmp_path_factory):
    # A fast two-object scenario for CLI round trips.
    cfg = preset_single_spawn(seed=3)
    payload = scenario_to_dict(cfg)
    payload["name"] = "tiny"
    payload["duration_s"] = 4 * 300.0
    payload["spawn_events"] = []
    path = tmp_path_factory.mktemp("scen") / "tiny.json"
    path.write_text(json.dumps(payload))
    return path


class TestScenarioRoundTrip:
    def test_json_round_trip_preserves_fields(self, tmp_path):
        cfg = preset_single_spawn(seed=9)
        path = tmp_path / "scenario.json"
        save_scenario(cfg, path)
        loaded = load_scenario(path)
        assert loaded.name == cfg.name
        assert loaded.seed == 9
        assert loaded.scan_interval == cfg.scan_interval
        np.testing.assert_allclose(loaded.objects[0], cfg.objects[0])
        np.testing.assert_allclose(loaded.sensor.r, cfg.sensor.r)
        assert loaded.clutter.density_value == pytest.approx(cfg.clutter.density_value)
        assert loaded.spawn_events == cfg.spawn_events

    def test_every_field_survives_json_round_trip(self):
        # Every field the file holds is set away from its default (the
        # clutter density away from the uniform one), so a field the writer
        # drops or the reader skips reads back changed.
        cfg = ScenarioConfig(
            objects=[np.array([7000.5, 10.25, 0.5, 7.5]), np.array([-6800.0, 1200.0, -1.25, -7.0])],
            sensor=SensorModel(origin=[6400.0, -12.5], boresight_angle=0.3, fov_half_angle=0.7,
                               r=[[0.04, 0.01], [0.01, 0.09]], p_d=0.85, max_range=3000.0),
            clutter=ClutterModel(2.5e-6, expected_count=1.5),
            dynamics=DynamicsConfig(mu=3.9e5, q=1e-6, integrator_substeps=7),
            duration=1800.0,
            scan_interval=150.0,
            spawn_events=[SpawnEvent(time=450.0, parent_index=1, fragment_count=3, velocity_std=0.02),
                          SpawnEvent(time=900.0, parent_index=0, fragment_count=2, velocity_std=0.015)],
            seed=17,
            name="every-field",
            initial_position_std_km=1.5,
            initial_velocity_std_kmps=0.03,
        )
        loaded = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(cfg))))

        for name in ("name", "seed", "duration", "scan_interval", "initial_position_std_km",
                     "initial_velocity_std_kmps"):
            assert getattr(loaded, name) == getattr(cfg, name), name
        np.testing.assert_array_equal(loaded.objects, cfg.objects)
        assert loaded.spawn_events == cfg.spawn_events
        for part, expected in [(loaded.sensor, cfg.sensor), (loaded.clutter, cfg.clutter),
                               (loaded.dynamics, cfg.dynamics)]:
            for f in dataclasses.fields(expected):
                np.testing.assert_array_equal(getattr(part, f.name), getattr(expected, f.name), f.name)
        assert cfg.clutter.density_value != uniform_clutter(cfg.sensor).density_value

    def test_missing_field_names_path(self):
        payload = scenario_to_dict(preset_single_spawn())
        del payload["sensor"]["p_d"]
        with pytest.raises(Exception, match="scenario.sensor.p_d"):
            scenario_from_dict(payload)

    def test_required_keys_only_take_dataclass_defaults(self):
        # Every optional field left out of the file gets its dataclass's
        # own default; with no clutter density the clutter is uniform.
        full = scenario_to_dict(preset_single_spawn())
        payload = {key: full[key] for key in
                   ("schema", "objects", "duration_s", "scan_interval_s")}
        payload["sensor"] = {key: full["sensor"][key] for key in
                             ("origin_km", "boresight_angle_rad", "fov_half_angle_rad",
                              "noise_cov_km2", "p_d")}
        cfg = scenario_from_dict(payload)

        def default(cls, name):
            f = next(f for f in dataclasses.fields(cls) if f.name == name)
            return f.default_factory() if f.default is dataclasses.MISSING else f.default

        assert cfg.sensor.max_range == default(SensorModel, "max_range")
        assert cfg.clutter == uniform_clutter(cfg.sensor)
        assert cfg.clutter.expected_count == default(ClutterModel, "expected_count")
        for name in ("mu", "q", "integrator_substeps"):
            assert getattr(cfg.dynamics, name) == default(DynamicsConfig, name)
        for name in ("spawn_events", "seed", "name", "initial_position_std_km",
                     "initial_velocity_std_kmps"):
            assert getattr(cfg, name) == default(ScenarioConfig, name)

    def test_truth_and_frames_round_trip(self, tmp_path):
        cfg = preset_single_spawn(seed=1)
        truth, frames = simulate_scenario(cfg)
        from mcmctrack.io import write_frames_csv, write_truth_csv

        write_truth_csv(truth, tmp_path / "truth.csv")
        write_frames_csv(frames, tmp_path / "frames.csv")
        truth2 = read_truth_csv(tmp_path / "truth.csv")
        frames2 = read_frames_csv(tmp_path / "frames.csv")
        assert len(truth2) == len(truth)
        assert len(frames2) == len(frames)
        for a, b in zip(truth, truth2):
            assert a.time == b.time
            assert [oid for oid, _ in a.objects] == [oid for oid, _ in b.objects]
            for (_, sa), (_, sb) in zip(a.objects, b.objects):
                np.testing.assert_array_equal(sa, sb)
        for a, b in zip(frames, frames2):
            assert a.time == b.time
            np.testing.assert_array_equal(a.returns, b.returns)
            assert a.truth_tags == b.truth_tags

    def test_empty_frame_round_trip(self, tmp_path):
        from mcmctrack.io import write_frames_csv
        from mcmctrack.simulate import MeasurementFrame

        frames = [
            MeasurementFrame(time=300.0, returns=np.empty((0, 2)), truth_tags=()),
            MeasurementFrame(time=600.0, returns=np.array([[1.0, 2.0]]), truth_tags=("t00",)),
        ]
        write_frames_csv(frames, tmp_path / "frames.csv")
        loaded = read_frames_csv(tmp_path / "frames.csv")
        assert [f.time for f in loaded] == [300.0, 600.0]
        assert loaded[0].n_returns == 0
        assert loaded[1].n_returns == 1


class TestSimulateCommand:
    def test_outputs_and_spawn_count(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--scenario", "single-spawn", "--out", str(out), "--seed", "0"])
        assert rc == 0
        truth = read_truth_csv(out / "truth.csv")
        counts = [scan.count for scan in truth]
        assert counts[0] == 1 and counts[-1] == 3
        assert (out / "manifest.json").exists()
        header = (out / "frames.csv").read_text().splitlines()[0]
        assert "schema=" in header and "manifest=manifest.json" in header

    def test_same_seed_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", "single-spawn", "--out", str(out_a), "--seed", "5"]) == 0
        assert main(["simulate", "--scenario", "single-spawn", "--out", str(out_b), "--seed", "5"]) == 0
        for name in ("truth.csv", "frames.csv", "scenario.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    # Python's json module reads NaN and Infinity, so a scenario file can
    # hold them.
    @pytest.mark.parametrize("field,edit", [
        ("scan_interval", lambda p: p.update(scan_interval_s=-5.0)),
        ("sensor.boresight_angle", lambda p: p["sensor"].update(boresight_angle_rad=math.nan)),
        ("sensor.boresight_angle", lambda p: p["sensor"].update(boresight_angle_rad=math.inf)),
        ("sensor.r", lambda p: p["sensor"]["noise_cov_km2"][0].__setitem__(0, math.inf)),
        ("clutter.expected_count", lambda p: p["clutter"].update(expected_count=math.nan)),
        ("clutter.expected_count", lambda p: p["clutter"].update(expected_count=math.inf)),
        ("spawn_events[].velocity_std",
         lambda p: p["spawn_events"][0].update(velocity_std_kmps=math.nan)),
        ("spawn_events[].velocity_std",
         lambda p: p["spawn_events"][0].update(velocity_std_kmps=math.inf)),
        ("initial_position_std_km", lambda p: p.update(initial_position_std_km=math.nan)),
        ("initial_velocity_std_kmps", lambda p: p.update(initial_velocity_std_kmps=math.inf)),
        # Each is finite, but its square, an initial covariance entry, is not.
        ("initial_position_std_km must have a finite square",
         lambda p: p.update(initial_position_std_km=1e200)),
        ("initial_velocity_std_kmps must have a finite square",
         lambda p: p.update(initial_velocity_std_kmps=1e200)),
        # Each is finite, but their ratio, the scan count, is not.
        ("duration must span a finite number of scans",
         lambda p: p.update(duration_s=1e300, scan_interval_s=1e-300)),
        ("schema must be mcmctrack.scenario.v1",
         lambda p: p.update(schema="mcmctrack.scenario.v0")),
    ], ids=["scan-interval", "boresight-nan", "boresight-inf", "noise-cov-inf",
            "clutter-count-nan", "clutter-count-inf", "spawn-velocity-nan",
            "spawn-velocity-inf", "position-std-nan", "velocity-std-inf",
            "position-std-square-overflow", "velocity-std-square-overflow",
            "scan-count-overflow", "other-schema"])
    def test_invalid_scenario_exits_2_naming_field(self, tmp_path, capsys, field, edit):
        payload = scenario_to_dict(preset_single_spawn())
        edit(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field,edit", [
        ("scenario.objects", lambda p: p["objects"][0].pop()),
        ("scenario.spawn_events[0].time_s", lambda p: p["spawn_events"][0].update(time_s="soon")),
        ("scenario.dynamics.integrator_substeps",
         lambda p: p["dynamics"].update(integrator_substeps="x")),
        ("scenario.spawn_events[0] must be a JSON object",
         lambda p: p["spawn_events"].__setitem__(0, 3)),
        # Integer fields take JSON integers only: int() would truncate these.
        ("scenario.seed: must be an integer", lambda p: p.update(seed=1.5)),
        ("scenario.seed: must be an integer", lambda p: p.update(seed=True)),
        ("scenario.dynamics.integrator_substeps: must be an integer",
         lambda p: p["dynamics"].update(integrator_substeps=2.5)),
        ("scenario.spawn_events[0].parent_index: must be an integer",
         lambda p: p["spawn_events"][0].update(parent_index=0.7)),
        ("scenario.spawn_events[0].fragment_count: must be an integer",
         lambda p: p["spawn_events"][0].update(fragment_count=2.9)),
        # A bool is not a number, nor a number a name.
        ("scenario.sensor.p_d: must be a number", lambda p: p["sensor"].update(p_d=True)),
        ("scenario.sensor.origin_km: must be a number",
         lambda p: p["sensor"]["origin_km"].__setitem__(0, False)),
        ("scenario.name: must be a string", lambda p: p.update(name=5)),
        # Lists take JSON lists only: null means absent, but {} or "" would
        # otherwise read as no events and simulate would drop the breakup.
        ("scenario.spawn_events: must be a JSON list", lambda p: p.update(spawn_events={})),
        ("scenario.spawn_events: must be a JSON list", lambda p: p.update(spawn_events="")),
        ("scenario.spawn_events: must be a JSON list", lambda p: p.update(spawn_events=5)),
        ("scenario.spawn_events: must be a JSON list",
         lambda p: p.update(spawn_events={"first": p["spawn_events"][0]})),
        ("scenario.objects: must be a JSON list", lambda p: p.update(objects={})),
        ("scenario.objects: must be a JSON list", lambda p: p.update(objects="")),
        ("scenario.objects: must be a JSON list", lambda p: p.update(objects=5)),
        # An array takes only lists of its own shape, never the same numbers
        # nested another way.
        ("scenario.sensor.noise_cov_km2: must be a JSON list of length 2",
         lambda p: p["sensor"].update(noise_cov_km2=[1, 0, 0, 1])),
        ("scenario.objects: must be a JSON list of length 4",
         lambda p: p["objects"].__setitem__(0, [p["objects"][0][:2], p["objects"][0][2:]])),
        ("scenario.sensor.origin_km: must be a number",
         lambda p: p["sensor"].update(origin_km=[[0], [0]])),
    ], ids=["object-of-3", "spawn-time-text", "substeps-text", "spawn-not-object",
            "seed-fraction", "seed-bool", "substeps-fraction", "parent-index-fraction",
            "fragment-count-fraction", "p-d-bool", "origin-bool", "name-number",
            "spawn-events-empty-object", "spawn-events-empty-string", "spawn-events-number",
            "spawn-events-object-of-events", "objects-empty-object", "objects-empty-string",
            "objects-number", "noise-cov-flat", "object-of-2-pairs", "origin-nested"])
    def test_malformed_field_exits_2_naming_it(self, tmp_path, capsys, field, edit):
        payload = scenario_to_dict(preset_single_spawn())
        edit(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert field in capsys.readouterr().err

    # JSON text is UTF-8 (RFC 8259), so other bytes make invalid JSON.
    @pytest.mark.parametrize("content", [
        json.dumps({"name": "caf\u00e9"}, ensure_ascii=False).encode("latin-1"),
        json.dumps(scenario_to_dict(preset_single_spawn())).encode("utf-16"),
    ], ids=["latin-1", "utf-16"])
    def test_non_utf8_scenario_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"scenario file {bad} is not valid JSON: 'utf-8' codec" in capsys.readouterr().err

    def test_truncated_scenario_exits_2_naming_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scenario_to_dict(preset_single_spawn()))[:-1])
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"scenario file {bad} is not valid JSON: Expecting" in capsys.readouterr().err

    def test_unknown_scenario_file_exits_3(self, tmp_path):
        rc = main(["simulate", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == 3


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory, small_scenario_file):
    out = tmp_path_factory.mktemp("runs") / "sim"
    assert main(["simulate", "--scenario", str(small_scenario_file), "--out", str(out)]) == 0
    return out


class TestTrackCommand:
    def test_track_writes_reports_and_summary(self, tmp_path, sim_dir, small_scenario_file):
        out = tmp_path / "trk"
        rc = main([
            "track", "--frames", str(sim_dir / "frames.csv"),
            "--scenario", str(small_scenario_file),
            "--truth", str(sim_dir / "truth.csv"),
            "--out", str(out), "--seed", "1",
        ])
        assert rc == 0
        records = read_reports_ldjson(out / "reports.ldjson")
        assert len(records) == 4
        assert all(r["schema"] == "mcmctrack.report.v4" for r in records)
        assert all(isinstance(r["hypothesis_count_bound"], str) for r in records)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == "mcmctrack.summary.v1"
        assert "cardinality_error" in summary["scans"][0]
        assert "position_rmse_km" in summary["scans"][0]

    @pytest.mark.parametrize("field", ["initial_position_std_km", "initial_velocity_std_kmps"])
    def test_std_with_overflowing_square_exits_2_naming_it(
        self, tmp_path, capsys, sim_dir, small_scenario_file, field
    ):
        # The square, not the std, overflows: the scenario must be refused
        # when it is read, not end in a traceback when tracking starts.
        payload = json.loads(small_scenario_file.read_text())
        payload[field] = 1e200
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc = main(["track", "--frames", str(sim_dir / "frames.csv"), "--scenario", str(bad),
                   "--out", str(tmp_path / "trk")])
        assert rc == 2
        assert f"{field} must have a finite square" in capsys.readouterr().err

    def test_far_return_tracks_without_warning(self, tmp_path, small_scenario_file):
        # A return at 1e200 km passes the 1 km guard and has likelihood 0
        # under every track; both overflow to inf on the way, and a warning
        # would fail this test.
        frames = tmp_path / "frames.csv"
        frames.write_text(f"{self.FRAMES_HEADER}\n300.0,1e200,0.0,clutter\n")
        rc = main(["track", "--frames", str(frames), "--scenario", str(small_scenario_file),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert len(read_reports_ldjson(tmp_path / "o" / "reports.ldjson")) == 1

    def test_track_fixed_seed_byte_identical(self, tmp_path, sim_dir, small_scenario_file):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            rc = main([
                "track", "--frames", str(sim_dir / "frames.csv"),
                "--scenario", str(small_scenario_file),
                "--out", str(out), "--seed", "7",
            ])
            assert rc == 0
            outs.append((out / "reports.ldjson").read_bytes())
        assert outs[0] == outs[1]

    def test_exhaustive_mode_seed_invariant(self, tmp_path, sim_dir, small_scenario_file):
        payload = json.loads(Path(small_scenario_file).read_text())
        payload["objects"] = payload["objects"][:1]
        scen = tmp_path / "one.json"
        scen.write_text(json.dumps(payload))
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scen), "--out", str(sim)]) == 0
        reports = []
        for seed in ("1", "999"):
            out = tmp_path / f"ex{seed}"
            rc = main([
                "track", "--frames", str(sim / "frames.csv"), "--scenario", str(scen),
                "--out", str(out), "--seed", seed, "--mode", "exhaustive",
            ])
            assert rc == 0
            reports.append(read_reports_ldjson(out / "reports.ldjson"))
        for ra, rb in zip(*reports):
            assert ra["estimated_count"] == rb["estimated_count"]
            for ea, eb in zip(ra["estimates"], rb["estimates"]):
                assert abs(ea["x_km"] - eb["x_km"]) < 1e-9
                assert abs(ea["y_km"] - eb["y_km"]) < 1e-9

    def test_history_output(self, tmp_path, sim_dir, small_scenario_file):
        out = tmp_path / "hist"
        rc = main([
            "track", "--frames", str(sim_dir / "frames.csv"),
            "--scenario", str(small_scenario_file),
            "--out", str(out), "--seed", "3", "--history",
        ])
        assert rc == 0
        lines = (out / "hypotheses.ldjson").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"].startswith("mcmctrack.history.v1")
        records = [json.loads(l) for l in lines[1:]]
        by_scan = {}
        for r in records:
            by_scan.setdefault(r["scan"], []).append(r)
        for scan, rows in by_scan.items():
            assert sum(r["weight"] for r in rows) == pytest.approx(1.0, abs=1e-9)
            assert all("tracks" in r and "parent_id" in r for r in rows)

    FRAMES_HEADER = "time_s,return_x_km,return_y_km,truth_tag"
    TRUTH_HEADER = "time_s,object_id,x_km,y_km,vx_kmps,vy_kmps"

    # The scenario scans every 300 s, so frame k belongs at 300 (k + 1) s.
    @pytest.mark.parametrize("kind,header,row,named", [
        ("frames", FRAMES_HEADER, "300.0,nan,7000.0,t00", ""),
        ("frames", FRAMES_HEADER, "inf,7000.0,0.0,t00", ""),
        ("frames", FRAMES_HEADER, "300.0,0.0,0.0,clutter", ""),
        ("truth", TRUTH_HEADER, "300.0,t00,7000.0,inf,0.0,7.5", ""),
        ("truth", "time_s,x_km,y_km,vx_kmps,vy_kmps", "300.0,7000.0,0.0,0.0,7.5", "object_id"),
        ("truth", TRUTH_HEADER, "300.0,t00,7000.0,0.0,0.0,7.5\n300.0,t00,7000.0,0.0,0.0,7.5",
         "object t00 repeats at 300.0 s"),
        ("frames", FRAMES_HEADER, "600.0,7000.0,0.0,t00\n1200.0,7000.0,0.0,t00", "frame 0"),
        ("frames", FRAMES_HEADER, "300.0,7000.0,0.0,t00\n900.0,7000.0,0.0,t00", "frame 1"),
        ("frames", FRAMES_HEADER, "300.0,7000.0", "bad frame row"),
        ("frames", FRAMES_HEADER, "", "contains no scans"),
    ], ids=["nan-return", "inf-time", "return-at-sensor-origin", "inf-truth-state",
            "truth-without-object-id", "repeated-truth-row", "doubled-spacing", "dropped-scan",
            "row-missing-field", "header-only"])
    def test_bad_value_exits_3(
        self, tmp_path, capsys, sim_dir, small_scenario_file, kind, header, row, named
    ):
        files = {"frames": sim_dir / "frames.csv", "truth": sim_dir / "truth.csv"}
        files[kind] = tmp_path / f"{kind}.csv"
        files[kind].write_text(f"{header}\n{row}\n")
        rc = main([
            "track", "--frames", str(files["frames"]), "--truth", str(files["truth"]),
            "--scenario", str(small_scenario_file), "--out", str(tmp_path / "o"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert named in err

    def test_return_at_center_exits_3(self, tmp_path, capsys):
        # A sensor beside the gravitational center, looking at it: a return
        # at (0, 0) is in its field of view, and a track born there could
        # not be propagated.
        payload = scenario_to_dict(preset_single_spawn())
        payload["sensor"].update(origin_km=[100.0, 0.0], boresight_angle_rad=math.pi)
        payload["spawn_events"] = []
        payload["duration_s"] = 600.0
        scenario = tmp_path / "center.json"
        scenario.write_text(json.dumps(payload))
        frames = tmp_path / "frames.csv"
        frames.write_text(f"{self.FRAMES_HEADER}\n300.0,0.0,0.0,\n600.0,0.0,0.0,\n")
        rc = main(["track", "--frames", str(frames), "--scenario", str(scenario),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "300.0 s" in err and "Traceback" not in err

    def test_missing_frames_exits_3(self, tmp_path, small_scenario_file):
        rc = main([
            "track", "--frames", str(tmp_path / "missing.csv"),
            "--scenario", str(small_scenario_file), "--out", str(tmp_path / "o"),
        ])
        assert rc == 3


class TestRecordedBytes:
    """simulate, then track reading the scenario.json that simulate wrote,
    writes data files with these recorded sha256 digests: a change that
    moves one of their bytes breaks byte-identical reruns across versions."""

    DIGESTS = {
        ("single-spawn", 9001, "mcmc"): {
            "sim/scenario.json": "74dce149ffa8e63482ddbc588be23e0b9619623d6aeaa9d3f3220165a991754e",
            "sim/truth.csv": "2d3b33edbb3b3235efbb71e0a49b4380c3929930a5d00e0badc669bc0601f4f4",
            "sim/frames.csv": "527cbc17e9478b29bb6d8431b558837e1e54f321499bd4eb5fff6705ebe5ef83",
            "trk/reports.ldjson": "de083fc26694eaae4700e52d749d7a18efdf839b2945db829d742e78449398fb",
            "trk/summary.json": "e2c26efd04ecd16b1da861d4f4f23588575da15f8355c3f6be74dbf4f36c22c2",
        },
        ("twenty-object", 9001, "mcmc"): {
            "sim/scenario.json": "cbc3cd72b6e9c207846bebc34faba7bec65baa34155b874a77e788a9fe0775bf",
            "sim/truth.csv": "35ecfde349e01396a4592c0d9b9f582037bb91509ce3612a94946dbbe832d0fa",
            "sim/frames.csv": "571879d1b169770a84720e81afc15d7304d8ed833fd53bcbbadf8685ea8f3012",
            "trk/reports.ldjson": "ba0f541d1185a05daccea308cbe1b17759b6bd586231542d878c9a7cb5a751d0",
            "trk/summary.json": "8d02dcc8921b96c714000e52802dabacbd2d1b1fbcbb30e4ce5c722be9076c1f",
        },
        ("sixty-object", 9001, "mcmc"): {
            "sim/scenario.json": "1b2e73d6f173448b94134477ba1c4f8830b4c16146101496fd4d3c98cd9cb592",
            "sim/truth.csv": "04f64a339a3414376184899bbd7c5038b9a35084bdefdacfed541995cec955c1",
            "sim/frames.csv": "ec21ec79cc7de61b95b9588d74e1f9a056ae9f5b1a7262cad85f065d0f4c315f",
            "trk/reports.ldjson": "470af5e968eb889ead8ec02cc75ac7e83b0ab94eb24868f26fe3c33f4f6a294a",
            "trk/summary.json": "290f648f3bfea8e850bd54943c97a73345776bdb9171ea30f407ce0ff90af43a",
        },
        ("single-spawn", 0, "exhaustive"): {
            "sim/scenario.json": "8e318431f45ba7ba8d03760cc57a3520d3def14eb618105fabbc21eb45900eb9",
            "sim/truth.csv": "b129c4c335b0f40462edcfe209107efe54b58423921fafc08e8a384697249de6",
            "sim/frames.csv": "b33b4f517c0e051d928774c406745aa1750c40dd7748ffb8ffa079864d3db77d",
            "trk/reports.ldjson": "962f16bfe0320acab51c34672f19f96ac70c2dabe2eef7ca54ab7e1725c42f95",
            "trk/summary.json": "61c71cc0beedc60e22b7b81e7695eeaa6290bb972412daaad0acaff080df2fa6",
        },
    }

    @pytest.mark.parametrize("preset,seed,mode", list(DIGESTS))
    def test_data_files_match_recorded_digests(self, tmp_path, preset, seed, mode):
        sim, trk = tmp_path / "sim", tmp_path / "trk"
        assert main(["simulate", "--scenario", preset, "--seed", str(seed), "--out", str(sim)]) == 0
        assert main(["track", "--scenario", str(sim / "scenario.json"),
                     "--frames", str(sim / "frames.csv"), "--truth", str(sim / "truth.csv"),
                     "--mode", mode, "--out", str(trk)]) == 0
        expected = self.DIGESTS[preset, seed, mode]
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in expected} == expected


class TestNegativeSeed:
    # A seed below 0 is a configuration error naming the seed, whether it
    # comes from --seed or from the scenario file, not a traceback from the
    # generator that would have been seeded with it.
    @pytest.mark.parametrize("case", [
        "simulate-preset", "simulate-file-flag", "simulate-file-field", "track",
    ])
    def test_exits_2_naming_seed(self, tmp_path, capsys, sim_dir, small_scenario_file, case):
        payload = json.loads(Path(small_scenario_file).read_text())
        payload["seed"] = -1
        negative = tmp_path / "negative.json"
        negative.write_text(json.dumps(payload))
        out = ["--out", str(tmp_path / "o")]
        argv = {
            "simulate-preset": ["simulate", "--scenario", "single-spawn", "--seed", "-1"],
            "simulate-file-flag": ["simulate", "--scenario", str(small_scenario_file),
                                   "--seed", "-1"],
            "simulate-file-field": ["simulate", "--scenario", str(negative)],
            "track": ["track", "--frames", str(sim_dir / "frames.csv"),
                      "--scenario", str(small_scenario_file), "--seed", "-1"],
        }[case]
        assert main(argv + out) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "seed must be >= 0" in err
        assert "Traceback" not in err


def report_line(edit):
    """A one-record reports line: a well-formed record changed by edit."""
    record = {
        "schema": "mcmctrack.report.v4", "time_s": 300.0, "hypothesis_count_bound": "12",
        "estimates": [{"label": "t00", "x_km": 7000.0, "y_km": 0.0}],
    }
    edit(record)
    return json.dumps(record) + "\n"


class TestInputErrors:
    # A directory where an input file belongs, bytes that are not UTF-8, a
    # reports line that is not a JSON object, or a report record that lacks
    # or garbles a field figdata reads, is an input error naming the path,
    # not a traceback.
    @pytest.mark.parametrize("flag,content,named", [
        ("--scenario", None, ""),
        ("--frames", None, ""),
        ("--truth", None, ""),
        ("--reports", None, ""),
        ("--frames", b"time_s,return_x_km,return_y_km,truth_tag\n1200.0,7000.0,0.0,\xff\n",
         "is not UTF-8 text"),
        ("--truth", b"time_s,object_id,x_km,y_km,vx_kmps,vy_kmps\n"
                    b"1200.0,caf\xe9,7000.0,0.0,0.0,7.5\n", "is not UTF-8 text"),
        ("--reports", '{"schema": "mcmctrack.report.v4-header", "by": "caf\u00e9"}\n'
                      .encode("latin-1"), "is not UTF-8 text"),
        ("--reports", '{"schema": "mcmctrack.report.v4-header"}\nnot json\n', "line 2"),
        ("--reports", "[1, 2]\n", "line 1"),
        ("--reports", '{"schema": "mcmctrack.report.v4"}\n', "line 1: time_s "),
        ("--reports", report_line(lambda r: r["estimates"][0].pop("x_km")),
         "line 1: estimates[0].x_km "),
        ("--reports", report_line(lambda r: r.update(time_s=math.nan)), "line 1: time_s "),
        ("--reports", report_line(lambda r: r.update(time_s="300")), "line 1: time_s "),
        ("--reports", report_line(lambda r: r.update(hypothesis_count_bound=12)),
         "line 1: hypothesis_count_bound "),
        ("--reports", report_line(lambda r: r.update(hypothesis_count_bound="1e3")),
         "line 1: hypothesis_count_bound "),
        ("--reports", report_line(lambda r: r.update(estimates={})), "line 1: estimates "),
        ("--reports", report_line(lambda r: r["estimates"].__setitem__(0, [7000.0, 0.0])),
         "line 1: estimates[0] "),
        ("--reports", report_line(lambda r: r["estimates"][0].update(label=None)),
         "line 1: estimates[0].label "),
        ("--reports", report_line(lambda r: r["estimates"][0].update(y_km=math.inf)),
         "line 1: estimates[0].y_km "),
        ("--reports", report_line(lambda r: r.update(schema="mcmctrack.report.v3")),
         "line 1: unexpected report schema 'mcmctrack.report.v3'"),
    ], ids=["scenario-dir", "frames-dir", "truth-dir", "reports-dir", "frames-latin-1",
            "truth-latin-1", "reports-latin-1", "reports-not-json",
            "reports-not-object", "report-schema-only", "estimate-without-x", "time-nan",
            "time-text", "bound-int", "bound-float-text", "estimates-object", "estimate-list",
            "label-null", "y-inf", "report-other-schema"])
    def test_exits_3(self, tmp_path, capsys, sim_dir, small_scenario_file, flag, content, named):
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        if flag == "--reports":
            argv = ["figdata", "--reports", str(path)]
        else:
            inputs = {"--frames": sim_dir / "frames.csv", "--scenario": small_scenario_file,
                      "--truth": sim_dir / "truth.csv", flag: path}
            argv = ["track", *(str(x) for item in inputs.items() for x in item)]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert str(path) in err and named in err


def live_processes_naming(text):
    """Pids of the live (not zombie) processes whose command line holds text."""
    pids = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            argv = (entry / "cmdline").read_bytes().split(b"\0")
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:  # the process ended meanwhile
            continue
        if state != "Z" and any(text.encode() in arg for arg in argv):
            pids.add(int(entry.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestTrackProcess:
    def test_exits_cleanly_and_leaves_no_worker(self, tmp_path):
        # No process that carries the command line, and with it the unique
        # output directory, outlives the command.
        sim, out = tmp_path / "sim", tmp_path / "track-out"
        assert main(["simulate", "--scenario", "single-spawn", "--seed", "0",
                     "--out", str(sim)]) == 0
        src = str(Path(mcmctrack.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        stderr = tmp_path / "stderr.txt"
        with open(stderr, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "mcmctrack.cli", "track",
                 "--frames", str(sim / "frames.csv"), "--scenario", "single-spawn",
                 "--seed", "0", "--out", str(out)],
                stdout=subprocess.DEVNULL, stderr=err, env={**os.environ, "PYTHONPATH": path},
            )
            try:
                rc = proc.wait(timeout=300)
            finally:
                proc.kill()
        assert rc == 0
        assert stderr.read_text() == ""
        assert not live_processes_naming(str(out))


class TestFigdataCommand:
    def test_figdata_tables(self, tmp_path, small_scenario_file):
        sim = tmp_path / "sim"
        trk = tmp_path / "trk"
        fig = tmp_path / "fig"
        assert main(["simulate", "--scenario", str(small_scenario_file), "--out", str(sim)]) == 0
        assert main([
            "track", "--frames", str(sim / "frames.csv"),
            "--scenario", str(small_scenario_file), "--out", str(trk), "--seed", "2",
        ]) == 0
        assert main([
            "figdata", "--reports", str(trk / "reports.ldjson"),
            "--truth", str(sim / "truth.csv"), "--out", str(fig),
        ]) == 0
        counts = (fig / "fig_counts.csv").read_text().splitlines()
        assert counts[0].startswith("#") and "schema=" in counts[0]
        assert counts[1] == "time_s,hypothesis_count_bound"
        # Count column recomputes from the frames via the bound.
        records = read_reports_ldjson(trk / "reports.ldjson")
        frames = read_frames_csv(sim / "frames.csv")
        for row, record, frame in zip(counts[2:], records, frames):
            stated = row.split(",")[1]
            assert stated == record["hypothesis_count_bound"]
            assert int(stated) >= count_grandchildren(0, frame.n_returns, 1)
        est_lines = (fig / "fig_estimates.csv").read_text().splitlines()
        kinds = {line.split(",")[1] for line in est_lines[2:]}
        assert kinds == {"truth", "estimate"}

    def test_empty_reports_gives_headers_only(self, tmp_path):
        empty = tmp_path / "reports.ldjson"
        empty.write_text("")
        fig = tmp_path / "fig"
        assert main(["figdata", "--reports", str(empty), "--out", str(fig)]) == 0
        lines = (fig / "fig_counts.csv").read_text().splitlines()
        assert len(lines) == 2  # schema comment + header

    def test_blank_lines_are_skipped(self, tmp_path):
        reports = tmp_path / "reports.ldjson"
        reports.write_text("\n" + report_line(lambda r: None) + "  \n"
                           + report_line(lambda r: r.update(time_s=600.0)))
        fig = tmp_path / "fig"
        assert main(["figdata", "--reports", str(reports), "--out", str(fig)]) == 0
        lines = (fig / "fig_counts.csv").read_text().splitlines()
        assert lines[2:] == ["300.0,12", "600.0,12"]


class TestSelftestCommand:
    def test_selftest_passes_and_writes_report(self, tmp_path, capsys):
        rc = main(["selftest", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        report = (tmp_path / "count_reconciliation.csv").read_text().splitlines()
        assert report[1].startswith("n_objects")
        # 4*4*4 instances; the net-change column disagrees and is recorded.
        rows = [line.split(",") for line in report[2:]]
        assert len(rows) == 64
        assert all(r[6] == "True" for r in rows)
        assert any(r[7] == "False" for r in rows)

    def test_selftest_keeps_the_data_file_contract(self, tmp_path):
        # Like every command: a manifest, and a data file whose header names
        # its schema and the manifest.
        assert main(["selftest", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema"] == "mcmctrack.manifest.v1"
        assert manifest["command"] == "selftest"
        assert manifest["outputs"] == ["count_reconciliation.csv"]
        assert "finished_utc" in manifest
        header = (tmp_path / "count_reconciliation.csv").read_text().splitlines()[0]
        assert header == "# schema=mcmctrack.count-reconciliation.v1 manifest=manifest.json"


class TestOutDirEnv:
    def test_env_var_default(self, tmp_path, monkeypatch, small_scenario_file):
        monkeypatch.setenv("MCMCTRACK_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--scenario", str(small_scenario_file)]) == 0
        assert (tmp_path / "envout" / "frames.csv").exists()

    def test_unset_env_var_default(self, monkeypatch):
        monkeypatch.delenv("MCMCTRACK_OUT", raising=False)
        assert default_out_dir(None) == Path("mcmctrack-out")


class TestExitCodes:
    @pytest.mark.parametrize("error", [NumericalError, TrackingError])
    def test_tracking_errors_exit_4(self, tmp_path, capsys, monkeypatch, error):
        def failing(args):
            raise error("the walk diverged")

        monkeypatch.setattr(cli, "cmd_selftest", failing)
        assert main(["selftest", "--out", str(tmp_path)]) == 4
        assert "the walk diverged" in capsys.readouterr().err


class TestTrackTuning:
    """track hands each tuning flag to tracker_config_for by its dest, so a
    flag whose dest is no TRACKER_TUNING key would be dropped unread."""

    RUN_ARGUMENTS = {"frames", "scenario", "truth", "out", "seed", "mode", "history"}

    def test_every_option_is_a_run_argument_or_tuning_key(self):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in subparsers.choices["track"]._actions
                 if not isinstance(a, argparse._HelpAction)}
        assert self.RUN_ARGUMENTS <= dests
        assert dests - self.RUN_ARGUMENTS <= TRACKER_TUNING["custom"].keys()

    def test_removed_rate_flag_is_refused(self, capsys, sim_dir, small_scenario_file):
        # The rates are fixed for the run: the removed switch that rescaled
        # them each scan is an unknown option, a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(["track", "--frames", str(sim_dir / "frames.csv"),
                  "--scenario", str(small_scenario_file), "--adapt-rates"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --adapt-rates" in capsys.readouterr().err

    def test_manifest_records_the_resolved_config(self, tmp_path, sim_dir, small_scenario_file):
        out = tmp_path / "trk"
        assert main([
            "track", "--frames", str(sim_dir / "frames.csv"),
            "--scenario", str(small_scenario_file), "--out", str(out),
            "--children", "7", "--burn-in", "100", "--record-steps", "300", "--alpha", "0.05",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {key: manifest[key] for key in
                ("children_kept", "burn_in_steps", "record_steps", "alpha", "n_pixels")} == {
            "children_kept": 7, "burn_in_steps": 100, "record_steps": 300, "alpha": 0.05,
            "n_pixels": 50,
        }
