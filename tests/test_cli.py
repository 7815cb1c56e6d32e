"""CLI subcommands, file formats, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcmctrack
from mcmctrack.cli import main
from mcmctrack.hypotheses import count_grandchildren
from mcmctrack.io import (
    load_scenario,
    read_frames_csv,
    read_reports_ldjson,
    read_truth_csv,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from mcmctrack.presets import preset_single_spawn
from mcmctrack.simulate import simulate_scenario


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

    def test_missing_field_names_path(self):
        payload = scenario_to_dict(preset_single_spawn())
        del payload["sensor"]["p_d"]
        with pytest.raises(Exception, match="scenario.sensor.p_d"):
            scenario_from_dict(payload)

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
    ], ids=["scan-interval", "boresight-nan", "boresight-inf", "noise-cov-inf",
            "clutter-count-nan", "clutter-count-inf", "spawn-velocity-nan",
            "spawn-velocity-inf", "position-std-nan", "velocity-std-inf"])
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
    ], ids=["object-of-3", "spawn-time-text", "substeps-text", "spawn-not-object"])
    def test_malformed_field_exits_2_naming_it(self, tmp_path, capsys, field, edit):
        payload = scenario_to_dict(preset_single_spawn())
        edit(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert field in capsys.readouterr().err

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
        assert all(r["schema"] == "mcmctrack.report.v2" for r in records)
        assert all(isinstance(r["hypothesis_count_bound"], str) for r in records)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == "mcmctrack.summary.v1"
        assert "cardinality_error" in summary["scans"][0]
        assert "position_rmse_km" in summary["scans"][0]

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
        ("frames", FRAMES_HEADER, "600.0,7000.0,0.0,t00\n1200.0,7000.0,0.0,t00", "frame 0"),
        ("frames", FRAMES_HEADER, "300.0,7000.0,0.0,t00\n900.0,7000.0,0.0,t00", "frame 1"),
    ], ids=["nan-return", "inf-time", "return-at-sensor-origin", "inf-truth-state",
            "truth-without-object-id", "doubled-spacing", "dropped-scan"])
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

    def test_missing_frames_exits_3(self, tmp_path, small_scenario_file):
        rc = main([
            "track", "--frames", str(tmp_path / "missing.csv"),
            "--scenario", str(small_scenario_file), "--out", str(tmp_path / "o"),
        ])
        assert rc == 3


class TestInputErrors:
    # A directory where an input file belongs, or a reports line that is
    # not a JSON object, is an input error naming the path, not a traceback.
    @pytest.mark.parametrize("flag,content,named", [
        ("--scenario", None, ""),
        ("--frames", None, ""),
        ("--truth", None, ""),
        ("--reports", None, ""),
        ("--reports", '{"schema": "mcmctrack.report.v2-header"}\nnot json\n', "line 2"),
        ("--reports", "[1, 2]\n", "line 1"),
    ], ids=["scenario-dir", "frames-dir", "truth-dir", "reports-dir", "reports-not-json",
            "reports-not-object"])
    def test_exits_3(self, tmp_path, capsys, sim_dir, small_scenario_file, flag, content, named):
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
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
