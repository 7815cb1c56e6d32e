"""The benchmark command of BENCHMARK.json runs each declared workload to a
correct summary line carrying every end-to-end metric."""

import json
import math
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_second_run_is_correct(workload):
    # One second at seed 0 makes at least one pass; the output goes under
    # the checkout's .bench_out/.
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    for metric in SPEC["end_to_end"]:
        value = summary["metrics"][metric["name"]]["value"]
        assert math.isfinite(value), (metric["name"], value)
