"""Benchmark command for the mcmctrack tracker.

    python3 bench/run.py --workload spawn-mcmc --seed 0 --seconds 45 --trace 0

Runs one workload from the library in this checkout (``src/``), checks its
outputs, and prints two JSON lines: a full record (environment, every
end-to-end metric with its unit, per-layer metrics when ``--trace 1``,
failures), then the summary line whose metrics are the ones ``BENCHMARK.json``
lists. Exits 1 when a check failed and 2 when the library is missing.
See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _commit() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "mcmctrack" / "__init__.py").is_file():
        print(f"bench: no mcmctrack sources under {src}", file=sys.stderr)
        return 2
    # The machine has 2 cores; keep numpy's BLAS single-threaded so the
    # benchmark measures the program, not thread scheduling.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import numpy as np

    from workloads import WORKLOADS, run_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        OUT_DIR / f"{args.workload}-seed{args.seed}",
    )
    record["environment"] = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    print(json.dumps(record, sort_keys=True))
    group = "per_layer" if args.trace else "end_to_end"
    listed = [m["name"] for m in spec[group]]
    summary = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record[group][name] for name in listed},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
