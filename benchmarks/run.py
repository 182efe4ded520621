"""Benchmark launcher for zxdj: one workload, one seed, one run.

    python3 benchmarks/run.py --workload verify_n3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The launcher pins BLAS threads to 1,
starts the workload in a fresh worker process (``worker.py``), and prints
as its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The full result, with the run
environment and the CLI probe digests, goes to ``benchmarks/out/``.
See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("verify_n3", "compile_n3", "sample_n2")
# set-up is timed in this many fresh processes per run; the median counts
SETUP_PROCESSES = 5
TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/ref-s",
                    "op_ms_p50": "ref-ms", "op_ms_p90": "ref-ms",
                    "ok_ratio": "ratio", "peak_rss_mb": "MB"}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args: list[str], env: dict, deadline: float):
    """Run the worker to completion; returns its JSON and its launch time.

    A worker still running at ``deadline`` (monotonic seconds) is killed.
    """
    launched_ns = time.monotonic_ns()
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), launched_ns


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "zxdj" / "__init__.py").is_file():
        print(f"no zxdj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = worker_env()
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_wall, setup_ref = [], []
    if not args.trace:
        for _ in range(SETUP_PROCESSES):
            doc, launched = start_worker([*common, "--setup-only"], env, deadline)
            wall_ns = doc["ready_ns"] - launched
            setup_wall.append(wall_ns / 1e9)
            # one kernel run is one ref-ms
            setup_ref.append(wall_ns / doc["kernel_ns"] / 1e3)
    doc, _ = start_worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(out_dir)], env, deadline)

    if args.trace:
        metrics = doc["metrics"]
    else:
        values = {"setup_s": statistics.median(setup_ref), **doc["metrics"]}
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}
    probe_ok = all(p["ok"] for p in doc["probe"].values())
    result = {"correct": doc["failed"] == 0 and probe_ok,
              "attempted": doc["attempted"], "failed": doc["failed"],
              "metrics": metrics}

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": {**doc["env"], "git_commit": git_commit(ROOT)},
              "setup_wall_s": setup_wall, "setup_ref_s": setup_ref,
              "samples": doc["samples"],
              "cli_probe": doc["probe"], "errors": doc["errors"], **result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
