"""Benchmark of isingfiber: one workload per call, one JSON result line.

    python3 bench/run.py --workload ising-20x20 --seed 1 --seconds 30 --trace 0

With --trace 0 the result holds the end-to-end metrics: trials_per_s and
ess_per_s (measured inside `run_exact_test`), setup_s (median over
SETUP_SAMPLES fresh processes) and peak_rss_mb (the measuring process).
With --trace 1 it holds the per-layer metrics of a traced run instead, and
the spans go to bench/results/. Run from the root of a checkout: the package
is imported from ./src, never from an installed copy. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORKLOADS = ("ising-20x20", "ising-10x10", "small-fibers")
SETUP_SAMPLES = 3  # set-ups timed per run, each in a fresh process; the last one measures
DEADLINE_S = 170.0  # the whole run, set-up processes included


class RunFailed(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion in its own process group; return its last
    stdout line as JSON. On timeout the whole group is killed and reaped."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"worker {' '.join(args)} timed out")
    if proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="isingfiber benchmark (see bench/README.md)")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "isingfiber" / "__init__.py").is_file():
        print(f"error: no isingfiber package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            out = run_worker([*common, "--seconds", str(args.seconds), "--trace", "1"], deadline)
            metrics = out["metrics"]
        else:
            setups = [
                run_worker([*common, "--setup-only"], deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            out = run_worker([*common, "--seconds", str(args.seconds)], deadline)
            setups.append(out["setup_s"])
            metrics = {
                "trials_per_s": {"value": out["trials_per_s"], "unit": "1/s"},
                "ess_per_s": {"value": out["ess_per_s"], "unit": "1/s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            }
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for error in out["errors"]:
        print(f"{args.workload}: {error}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} seed={args.seed} {name} = {m['value']:.6g} {m['unit']}")
    print(
        f"{args.workload} seed={args.seed} tests attempted={out['attempted']} "
        f"failed={out['failed']} rounds={out['rounds']}"
    )
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {"args": vars(args), "result": result, "worker": out}
    if not args.trace:
        detail["setup_samples_s"] = setups
    path = RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
