#!/usr/bin/env python3
"""Run the fracroots benchmark: one workload, or all of them in turn.

    python3 perfbench/run.py --workload scenario_solves --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  ``--trace 0`` reports the
end-to-end metrics, measured untraced; ``--trace 1`` reports the per-layer
metrics (see README.md).  Each workload prints its metrics with their units,
its error ratio and a ``report`` line with the environment and the details
behind each figure; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import NAMES as WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "fracroots"

#: Fresh workers started per run to time set-up; set-up is their median.
SETUP_RUNS = 8
#: A workload's worker and set-up probes must finish within this many seconds.
DEADLINE_S = 170.0

#: The latency figures are rescaled to a fixed host speed (see calibrate.py).
END_TO_END = {
    "norm_ops_per_s": "1/s",
    "norm_latency_p50_ms": "ms",
    "norm_latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernel.p_matrix_us": "us",
    "kernel.p_matrix_calls": "count",
    "kernel.solve_reduced_us": "us",
    "dixit_pindyck.reduced_residual_us": "us",
    "dixit_pindyck.residual_calls": "count",
    "dixit_pindyck.residual_self_ms": "ms",
    "dixit_pindyck.postsolve_us": "us",
    "solver.iterations": "count",
    "solver.driver_self_us_per_iter": "us",
    "solver.step_self_ms": "ms",
    "solver.norm2_us": "us",
    "solver.fpn_step_us": "us",
    "solver.newton_step_us": "us",
    "solver.collect_roots_ms": "ms",
    "solver.sweep_converged": "count",
    "solver.sweep_diverged": "count",
    "solver.sweep_evaluation_failed": "count",
    "solver.sweep_max_iterations": "count",
    "solver.sweep_useful_iter_ratio": "ratio",
    "solver.sweep_capped_iter_share": "ratio",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list, env: dict, deadline: float) -> tuple:
    """Run one worker to the end: ``(seconds until its ready line, its stdout)``.

    The worker runs in a process group of its own.  A watchdog kills the
    group at the deadline, so neither a program that hangs nor a subprocess
    it started can keep the benchmark from exiting.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), kill_group)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"worker {' '.join(args)} exited with code {proc.returncode}"
                             " (killed at the deadline if negative)")
    return ready_s, out


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S

    def setup_runs(n: int) -> list:
        return [] if trace else [
            run_worker(["--workload", workload, "--setup-only"], env, deadline)[0]
            for _ in range(n)]

    # Half the set-up workers run after the measuring worker, so that they
    # sample the host's speed over the whole run.
    setups = setup_runs(SETUP_RUNS // 2)
    _, out = run_worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                         "--trace", str(trace)], env, deadline)
    setups += setup_runs(SETUP_RUNS - SETUP_RUNS // 2)
    result = json.loads(out.strip().splitlines()[-1])
    if setups:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["details"]["setup_s"] = {"runs": setups, "statistic": "median"}
    return result


def source_identity() -> dict:
    """The git commit when there is one, and a digest of the package source."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def print_workload(name: str, result: dict, units: dict) -> None:
    env = result["env"]
    print(f"{name}  seed {env['seed']}  backend {env['backend']} "
          f"(numba importable: {'yes' if env['numba_importable'] else 'no'})")
    details = result["details"]
    for metric, unit in units.items():
        note = ""
        if metric == "norm_latency_tail_ms":
            tail = details[metric]
            note = (f"  (p{tail['percentile']:g} of {tail['samples']} samples, "
                    f"{tail['samples_beyond']} beyond)")
        elif metric == "setup_s":
            note = f"  (median of {SETUP_RUNS} fresh workers)"
        elif metric == "kernel.solve_reduced_us":
            note = f"  ({details[metric]['backend']} backend)"
        print(f"  {metric:<34} {result['metrics'][metric]:>14.6g} {unit}{note}")
    if "wall_clock" in details:
        speed = details["host_speed"]
        print(f"  wall clock: " + ", ".join(f"{name} {value:.6g}" for name, value
                                            in details["wall_clock"].items())
              + f"  (reference loop {speed['reference_loop_ms']:.4g} ms, "
                f"{speed['reference_ms']:g} ms at reference speed)")
    print(f"  {'error_ratio':<34} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} ops failed the oracle)")
    for message in result["failures"]:
        print(f"  failure: {message}")
    print("report " + json.dumps({"workload": name, "env": env, "details": details,
                                  "failure_count": result["failure_count"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    env = worker_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(PACKAGE)],
                   cwd=str(ROOT), env=env, check=True, timeout=120)
    identity = source_identity()
    units = PER_LAYER if args.trace else END_TO_END
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, env)
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        result["env"].update(identity)
        print_workload(name, result, units)
        summary["correct"] &= result["failure_count"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in units.items():
            summary["metrics"][prefix + metric] = {"value": result["metrics"][metric],
                                                   "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
