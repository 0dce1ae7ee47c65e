"""One benchmark worker: set up a workload, then run it as a closed loop.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  The worker builds the workload's inputs, runs one warm-up op and
prints ``ready``; ``run.py`` times a fresh worker up to that line as set-up.
With ``--setup-only`` it exits there.  Otherwise it issues blocks of ops
(each input once per block, in an order drawn from the seed) until
``--seconds`` have passed, and prints one JSON object on its last line.
Between the ops it runs the reference loop of ``calibrate.py``, which
rescales every op's latency to a fixed host speed.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced (see ``tracing.py``), followed by the isolated layer probes
(see ``probes.py``).  Traced ops must reproduce the untraced ops' results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import probes
import workloads
from tracing import Tracer, instrument

STATUSES = ("converged", "diverged", "evaluation_failed", "max_iterations")
#: Traced in-process runs of the CLI command used for its layer counts.
CLI_LAYER_RUNS = 3
MAX_FAILURE_MESSAGES = 5


class Phase:
    """What one closed-loop phase measured.

    ``latencies`` are wall-clock seconds, in the order the ops ran;
    ``normalised`` are the same latencies at the reference host speed.
    """

    def __init__(self, start: float):
        self.speed = calibrate.HostSpeed(start)
        self.latencies: list = []
        self.midpoints: list = []
        self.inputs: list = []
        self.normalised: list = []
        self.attempted = 0
        self.failed = 0
        self.layer = Counter()

    def add(self, i: int, started: float, latency: float) -> None:
        self.latencies.append(latency)
        self.midpoints.append(started + latency / 2.0 - self.speed.start)
        self.inputs.append(i)
        self.speed.after_op(latency)

    def close(self) -> "Phase":
        scales = self.speed.scales(self.midpoints)
        self.normalised = [lat * k for lat, k in zip(self.latencies, scales)]
        return self

    def by_input(self, normalised: bool = True) -> dict:
        """Each input's latencies, in the order they ran."""
        out: dict = {}
        for i, lat in zip(self.inputs, self.normalised if normalised else self.latencies):
            out.setdefault(i, []).append(lat)
        return out


def run_op(wl, item, tracer=None):
    """Run and check one op; returns ``(latency_s, ok, fingerprint, message)``.

    Any exception from the op or the oracle is a failed op, never an abort.
    """
    t0 = time.perf_counter()
    try:
        result = wl.run(item, tracer)
    except Exception as exc:  # an op that raises is a failed op
        return time.perf_counter() - t0, False, None, f"{wl.label(item)}: {exc!r}"
    latency = time.perf_counter() - t0
    try:
        ok, fingerprint, message = wl.check(item, result)
    except Exception as exc:  # an oracle that cannot judge the result fails the op
        return latency, False, None, f"{wl.label(item)}: oracle raised {exc!r}"
    return latency, ok, fingerprint, message


def record_solves(layer: Counter, solves) -> Counter:
    statuses = Counter()
    for status, iterations in solves:
        statuses[status] += 1
        layer["iterations"] += iterations
        layer[f"iterations.{status}"] += iterations
    layer.update({f"status.{s}": n for s, n in statuses.items()})
    return statuses


def run_phase(wl, rng, seconds, failures, fingerprints, tracer=None) -> Phase:
    """Closed loop, one client: whole blocks until ``seconds`` have passed.

    ``fingerprints`` holds the first checked result per input; every later
    op on that input, traced or not, must reproduce it.
    """
    phase = Phase(time.perf_counter())
    order = list(range(len(wl.inputs)))
    while True:
        rng.shuffle(order)
        for i in order:
            item = wl.inputs[i]
            started = time.perf_counter()
            latency, ok, fingerprint, message = run_op(wl, item, tracer)
            phase.attempted += 1
            if not ok:
                phase.failed += 1
                failures.append(message)
            if tracer is not None and wl.in_process:
                statuses = record_solves(phase.layer, tracer.take_solves())
                if ok and workloads.status_counts(statuses) != fingerprint[0]:
                    failures.append(f"{wl.label(item)}: traced statuses {dict(statuses)} "
                                    f"differ from the result's {fingerprint[0]}")
            if ok and fingerprints.setdefault(i, fingerprint) != fingerprint:
                failures.append(f"{wl.label(item)}: result differs from the first op's")
            phase.add(i, started, latency)
        if time.perf_counter() - phase.speed.start >= seconds:
            return phase.close()


def input_medians(phase: Phase, normalised: bool = True) -> list:
    """Each input's median latency, in seconds."""
    return [statistics.median(v) for _, v in sorted(phase.by_input(normalised).items())]


def ops_per_s(phase: Phase, normalised: bool = True) -> float:
    """Ops per second of a block made of each input's median op."""
    medians = input_medians(phase, normalised)
    return len(medians) / sum(medians)


def tail_latency(latencies: list, percentile: float) -> tuple:
    """The latency at ``percentile`` and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def latency_figures(phase: Phase, wl, normalised: bool) -> dict:
    tail, beyond = tail_latency(phase.normalised if normalised else phase.latencies,
                                wl.tail_percentile)
    return {"ops_per_s": ops_per_s(phase, normalised),
            "latency_p50_ms": statistics.median(input_medians(phase, normalised)) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "tail": {"percentile": wl.tail_percentile, "samples_beyond": beyond,
                     "samples": len(phase.latencies)}}


def end_to_end(phase: Phase, wl) -> tuple:
    n = len(phase.latencies)
    norm = latency_figures(phase, wl, normalised=True)
    wall = latency_figures(phase, wl, normalised=False)
    rss_kb = resource.getrusage(
        resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "norm_ops_per_s": norm["ops_per_s"],
        "norm_latency_p50_ms": norm["latency_p50_ms"],
        "norm_latency_tail_ms": norm["latency_tail_ms"],
        "peak_rss_mb": rss_kb / 1024.0,
    }
    details = {
        "wall_clock": {name: wall[name]
                       for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")},
        "host_speed": {"reference_loop_ms": phase.speed.loop_ms(),
                       "reference_ms": calibrate.REFERENCE_MS,
                       "loops": len(phase.speed.samples)},
        "norm_latency_p50_ms": {"inputs": len(wl.inputs),
                                "samples_per_input": n // len(wl.inputs),
                                "statistic": "median over inputs of each input's median"},
        "norm_latency_tail_ms": norm["tail"],
        "peak_rss_mb": {"process": "worker" if wl.in_process else "largest child"},
        "error_ratio": {"value": phase.failed / phase.attempted,
                        "failed": phase.failed, "attempted": phase.attempted},
    }
    return metrics, details


def per_layer(layer: Counter, spans: dict, ops: int) -> dict:
    def span(name, field):
        stats = spans.get(name)
        return getattr(stats, field) if stats is not None else 0

    iterations = layer["iterations"]
    share = (lambda k: layer[f"iterations.{k}"] / iterations) if iterations else (lambda k: 0.0)
    metrics = {
        "kernel.p_matrix_calls": span("p_matrix", "calls") / ops,
        "dixit_pindyck.residual_calls": span("residual", "calls") / ops,
        "dixit_pindyck.residual_self_ms": span("residual", "self_ns") / ops / 1e6,
        "solver.iterations": iterations / ops,
        "solver.driver_self_us_per_iter":
            span("driver", "self_ns") / iterations / 1e3 if iterations else 0.0,
        "solver.step_self_ms": span("step", "self_ns") / ops / 1e6,
        "solver.sweep_useful_iter_ratio": share("converged"),
        "solver.sweep_capped_iter_share": share("max_iterations"),
    }
    for status in STATUSES:
        metrics[f"solver.sweep_{status}"] = layer[f"status.{status}"] / ops
    return metrics


def environment(seed: int) -> dict:
    import importlib.util

    import numpy

    from fracroots._accel import backend_name
    return {
        "backend": backend_name(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure(wl, args, root: Path, env: dict, failures: list) -> dict:
    rng = random.Random(args.seed)
    fingerprints: dict = {}
    if not wl.in_process:
        # The op runs in a child and the reference loop here, between ops.
        # Each vCPU of a shared host changes speed on its own, so both are
        # kept on one CPU; the children inherit the affinity.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not args.trace:
        phase = run_phase(wl, rng, args.seconds, failures, fingerprints)
        metrics, details = end_to_end(phase, wl)
        return {"attempted": phase.attempted, "failed": phase.failed,
                "metrics": metrics, "details": details}

    plain = run_phase(wl, rng, args.seconds / 2.0, failures, fingerprints)
    tracer = Tracer()
    with instrument(tracer):
        traced = run_phase(wl, rng, args.seconds / 2.0, failures, fingerprints, tracer)
    if wl.in_process:
        layer, ops = traced.layer, traced.attempted
    else:
        # The subprocess ops are opaque to the tracer: count the same command in-process.
        tracer, layer, ops = Tracer(), Counter(), CLI_LAYER_RUNS
        with instrument(tracer):
            for _ in range(ops):
                if wl.layer_op() != 0:
                    failures.append("in-process reproduce-tables did not exit 0")
        record_solves(layer, tracer.take_solves())
    metrics = per_layer(layer, tracer.spans, ops)
    probe_metrics, probe_details, problems = probes.run_probes(root, env)
    failures.extend(problems)
    metrics.update(probe_metrics)
    metrics["trace.overhead_ratio"] = ops_per_s(traced) / ops_per_s(plain)
    probe_details["layer_ops"] = ops
    return {"attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "metrics": metrics, "details": probe_details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    wl = workloads.build(args.workload, root, env)
    failures: list = []
    _, ok, _, message = run_op(wl, wl.inputs[0])
    if not ok:
        failures.append(f"warm-up: {message}")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = measure(wl, args, root, env, failures)
    result["env"] = environment(args.seed)
    result["failures"] = failures[:MAX_FAILURE_MESSAGES]
    result["failure_count"] = len(failures)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
