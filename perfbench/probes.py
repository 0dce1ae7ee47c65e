"""Isolated calls into single layers, each timed on a fixed reference input.

Every probe runs in every traced run, whatever the workload, on row 1 of
``fracroots.reference`` (at its reference root unless stated), so the
figures compare across workloads and commits.  ``per_call_s`` times batches
of calls sized to about 5 ms and reports the median batch's time per call.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

from workloads import CliReproduce, cli_in_process

BATCH_S = 0.005
BATCHES = 15
SUBPROCESS_RUNS = 5
MAIN_RUNS = 5

IMPORT_SNIPPET = ("import time; t0 = time.perf_counter(); import fracroots.cli; "
                  "print(time.perf_counter() - t0)")


def per_call_s(fn, batches: int = BATCHES) -> float:
    fn()
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    n = max(1, int(BATCH_S / max(once, 1e-7)))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def run_probes(root, env) -> tuple:
    """Per-layer isolated timings as ``(metrics, details, problems)``.

    ``metrics`` maps per-layer metric names to values in their units.  The
    probes also check what they call; ``problems`` lists anything that did
    not behave as the reference says.
    """
    import numpy as np

    from fracroots import _kernels, reference
    from fracroots._accel import backend_name
    from fracroots.dixit_pindyck import (back_substitute, full_residual,
                                         make_residual, reduced_residual)
    from fracroots.kernel import p_matrix
    from fracroots.solver import (SkippedAlpha, SolverSettings, collect_roots,
                                  default_alpha_grid, fixed_point_solve,
                                  fpn_step, newton_step, norm2)

    row = reference.ROWS[0]
    problem = reference.scenario_problem(row)
    c = problem.constants
    settings = SolverSettings(alpha=row.alpha)
    f = make_residual(c)
    root_x = np.array(row.solution)
    x0 = problem.x0
    problems = []

    def postsolve():
        A, B = back_substitute(c, root_x)
        return full_residual(c, root_x[0], root_x[1], A, B)

    n_max = settings.max_iter
    xs, steps, residuals = np.empty((n_max + 1, 2)), np.empty(n_max), np.empty(n_max + 1)

    def solve_reduced():
        return _kernels.solve_reduced(
            c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.a7, float(x0[0]), float(x0[1]),
            settings.alpha.value, settings.epsilon, settings.tol_step,
            settings.tol_residual, n_max, settings.divergence_bound, xs, steps, residuals)

    code, n = solve_reduced()[:2]
    if (code, n) != (0, row.iterations):
        problems.append(f"solve_reduced on row 1 gave status {code} after {n} iterations")

    # The dedup step of one real sweep: row 1 over the default grid.
    converged, skipped = [], []
    for alpha in default_alpha_grid():
        out = fixed_point_solve(f, x0, SolverSettings(alpha=alpha))
        if out.converged:
            converged.append((out.x_final, alpha.value, out))
        else:
            skipped.append(SkippedAlpha(alpha=alpha.value, status=out.status))

    us = 1e6
    metrics = {
        "kernel.p_matrix_us": per_call_s(lambda: p_matrix(row.alpha, root_x, 1e-4)) * us,
        "kernel.solve_reduced_us": per_call_s(solve_reduced) * us,
        "dixit_pindyck.reduced_residual_us": per_call_s(lambda: reduced_residual(c, root_x)) * us,
        "dixit_pindyck.postsolve_us": per_call_s(postsolve) * us,
        "solver.norm2_us": per_call_s(lambda: norm2(root_x - x0)) * us,
        "solver.fpn_step_us": per_call_s(lambda: fpn_step(f, root_x, row.alpha, 1e-4)) * us,
        "solver.newton_step_us": per_call_s(lambda: newton_step(f, root_x)) * us,
        "solver.collect_roots_ms":
            per_call_s(lambda: collect_roots(converged, skipped, 1e-3)) * 1e3,
    }

    imports = []
    for _ in range(SUBPROCESS_RUNS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=str(root), env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            problems.append(f"import fracroots.cli failed: {proc.stderr.strip()[-300:]}")
            break
        imports.append(float(proc.stdout.strip()) * 1e3)
    metrics["cli.import_ms"] = statistics.median(imports) if imports else float("nan")

    mains = []
    for k in range(MAIN_RUNS + 1):
        t0 = time.perf_counter()
        rc = cli_in_process(CliReproduce.COMMAND)
        if k:
            mains.append((time.perf_counter() - t0) * 1e3)
        if rc != 0:
            problems.append(f"cli.main({list(CliReproduce.COMMAND)}) returned {rc}")
    metrics["cli.main_ms"] = statistics.median(mains)

    details = {
        "kernel.solve_reduced_us": {"backend": backend_name(), "iterations": int(n)},
        "solver.collect_roots_ms": {"hits": len(converged), "skipped": len(skipped)},
        "cli.import_ms": {"runs": len(imports)},
        "cli.main_ms": {"runs": len(mains)},
    }
    return metrics, details, problems
