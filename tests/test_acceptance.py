"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time

import mpmath
import numpy as np
import pytest

import fracroots as fr
from fracroots import reference
from fracroots.solver import norm2

mpmath.mp.dps = 50

REFERENCE_ITERATIONS = (78, 85, 128, 105, 83)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module", autouse=True)
def warm_backend():
    """Run one residual and one solve before any timed section (imports, caches)."""
    row = reference.ROWS[0]
    problem = reference.scenario_problem(row)
    fr.reduced_residual(problem.constants, np.array(row.x0))
    fr.solve_thresholds(problem, fr.SolverSettings(alpha=row.alpha))


def test_table1_residual_reproduction():
    """Initial residual norms match the five published values at 1e-5 relative."""
    worst_rel = 0.0
    worst_time = 0.0
    for row in reference.ROWS:
        constants = reference.scenario_constants(row.a6, row.a7)
        x0 = np.array(row.x0)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            value = norm2(fr.reduced_residual(constants, x0))
            best = min(best, time.perf_counter() - t0)
        rel = abs(value - row.f0_norm) / row.f0_norm
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, best)
    _report("table1-residuals",
            worst_rel <= 1e-5 and worst_time < 1e-3,
            f"worst rel {worst_rel:.2e} (bound 1e-5), "
            f"worst time {worst_time * 1e6:.1f}us (bound 1ms)")


def test_table2_solution_reproduction():
    """Each scenario solve lands on the published thresholds within 1e-4."""
    details = []
    ok = True
    for row, ref_n in zip(reference.ROWS, REFERENCE_ITERATIONS):
        problem = reference.scenario_problem(row)
        t0 = time.perf_counter()
        sol = fr.solve_thresholds(problem,
                                  fr.SolverSettings(alpha=row.alpha, epsilon=1e-4))
        elapsed = time.perf_counter() - t0
        out = sol.outcome
        rel_h = abs(sol.H - row.solution[0]) / abs(row.solution[0])
        rel_l = abs(sol.L - row.solution[1]) / abs(row.solution[1])
        row_ok = (rel_h <= 1e-4 and rel_l <= 1e-4
                  and out.final_residual_norm <= 1e-4
                  and out.iterations <= 300 and elapsed < 1.0)
        ok &= row_ok
        details.append(f"row{row.index}: rel=({rel_h:.1e},{rel_l:.1e}) "
                       f"n={out.iterations} (ref {ref_n}) {elapsed * 1e3:.1f}ms")
    _report("table2-solutions", ok, "; ".join(details))


def test_reduction_consistency():
    """Back-substituted coefficients satisfy the full system at 1e-3 relative."""
    worst = 0.0
    for row in reference.ROWS:
        problem = reference.scenario_problem(row)
        sol = fr.solve_thresholds(problem, fr.SolverSettings(alpha=row.alpha))
        scale = fr.full_residual_scale(problem.constants, sol.H, sol.L)
        worst = max(worst, sol.full_residual_norm / scale)
    _report("reduction-consistency", worst <= 1e-3,
            f"worst relative full-system residual {worst:.2e} (bound 1e-3)")


def test_kernel_oracle_suite():
    """Kernel values agree with the high-precision oracle at 1e-10 relative."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    while checked < 1000:
        beta = float(rng.uniform(-2.0, 2.0))
        if abs(beta - round(beta)) < 1e-6:
            continue
        x = float(10.0 ** rng.uniform(-3.0, 5.0))
        value = fr.constant_frac_deriv(beta, x)
        b = mpmath.mpf(beta)
        oracle = float(mpmath.mpf(x) ** (-b) / mpmath.gamma(1 - b))
        worst = max(worst, abs(value - oracle) / abs(oracle))
        checked += 1
    exact_zero = (fr.constant_frac_deriv(1.0, 0.0) == 0.0
                  and fr.constant_frac_deriv(1.0, 123.4) == 0.0)
    _report("kernel-oracle", worst <= 1e-10 and exact_zero,
            f"worst rel {worst:.2e} over 1000 samples (bound 1e-10); "
            f"order-1 branch exact: {exact_zero}")


def test_fixed_point_property_suite():
    """Roots are exact fixed points; converged solves satisfy both predicates."""
    rng = np.random.default_rng(77)
    settings = fr.SolverSettings(alpha=0.5, max_iter=120)
    fixed_ok = True
    solves = 0
    converged_checked = 0
    for _ in range(1000):
        n = int(rng.choice([1, 2, 4]))
        root = rng.uniform(-5.0, 5.0, size=n)
        matrix = rng.uniform(-2.0, 2.0, size=(n, n))

        def f(x, matrix=matrix, root=root):
            return matrix @ (x - root)

        alpha = float(rng.uniform(0.05, 0.95))
        stepped = fr.fpn_step(f, root, fr.FractionalOrder(alpha), 1e-4)
        fixed_ok &= bool(np.array_equal(stepped, root))

        if solves < 300:
            solves += 1
            x0 = root + rng.uniform(-0.5, 0.5, size=n)
            out = fr.fixed_point_solve(f, x0, settings, keep_trace=True)
            if out.converged:
                converged_checked += 1
                residual = norm2(f(out.x_final))
                last_step = norm2(out.trace.iterates[-1] - out.trace.iterates[-2])
                fixed_ok &= residual <= settings.tol_residual
                fixed_ok &= last_step <= settings.tol_step
    _report("fixed-point-suite", fixed_ok and converged_checked > 50,
            f"1000 exact fixed-point checks; {converged_checked} converged "
            f"solves re-verified out of {solves}")


def test_constant_identity_suite():
    """Algebraic identities of the derived constants hold at 1e-10."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        mu = float(rng.uniform(-0.5, 0.5))
        sigma = float(rng.uniform(0.05, 2.0))
        l = abs(mu) + float(rng.uniform(0.01, 1.0))
        kappa = float(rng.uniform(0.0, 5.0))
        chi = float(rng.uniform(0.0, 5.0))
        p = fr.EconomicPrimitives(mu=mu, sigma=sigma, l=l,
                                  c=float(rng.uniform(0.0, 10.0)),
                                  kappa=kappa, chi=chi)
        c = fr.derive_constants(p)
        worst = max(worst,
                    abs(c.a3 - c.a1 - 1.0),
                    abs(c.a2 - c.a4 - 1.0),
                    abs(c.a1 + c.a2 - 2.0 * c.rho),
                    abs((c.a6 - c.a7) - (kappa + chi)))
    c = fr.derive_constants(fr.EconomicPrimitives(mu=0.0, sigma=1.0, l=0.5,
                                                  c=1.0, kappa=0.1, chi=0.05))
    rho = math.sqrt(1.25)
    example = max(abs(c.rho - rho), abs(c.a1 - (rho - 0.5)),
                  abs(c.a2 - (rho + 0.5)), abs(c.a3 - (rho + 0.5)),
                  abs(c.a4 - (rho - 0.5)), abs(c.a5 - 2.0),
                  abs(c.a6 - 2.1), abs(c.a7 - 1.95))
    _report("constant-identities", worst <= 1e-10 and example <= 1e-9,
            f"worst identity gap {worst:.2e} over 1000 draws (bound 1e-10); "
            f"worked example gap {example:.2e} (bound 1e-9)")


def test_multi_root_discovery():
    """The default-grid sweep finds both roots of x**2 - 1 from x0 = 2."""
    settings = fr.SolverSettings(tol_step=1e-9, tol_residual=1e-9, max_iter=800)
    t0 = time.perf_counter()
    roots = fr.alpha_sweep(lambda x: x * x - 1.0, np.array([2.0]),
                           settings=settings)
    elapsed = time.perf_counter() - t0
    values = sorted(float(r.x[0]) for r in roots.roots)
    ok = (len(values) == 2
          and abs(values[0] + 1.0) <= 1e-6
          and abs(values[1] - 1.0) <= 1e-6
          and elapsed < 5.0)
    _report("multi-root-discovery", ok,
            f"roots {values}, {elapsed:.2f}s (bound 5s)")


def test_convergence_order_diagnostic():
    """Step norms of a scenario solve show order 1; synthetic squares show 2."""
    row = reference.ROWS[1]
    sol = fr.solve_thresholds(reference.scenario_problem(row),
                              fr.SolverSettings(alpha=row.alpha), keep_trace=True)
    p_linear = fr.estimate_order(sol.outcome.trace.step_norms)
    seq = [0.5]
    while seq[-1] > 1e-200:
        seq.append(seq[-1] ** 2)
    p_quad = fr.estimate_order(seq)
    ok = abs(p_linear - 1.0) <= 0.05 and abs(p_quad - 2.0) <= 0.05
    _report("convergence-order", ok,
            f"scenario row {row.index} order {p_linear:.4f} (1.00 +/- 0.05), "
            f"synthetic quadratic order {p_quad:.4f} (2.00 +/- 0.05)")


def test_newton_baseline():
    """One-step exactness on affine systems; sqrt(2) in at most 8 iterations."""
    rng = np.random.default_rng(4)
    worst = 0.0
    cases = 0
    while cases < 100:
        n = int(rng.integers(1, 7))
        matrix = rng.uniform(-2.0, 2.0, size=(n, n)) + 2.0 * np.eye(n)
        if np.linalg.cond(matrix) > 1e6:
            continue
        b = rng.uniform(-3.0, 3.0, size=n)
        solution = np.linalg.solve(matrix, -b)
        x0 = rng.uniform(-4.0, 4.0, size=n)
        stepped = fr.newton_step(lambda x: matrix @ x + b, x0)
        worst = max(worst, norm2(stepped - solution) / (1.0 + norm2(solution)))
        cases += 1

    x = np.array([1.5])
    iterations = 0
    while abs(x[0] - math.sqrt(2.0)) >= 1e-10 and iterations < 20:
        x = fr.newton_step(lambda v: v**2 - 2.0, x)
        iterations += 1
    ok = worst <= 1e-6 and iterations <= 8 and abs(x[0] - math.sqrt(2.0)) < 1e-10
    _report("newton-baseline", ok,
            f"worst one-step relative error {worst:.2e} over 100 affine systems "
            f"(bound 1e-6); sqrt(2) reached in {iterations} iterations (bound 8)")
