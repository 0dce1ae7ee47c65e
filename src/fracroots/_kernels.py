"""Scalar hot-loop kernels, in plain interpreted Python.

The threshold-model residual lives here (and only here) so the generic
numpy driver and the fused loop can never drift apart.  Python's float
``**`` raises OverflowError where IEEE arithmetic would give inf; the power
sites below catch it, so an overflow becomes a status code or an infinite
multiplier entry instead of an exception.

Status codes returned by :func:`solve_reduced` (kept in sync with
``solver.Status``): 0 converged, 1 iteration cap, 2 diverged, 3 evaluation
failed.
"""

from __future__ import annotations

import math

DEGENERATE_GAP = 1e-30

OK = 0
NONPOSITIVE = 1
DEGENERATE = 2
NONFINITE = 3


def frac_unit_deriv(beta, x):
    """Order-beta derivative of the unit constant at x.

    Classical order (beta = 1) gives 0.  Otherwise |x|**(-beta) / gamma(1-beta),
    with the sign of x carried through so the update map stays odd in x and
    negative iterates keep a real, sign-aware multiplier.
    """
    if beta == 1.0:
        return 0.0
    try:
        core = abs(x) ** (-beta)
    except OverflowError:
        core = math.inf
    core = core / math.gamma(1.0 - beta)
    if x < 0.0:
        return -core
    return core


def p_entry(alpha, x, eps):
    """One diagonal entry of the pseudo-Newton multiplier matrix.

    Zero components take the classical order-1 branch, so the entry
    collapses to eps exactly.
    """
    if x == 0.0:
        return eps
    return frac_unit_deriv(alpha, x) + eps


def reduced_residual_checked(a1, a2, a3, a4, a5, a6, a7, x1, x2):
    """Two-component threshold residual with domain checks.

    Returns ``(code, f1, f2)`` where code is OK, NONPOSITIVE, DEGENERATE or
    NONFINITE.  The residual components are the value-matching equations of
    the four-variable system after eliminating the two value-function
    coefficients, so their norms live on the full system's scale.
    """
    if x1 <= 0.0 or x2 <= 0.0:
        return NONPOSITIVE, 0.0, 0.0
    s = a3 + a4
    try:
        t1 = x1 ** s
        t2 = x2 ** s
        if abs(t1 - t2) < DEGENERATE_GAP:
            return DEGENERATE, 0.0, 0.0
        den = a1 * a2 * (t1 - t2)
        g13 = x2 ** a3 - x1 ** a3
        g14 = x1 ** a4 - x2 ** a4
        f1 = a5 * x1 - a6 + a5 * (a1 * x1 ** a2 * g13 + a2 * x1 * x2 ** a3 * g14) / den
        f2 = a5 * x2 - a7 + a5 * (a1 * x2 ** a2 * g13 + a2 * x1 ** a3 * x2 * g14) / den
    except OverflowError:
        return NONFINITE, math.nan, math.nan
    if not (math.isfinite(f1) and math.isfinite(f2)):
        return NONFINITE, f1, f2
    return OK, f1, f2


def solve_reduced(a1, a2, a3, a4, a5, a6, a7, x01, x02, alpha, eps,
                  tol_step, tol_res, max_iter, bound, xs, steps, residuals):
    """Fused pseudo-Newton fixed-point loop for the threshold residual.

    Fills the preallocated trace arrays (``xs``: (max_iter+1, 2), ``steps``:
    (max_iter,), ``residuals``: (max_iter+1,)) up to the last point where the
    residual was evaluable (the start alone, with a NaN residual norm, when
    it fails there), and returns
    ``(status, n, x1, x2, step_norm, residual_norm)``.  Passing None for all
    three arrays keeps no trace.
    """
    trace = xs is not None
    if trace:
        xs[0, 0] = x01
        xs[0, 1] = x02
    code, f1, f2 = reduced_residual_checked(a1, a2, a3, a4, a5, a6, a7, x01, x02)
    if code != OK:
        if trace:
            residuals[0] = math.nan
        return 3, 0, x01, x02, math.nan, math.nan
    x1 = x01
    x2 = x02
    res = math.sqrt(f1 * f1 + f2 * f2)
    if trace:
        residuals[0] = res
    step = math.nan
    for i in range(1, max_iter + 1):
        n1 = x1 - p_entry(alpha, x1, eps) * f1
        n2 = x2 - p_entry(alpha, x2, eps) * f2
        d1 = n1 - x1
        d2 = n2 - x2
        step = math.sqrt(d1 * d1 + d2 * d2)
        x1 = n1
        x2 = n2
        if not (math.isfinite(x1) and math.isfinite(x2)) \
                or math.sqrt(x1 * x1 + x2 * x2) > bound:
            return 2, i, x1, x2, step, math.nan
        code, f1, f2 = reduced_residual_checked(a1, a2, a3, a4, a5, a6, a7, x1, x2)
        if code != OK:
            return 3, i, x1, x2, step, math.nan
        res = math.sqrt(f1 * f1 + f2 * f2)
        if trace:
            xs[i, 0] = x1
            xs[i, 1] = x2
            steps[i - 1] = step
            residuals[i] = res
        if step <= tol_step and res <= tol_res:
            return 0, i, x1, x2, step, res
    return 1, max_iter, x1, x2, step, res
