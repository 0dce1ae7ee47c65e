"""The threshold model's scalar hot loops, in plain interpreted Python.

The reduced threshold residual lives here (and only here), so the generic
driver, which calls it through ``dixit_pindyck.reduced_residual``, and the
fused loop :func:`solve_reduced` can never drift apart; the fused loop takes
its multiplier entries from :func:`fracroots.kernel.multiplier`, as the
driver's step does.  Python's float ``**`` raises OverflowError where IEEE
arithmetic would give inf; the residual catches it, so an overflow becomes
NonRealEvaluation (which the fused loop turns into its evaluation-failed
status) instead of a raw arithmetic error.

The fused loop is a shortcut for untraced solves: ``fixed_point_solve`` is
the reference it must match, status, iterations and norms bit for bit.  Its
status codes (decoded by ``dixit_pindyck.STATUS_FROM_CODE``): 0 converged,
1 iteration cap, 2 diverged, 3 evaluation failed.
"""

from __future__ import annotations

import math

from .errors import DegenerateThresholds, NonRealEvaluation
from .kernel import multiplier

#: Two thresholds are degenerate when their powers t = x**(a3 + a4) differ
#: by at most this fraction of the larger: the elimination divides by
#: t1 - t2, and against a 60-digit evaluation the residual's relative error
#: reaches 4.8e-3 at |1 - x2/x1| = 1e-12 on reference row 1.
DEGENERATE_RTOL = 1e-8


def reduced_residual_checked(a1, a2, a3, a4, a5, a6, a7, x1, x2):
    """Two-component threshold residual with domain checks; returns ``(f1, f2)``.

    The residual components are the value-matching equations of the
    four-variable system after eliminating the two value-function
    coefficients, so their norms live on the full system's scale.  A
    non-positive component, a power overflow or a non-finite result raises
    NonRealEvaluation; components whose powers x**(a3 + a4) agree to
    DEGENERATE_RTOL relative, which collapse the elimination denominator,
    raise DegenerateThresholds.
    """
    if x1 <= 0.0 or x2 <= 0.0:
        raise NonRealEvaluation(f"thresholds must be positive, got {(x1, x2)}")
    s = a3 + a4
    try:
        t1 = x1 ** s
        t2 = x2 ** s
        if abs(t1 - t2) <= DEGENERATE_RTOL * (t1 if t1 > t2 else t2):
            raise DegenerateThresholds(f"threshold components coincide at {(x1, x2)}")
        den = a1 * a2 * (t1 - t2)
        p1 = x1 ** a3
        p2 = x2 ** a3
        g13 = p2 - p1
        g14 = x1 ** a4 - x2 ** a4
        f1 = a5 * x1 - a6 + a5 * (a1 * x1 ** a2 * g13 + a2 * x1 * p2 * g14) / den
        f2 = a5 * x2 - a7 + a5 * (a1 * x2 ** a2 * g13 + a2 * p1 * x2 * g14) / den
    except OverflowError as exc:
        raise NonRealEvaluation("reduced residual evaluated to a non-finite value") from exc
    if not (math.isfinite(f1) and math.isfinite(f2)):
        raise NonRealEvaluation("reduced residual evaluated to a non-finite value")
    return f1, f2


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
    entry = multiplier(alpha, eps)
    if trace:
        xs[0, 0] = x01
        xs[0, 1] = x02
    try:
        f1, f2 = reduced_residual_checked(a1, a2, a3, a4, a5, a6, a7, x01, x02)
    except NonRealEvaluation:
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
        n1 = x1 - entry(x1) * f1
        n2 = x2 - entry(x2) * f2
        d1 = n1 - x1
        d2 = n2 - x2
        step = math.sqrt(d1 * d1 + d2 * d2)
        x1 = n1
        x2 = n2
        if not (math.isfinite(x1) and math.isfinite(x2)) \
                or math.sqrt(x1 * x1 + x2 * x2) > bound:
            return 2, i, x1, x2, step, math.nan
        try:
            f1, f2 = reduced_residual_checked(a1, a2, a3, a4, a5, a6, a7, x1, x2)
        except NonRealEvaluation:
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
