"""The threshold model's scalar hot loops, in plain interpreted Python.

The reduced threshold residual lives here: the generic driver calls it
through ``dixit_pindyck.reduced_residual``.  Its guard on the elimination
divisor x1**(a3 + a4) - x2**(a3 + a4) is :func:`pair_powers`, which
``dixit_pindyck.back_substitute`` shares.  Python's float ``**`` raises
OverflowError where IEEE arithmetic would give inf; the residual catches it,
so an overflow becomes NonRealEvaluation (which the fused loop turns into
its evaluation-failed status) instead of a raw arithmetic error.

The fused loop :func:`solve_reduced` is a shortcut for untraced solves:
``fixed_point_solve`` is the reference it must match, status, iterations
and norms bit for bit.  For speed its iteration makes no Python call in the
common case.  It inlines the positive branch of
:func:`fracroots.kernel.multiplier`'s entry, with the same operations in the
same order, and the residual's statements for positive components; where
those overflow or give a non-finite value it calls
:func:`reduced_residual_checked`, which decides.  The kernel agreement tests
(against the driver on every sweep order and on random starts) and an AST
test (the inlined guard and residual statements equal those of
:func:`pair_powers` and :func:`reduced_residual_checked`) pin both copies.
Its status codes (decoded by ``dixit_pindyck.STATUS_FROM_CODE``):
0 converged, 1 iteration cap, 2 diverged, 3 evaluation failed.
"""

from __future__ import annotations

import math

from .errors import DegenerateThresholds, NonRealEvaluation

#: Two thresholds are degenerate when their powers t = x**(a3 + a4) differ
#: by at most this fraction of the larger: the elimination divides by
#: t1 - t2, and against a 60-digit evaluation the residual's relative error
#: reaches 4.8e-3 at |1 - x2/x1| = 1e-12 on reference row 1.
DEGENERATE_RTOL = 1e-8


def pair_powers(x1, x2, s):
    """The powers ``(x1 ** s, x2 ** s)`` of a threshold pair, guarded; ``s`` is a3 + a4.

    Their difference is the elimination divisor of both the reduced residual
    and the back-substitution.  A non-positive or infinite component raises
    NonRealEvaluation; powers that agree to DEGENERATE_RTOL relative, which
    collapse the divisor, raise DegenerateThresholds.  A power overflow
    propagates as OverflowError, so each caller words its own message.
    """
    if x1 <= 0.0 or x2 <= 0.0:
        raise NonRealEvaluation(f"thresholds must be positive, got {(x1, x2)}")
    t1 = x1 ** s
    t2 = x2 ** s
    if abs(t1 - t2) <= DEGENERATE_RTOL * (t1 if t1 > t2 else t2):
        # An infinite power passes the test however far apart x1 and x2 are.
        if t1 == math.inf or t2 == math.inf:
            raise NonRealEvaluation(f"thresholds must be finite, got {(x1, x2)}")
        raise DegenerateThresholds(f"threshold components coincide at {(x1, x2)}")
    return t1, t2


def reduced_residual_checked(a1, a2, a3, a4, a5, a6, a7, x1, x2):
    """Two-component threshold residual with domain checks; returns ``(f1, f2)``.

    The residual components are the value-matching equations of the
    four-variable system after eliminating the two value-function
    coefficients, so their norms live on the full system's scale.  The pair
    is refused as :func:`pair_powers` refuses it; a power overflow or a
    non-finite result raises NonRealEvaluation.
    """
    try:
        t1, t2 = pair_powers(x1, x2, a3 + a4)
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
    # kernel.multiplier's constants, computed as it computes them, and the
    # residual's exponent.
    power = -alpha
    g = math.gamma(1.0 - alpha)
    s = a3 + a4
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
        # The multiplier's entry, inlined: every iterate that reaches this
        # point passed the residual's checks, so both components are
        # positive and finite and entry(x) takes its positive branch.
        try:
            c1 = x1 ** power
        except OverflowError:
            c1 = math.inf
        try:
            c2 = x2 ** power
        except OverflowError:
            c2 = math.inf
        n1 = x1 - (c1 / g + eps) * f1
        n2 = x2 - (c2 / g + eps) * f2
        d1 = n1 - x1
        d2 = n2 - x2
        step = math.sqrt(d1 * d1 + d2 * d2)
        x1 = n1
        x2 = n2
        if not (math.isfinite(x1) and math.isfinite(x2)) \
                or math.sqrt(x1 * x1 + x2 * x2) > bound:
            return 2, i, x1, x2, step, math.nan
        # reduced_residual_checked's common case, inlined with its own and
        # pair_powers' statements; an overflow or a non-finite result is
        # left to it.
        if x1 <= 0.0 or x2 <= 0.0:
            return 3, i, x1, x2, step, math.nan
        try:
            t1 = x1 ** s
            t2 = x2 ** s
            if abs(t1 - t2) <= DEGENERATE_RTOL * (t1 if t1 > t2 else t2):
                # Both powers are finite (an overflow raises): degenerate.
                return 3, i, x1, x2, step, math.nan
            den = a1 * a2 * (t1 - t2)
            p1 = x1 ** a3
            p2 = x2 ** a3
            g13 = p2 - p1
            g14 = x1 ** a4 - x2 ** a4
            f1 = a5 * x1 - a6 + a5 * (a1 * x1 ** a2 * g13 + a2 * x1 * p2 * g14) / den
            f2 = a5 * x2 - a7 + a5 * (a1 * x2 ** a2 * g13 + a2 * p1 * x2 * g14) / den
        except OverflowError:
            f1 = math.nan
        if not (math.isfinite(f1) and math.isfinite(f2)):
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
