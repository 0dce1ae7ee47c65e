"""The threshold model's scalar hot loops, in plain interpreted Python.

The reduced threshold residual lives here: the generic driver calls it
through ``dixit_pindyck.KernelResidual.__call__``.  It is the elimination of
the value-function coefficients in divided-difference form.  With lam the log
of the smaller threshold over the larger (so lam <= 0) and
e(a) = expm1(a * lam), every difference of powers in the elimination is a
power of the larger threshold times an e(a), and those powers cancel.  One
log and three expm1 of non-positive arguments (for the model's positive
exponents) replace eight powers, no intermediate overflows, and x1 = x2 is
an ordinary point: there the divided differences take their limit, and
f1 - f2 = a7 - a6.  :func:`elimination` writes the elimination once, as a
function of lam: the checked residual calls it for the divided
differences, and ``dixit_pindyck.back_substitute`` for the e(a) from which
it recovers A and B.

The fused loop :func:`solve_reduced` is a shortcut for untraced solves:
``fixed_point_solve`` is the reference it must match, status, iterations
and norms bit for bit.  It checks its start with
:func:`reduced_residual_checked`; after that, an iteration calls no package
function.  It inlines the positive branch of
:func:`fracroots.kernel.multiplier`'s entry, with the same operations in the
same order, and the whole of the checked residual with
:func:`elimination`'s statements in place of its call, and fails where those
statements raise (at a ratio that underflows, say) or give a non-finite
value, as the checked residual would.  The entry's core is
``math.pow(x, -alpha)``: for a positive base it makes the one C ``pow``
call that ``x ** -alpha`` makes, so it has the bits of ``**``, raises
OverflowError on the same overflow and gives 0.0 on the same underflow,
without the generic operator dispatch.  The kernel agreement tests (against
the driver on every sweep order and on random starts) pin both copies, and
an AST test holds the inlined residual statement for statement to
:func:`reduced_residual_checked` and :func:`elimination`.  It tests its
limits as the driver does, each on a sum of squares against the limit's cut
(:func:`fracroots.kernel.square_cut`, the largest float whose square root
is at most the limit), and takes a square root only of a norm that it
reports: in its return value and in the trace arrays.
Its status codes (decoded by ``dixit_pindyck.STATUS_FROM_CODE``):
0 converged, 1 iteration cap, 2 diverged, 3 evaluation failed.
"""

from __future__ import annotations

import math
from math import expm1, isfinite, log

from .errors import NonRealEvaluation
from .kernel import square_cut


def elimination(a1, a2, a3, a4, a12, s, lam):
    """The elimination of A and B at lam = log(lo / hi); returns ``(e3, e4, es, u, v)``.

    e3, e4 and es are e(a) = expm1(a * lam) at a = a3, a4 and s = a3 + a4,
    and u and v the divided differences of the larger and the smaller
    component, with a12 = a1 * a2.  At lam = 0 (x1 = x2) the e(a) are
    a3, a4 and s, whose ratios are the limits of e(a) / e(s), and u = v is
    the divided differences' common limit.  It checks nothing: what the
    arithmetic raises, it raises.
    """
    if lam == 0.0:
        # x1 = x2: both divided differences tend to this limit.
        e3, e4, es = a3, a4, s
        u = v = (a1 * a3 - a2 * a4) / (a12 * s)
    else:
        e3 = expm1(a3 * lam)
        e4 = expm1(a4 * lam)
        es = expm1(s * lam)
        d = a12 * es
        u = (a1 * e3 - a2 * (1.0 + e3) * e4) / d
        v = (a1 * (1.0 + e4) * e3 - a2 * e4) / d
    return e3, e4, es, u, v


def reduced_residual_checked(a1, a2, a3, a4, a5, a6, a7, x1, x2):
    """Two-component threshold residual with domain checks; returns ``(f1, f2)``.

    The residual components are the value-matching equations of the
    four-variable system after eliminating the two value-function
    coefficients, so their norms live on the full system's scale.  A
    component that is not positive and finite raises NonRealEvaluation, and
    so do a ratio of the components that underflows to 0 (whose log is
    undefined), an overflow and a non-finite result.
    """
    if not (0.0 < x1 < math.inf and 0.0 < x2 < math.inf):
        raise NonRealEvaluation(f"thresholds must be positive and finite, got {(x1, x2)}")
    s = a3 + a4
    a12 = a1 * a2
    try:
        swap = x2 > x1
        lam = log(x1 / x2 if swap else x2 / x1)
        e3, e4, es, u, v = elimination(a1, a2, a3, a4, a12, s, lam)
        if swap:
            u, v = v, u
        p1 = a5 * x1
        p2 = a5 * x2
        f1 = p1 - a6 - p1 * u
        f2 = p2 - a7 - p2 * v
    except (ArithmeticError, ValueError) as exc:
        raise NonRealEvaluation(f"reduced residual has no finite value at {(x1, x2)}") from exc
    if not (isfinite(f1) and isfinite(f2)):
        raise NonRealEvaluation(f"reduced residual has no finite value at {(x1, x2)}")
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
    a12 = a1 * a2
    # The limits as cuts of sums of squares, so the loop takes a square root
    # only of a norm that it reports.
    step_cut, res_cut, bound_cut = square_cut(tol_step), square_cut(tol_res), square_cut(bound)
    # Bound once per solve, so the iteration looks up no global name.
    pow_, log, expm1, isfinite, sqrt, inf = (math.pow, math.log, math.expm1, math.isfinite,
                                             math.sqrt, math.inf)
    if trace:
        xs[0] = x01, x02
    try:
        f1, f2 = reduced_residual_checked(a1, a2, a3, a4, a5, a6, a7, x01, x02)
    except NonRealEvaluation:
        if trace:
            residuals[0] = math.nan
        return 3, 0, x01, x02, math.nan, math.nan
    x1, x2 = x01, x02
    res_sq = f1 * f1 + f2 * f2
    if trace:
        residuals[0] = sqrt(res_sq)
    step_sq = math.nan
    for i in range(1, max_iter + 1):
        # The multiplier's entry, inlined: every iterate that reaches this
        # point passed the residual's checks, so both components are
        # positive and finite and entry(x) takes its positive branch.
        try:
            c1 = pow_(x1, power)
        except OverflowError:
            c1 = math.inf
        try:
            c2 = pow_(x2, power)
        except OverflowError:
            c2 = math.inf
        n1 = x1 - (c1 / g + eps) * f1
        n2 = x2 - (c2 / g + eps) * f2
        d1 = n1 - x1
        d2 = n2 - x2
        step_sq = d1 * d1 + d2 * d2
        x1, x2 = n1, n2
        # As the driver tests an iterate and a residual: a finite sum of
        # squares means that both components are finite.
        size = x1 * x1 + x2 * x2
        if size > bound_cut or not (size < inf or isfinite(x1) and isfinite(x2)):
            return 2, i, x1, x2, sqrt(step_sq), math.nan
        # reduced_residual_checked, inlined whole with elimination's
        # statements in place of its call: the solve fails where it would
        # refuse the iterate, which is finite here.
        if x1 <= 0.0 or x2 <= 0.0:
            return 3, i, x1, x2, sqrt(step_sq), math.nan
        try:
            swap = x2 > x1
            lam = log(x1 / x2 if swap else x2 / x1)
            if lam == 0.0:
                # x1 = x2: both divided differences tend to this limit.
                e3, e4, es = a3, a4, s
                u = v = (a1 * a3 - a2 * a4) / (a12 * s)
            else:
                e3 = expm1(a3 * lam)
                e4 = expm1(a4 * lam)
                es = expm1(s * lam)
                d = a12 * es
                u = (a1 * e3 - a2 * (1.0 + e3) * e4) / d
                v = (a1 * (1.0 + e4) * e3 - a2 * e4) / d
            if swap:
                u, v = v, u
            p1 = a5 * x1
            p2 = a5 * x2
            f1 = p1 - a6 - p1 * u
            f2 = p2 - a7 - p2 * v
        except (ArithmeticError, ValueError):
            return 3, i, x1, x2, sqrt(step_sq), math.nan
        res_sq = f1 * f1 + f2 * f2
        if not (res_sq < inf or isfinite(f1) and isfinite(f2)):
            return 3, i, x1, x2, sqrt(step_sq), math.nan
        if trace:
            xs[i] = x1, x2
            steps[i - 1] = sqrt(step_sq)
            residuals[i] = sqrt(res_sq)
        if step_sq <= step_cut and res_sq <= res_cut:
            return 0, i, x1, x2, sqrt(step_sq), sqrt(res_sq)
    return 1, max_iter, x1, x2, sqrt(step_sq), sqrt(res_sq)
