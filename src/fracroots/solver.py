"""Fixed-point iteration machinery built around the fractional pseudo-Newton step.

The driver iterates the pseudo-Newton update x_{i+1} = x_i - P(x_i) f(x_i),
with the diagonal multiplier built entry by entry by
:func:`fracroots.kernel.multiplier`, until both the step norm and the
residual norm fall under their tolerances.  A classical Newton step over a
finite-difference Jacobian is provided as the baseline, and
:func:`alpha_sweep`, the one order-sweep loop, discovers multiple roots from
a single initial condition.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InsufficientData, NonRealEvaluation, SingularJacobian
from .kernel import (FLOAT64, ORDER_BOUND, FractionalOrder, checked_epsilon, entries,
                     multiplier, point, real, square_cut)
# p_matrix stays importable from here: the benchmark's tracer wraps solver.p_matrix.
from .kernel import p_matrix  # noqa: F401

#: Condition-number ceiling beyond which the Newton linear solve is refused.
CONDITION_LIMIT = 1e12

#: Cap on SolverSettings.max_iter, so that the settings bound the cost of a
#: solve and the size of its trace.
MAX_ITER = 1_000_000

#: Cap on (upper - lower) / step in :func:`default_alpha_grid`, so that the
#: size of an order sweep is bounded before any grid point is built.
MAX_GRID_POINTS = 10_000

#: Default spacing of :func:`default_alpha_grid`, and the half-width of the
#: band it skips around every integer.
DEFAULT_GRID_STEP = 0.05
INTEGER_BAND = 0.01

#: Relative distance under which two converged sweep hits are one root.
DEDUP_TOLERANCE = 1e-3

#: Lag of the untraced cycle stop in :func:`fixed_point_solve`: it catches
#: every period that divides 4, so periods 1, 2 and 4.  Of the lags 1-64,
#: 4 takes the fewest residual calls on the four generic sweep inputs: a
#: longer lag catches more periods but delays the stop of the common
#: period-1 and period-2 lanes by up to twice the lag.
CYCLE_LAG = 4


class Status(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    DIVERGED = "diverged"
    EVALUATION_FAILED = "evaluation_failed"


def _sum_squares(values) -> float:
    """Sum of the squares of a float sequence, added in entry order.

    Every norm in the package is the square root of this sum, in the order
    of the threshold model's fused loop (``f1 * f1 + f2 * f2``), so a norm
    recomputed from a trace, or taken by the fused loop, is bitwise equal
    to the driver's.
    """
    total = 0.0
    for v in values:
        total += v * v
    return total


def _same_bits(xs, ys) -> bool:
    """Whether two lists of finite floats are equal entry by entry, the sign of zero included."""
    return xs == ys and all(math.copysign(1.0, v) == math.copysign(1.0, w)
                            for v, w in zip(xs, ys))


def norm2(v) -> float:
    """Euclidean norm, the square root of :func:`_sum_squares` over the entries.

    v is read by :func:`~fracroots.kernel.entries`; a point with no entries
    has the norm 0.0.
    """
    return math.sqrt(_sum_squares(entries(v)))


def _point(x) -> np.ndarray:
    """A point as every function here reads it, by :func:`~fracroots.kernel.point`.

    ``kernel.point`` refuses an integer beyond the float range; a point with
    no entries is refused here, with ValueError.
    """
    x = point(x)
    if not x.size:
        raise ValueError("a point needs at least one entry")
    return x


@dataclass(frozen=True)
class SolverSettings:
    """Everything the driver needs besides the residual function.

    alpha
        Fractional order of the pseudo-Newton step (float or FractionalOrder).
    epsilon
        Diagonal regularisation of the multiplier matrix (finite, > 0).
    tol_step, tol_residual
        Convergence requires BOTH the step norm and the residual norm under
        their tolerance after the same iteration.
    max_iter
        Iteration cap, a whole number from 1 to MAX_ITER.  An integer is
        taken as it is; any other number whose float is integral, such as
        500.0, Decimal('5E+2') or '5e2', is read as the integer of that
        float.  Bools are not accepted.
    divergence_bound
        Abort with Diverged once the iterate norm exceeds this (> 0).

    Each field is read by :func:`~fracroots.kernel.real` under its rule
    (alpha's through FractionalOrder), so a value that breaks the rule, a
    non-number, a complex value and an integer beyond the float range are
    refused with ValueError("<rule>, got ..."), which names the field.
    """

    alpha: FractionalOrder = FractionalOrder(0.5)
    epsilon: float = 1e-4
    tol_step: float = 1e-5
    tol_residual: float = 1e-4
    max_iter: int = 500
    divergence_bound: float = 1e10

    def __post_init__(self):
        object.__setattr__(self, "alpha", FractionalOrder.coerce(self.alpha))
        object.__setattr__(self, "epsilon", checked_epsilon(self.epsilon))
        for name in ("tol_step", "tol_residual", "divergence_bound"):
            object.__setattr__(self, name, real(getattr(self, name), f"{name} must be positive",
                                                ok=lambda v: v > 0.0))
        max_iter = self.max_iter
        if isinstance(max_iter, (bool, np.bool_)):
            raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
        # An integer is kept as it is, so one beyond the float range keeps its value.
        count = max_iter if isinstance(max_iter, (int, np.integer)) else real(
            max_iter, "max_iter must be an integer", ok=float.is_integer)
        object.__setattr__(self, "max_iter", int(count))
        if not 1 <= self.max_iter <= MAX_ITER:
            raise ValueError(f"max_iter must lie in [1, {MAX_ITER}], got {max_iter!r}")


@dataclass(frozen=True)
class IterationTrace:
    """Per-iterate history of one solve.

    Lengths are coupled: with n steps there are n+1 iterates (x0 included),
    n step norms and n+1 residual norms.
    """

    iterates: np.ndarray
    step_norms: np.ndarray
    residual_norms: np.ndarray

    def __post_init__(self):
        iterates = np.asarray(self.iterates, dtype=float)
        steps = np.asarray(self.step_norms, dtype=float)
        residuals = np.asarray(self.residual_norms, dtype=float)
        if iterates.ndim != 2:
            raise ValueError("iterates must be a (n+1, dim) array")
        if steps.shape[0] != iterates.shape[0] - 1:
            raise ValueError("need exactly one step norm per transition")
        if residuals.shape[0] != iterates.shape[0]:
            raise ValueError("need exactly one residual norm per iterate")
        object.__setattr__(self, "iterates", iterates)
        object.__setattr__(self, "step_norms", steps)
        object.__setattr__(self, "residual_norms", residuals)


@dataclass(frozen=True)
class SolveOutcome:
    """Final status plus the diagnostics reported for every solve."""

    status: Status
    x_final: np.ndarray
    iterations: int
    final_step_norm: float
    final_residual_norm: float
    trace: Optional[IterationTrace] = None

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED


@dataclass(frozen=True)
class RootRecord:
    """One distinct root found by a sweep, with the orders that reached it."""

    x: np.ndarray
    alpha: float
    outcome: SolveOutcome
    found_by: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))


@dataclass(frozen=True)
class SkippedAlpha:
    """A grid point that produced no converged root, with the reason."""

    alpha: float
    status: Status


@dataclass(frozen=True)
class RootSet:
    """Deduplicated, canonically ordered roots from an order sweep."""

    roots: tuple
    dedup_tolerance: float
    skipped: tuple = field(default_factory=tuple)


def _evaluate(f: Callable, x: np.ndarray) -> tuple:
    """Evaluate a residual; return its entries as a float list and its 2-norm.

    ``x`` is a 1-d float array: every caller reads its point as
    :func:`fixed_point_solve` reads x0.  The residual is called once, and
    its result is read by :func:`~fracroots.kernel.entries`, the reader of a
    point: a list, a column or a 0-d scalar reads as the flat vector of its
    entries, and a 1-d native float64 ndarray, which every residual of the
    package returns, with one ``tolist()``.  A call that fails, a result
    that the reader refuses (an entry that is None, masked or an integer
    beyond the float range), or a non-finite entry is normalised to
    NonRealEvaluation.  A result whose length is not x's raises ValueError.
    The norm is the square root of :func:`_sum_squares`; a
    finite sum of squares means every entry is finite, so the entries are
    only scanned when it is not (a finite residual whose squares overflow
    keeps an inf norm).  :func:`fixed_point_solve` writes these statements
    out in its loop; a test holds the two copies equal.
    """
    n = len(x)
    try:
        rs = entries(f(x))
    except NonRealEvaluation:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise NonRealEvaluation(str(exc)) from exc
    if len(rs) != n:
        raise ValueError(f"residual has shape ({len(rs)},), expected {x.shape}")
    squares = _sum_squares(rs)
    if not squares < math.inf and not all(map(math.isfinite, rs)):
        raise NonRealEvaluation("residual evaluated to a non-finite value")
    return rs, math.sqrt(squares)


def fpn_step(f: Callable, x, alpha, epsilon: float) -> np.ndarray:
    """One fractional pseudo-Newton update x - P(x) * f(x).

    x is read as :func:`fixed_point_solve` reads x0, as
    ``np.asarray(x, dtype=float).ravel()``, and the update is returned as a
    1-d array.  P is diagonal, so the product is component-wise; a point
    with zero residual is returned unchanged.
    """
    x = _point(x)
    return np.array(fpn_update(alpha, epsilon)(x.tolist(), _evaluate(f, x)[0]))


def fpn_update(alpha, epsilon: float) -> Callable:
    """Step closure (xs, rs) -> next iterate, the pseudo-Newton step.

    ``xs`` and ``rs`` are the iterate and the residual as float sequences;
    each entry of the returned list is ``v - entry(v) * r``, where ``entry``
    is :func:`~fracroots.kernel.multiplier` for this order and epsilon (the
    entries of :func:`~fracroots.kernel.p_matrix` without its per-call
    checks).  The order and epsilon are checked, and
    gamma(1 - alpha) is computed, once, here.  :func:`fixed_point_solve`
    computes the same entries in its own loop, with ``entry``'s statements
    written out in place of its call.
    """
    alpha = FractionalOrder.coerce(alpha).value
    entry = multiplier(alpha, checked_epsilon(epsilon))

    def step(xs, rs) -> list:
        return [v - entry(v) * r for v, r in zip(xs, rs)]

    return step


def fd_jacobian(f: Callable, x) -> np.ndarray:
    """Central-difference Jacobian, column k from f(x +/- h e_k).

    The step is h = max(1e-6, 1e-8 * ||x||_inf), which keeps the stencil
    scaled on large iterates without collapsing near the origin.  A failing
    or non-finite evaluation raises NonRealEvaluation, as in the driver; a
    difference that overflows gives an infinite entry, without numpy's
    overflow warning.
    x is read as :func:`fixed_point_solve` reads x0, as
    ``np.asarray(x, dtype=float).ravel()``, so the Jacobian of an n-entry
    point is n by n whatever shape the point came in.
    """
    x = _point(x)
    n = len(x)
    h = max(1e-6, 1e-8 * float(np.max(np.abs(x))))
    jac = np.empty((n, n))
    # An overflow gives an infinite entry, and an inf - inf a NaN, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            bump = np.zeros(n)
            bump[k] = h
            jac[:, k] = (np.array(_evaluate(f, x + bump)[0])
                         - np.array(_evaluate(f, x - bump)[0])) / (2.0 * h)
    return jac


def newton_step(f: Callable, x) -> np.ndarray:
    """Classical Newton update x - J^{-1} f(x) over the finite-difference Jacobian.

    A failing or non-finite ``f(x)`` raises NonRealEvaluation, and a Jacobian
    whose condition estimate exceeds CONDITION_LIMIT (an infinite entry's
    does) raises SingularJacobian.  An update beyond the float range is
    infinite, without numpy's overflow warning.  x is read as :func:`fixed_point_solve` reads x0, as
    ``np.asarray(x, dtype=float).ravel()``, and the update is returned as a
    1-d array.
    """
    x = _point(x)
    fx = np.array(_evaluate(f, x)[0])
    jac = fd_jacobian(f, x)
    cond = np.linalg.cond(jac)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularJacobian(f"Jacobian condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    try:
        delta = np.linalg.solve(jac, fx)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(str(exc)) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        return x - delta


def fixed_point_solve(f: Callable, x0, settings: SolverSettings,
                      keep_trace: bool = False) -> SolveOutcome:
    """Run the pseudo-Newton iteration until converged, capped, diverged or failed.

    Parameters
    f
        Residual whose zero is sought; must return a vector of x0's length,
        and must be a function of x alone (see the cycle stop below).
    x0
        Finite starting point, read by :func:`~fracroots.kernel.point` as
        ``np.asarray(x0, dtype=float).ravel()``: a list, a column or (for
        one variable) a float is the 1-d array of its entries.
        :func:`fpn_step`, :func:`newton_step`, :func:`fd_jacobian`,
        :func:`same_root`, :func:`norm2` and
        :func:`~fracroots.kernel.p_matrix` read their point by this rule.
    settings
        Tolerances, iteration cap, alpha and epsilon.
    keep_trace
        Attach the full IterationTrace to the outcome.  A residual that fails
        at x0 gives the trace of x0 alone, with a NaN residual norm.

    This loop is the reference iteration.  An untraced solve (no
    ``keep_trace``) may take one of two shortcuts, each of which must return
    the outcome this loop would: a residual with a ``fused_solve(x0,
    settings)`` method runs the whole solve through that method, and the
    cycle stop below ends an orbit that repeats.  A traced solve takes
    neither: it runs this loop to its end and evaluates every iterate its
    trace reports.  The outcome encodes every failure of the iteration in
    its status instead of raising.  Three faults of the call raise ValueError
    instead: an x0 with no entries or a non-finite one, and a residual that
    returns another shape than x0's, at x0 or at any later iterate.

    The iterate and the residual are carried as float lists, and an array is
    built from the iterate only for the call of ``f``.  The residual's result
    is read as a list by :func:`~fracroots.kernel.entries`, as
    :func:`_evaluate` reads it: ``r.tolist()`` of a 1-d native float64
    ndarray, the result of every residual in the package, and
    ``point(r).tolist()`` of any other, with that reader's refusals.  Only
    the list's length is then compared with x0's.  The numpy and math
    functions that the loop calls are bound to locals once per solve, so an
    iteration looks up no module attribute.  An iteration is one
    pass over the entries that computes each new entry as ``v - p * r``, the
    step ``v - entry(v) * r`` of :func:`fpn_update`'s closure with the
    statements of :func:`~fracroots.kernel.multiplier`'s ``entry`` written
    out to give p, and adds up the squares of the step and of the new
    iterate.  Those statements read the constants ``power``, ``g``, ``eps``
    and ``pow_``, computed once per solve from the checked settings as
    ``multiplier`` computes them, so every entry keeps its bits.  The new
    iterate's residual is then checked with :func:`_evaluate`'s statements,
    written out in the loop with ``entries``' in place of its call, whose
    failures become the EVALUATION_FAILED status; ``_evaluate`` itself
    checks x0.  So the loop calls no function of the package per iteration
    but the residual (and :func:`_same_bits` at a cycle checkpoint, and
    :func:`~fracroots.kernel.point` on a result that is not a 1-d float64
    ndarray), and numpy runs only in ``f``, in the iterate's array and in
    ``point``.  Every norm is the square
    root of a sum of squares added in entry order, as :func:`_sum_squares`
    and the fused loop add it, and every limit is tested on that sum
    against the limit's cut,
    :func:`~fracroots.kernel.square_cut`: a norm is at most its tolerance,
    or above the bound, exactly when its sum is at most, or above, the cut.
    So the loop takes a square root only of a norm that it reports, in the
    outcome and in the trace.  An iterate diverges when its norm exceeds the
    bound or when it has a non-finite entry; the entries are scanned only
    when its sum of squares is not below inf, so a finite iterate whose
    squares overflow diverges only under a finite bound.  The status and
    norms report such overflow, so numpy's overflow and invalid-value
    warnings are silenced for the whole loop, the residual's calls included.

    Cycle stop (untraced solves only): iteration i is a checkpoint when
    ``max_iter - i`` is a multiple of CYCLE_LAG.  The loop counts them: the
    first is iteration ``max_iter % CYCLE_LAG or CYCLE_LAG``, and each
    checkpoint moves the next one CYCLE_LAG on; a traced solve's counter
    starts at 0, which no iteration reaches.  At a checkpoint that fails
    the convergence test, the iterate is compared, entry by entry with the
    sign of zero, with the one saved at the previous checkpoint.  If it
    repeats it bit for bit, the orbit repeats for ever with a period that
    divides the lag: every later state and step is one the convergence test
    has already refused, and no later iterate can diverge or fail to
    evaluate.  ``max_iter`` is a whole number of lags on, so the solve
    returns at once what the loop would return there: MAX_ITERATIONS with
    the current iterate, step norm and residual norm.  A cycle is caught
    within twice the lag of its first iterate.  This holds only for a
    residual that is a function of x: one that keeps state between calls may
    be called fewer times than there are iterations.  Cycles whose period
    does not divide the lag run to ``max_iter``.
    """
    x = _point(x0)
    xs = x.tolist()
    if not all(map(math.isfinite, xs)):
        raise ValueError("x0 must be finite")
    fused_solve = getattr(f, "fused_solve", None)
    if fused_solve is not None and not keep_trace:
        return fused_solve(x, settings)
    # kernel.multiplier's constants, computed as it computes them; the
    # settings are checked, so they skip fpn_update's coercion.
    alpha, eps = settings.alpha.value, settings.epsilon
    power = -alpha
    g = math.gamma(1.0 - alpha)
    if keep_trace:
        iterates = [xs]
        step_norms: list = []
        residual_norms: list = []

    def outcome(status, x_final, n, step_squares, res_squares):
        trace = None
        if keep_trace:
            trace = IterationTrace(
                iterates=np.array(iterates),
                step_norms=np.array(step_norms),
                residual_norms=np.array(residual_norms),
            )
        return SolveOutcome(status=status, x_final=np.asarray(x_final, dtype=float),
                            iterations=n, final_step_norm=math.sqrt(step_squares),
                            final_residual_norm=math.sqrt(res_squares), trace=trace)

    # Entered once per solve: np.errstate costs about half an iteration.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            rs, res_norm = _evaluate(f, x)
        except NonRealEvaluation:
            if keep_trace:
                residual_norms.append(math.nan)
            return outcome(Status.EVALUATION_FAILED, x, 0, math.nan, math.nan)
        step_squares = math.nan
        if keep_trace:
            residual_norms.append(res_norm)

        max_iter = settings.max_iter
        # The limits as cuts of sums of squares.
        step_cut, residual_cut, bound_cut = (square_cut(settings.tol_step),
                                             square_cut(settings.tol_residual),
                                             square_cut(settings.divergence_bound))
        # Bound once per solve, so the loop looks up no module attribute.
        n, array, ndarray, pow_, sqrt, isfinite, inf = (
            len(xs), np.array, np.ndarray, math.pow, math.sqrt, math.isfinite, math.inf)
        # The cycle stop's lag, its next checkpoint (one that a traced solve
        # never reaches) and the iterate of its last checkpoint (none yet).
        lag, xs_lag = CYCLE_LAG, None
        checkpoint = 0 if keep_trace else max_iter % lag or lag
        for i in range(1, max_iter + 1):
            # fpn_update's step, with entry(v) written out as p, and the
            # squares of the step and of the new iterate added up in the
            # same pass.
            xs_next = []
            step_squares = size = 0.0
            for v, r in zip(xs, rs):
                if v == 0.0:
                    p = eps
                else:
                    try:
                        core = pow_(abs(v), power)
                    except OverflowError:
                        core = inf
                    core = core / g
                    if v < 0.0:
                        p = -core + eps
                    else:
                        p = core + eps
                w = v - p * r
                d = w - v
                step_squares += d * d
                size += w * w
                xs_next.append(w)
            if size > bound_cut or (not size < inf and not all(map(isfinite, xs_next))):
                return outcome(Status.DIVERGED, xs_next, i, step_squares, math.nan)
            # _evaluate's statements, with kernel.entries' written out in
            # place of its call and its failures returned as a status.
            x = array(xs_next)
            try:
                r = f(x)
                if type(r) is ndarray and r.dtype is FLOAT64 and r.ndim == 1:
                    rs = r.tolist()
                else:
                    rs = point(r).tolist()
            except (ArithmeticError, ValueError):
                return outcome(Status.EVALUATION_FAILED, xs_next, i, step_squares, math.nan)
            if len(rs) != n:
                raise ValueError(f"residual has shape ({len(rs)},), expected {x.shape}")
            squares = 0.0
            for r in rs:
                squares += r * r
            if not squares < inf and not all(map(isfinite, rs)):
                return outcome(Status.EVALUATION_FAILED, xs_next, i, step_squares, math.nan)
            if keep_trace:
                iterates.append(xs_next)
                step_norms.append(sqrt(step_squares))
                residual_norms.append(sqrt(squares))
            if step_squares <= step_cut and squares <= residual_cut:
                return outcome(Status.CONVERGED, xs_next, i, step_squares, squares)
            if i == checkpoint:
                if _same_bits(xs_next, xs_lag):
                    return outcome(Status.MAX_ITERATIONS, xs_next, max_iter, step_squares,
                                   squares)
                xs_lag = xs_next
                checkpoint += lag
            xs = xs_next

    return outcome(Status.MAX_ITERATIONS, xs, max_iter, step_squares, squares)


def estimate_order(norms: Sequence[float]) -> float:
    """Empirical convergence order from the tail of an error or step-norm sequence.

    Uses p = log(e_k+1 / e_k) / log(e_k / e_k-1) on the last three entries of
    the trailing strictly positive, strictly decreasing run; a NaN ends that
    run.  Raises InsufficientData (with the reason) when the run is shorter
    than four entries, which covers both short and non-monotone tails, and
    when a ratio of those entries underflows to 0, whose logarithm is
    undefined.  ``norms`` is read by :func:`~fracroots.kernel.entries`, so a
    column of norms reads as its entries.
    """
    seq = entries(norms)
    if len(seq) < 4:
        raise InsufficientData(f"need at least 4 entries, got {len(seq)}")
    run = 0
    for k in range(len(seq) - 1, -1, -1):
        if not seq[k] > 0.0:
            break
        if run > 0 and not seq[k] > seq[k + 1]:
            break
        run += 1
    if run < 4:
        raise InsufficientData(
            f"trailing strictly decreasing run has {run} entries, need 4 "
            "(sequence tail is too short or non-monotone)")
    e0, e1, e2 = seq[-3], seq[-2], seq[-1]
    late, early = e2 / e1, e1 / e0
    if late == 0.0 or early == 0.0:
        raise InsufficientData("a ratio of the last three entries underflows to 0")
    return math.log(late) / math.log(early)


def default_alpha_grid(step: float = DEFAULT_GRID_STEP) -> list:
    """Sweep grid over the order range [-ORDER_BOUND, ORDER_BOUND] = [-2, 2].

    Points lie ``step`` apart from -2; those within INTEGER_BAND of an integer
    are skipped, which keeps every point clear of the integer orders the
    kernel cannot take.  A step that is not a finite, positive number (a
    non-number and a complex value included), or that would cut the range
    into more than MAX_GRID_POINTS intervals, is refused with ValueError
    before any point is built, and one that leaves no point is refused after.

    ``step`` is read once, by :func:`~fracroots.kernel.real`, so any form
    of a number (a numpy scalar, a string, a Decimal) gives the grid of
    ``float(step)``.  Each call returns a new list, so a caller may change
    it.  The orders are immutable and shared: the grids of the last few
    steps are kept, so a step that is checked on input and then swept is
    built once.
    """
    return list(_order_grid(real(step, "step must be finite and positive",
                                 ok=lambda s: 0.0 < s < math.inf)))


@functools.lru_cache(maxsize=4)
def _order_grid(step: float) -> tuple:
    """The orders of :func:`default_alpha_grid`, built once per recent finite, positive step."""
    lower, upper = -ORDER_BOUND, ORDER_BOUND
    if not (upper - lower) / step <= MAX_GRID_POINTS:
        raise ValueError(f"step {step!r} would cut [{lower!r}, {upper!r}] into more "
                         f"than {MAX_GRID_POINTS} intervals")
    grid = []
    k = 0
    while True:
        value = round(lower + k * step, 12)
        if value > upper + 1e-12:
            break
        k += 1
        if abs(value - round(value)) <= INTEGER_BAND:
            continue
        grid.append(FractionalOrder(value))
    if not grid:
        raise ValueError(f"grid step {step!r} leaves no valid orders "
                         "after excluding the integer bands")
    return tuple(grid)


def same_root(a, b, tolerance: float) -> bool:
    """Dedup predicate: distance below tolerance relative to root magnitude.

    a and b are read as :func:`fixed_point_solve` reads x0, as
    ``np.asarray(v, dtype=float).ravel()``, so a column and its 1-d array
    are the same root; points of different lengths raise ValueError.  So
    does a tolerance that :func:`~fracroots.kernel.real` refuses under the
    rule "tolerance must be zero or positive": a NaN or negative one, under
    which no two points would be one root, a non-number, a complex value
    and an integer beyond the float range.  The difference is taken in
    Python floats, which give numpy's bits, and one that overflows is
    infinite without numpy's overflow warning.
    """
    tol = real(tolerance, "tolerance must be zero or positive", ok=lambda t: t >= 0.0)
    a, b = _point(a), _point(b)
    if a.size != b.size:
        raise ValueError(f"cannot compare points of {a.size} and {b.size} entries")
    # Python floats, whose difference overflows to inf without numpy's warning.
    gap = math.sqrt(_sum_squares([u - v for u, v in zip(a.tolist(), b.tolist())]))
    return gap <= tol * (1.0 + max(norm2(a), norm2(b)))


def collect_roots(converged, skipped, dedup_tolerance: float) -> RootSet:
    """Cluster converged sweep hits into a canonical RootSet.

    ``converged`` holds (x, alpha_value, outcome) triples.  Candidates are
    sorted canonically before clustering, so the result is a pure function of
    the set of hits, not of grid order; each cluster is represented by its
    best hit (smallest residual norm, then smallest alpha).  Each hit's x is
    read by :func:`~fracroots.kernel.point`, as :func:`fixed_point_solve`
    reads x0, so the sort key and :func:`same_root` see the same entries and
    every RootRecord.x is 1-d.  ``dedup_tolerance`` is read once, by
    :func:`~fracroots.kernel.real`, and that float is what every
    :func:`same_root` call and ``RootSet.dedup_tolerance`` get.  A
    tolerance that :func:`same_root` would refuse is refused here, however
    few the hits.
    """
    tolerance = real(dedup_tolerance, "tolerance must be zero or positive", ok=lambda t: t >= 0.0)
    candidates = sorted(
        ((point(x), real(alpha, "an order must fit in a float"), out)
         for x, alpha, out in converged),
        key=lambda c: (tuple(c[0]), c[2].final_residual_norm, c[1]),
    )
    clusters: list = []
    for x, alpha, out in candidates:
        for members in clusters:
            if same_root(x, members[0][0], tolerance):
                members.append((x, alpha, out))
                break
        else:
            clusters.append([(x, alpha, out)])
    records = []
    for members in clusters:
        best = min(members, key=lambda m: (m[2].final_residual_norm, m[1]))
        found_by = tuple(sorted(alpha for _, alpha, _ in members))
        records.append(RootRecord(x=best[0], alpha=best[1], outcome=best[2],
                                  found_by=found_by))
    records.sort(key=lambda r: tuple(r.x))
    return RootSet(roots=tuple(records), dedup_tolerance=tolerance,
                   skipped=tuple(sorted(skipped, key=lambda s: s.alpha)))


def _with_order(settings: SolverSettings, alpha: FractionalOrder) -> SolverSettings:
    """``dataclasses.replace(settings, alpha=alpha)`` for an order that is already checked.

    The other fields were checked when ``settings`` was built, so they are
    copied as they are instead of running ``__post_init__`` again.
    """
    lane = object.__new__(SolverSettings)
    lane.__dict__.update(settings.__dict__, alpha=alpha)
    return lane


def alpha_sweep(f: Callable, x0, grid=None, settings: Optional[SolverSettings] = None) -> RootSet:
    """Run the pseudo-Newton iteration for every order in the grid.

    ``grid`` defaults to :func:`default_alpha_grid` and must not be empty;
    each of its orders replaces the one in ``settings``.  Converged outcomes
    are deduplicated within DEDUP_TOLERANCE and sorted canonically by
    :func:`collect_roots`; every other grid point lands in the skipped list
    with its failure status.  The same initial condition is reused throughout,
    which is the whole point: the order, not the start, selects the root.
    """
    if settings is None:
        settings = SolverSettings()
    grid = _order_grid(DEFAULT_GRID_STEP) if grid is None else [FractionalOrder.coerce(a) for a in grid]
    if not grid:
        raise ValueError("sweep grid is empty")
    converged = []
    skipped = []
    for alpha in grid:
        out = fixed_point_solve(f, x0, _with_order(settings, alpha))
        if out.converged:
            converged.append((out.x_final, alpha.value, out))
        else:
            skipped.append(SkippedAlpha(alpha=alpha.value, status=out.status))
    return collect_roots(converged, skipped, DEDUP_TOLERANCE)
