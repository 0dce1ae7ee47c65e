"""Investment-under-uncertainty thresholds via the Dixit-Pindyck system.

A producer with geometric-Brownian income should expand above an income H
and reduce or close below an income L.  Value matching and smooth pasting at
the two triggers give four nonlinear equations in (H, L, A, B), where A and
B are the coefficients of the option part of the project value.  The
coefficient pair enters the smooth-pasting equations linearly, so it can be
eliminated in closed form; what remains is a two-variable system in (H, L)
that the fractional pseudo-Newton iteration solves, after which A and B are
recovered by back-substitution and the full four-equation residual is
checked independently.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import InvalidPrimitives, NonRealEvaluation, ThresholdSolveFailed
from .kernel import entries, point, real
from .solver import (RootSet, SolverSettings, SolveOutcome, Status,
                     alpha_sweep, fixed_point_solve, norm2)

#: Tolerance on the exact algebraic identities the constants must satisfy.
IDENTITY_TOL = 1e-9

#: Integer status codes returned by ``_kernels.solve_reduced``, in Status order.
STATUS_FROM_CODE = tuple(Status)


class Decision(enum.Enum):
    EXPAND = "expand"
    CONTINUE = "continue"
    REDUCE_OR_CLOSE = "reduce_or_close"


class ThresholdOrderingWarning(UserWarning):
    """The converged point had its expansion component below its closing one."""


@dataclass(frozen=True)
class EconomicPrimitives:
    """Raw model inputs.

    All six must be finite numbers; any other value is refused with
    InvalidPrimitives, as is a breach of a rule below.

    mu      mean growth rate of income
    sigma   volatility of income (> 0)
    l       long-run real interest rate (> mu, so discounting converges)
    c       annual production cost (>= 0)
    kappa   sunk cost of expanding (>= 0)
    chi     cost of reducing or closing (>= 0)
    """

    mu: float
    sigma: float
    l: float
    c: float
    kappa: float
    chi: float

    def __post_init__(self):
        for name in ("mu", "sigma", "l", "c", "kappa", "chi"):
            object.__setattr__(self, name, real(getattr(self, name), f"{name} must be finite",
                                                InvalidPrimitives, math.isfinite))
        if not self.sigma > 0.0:
            raise InvalidPrimitives(f"sigma must be positive, got {self.sigma!r}")
        if not self.l > 0.0:
            raise InvalidPrimitives(f"l must be positive, got {self.l!r}")
        if not self.l > self.mu:
            raise InvalidPrimitives(
                f"l must exceed mu (got l={self.l!r}, mu={self.mu!r}), "
                "otherwise the perpetuity factor 1/(l - mu) is not positive and finite")
        for name in ("c", "kappa", "chi"):
            if getattr(self, name) < 0.0:
                raise InvalidPrimitives(f"{name} must be non-negative, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ModelConstants:
    """The seven system constants a1..a7; the discriminant root rho is derived.

    The exponent constants are coupled: a3 = a1 + 1, a2 = a4 + 1 and
    a3 + a4 = a1 + a2 = 2 rho, which defines the property rho.  Construction
    enforces those identities and that every constant and rho are finite, so
    a ModelConstants instance is always an internally consistent system.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    a7: float

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a5", "a6", "a7"):
            object.__setattr__(self, name, real(getattr(self, name), f"{name} must be finite",
                                                ok=math.isfinite))
        if not math.isfinite(self.rho):  # an infinite scale would pass every identity
            raise ValueError(f"rho = (a1 + a2) / 2 must be finite, got {self.rho!r}")
        if not (self.a1 > 0.0 and self.a2 > 0.0):
            raise ValueError("a1 and a2 must be positive (exponent signs of the value function)")
        scale = max(1.0, abs(self.rho))
        checks = (
            ("a3 - a1", self.a3 - self.a1 - 1.0),
            ("a2 - a4", self.a2 - self.a4 - 1.0),
            ("a3 + a4 - 2 rho", self.a3 + self.a4 - 2.0 * self.rho),
        )
        for label, gap in checks:
            if abs(gap) > IDENTITY_TOL * scale:
                raise ValueError(f"constants violate {label} identity by {gap:.3e}")

    @property
    def rho(self) -> float:
        return (self.a1 + self.a2) / 2.0


def derive_constants(p: EconomicPrimitives) -> ModelConstants:
    """Compute a1..a7 from the economic primitives.

    rho = sqrt((mu/sigma^2 - 1/2)^2 + 2 l / sigma^2); the four exponent
    constants are rho shifted by +/- mu/sigma^2 and +/- 1/2, a5 is the
    perpetuity factor 1/(l - mu), and a6, a7 are the capitalised cost plus
    the expansion cost and minus the closing cost respectively.  Primitives
    whose constants overflow, underflow to a zero divisor or come out
    non-finite or inconsistent raise InvalidPrimitives.
    """
    try:
        m = p.mu / p.sigma**2
        rho = math.sqrt((m - 0.5) ** 2 + 2.0 * p.l / p.sigma**2)
        return ModelConstants(
            a1=m - 0.5 + rho,
            a2=-m + 0.5 + rho,
            a3=m + 0.5 + rho,
            a4=-m - 0.5 + rho,
            a5=1.0 / (p.l - p.mu),
            a6=p.c / p.l + p.kappa,
            a7=p.c / p.l - p.chi,
        )
    except ArithmeticError as exc:
        raise InvalidPrimitives(f"constants cannot be derived from {p}: {exc}") from exc
    except ValueError as exc:
        raise InvalidPrimitives(f"derived constants are invalid for {p}: {exc}") from exc


@dataclass(frozen=True)
class ThresholdProblem:
    """One scenario: a consistent constant set and the starting point."""

    constants: ModelConstants
    x0: np.ndarray

    def __post_init__(self):
        x0 = point(self.x0)
        if x0.shape != (2,):
            raise ValueError("x0 must be a 2-vector (H0, L0)")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        object.__setattr__(self, "x0", x0)
        if not self.constants.a6 > self.constants.a7:
            raise ValueError(
                f"a6 must exceed a7 (got a6={self.constants.a6!r}, a7={self.constants.a7!r}); "
                "their gap is the total switching cost")


@dataclass(frozen=True)
class ThresholdSolution:
    """Solved scenario: thresholds, coefficients and residual diagnostics."""

    H: float
    L: float
    A: float
    B: float
    full_residual_norm: float
    outcome: SolveOutcome
    relabeled: bool = False

    @property
    def reduced_residual_norm(self) -> float:
        """The reduced system's final residual norm, ``outcome.final_residual_norm``."""
        return self.outcome.final_residual_norm


def reduced_residual(constants: ModelConstants, x) -> np.ndarray:
    """Two-variable residual whose zero is the threshold pair (H, L).

    It is ``KernelResidual(constants)(x)``: x is read by
    :func:`~fracroots.kernel.entries` and must have two entries, else
    ValueError.  Both components must be positive and finite.
    Non-positive components raise NonRealEvaluation (real powers with
    non-integer exponents leave the real line there), and so do infinite
    ones.  The pair x1 = x2 is an ordinary point.
    ``_kernels.reduced_residual_checked`` holds the formula and its
    refusals, and takes the divided differences from
    ``_kernels.elimination``, which back-substitution shares;
    :class:`KernelResidual`'s call is its one caller outside the fused loop.
    """
    return KernelResidual(constants)(x)


def make_residual(constants: ModelConstants):
    """Residual for the generic solver drivers: :class:`KernelResidual`'s call.

    A bound method has no ``fused_solve``, so the drivers run their own loop,
    and each of its calls reads the point with one ``tolist()``.
    """
    return KernelResidual(constants).__call__


class KernelResidual:
    """The reduced residual, whose untraced default driver solve runs the scalar kernel.

    Called, it is :func:`reduced_residual`: it reads x by
    :func:`~fracroots.kernel.entries`, refuses a point that is not a pair
    with ValueError and calls ``_kernels.reduced_residual_checked`` with the
    seven constants bound once, by ``functools.partial``, when the residual
    is built.  ``fixed_point_solve`` hands the plain pseudo-Newton iteration
    without a trace to :meth:`fused_solve`, which runs
    ``_kernels.solve_reduced`` on the same constants and gives the driver's
    status, iteration count, final iterate and norms bit for bit; a traced
    solve runs the driver loop over the same residual.
    """

    __slots__ = ("constants", "_checked")

    def __init__(self, constants: ModelConstants):
        c = self.constants = constants
        self._checked = functools.partial(_kernels.reduced_residual_checked,
                                          c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.a7)

    def __call__(self, x) -> np.ndarray:
        xs = entries(x)
        if len(xs) != 2:
            raise ValueError("x must be a 2-vector")
        return np.array(self._checked(*xs))

    def fused_solve(self, x0, settings: SolverSettings) -> SolveOutcome:
        if len(x0) != 2:
            # The fused loop takes two unknowns; the driver reports any other start.
            return fixed_point_solve(self.__call__, x0, settings)
        code, n, x1, x2, step_norm, res_norm = _kernels.solve_reduced(
            *self._checked.args, float(x0[0]), float(x0[1]), settings.alpha.value,
            settings.epsilon, settings.tol_step, settings.tol_residual, settings.max_iter,
            settings.divergence_bound, None, None, None)
        return SolveOutcome(status=STATUS_FROM_CODE[code], x_final=np.array([x1, x2]),
                            iterations=n, final_step_norm=step_norm,
                            final_residual_norm=res_norm)


def back_substitute(constants: ModelConstants, x) -> tuple:
    """Recover the value-function coefficients (A, B) from a threshold pair.

    The smooth-pasting equations are linear in (A, B); this is their closed
    form solution, in the reduced residual's variables.  With hi and lo the
    larger and the smaller component, lam = log(lo / hi) and
    e(a) = expm1(a * lam),

        A = a5 hi**(-a4) e(a3) / (a2 e(a3 + a4)),
        B = a5 lo**a3 e(a4) / (a1 e(a3 + a4)),

    so swapping the components leaves the result unchanged, and at x1 = x2
    each ratio e(a) / e(a3 + a4) takes its limit a / (a3 + a4).  The e(a)
    and that limit come from ``_kernels.elimination``, the reduced
    residual's elimination.  A non-positive or infinite component, a ratio
    that underflows to 0, a power overflow, a zero divisor in the
    elimination (where a1 * a2 underflows, say) and a non-finite
    coefficient raise NonRealEvaluation.
    """
    x = point(x)
    if x.shape != (2,):
        raise ValueError("x must be a 2-vector")
    x1, x2 = float(x[0]), float(x[1])
    if not (0.0 < x1 < math.inf and 0.0 < x2 < math.inf):
        raise NonRealEvaluation(f"thresholds must be positive and finite, got {(x1, x2)}")
    c = constants
    hi, lo, s = max(x1, x2), min(x1, x2), c.a3 + c.a4
    try:
        lam = math.log(lo / hi)
        e3, e4, es = _kernels.elimination(c.a1, c.a2, c.a3, c.a4, c.a1 * c.a2, s, lam)[:3]
        a = c.a5 * hi ** (-c.a4) * e3 / (c.a2 * es)
        b = c.a5 * lo ** c.a3 * e4 / (c.a1 * es)
    except (ArithmeticError, ValueError) as exc:
        raise NonRealEvaluation(f"back-substitution has no finite value at {(x1, x2)}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonRealEvaluation(f"back-substitution has no finite value at {(x1, x2)}")
    return a, b


def full_residual(constants: ModelConstants, H: float, L: float,
                  A: float, B: float) -> np.ndarray:
    """All four equations of the threshold system, evaluated verbatim.

    Components 0 and 2 are value matching at H and L, components 1 and 3 the
    smooth-pasting conditions.
    """
    what = "H, L, A and B must fit in a float"
    H, L, A, B = real(H, what), real(L, what), real(A, what), real(B, what)
    if H <= 0.0 or L <= 0.0:
        raise NonRealEvaluation(f"thresholds must be positive, got {(H, L)}")
    c = constants
    try:
        r = np.array([
            c.a5 * H + B * H ** (-c.a1) - A * H ** c.a2 - c.a6,
            -c.a1 * B * H ** (-c.a3) - c.a2 * A * H ** c.a4 + c.a5,
            c.a5 * L + B * L ** (-c.a1) - A * L ** c.a2 - c.a7,
            -c.a1 * B * L ** (-c.a3) - c.a2 * A * L ** c.a4 + c.a5,
        ])
    except OverflowError as exc:
        raise NonRealEvaluation("power overflow in full residual") from exc
    if not np.all(np.isfinite(r)):
        raise NonRealEvaluation("full residual evaluated to a non-finite value")
    return r


def full_residual_scale(constants: ModelConstants, H: float, L: float) -> float:
    """Normalisation used when judging the full residual relatively.

    H and L must be finite, so a NaN in either place, and an infinite
    threshold, whose scale would make every residual relatively 0, are
    refused with ValueError.
    """
    rule = "H and L must be finite"
    return 1.0 + abs(constants.a6) + abs(constants.a7) \
        + 2.0 * abs(constants.a5) * max(real(H, rule, ok=math.isfinite),
                                        real(L, rule, ok=math.isfinite))


def label_root(constants: ModelConstants, x) -> tuple:
    """A root (x1, x2) as ``(H, L, A, B, relabeled)``: the larger component is H.

    A and B are back-substituted from the pair as given, so a pair that
    :func:`back_substitute` refuses raises here.  ``relabeled`` tells
    whether the components had to swap, that is whether the expansion
    component came out below the closing one.  Every reported root, a
    scenario solve's or a sweep's, is labelled here.
    """
    A, B = back_substitute(constants, x)
    x1, x2 = entries(x)
    return max(x1, x2), min(x1, x2), A, B, x1 < x2


def solve_thresholds(problem: ThresholdProblem, settings: SolverSettings,
                     keep_trace: bool = False) -> ThresholdSolution:
    """Solve one scenario end to end.

    Runs the pseudo-Newton iteration on the reduced residual, labels the root
    and back-substitutes the value-function coefficients with
    :func:`label_root`, warns with ThresholdOrderingWarning when the labels
    swap, and attaches both residual norms.  A
    non-converged outcome raises ThresholdSolveFailed carrying the outcome;
    evaluation problems never escape as raw arithmetic errors.
    """
    # The generic driver, whose residual calls each read the iterate with one
    # tolist().  KernelResidual's fused loop gives the same outcome about 3.5x
    # faster, but the scenario benchmark's memory grows with its op rate
    # (ROADMAP item 1, PR B).
    out = fixed_point_solve(make_residual(problem.constants), problem.x0, settings,
                            keep_trace=keep_trace)
    if not out.converged:
        raise ThresholdSolveFailed(out)
    H, L, A, B, relabeled = label_root(problem.constants, out.x_final)
    if relabeled:
        warnings.warn("converged point has expansion threshold below closing "
                      "threshold; labels were swapped", ThresholdOrderingWarning)
    full = full_residual(problem.constants, H, L, A, B)
    return ThresholdSolution(H=H, L=L, A=A, B=B, full_residual_norm=norm2(full),
                             outcome=out, relabeled=relabeled)


def sweep_thresholds(problem: ThresholdProblem, grid=None,
                     settings: Optional[SolverSettings] = None) -> RootSet:
    """Order sweep over one scenario from its single initial condition.

    Every order runs through the scalar kernel (:class:`KernelResidual`).
    """
    return alpha_sweep(KernelResidual(problem.constants), problem.x0, grid, settings)


def classify_income(income: float, sol: ThresholdSolution) -> Decision:
    """Action implied by an observed income against the solved thresholds.

    The triggers are inclusive: income at H expands, income at L reduces or
    closes, anything strictly between continues as is.  An income that is
    not a positive number is refused with ValueError.
    """
    income = real(income, "income must be positive", ok=lambda v: v > 0.0)
    if income >= sol.H:
        return Decision.EXPAND
    if income <= sol.L:
        return Decision.REDUCE_OR_CLOSE
    return Decision.CONTINUE
