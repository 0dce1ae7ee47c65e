"""Fractional-derivative kernel and the diagonal pseudo-Newton multiplier.

The iteration exploits the fact that fractional derivatives of constants do
not vanish: under the Riemann-Liouville derivative with base point 0, the
order-beta derivative of the unit constant at x > 0 is

    x**(-beta) / gamma(1 - beta),

which is nonzero for every non-integer beta.  For negative arguments the
kernel is extended with the sign of x (an odd continuation), which keeps the
iteration real while preserving the update map's symmetry; zero components
switch to the classical order 1, where the derivative of a constant is 0 and
the multiplier entry collapses to the regularisation constant eps.
:func:`multiplier` alone holds that formula; the generic driver's step, the
threshold model's fused loop, :func:`p_matrix` and
:func:`constant_frac_deriv` all evaluate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleArgument

#: Width of the numerical guard band around integers.
INTEGER_GUARD = 1e-12

#: A fractional order lies in [-ORDER_BOUND, ORDER_BOUND].
ORDER_BOUND = 2.0


def _nearest_integer_gap(value: float) -> float:
    return abs(value - round(value))


@dataclass(frozen=True)
class FractionalOrder:
    """A fractional differentiation order: real, in [-2, 2], not an integer.

    The order is the method's single tuning parameter; different orders steer
    the iteration into different basins, which is what makes multi-root
    sweeps from one initial condition possible.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        object.__setattr__(self, "value", v)
        if not math.isfinite(v) or not -ORDER_BOUND <= v <= ORDER_BOUND:
            raise ValueError(f"fractional order must lie in [-{ORDER_BOUND:g}, {ORDER_BOUND:g}], got {v!r}")
        if _nearest_integer_gap(v) <= INTEGER_GUARD:
            raise ValueError(f"fractional order must not be an integer, got {v!r}")

    @classmethod
    def coerce(cls, value) -> "FractionalOrder":
        if isinstance(value, FractionalOrder):
            return value
        return cls(float(value))


def _refuse_pole(z: float) -> None:
    """Raise PoleArgument when gamma(z) sits on or numerically at a pole."""
    if _nearest_integer_gap(z) <= INTEGER_GUARD and round(z) <= 0:
        raise PoleArgument(f"gamma pole at non-positive integer, got z={z!r}")


def gamma(z: float) -> float:
    """Gamma function on the real line, guarding the non-positive integer poles.

    Raises PoleArgument when z is within 1e-12 of 0, -1, -2, ...; accuracy is
    pinned by the oracle tests against a high-precision reference.
    """
    z = float(z)
    _refuse_pole(z)
    return math.gamma(z)


def multiplier(alpha, eps):
    """Entry rule of the pseudo-Newton multiplier at order alpha, as ``entry(x)``.

    ``entry(x)`` is sign(x) * |x|**(-alpha) / gamma(1 - alpha) + eps, the
    order-alpha derivative of the unit constant plus the regularisation; the
    sign of x is carried through so the update map stays odd in x and
    negative iterates keep a real, sign-aware multiplier.  Zero components
    take the classical order-1 branch, so the entry collapses to eps exactly.
    A power that overflows gives an infinite core.

    alpha is fixed for a whole solve (a parallel-chord iteration), so -alpha
    and gamma(1 - alpha) are computed once, here.  The core is divided by the
    gamma value: multiplying by its reciprocal would change the last bit of
    some entries.  With eps = -0.0, which adds nothing to any float (the sign
    of zero included), ``entry`` is the bare derivative of the unit constant.
    """
    power = -alpha
    g = math.gamma(1.0 - alpha)

    def entry(x):
        if x == 0.0:
            return eps
        try:
            core = abs(x) ** power
        except OverflowError:
            core = math.inf
        core = core / g
        if x < 0.0:
            return -core + eps
        return core + eps

    return entry


def constant_frac_deriv(beta: float, x: float) -> float:
    """Order-beta derivative of the unit constant, evaluated at x.

    beta = 1 returns exactly 0 (classical derivative of a constant) without
    touching the gamma pole at 0.  Non-integer beta returns
    sign(x) * |x|**(-beta) / gamma(1 - beta) and rejects x = 0, where the
    power is singular.
    """
    beta = float(beta)
    x = float(x)
    if beta == 1.0:
        return 0.0
    if x == 0.0:
        raise DomainError("kernel of non-classical order is singular at x = 0")
    # Fails fast (PoleArgument) for the remaining integer orders beta >= 2.
    _refuse_pole(1.0 - beta)
    # The multiplier's entry with eps = -0.0, which adds nothing (see multiplier).
    return multiplier(beta, -0.0)(x)


def checked_epsilon(epsilon) -> float:
    """The multiplier's regularisation constant as a float, refused unless finite and positive."""
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    return epsilon


def p_matrix(alpha, x, epsilon: float) -> np.ndarray:
    """Diagonal of the pseudo-Newton multiplier at the point x, as a 1-d array.

    Entry k is ``multiplier(alpha, epsilon)(x[k])``, which owns the
    zero rule: constant_frac_deriv(alpha, x[k]) + epsilon, or exactly
    epsilon where x[k] is zero.
    """
    alpha = FractionalOrder.coerce(alpha).value
    epsilon = checked_epsilon(epsilon)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a 1-d vector")
    entry = multiplier(alpha, epsilon)
    return np.array([entry(v) for v in x.tolist()], dtype=float)
