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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
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


def gamma(z: float) -> float:
    """Gamma function on the real line, guarding the non-positive integer poles.

    Raises PoleArgument when z is within 1e-12 of 0, -1, -2, ...; accuracy is
    pinned by the oracle tests against a high-precision reference.
    """
    z = float(z)
    if _nearest_integer_gap(z) <= INTEGER_GUARD and round(z) <= 0:
        raise PoleArgument(f"gamma pole at non-positive integer, got z={z!r}")
    return math.gamma(z)


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
    gamma(1.0 - beta)
    return _kernels.frac_unit_deriv(beta, x)


def checked_epsilon(epsilon) -> float:
    """The multiplier's regularisation constant as a float, refused unless finite and positive."""
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    return epsilon


def p_matrix(alpha, x, epsilon: float) -> np.ndarray:
    """Diagonal of the pseudo-Newton multiplier at the point x, as a 1-d array.

    Entry k is ``_kernels.p_entry(alpha, x[k], epsilon)``, which owns the
    zero rule: constant_frac_deriv(alpha, x[k]) + epsilon, or exactly
    epsilon where x[k] is zero.
    """
    alpha = FractionalOrder.coerce(alpha).value
    epsilon = checked_epsilon(epsilon)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a 1-d vector")
    return np.array([_kernels.p_entry(alpha, v, epsilon) for v in x.tolist()], dtype=float)
