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
:func:`multiplier` holds that formula; the generic driver's step and
:func:`p_matrix` evaluate it.  The threshold model's fused loop,
``_kernels.solve_reduced``, inlines its positive branch for speed, and the
kernel agreement tests hold that copy to the driver's entries bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Width of the numerical guard band around integers.
INTEGER_GUARD = 1e-12

#: A fractional order lies in [-ORDER_BOUND, ORDER_BOUND].
ORDER_BOUND = 2.0


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
        if abs(v - round(v)) <= INTEGER_GUARD:
            raise ValueError(f"fractional order must not be an integer, got {v!r}")

    @classmethod
    def coerce(cls, value) -> "FractionalOrder":
        if isinstance(value, FractionalOrder):
            return value
        return cls(float(value))


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
    ``_kernels.solve_reduced``, whose iterates are always positive, repeats
    the positive branch's operations in this order instead of calling
    ``entry``, so its entries keep these bits.
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


def checked_epsilon(epsilon) -> float:
    """The multiplier's regularisation constant as a float, refused unless finite and positive."""
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    return epsilon


def p_matrix(alpha, x, epsilon: float) -> np.ndarray:
    """Diagonal of the pseudo-Newton multiplier at the point x, as a 1-d array.

    Entry k is ``multiplier(alpha, epsilon)(x[k])``, which owns the
    zero rule: the order-alpha derivative of the unit constant at x[k] plus
    epsilon, or exactly epsilon where x[k] is zero.  x is read as
    ``solver.fixed_point_solve`` reads x0, as
    ``np.asarray(x, dtype=float).ravel()``: a list, a column or a matrix
    gives the diagonal at the 1-d array of its entries.
    """
    alpha = FractionalOrder.coerce(alpha).value
    epsilon = checked_epsilon(epsilon)
    x = np.asarray(x, dtype=float).ravel()
    entry = multiplier(alpha, epsilon)
    return np.array([entry(v) for v in x.tolist()], dtype=float)
