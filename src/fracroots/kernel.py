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
:func:`multiplier` holds that formula, and ``solver.fpn_update`` and
:func:`p_matrix` evaluate it.  Two loops repeat its statements instead of
calling it: the generic driver ``solver.fixed_point_solve`` writes the whole
entry out in its step, and an AST test holds that copy to ``entry``
statement for statement; the threshold model's fused loop,
``_kernels.solve_reduced``, inlines its positive branch, and the kernel
agreement tests hold that copy to the driver's entries bit for bit.

Both loops also share :func:`square_cut`, the rule by which they test a norm
against a limit without taking its square root.

Every number and every point that comes from outside the package is read by
one of two readers here, :func:`real` and :func:`point`.  They are the one
owner of the rules by which such a value is refused with the reader's
documented error, never a raw TypeError or OverflowError: a non-number, a
complex value and an integer beyond the float range.  :func:`real` also
refuses a float that breaks the rule its caller states, so each reader of
a number states its rule once, in its call; :func:`point` also refuses a
None entry, which numpy would read as NaN, and a masked entry, which numpy
would read as the value the mask hides.  :func:`entries` gives a
point's entries as a float list, and reads a 1-d float64 array with one
``tolist()``.  It also reads every residual's result: ``solver._evaluate``
calls it, and the two hot loops that read a vector on every iteration,
``solver.fixed_point_solve`` (the result ``f(x)``) and
``dixit_pindyck.KernelResidual.__call__`` (the point), write its statements
out; an AST test holds both copies to it.
"""

from __future__ import annotations

import functools
import math
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

#: Width of the numerical guard band around integers.
INTEGER_GUARD = 1e-12

#: A fractional order lies in [-ORDER_BOUND, ORDER_BOUND].
ORDER_BOUND = 2.0

#: The dtype of a point, or of a residual result, that is read with one
#: ``tolist()``: native float64.
FLOAT64 = np.dtype(float)


def real(value, rule: str, error=ValueError, ok=None) -> float:
    """A number from outside as ``float(value)``, refused unless it keeps ``rule``.

    This is the one place that decides whether a number from outside is
    refused.  ``rule`` states what the reader takes, and ``error`` is the
    reader's documented error type, or a callable that takes the message and
    returns one.  Each refusal is ``error(f"{rule}, got ...")``:

    * a non-number, which ``float`` refuses with TypeError or ValueError
      (such as None, ``'abc'``, ``[0.5]`` or a Python complex), got ``value``;
    * a numpy complex, whose real part ``float`` would keep with only a
      ComplexWarning, got ``value``;
    * an integer beyond the float range, "got an integer too large for a float";
    * a float ``v`` for which ``ok(v)`` is false, got ``v``.
    """
    if isinstance(value, np.complexfloating):
        raise error(f"{rule}, got {value!r}")
    try:
        v = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise error(f"{rule}, got an integer too large for a float") from exc
    except (TypeError, ValueError) as exc:  # not a number
        raise error(f"{rule}, got {value!r}") from exc
    if ok is not None and not ok(v):
        raise error(f"{rule}, got {v!r}")
    return v


def point(x) -> np.ndarray:
    """A point from outside as ``np.asarray(x, dtype=float).ravel()``.

    A list, a column or a matrix reads as the 1-d array of its entries, and
    (for one variable) a float as an array of one entry.  An entry that is
    not a real number is refused with ValueError("a point's entries must be
    floats, got ..."): a non-number that ``np.asarray`` cannot convert (such
    as ``object()``, ``'abc'`` or a list in a ragged point), a complex entry
    (whose real part ``np.asarray`` would keep with only a ComplexWarning),
    an integer beyond the float range, None (which ``np.asarray`` would read
    as NaN) and a masked entry (which ``np.asarray`` would read as the value
    under the mask).  A masked array with no masked entry reads as its data.
    The complex search runs before the conversion, on any point that is not
    a native float64 ndarray, and the None and mask searches after it, only
    on a point that ``np.asarray`` had to convert, the None search only on
    one that came out with a NaN; so a float64 array, which ``np.asarray``
    returns as it is, skips every search.  A point with no entries is not
    refused here: ``solver._point`` refuses it for the functions that need
    one.
    """
    try:
        if (type(x) is not np.ndarray or x.dtype is not FLOAT64) and np.iscomplexobj(x):
            raise TypeError("a complex entry")  # refused with the non-numbers below
        a = np.asarray(x, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError("a point's entries must be floats, "
                         "got an integer too large for a float") from exc
    except (TypeError, ValueError) as exc:  # an entry that is not a real number
        raise ValueError(f"a point's entries must be floats, got {reprlib.repr(x)}") from exc
    if a is not x:
        if np.isnan(a).any() and any(
                v is None for v in np.asarray(x, dtype=object).ravel().tolist()):
            raise ValueError("a point's entries must be floats, got None")
        # Only an ndarray subclass can be a masked array, so numpy.ma, which
        # numpy imports only on first use, is not touched for anything else.
        if type(x) is not np.ndarray and isinstance(x, np.ndarray) and np.ma.is_masked(x):
            raise ValueError("a point's entries must be floats, got a masked entry")
    return a.ravel()


def entries(x) -> list:
    """A point's entries as a float list: ``point(x).tolist()``.

    An ``x`` that is exactly an ``np.ndarray`` (no subclass), 1-d and of
    native float64 dtype (FLOAT64) is read as ``x.tolist()``: for such an
    array :func:`point` returns ``x``'s own entries, so both reads give the
    same doubles, and this one skips two numpy calls.  Any other ``x`` (a
    list, a column, another dtype, a byte-swapped or masked array, a
    subclass whose ``tolist`` may differ) is read by :func:`point`, with its
    refusals.  ``solver.fixed_point_solve`` and
    ``dixit_pindyck.KernelResidual.__call__`` write these statements out; a
    test holds both copies to them.
    """
    if type(x) is np.ndarray and x.dtype is FLOAT64 and x.ndim == 1:
        xs = x.tolist()
    else:
        xs = point(x).tolist()
    return xs


@dataclass(frozen=True)
class FractionalOrder:
    """A fractional differentiation order: real, in [-2, 2], not an integer.

    The order is the method's single tuning parameter; different orders steer
    the iteration into different basins, which is what makes multi-root
    sweeps from one initial condition possible.
    """

    value: float

    def __post_init__(self):
        v = real(self.value, f"fractional order must lie in [-{ORDER_BOUND:g}, {ORDER_BOUND:g}]",
                 ok=lambda v: -ORDER_BOUND <= v <= ORDER_BOUND)
        object.__setattr__(self, "value", v)
        if abs(v - round(v)) <= INTEGER_GUARD:
            raise ValueError(f"fractional order must not be an integer, got {v!r}")

    @classmethod
    def coerce(cls, value) -> "FractionalOrder":
        if isinstance(value, FractionalOrder):
            return value
        return cls(value)


def multiplier(alpha, eps):
    """Entry rule of the pseudo-Newton multiplier at order alpha, as ``entry(x)``.

    ``entry(x)`` is sign(x) * |x|**(-alpha) / gamma(1 - alpha) + eps, the
    order-alpha derivative of the unit constant plus the regularisation; the
    sign of x is carried through so the update map stays odd in x and
    negative iterates keep a real, sign-aware multiplier.  Zero components
    take the classical order-1 branch, so the entry collapses to eps exactly.
    A power that overflows gives an infinite core.

    alpha is fixed for a whole solve (a parallel-chord iteration), so -alpha
    and gamma(1 - alpha) are computed once, here.  The core is
    ``math.pow(|x|, -alpha)``: for a positive base both it and ``|x| ** -alpha``
    make one C ``pow`` call, so they give the same bits, raise OverflowError on
    the same overflow and give 0.0 on the same underflow, and ``math.pow``
    skips the generic operator dispatch.  The core is divided by the
    gamma value: multiplying by its reciprocal would change the last bit of
    some entries.  With eps = -0.0, which adds nothing to any float (the sign
    of zero included), ``entry`` is the bare derivative of the unit constant.
    ``entry`` has one exit, so that its statements can be written out in a
    loop as they stand: ``solver.fixed_point_solve`` repeats them, with x
    renamed v, from the constants it computes once per solve by the
    statements here, and ``_kernels.solve_reduced``, whose iterates are
    always positive, repeats the positive branch's operations in this order.
    Neither calls ``entry``, and both keep its bits.
    """
    power = -alpha
    g = math.gamma(1.0 - alpha)
    pow_ = math.pow

    def entry(x):
        if x == 0.0:
            p = eps
        else:
            try:
                core = pow_(abs(x), power)
            except OverflowError:
                core = math.inf
            core = core / g
            if x < 0.0:
                p = -core + eps
            else:
                p = core + eps
        return p

    return entry


def checked_epsilon(epsilon) -> float:
    """The multiplier's regularisation constant as a float, refused unless finite and positive."""
    return real(epsilon, "epsilon must be finite and positive", ok=lambda e: 0.0 < e < math.inf)


@functools.lru_cache(maxsize=16)
def square_cut(limit: float) -> float:
    """The cut of a norm limit: the largest float s with ``sqrt(s) <= limit``.

    ``math.sqrt`` is correctly rounded, so it is monotone, and for every sum
    of squares s (NaN included) ``s <= square_cut(limit)`` holds exactly when
    ``sqrt(s) <= limit`` does, and ``s > square_cut(limit)`` exactly when
    ``sqrt(s) > limit``.  So a loop can test a norm's limit on the norm's sum
    of squares, and take the root only of a norm that it reports.  The cut
    is ``limit * limit`` stepped to the last float whose root passes, which
    keeps it exact through the subnormal range; ``limit * limit`` alone is
    not exact (the cut of 1e-5 is 1.0000000000000003e-10, one float above
    ``1e-5 * 1e-5``).  An infinite limit has an infinite cut, and a
    finite limit whose square overflows has the cut DBL_MAX.  A negative
    limit, which no root meets, has the cut -inf, and a NaN limit the cut
    NaN.  Each cut is computed once per recent limit.
    """
    limit = float(limit)
    if not limit >= 0.0:
        return -math.inf if limit < 0.0 else math.nan
    cut = min(limit * limit, sys.float_info.max)
    while math.sqrt(cut) > limit:
        cut = math.nextafter(cut, 0.0)
    while cut < math.inf and math.sqrt(math.nextafter(cut, math.inf)) <= limit:
        cut = math.nextafter(cut, math.inf)
    return cut


def p_matrix(alpha, x, epsilon: float) -> np.ndarray:
    """Diagonal of the pseudo-Newton multiplier at the point x, as a 1-d array.

    Entry k is ``multiplier(alpha, epsilon)(x[k])``, which owns the
    zero rule: the order-alpha derivative of the unit constant at x[k] plus
    epsilon, or exactly epsilon where x[k] is zero.  x is read by
    :func:`point`, as ``solver.fixed_point_solve`` reads x0: a list, a
    column or a matrix gives the diagonal at the 1-d array of its entries,
    and a point with no entries an empty diagonal.
    """
    alpha = FractionalOrder.coerce(alpha).value
    epsilon = checked_epsilon(epsilon)
    x = point(x)
    entry = multiplier(alpha, epsilon)
    return np.array([entry(v) for v in x.tolist()], dtype=float)
