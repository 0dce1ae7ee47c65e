"""Kernel-level tests: gamma, the order, the kernel and the diagonal multiplier.

mpmath at 50 digits is the independent accuracy oracle throughout; the
implementation never touches it.
"""

import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings, strategies as st

import fracroots
from fracroots import (DomainError, FractionalOrder, PoleArgument,
                       constant_frac_deriv, default_alpha_grid, gamma, p_matrix)
from fracroots.kernel import multiplier

mpmath.mp.dps = 50


def oracle_gamma(z: float) -> float:
    return float(mpmath.gamma(mpmath.mpf(z)))


def oracle_kernel(beta: float, x: float) -> float:
    """|x|**(-beta) / gamma(1-beta) in high precision, signed like x."""
    b = mpmath.mpf(beta)
    mag = abs(mpmath.mpf(x)) ** (-b) / mpmath.gamma(1 - b)
    return float(-mag if x < 0 else mag)


def per_entry_unit_deriv(beta, x):
    """The kernel's order-beta derivative of the unit constant, gamma taken per call."""
    try:
        core = abs(x) ** (-beta)
    except OverflowError:
        core = math.inf
    core = core / math.gamma(1.0 - beta)
    if x < 0.0:
        return -core
    return core


def per_entry_multiplier(alpha, x, eps):
    """One multiplier entry as computed entry by entry: eps at zero, else the derivative + eps."""
    if x == 0.0:
        return eps
    return per_entry_unit_deriv(alpha, x) + eps


GRID_ORDERS = [a.value for a in default_alpha_grid()]

#: Zero, the subnormal extremes, and two points whose power leaves the float
#: range under orders above about 1.03: for 1e-300 it overflows to inf, for
#: 1e308 it underflows to zero.  Each in both signs.
EDGE_POINTS = [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e308, -1e308]


class TestGamma:
    def test_one_is_exactly_one(self):
        assert gamma(1.0) == 1.0

    def test_half(self):
        assert gamma(0.5) == pytest.approx(1.772453850905516, rel=1e-12)

    def test_negative_half(self):
        assert gamma(-0.5) == pytest.approx(-3.544907701811032, rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, 1e-13, -1.0 + 5e-13, -2.9999999999997])
    def test_pole_arguments_raise(self, z):
        with pytest.raises(PoleArgument):
            gamma(z)

    def test_positive_integers_fine(self):
        assert gamma(2.0) == 1.0
        assert gamma(3.0) == 2.0

    def test_oracle_sweep(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 400:
            z = float(rng.uniform(-3.0, 4.0))
            if z < 0.5 and abs(z - round(z)) < 1e-6:
                continue
            assert gamma(z) == pytest.approx(oracle_gamma(z), rel=1e-12)
            checked += 1

    def test_recurrence_property(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(0.1, 2.9, size=1000)
        for zi in z:
            zi = float(zi)
            assert gamma(zi + 1.0) == pytest.approx(zi * gamma(zi), rel=1e-10)


class TestFractionalOrder:
    def test_accepts_interior_values(self):
        assert FractionalOrder(0.26131).value == 0.26131
        assert FractionalOrder(-1.95).value == -1.95

    @pytest.mark.parametrize("bad", [0.0, 1.0, -2.0, 2.0, 1.0 + 5e-13, 2.5, -2.5, float("nan")])
    def test_rejects_integers_and_out_of_range(self, bad):
        with pytest.raises(ValueError):
            FractionalOrder(bad)

    def test_coerce_passthrough(self):
        a = FractionalOrder(0.5)
        assert FractionalOrder.coerce(a) is a
        assert FractionalOrder.coerce(0.5) == a


class TestConstantFracDeriv:
    def test_classical_order_returns_zero(self):
        assert constant_frac_deriv(1.0, 0.0) == 0.0
        assert constant_frac_deriv(1.0, 12.3) == 0.0
        assert constant_frac_deriv(1.0, -4.0) == 0.0

    def test_half_order_at_one(self):
        # 1 / gamma(1/2) = 1 / sqrt(pi)
        assert constant_frac_deriv(0.5, 1.0) == pytest.approx(0.5641895835477563, rel=1e-12)

    def test_half_order_at_four(self):
        # 4**(-1/2) / sqrt(pi), frozen from the high-precision oracle
        assert constant_frac_deriv(0.5, 4.0) == pytest.approx(0.28209479177387814, rel=1e-12)

    def test_zero_point_rejected_for_fractional_order(self):
        with pytest.raises(DomainError):
            constant_frac_deriv(0.5, 0.0)

    def test_integer_order_two_hits_gamma_pole(self):
        with pytest.raises(PoleArgument):
            constant_frac_deriv(2.0, 1.0)

    def test_kernel_identity(self):
        # value * gamma(1-beta) * |x|**beta recovers sign(x)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 500:
            beta = float(rng.uniform(-2.0, 2.0))
            if abs(beta - round(beta)) < 1e-6:
                continue
            x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 5))
            value = constant_frac_deriv(beta, x)
            recon = value * oracle_gamma(1.0 - beta) * abs(x) ** beta
            assert recon == pytest.approx(math.copysign(1.0, x), rel=1e-10)
            checked += 1

    def test_odd_in_x(self):
        for beta in (0.5, -0.75, 1.3, -1.9):
            for x in (0.3, 2.0, 1234.5):
                assert constant_frac_deriv(beta, -x) == -constant_frac_deriv(beta, x)

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 300:
            beta = float(rng.uniform(-2.0, 2.0))
            if abs(beta - round(beta)) < 1e-6:
                continue
            x = float(10.0 ** rng.uniform(-3, 5))
            assert constant_frac_deriv(beta, x) == pytest.approx(
                oracle_kernel(beta, x), rel=1e-12)
            checked += 1


class TestMultiplierBitwise:
    """The once-per-solve multiplier against the per-entry arithmetic it replaced.

    Compared with float.hex, so the sign of zero counts.
    """

    @given(x=st.one_of(st.sampled_from(EDGE_POINTS),
                       st.floats(allow_nan=False, allow_infinity=False)),
           eps=st.one_of(st.just(1e-4), st.floats(min_value=5e-324, max_value=1e300)))
    @hypothesis_settings(max_examples=200, deadline=None)
    @example(x=-1e-300, eps=1e-4)
    @example(x=1e308, eps=5e-324)
    def test_entry_matches_per_entry_arithmetic(self, x, eps):
        for alpha in GRID_ORDERS:
            expected = per_entry_multiplier(alpha, x, eps).hex()
            assert multiplier(alpha, eps)(x).hex() == expected, alpha
            assert p_matrix(alpha, np.array([x]), eps)[0].hex() == expected, alpha

    @given(x=st.one_of(st.sampled_from(EDGE_POINTS[1:]),
                       st.floats(allow_nan=False).filter(lambda v: v != 0.0)),
           beta=st.one_of(st.sampled_from(GRID_ORDERS),
                          st.floats(min_value=-2.0, max_value=2.0).filter(
                              lambda b: abs(b - round(b)) > 1e-9)))
    @hypothesis_settings(max_examples=300, deadline=None)
    def test_constant_frac_deriv_matches_per_call_arithmetic(self, x, beta):
        assert constant_frac_deriv(beta, x).hex() == per_entry_unit_deriv(beta, x).hex()

    @pytest.mark.parametrize("x, expected", [(1e308, "-0x0.0p+0"), (-1e308, "0x0.0p+0")])
    def test_underflowed_derivative_keeps_the_sign_of_zero(self, x, expected):
        # |x|**(-1.5) underflows to 0, and gamma(-0.5) < 0 flips its sign.
        assert constant_frac_deriv(1.5, x).hex() == expected


class TestPMatrix:
    def test_mixed_point(self):
        diag = p_matrix(FractionalOrder(0.5), np.array([1.0, 0.0]), 1e-4)
        assert diag[0] == pytest.approx(0.5642895835477563, rel=1e-12)
        assert diag[1] == 1e-4

    def test_all_zero_point_collapses_to_epsilon(self):
        diag = p_matrix(FractionalOrder(0.5), np.array([0.0, 0.0]), 1e-4)
        assert diag.tolist() == [1e-4, 1e-4]

    def test_first_step_multipliers_of_reference_row(self):
        # alpha and x0 of the first bundled scenario, against the oracle
        alpha = 0.26131
        diag = p_matrix(FractionalOrder(alpha), np.array([15.0, 20.0]), 1e-4)
        for entry, x in zip(diag, (15.0, 20.0)):
            assert entry == pytest.approx(oracle_kernel(alpha, x) + 1e-4, rel=1e-12)

    def test_zero_rule_is_exact_for_any_alpha(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            alpha = float(rng.uniform(-1.99, 1.99))
            if abs(alpha - round(alpha)) < 1e-3:
                continue
            eps = float(10.0 ** rng.uniform(-8, -2))
            diag = p_matrix(FractionalOrder(alpha), np.array([0.0, 3.0, 0.0]), eps)
            assert diag[0] == eps
            assert diag[2] == eps

    def test_sign_symmetry_of_magnitudes(self):
        # the kernel part flips sign with x, so entries mirror around epsilon
        eps = 1e-4
        x = np.array([0.7, 12.0, 3000.0])
        plus = p_matrix(FractionalOrder(0.6), x, eps)
        minus = p_matrix(FractionalOrder(0.6), -x, eps)
        assert np.allclose(plus - eps, -(minus - eps), rtol=0, atol=0)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            p_matrix(FractionalOrder(0.5), np.array([1.0]), 0.0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_epsilon_must_be_finite(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            p_matrix(FractionalOrder(0.5), np.array([1.0]), eps)

    def test_returns_the_diagonal_as_a_float_vector(self):
        diag = p_matrix(FractionalOrder(0.5), np.array([1.0, 2.0, 3.0]), 1e-4)
        assert isinstance(diag, np.ndarray)
        assert (diag.dtype, diag.shape) == (np.dtype(float), (3,))


class TestModuleBoundaries:
    """The generic layer holds the multiplier and imports nothing threshold-specific."""

    PACKAGE = Path(fracroots.__file__).parent

    def tree(self, module):
        return ast.parse((self.PACKAGE / f"{module}.py").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("module", ["kernel", "solver"])
    def test_generic_modules_do_not_import_the_threshold_kernels(self, module):
        imported = []
        for node in ast.walk(self.tree(module)):
            if isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
                imported += [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
        assert imported and not [name for name in imported if "_kernels" in name]

    def test_multiplier_is_defined_only_in_kernel(self):
        defining = sorted(
            path.stem for path in self.PACKAGE.glob("*.py")
            if any(isinstance(node, ast.FunctionDef) and node.name == "multiplier"
                   for node in ast.walk(self.tree(path.stem))))
        assert defining == ["kernel"]
