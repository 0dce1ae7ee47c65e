"""Kernel-level tests: the order, the multiplier's formula and its diagonal form.

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
from fracroots import (FractionalOrder, SolverSettings, default_alpha_grid,
                       fpn_update, p_matrix)
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


class TestUnitConstantDerivative:
    """``multiplier(beta, -0.0)`` is the bare order-beta derivative of the unit constant."""

    def test_half_order_at_one(self):
        # 1 / gamma(1/2) = 1 / sqrt(pi)
        assert multiplier(0.5, -0.0)(1.0) == pytest.approx(0.5641895835477563, rel=1e-12)

    def test_half_order_at_four(self):
        # 4**(-1/2) / sqrt(pi), frozen from the high-precision oracle
        assert multiplier(0.5, -0.0)(4.0) == pytest.approx(0.28209479177387814, rel=1e-12)

    def test_kernel_identity(self):
        # value * gamma(1-beta) * |x|**beta recovers sign(x)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 500:
            beta = float(rng.uniform(-2.0, 2.0))
            if abs(beta - round(beta)) < 1e-6:
                continue
            x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 5))
            value = multiplier(beta, -0.0)(x)
            recon = value * oracle_gamma(1.0 - beta) * abs(x) ** beta
            assert recon == pytest.approx(math.copysign(1.0, x), rel=1e-10)
            checked += 1

    def test_odd_in_x(self):
        for beta in (0.5, -0.75, 1.3, -1.9):
            entry = multiplier(beta, -0.0)
            for x in (0.3, 2.0, 1234.5):
                assert entry(-x) == -entry(x)

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 300:
            beta = float(rng.uniform(-2.0, 2.0))
            if abs(beta - round(beta)) < 1e-6:
                continue
            x = float(10.0 ** rng.uniform(-3, 5))
            assert multiplier(beta, -0.0)(x) == pytest.approx(
                oracle_kernel(beta, x), rel=1e-12)
            checked += 1


class TestGammaFactor:
    """The factor 1 / gamma(1 - beta) inside the multiplier, read at x = 1.

    At x = 1 the power is exactly 1, so ``multiplier(beta, -0.0)(1.0)`` is
    1 / gamma(1 - beta) itself.
    """

    def test_three_halves_order_at_one_is_negative(self):
        # gamma(-1/2) = -2 sqrt(pi)
        assert multiplier(1.5, -0.0)(1.0) == pytest.approx(1.0 / -3.544907701811032, rel=1e-12)

    def test_reciprocal_gamma_oracle_sweep(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 400:
            beta = float(rng.uniform(-2.0, 2.0))
            if abs(beta - round(beta)) < 1e-6:
                continue
            assert multiplier(beta, -0.0)(1.0) == pytest.approx(
                1.0 / oracle_gamma(1.0 - beta), rel=1e-12)
            checked += 1

    def test_recurrence_between_orders_one_apart(self):
        # gamma(1 - beta) = -beta * gamma(-beta), so entry(beta + 1) = -beta * entry(beta)
        rng = np.random.default_rng(7)
        for beta in rng.uniform(-1.9, 0.9, size=1000).tolist():
            if abs(beta - round(beta)) < 1e-6:
                continue
            assert multiplier(beta + 1.0, -0.0)(1.0) == pytest.approx(
                -beta * multiplier(beta, -0.0)(1.0), rel=1e-10)

    @pytest.mark.parametrize("x", [0.0, -0.0])
    def test_zero_component_takes_the_classical_order(self, x):
        # Order 1 differentiates the constant to 0, so only eps is left, exactly.
        for beta in GRID_ORDERS + [-1.9, 1.5, 1.9]:
            assert multiplier(beta, 1e-4)(x) == 1e-4
            assert multiplier(beta, -0.0)(x).hex() == "-0x0.0p+0"


#: Orders at which gamma(1 - beta) has a pole, exactly or within the guard band.
POLE_ORDERS = [1.0, 2.0, 1.0 - 1e-13, 2.0 - 5e-13]


class TestPoleOrdersNeverReachTheMultiplier:
    """Every entry that builds a multiplier refuses an order at a gamma pole."""

    @pytest.mark.parametrize("beta", POLE_ORDERS)
    def test_p_matrix_refuses(self, beta):
        with pytest.raises(ValueError, match="integer"):
            p_matrix(beta, np.array([1.0]), 1e-4)

    @pytest.mark.parametrize("beta", POLE_ORDERS)
    def test_fpn_update_refuses(self, beta):
        with pytest.raises(ValueError, match="integer"):
            fpn_update(beta, 1e-4)

    @pytest.mark.parametrize("beta", POLE_ORDERS)
    def test_solver_settings_refuse(self, beta):
        with pytest.raises(ValueError, match="integer"):
            SolverSettings(alpha=beta)


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
    def test_unit_derivative_matches_per_call_arithmetic(self, x, beta):
        assert multiplier(beta, -0.0)(x).hex() == per_entry_unit_deriv(beta, x).hex()

    @pytest.mark.parametrize("x, expected", [(1e308, "-0x0.0p+0"), (-1e308, "0x0.0p+0")])
    def test_underflowed_derivative_keeps_the_sign_of_zero(self, x, expected):
        # |x|**(-1.5) underflows to 0, and gamma(-0.5) < 0 flips its sign.
        assert multiplier(1.5, -0.0)(x).hex() == expected


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

    def test_reads_a_matrix_point_as_its_entries(self):
        # As fixed_point_solve reads such an x0: the 1-d array of its 4 entries.
        point = np.array([[1.0, -2.0], [0.0, 4.0]])
        got = p_matrix(FractionalOrder(0.5), point, 1e-4)
        assert got.shape == (4,)
        assert got.tobytes() == p_matrix(FractionalOrder(0.5), point.ravel(), 1e-4).tobytes()


class TestModuleBoundaries:
    """The generic layer holds the multiplier and imports nothing threshold-specific,
    and the fused loop's inlined residual is the residual's own statements."""

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

    def test_threshold_kernels_import_nothing_from_kernel(self):
        imported = [node.module or "" for node in ast.walk(self.tree("_kernels"))
                    if isinstance(node, ast.ImportFrom)]
        assert imported and "kernel" not in [name.rsplit(".", 1)[-1] for name in imported]

    def test_fused_loop_repeats_the_residual_statements(self):
        # The fused loop inlines the pair guard's powers and degeneracy test
        # and the checked residual's common case; neither copy may change
        # alone.  Compared: the degeneracy test and the assignments to these
        # names in the body of each ``try``, or of pair_powers, which has none.
        names = ("t1", "t2", "den", "p1", "p2", "g13", "g14", "f1", "f2")
        functions = {node.name: node for node in ast.walk(self.tree("_kernels"))
                     if isinstance(node, ast.FunctionDef)}

        def found_in(body):
            found = []
            for stmt in body:
                if isinstance(stmt, ast.If):
                    found.append(("if", ast.dump(stmt.test)))
                elif (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                      and isinstance(stmt.targets[0], ast.Name)
                      and stmt.targets[0].id in names):
                    found.append((stmt.targets[0].id, ast.dump(stmt.value)))
            return found

        def statements(function):
            return [entry for node in ast.walk(function) if isinstance(node, ast.Try)
                    for entry in found_in(node.body)]

        # pair_powers' positivity refusal is the test the fused loop returns
        # on before its ``try``; the degeneracy test is its second.
        positive, *guard = found_in(functions["pair_powers"].body)
        checked = statements(functions["reduced_residual_checked"])
        assert [name for name, _ in guard] == ["t1", "t2", "if"]
        assert positive in [("if", ast.dump(node.test))
                            for node in ast.walk(functions["solve_reduced"])
                            if isinstance(node, ast.If)]
        assert [name for name, _ in checked] == list(names[2:])
        assert statements(functions["solve_reduced"]) == guard + checked

    def test_only_the_threshold_kernels_name_the_degeneracy_tolerance(self):
        naming = sorted(
            path.stem for path in self.PACKAGE.glob("*.py")
            if any((isinstance(node, ast.Name) and node.id == "DEGENERATE_RTOL")
                   or (isinstance(node, ast.Attribute) and node.attr == "DEGENERATE_RTOL")
                   or (isinstance(node, ast.alias) and node.name == "DEGENERATE_RTOL")
                   for node in ast.walk(self.tree(path.stem))))
        assert naming == ["_kernels"]
