"""Kernel-level tests: the order, the multiplier's formula and its diagonal form,
and the cut by which both loops test a norm limit.

mpmath at 50 digits is the independent accuracy oracle of the multiplier,
and exact fractions that of the cut; the implementation touches neither.
"""

import ast
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings, strategies as st

import fracroots
from fracroots import _kernels
from fracroots import (FractionalOrder, ModelConstants, SolverSettings, default_alpha_grid,
                       fixed_point_solve, fpn_update, p_matrix)
from fracroots.kernel import multiplier, square_cut

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

DBL_MAX = sys.float_info.max

#: Zero; the subnormal extremes; two points whose power leaves the float
#: range under orders above about 1.03: for 1e-300 it overflows to inf, for
#: 1e308 it underflows to zero; 1.0, whose power is exactly 1; and the ends
#: of the normal range, the smallest normal float and DBL_MAX.  Each
#: nonzero point in both signs.
EDGE_POINTS = [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e308, -1e308, 1.0, -1.0,
               sys.float_info.min, -sys.float_info.min, DBL_MAX, -DBL_MAX]


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
                       st.floats(allow_nan=False, allow_infinity=True).filter(
                           lambda v: v != 0.0)),
           beta=st.one_of(st.sampled_from(GRID_ORDERS),
                          st.floats(min_value=-2.0, max_value=2.0).filter(
                              lambda b: abs(b - round(b)) > 1e-9)))
    @hypothesis_settings(max_examples=300, deadline=None)
    @example(x=math.inf, beta=0.26131)
    @example(x=-math.inf, beta=-1.95)
    def test_unit_derivative_matches_per_call_arithmetic(self, x, beta):
        assert multiplier(beta, -0.0)(x).hex() == per_entry_unit_deriv(beta, x).hex()

    @pytest.mark.parametrize("x, expected", [(1e308, "-0x0.0p+0"), (-1e308, "0x0.0p+0")])
    def test_underflowed_derivative_keeps_the_sign_of_zero(self, x, expected):
        # |x|**(-1.5) underflows to 0, and gamma(-0.5) < 0 flips its sign.
        assert multiplier(1.5, -0.0)(x).hex() == expected

    @pytest.mark.parametrize("r", [1.0, -1e-3])
    @pytest.mark.parametrize("alpha", [-1.95, -0.5, 0.26131, 1.5, 1.95])
    def test_driver_step_is_the_entry_at_the_edges(self, alpha, r):
        # fixed_point_solve writes the entry out in its loop: one step from
        # each edge point gives the bits of fpn_update's closure, which calls it.
        step = fpn_update(alpha, 1e-4)
        settings = SolverSettings(alpha=alpha, max_iter=1)
        entries = set()
        for v in EDGE_POINTS:
            out = fixed_point_solve(lambda x: np.array([r]), [v], settings)
            assert out.iterations == 1
            assert out.x_final.tobytes() == np.array(step([v], [r])).tobytes(), v
            entries.add(multiplier(alpha, 1e-4)(v))
        # The zero's eps branch is taken, and at the orders whose magnitude
        # exceeds about 1.03 a power that overflows to inf (of 1e-300 for a
        # positive order, of 1e308 and DBL_MAX for a negative one).
        assert 1e-4 in entries
        assert (math.inf in entries) == (abs(alpha) > 1.0)


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


def cut_by_fractions(limit: float) -> float:
    """The largest float whose square root rounds to at most limit, in exact arithmetic.

    A root rounds to at most a finite limit exactly when its exact value is
    below the midpoint of limit and the next float up (the root of a float is
    never that midpoint), so the cut is the largest float below the square of
    that midpoint.
    """
    if limit == math.inf:
        return math.inf
    bound = (Fraction(limit) + Fraction(math.ulp(limit)) / 2) ** 2
    if bound > DBL_MAX:
        return DBL_MAX
    cut = float(bound)
    while Fraction(cut) >= bound:
        cut = math.nextafter(cut, 0.0)
    while Fraction(math.nextafter(cut, math.inf)) < bound:
        cut = math.nextafter(cut, math.inf)
    return cut


def floats_around(x: float, k: int) -> list:
    """x and the k floats on each side of it, within [0, inf]."""
    around = [x]
    down = up = x
    for _ in range(k):
        down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
        around += [down, up]
    return sorted(set(around))


#: Limits where the square turns subnormal (the root of the smallest normal
#: float) and where it overflows (the root of DBL_MAX), a float or two apart.
EDGE_LIMITS = (floats_around(math.sqrt(sys.float_info.min), 2)
               + floats_around(math.sqrt(DBL_MAX), 2))
CUT_LIMITS = st.one_of(st.floats(min_value=5e-324, max_value=DBL_MAX),
                       st.sampled_from(EDGE_LIMITS + [math.inf, 1e-160, 1e200]))


class TestSquareCut:
    """A norm limit tested on the sum of squares decides as the norm would."""

    @given(limit=CUT_LIMITS)
    @hypothesis_settings(max_examples=1000, deadline=None)
    # 1.1e-155 squared rounds up to a subnormal whose root exceeds the
    # limit, so the cut steps down from limit * limit.
    @example(limit=1.1e-155)
    def test_cut_is_the_last_float_whose_root_passes(self, limit):
        cut = square_cut(limit)
        assert cut.hex() == cut_by_fractions(limit).hex()
        assert math.sqrt(cut) <= limit
        if cut < math.inf:
            assert math.sqrt(math.nextafter(cut, math.inf)) > limit

    @given(limit=CUT_LIMITS)
    @hypothesis_settings(max_examples=500, deadline=None)
    def test_sums_near_the_cut_decide_as_their_roots(self, limit):
        cut = square_cut(limit)
        square = min(limit * limit, DBL_MAX)
        sums = floats_around(cut, 3) + floats_around(square, 3) + [0.0, math.inf, math.nan]
        for s in sums:
            assert (s <= cut) == (math.sqrt(s) <= limit), s
            assert (s > cut) == (math.sqrt(s) > limit), s

    def test_the_naive_square_is_not_the_cut(self):
        assert square_cut(1e-5) == 1.0000000000000003e-10
        assert 1e-5 * 1e-5 == 1.0000000000000002e-10
        assert math.sqrt(1.0000000000000003e-10) <= 1e-5

    @pytest.mark.parametrize("limit, cut", [
        (math.inf, math.inf), (1e200, DBL_MAX), (1e-160, 1e-320), (0.0, 0.0), (5e-324, 0.0),
        (-0.0, 0.0), (-1.0, -math.inf), (-math.inf, -math.inf)])
    def test_limits_at_the_edges_of_the_range(self, limit, cut):
        assert square_cut(limit) == cut
        for s in (0.0, 5e-324, 1e-320, 1.0, DBL_MAX, math.inf, math.nan):
            assert (s <= cut) == (math.sqrt(s) <= limit)
            assert (s > cut) == (math.sqrt(s) > limit)

    def test_a_nan_limit_passes_no_sum(self):
        cut = square_cut(math.nan)
        for s in (0.0, 1.0, math.inf, math.nan):
            assert not s <= cut and not s > cut

    def test_cuts_are_cached(self):
        square_cut(2.5e-7)
        hits = square_cut.cache_info().hits
        assert square_cut(2.5e-7) == square_cut(2.5e-7)
        assert square_cut.cache_info().hits == hits + 2


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

    def test_threshold_kernels_import_only_the_cut_from_kernel(self):
        # The fused loop inlines the multiplier's entry; it shares only the
        # limit rule with the driver.
        imported = {(node.module or "").rsplit(".", 1)[-1]: [a.name for a in node.names]
                    for node in ast.walk(self.tree("_kernels"))
                    if isinstance(node, ast.ImportFrom)}
        assert imported["kernel"] == ["square_cut"]
        assert not [node for node in ast.walk(self.tree("_kernels"))
                    if isinstance(node, ast.Import) and "kernel" in
                    [a.name.rsplit(".", 1)[-1] for a in node.names]]

    def test_the_elimination_is_written_only_in_its_core_and_the_fused_loop(self):
        # expm1 marks the elimination: the checked residual and
        # back-substitution call the core, and the fused loop keeps a copy.
        defining, calling = [], set()
        for path in self.PACKAGE.glob("*.py"):
            tree = self.tree(path.stem)
            owner = {}
            # Breadth first, so a nested function's nodes end up its own.
            for function in ast.walk(tree):
                if isinstance(function, ast.FunctionDef):
                    owner.update(dict.fromkeys(ast.walk(function), function.name))
                    if function.name == "elimination":
                        defining.append(path.stem)
            calling |= {(path.stem, owner.get(node, "<module>")) for node in ast.walk(tree)
                        if isinstance(node, ast.Call) and "expm1" in
                        (getattr(node.func, "id", None), getattr(node.func, "attr", None))}
        assert defining == ["_kernels"]
        assert calling == {("_kernels", "elimination"), ("_kernels", "solve_reduced")}

    def test_fused_loop_repeats_the_residual_statements(self):
        # The fused loop inlines the checked residual's ``try`` whole, with
        # the elimination core's statements in place of its call, the
        # diagonal branch included; no copy may change alone.
        functions = {node.name: node for node in ast.walk(self.tree("_kernels"))
                     if isinstance(node, ast.FunctionDef)}

        def residual_try(function):
            # The ``try`` that takes the log: the multiplier's powers and the
            # call of the checked residual at the start have their own.
            found = [node for node in ast.walk(function) if isinstance(node, ast.Try)
                     and "lam" in [ast.unparse(s.targets[0]) for s in node.body
                                   if isinstance(s, ast.Assign)]]
            assert len(found) == 1
            return found[0]

        checked, core = functions["reduced_residual_checked"], functions["elimination"]
        own, inlined = residual_try(checked), residual_try(functions["solve_reduced"])
        call = next(s for s in own.body if isinstance(s, ast.Assign)
                    and isinstance(s.value, ast.Call)
                    and ast.unparse(s.value.func) == "elimination")
        # The call binds the core's parameters to names of the same
        # spelling, and its results to the names the core returns.
        assert [ast.unparse(arg) for arg in call.value.args] == [arg.arg for arg in core.args.args]
        returned = core.body[-1]
        assert ast.get_docstring(core) and isinstance(returned, ast.Return)
        assert ast.unparse(call.targets[0]) == ast.unparse(returned.value)
        at = own.body.index(call)
        expected = own.body[:at] + core.body[1:-1] + own.body[at + 1:]
        assert [ast.dump(s) for s in inlined.body] == [ast.dump(s) for s in expected]
        assert "if lam == 0.0:" in ast.unparse(inlined)
        assert ([ast.dump(h.type) for h in inlined.handlers]
                == [ast.dump(h.type) for h in own.handlers])
        # Before its ``try`` the loop returns on a non-positive component,
        # which the checked residual refuses; its iterates are finite there.
        refusal = next(node for node in checked.body if isinstance(node, ast.If))
        assert ast.unparse(refusal.test) == "not (0.0 < x1 < math.inf and 0.0 < x2 < math.inf)"
        assert "x1 <= 0.0 or x2 <= 0.0" in [ast.unparse(node.test)
                                             for node in ast.walk(functions["solve_reduced"])
                                             if isinstance(node, ast.If)]

    def test_fused_loop_binds_the_math_functions_it_calls(self):
        # Each call in the loop is to a local bound before it, so an
        # iteration looks up no global or module attribute.
        solve = next(node for node in ast.walk(self.tree("_kernels"))
                     if isinstance(node, ast.FunctionDef) and node.name == "solve_reduced")
        loop = next(node for node in solve.body if isinstance(node, ast.For))
        called = {node.func.id for node in ast.walk(loop)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert called == {"range", "pow_", "log", "expm1", "isfinite", "sqrt"}
        local = {target.id for node in solve.body[:solve.body.index(loop)]
                 if isinstance(node, ast.Assign) for target in ast.walk(node.targets[0])
                 if isinstance(target, ast.Name)}
        assert {"pow_", "log", "expm1", "isfinite", "sqrt"} <= local
        assert not [ast.unparse(node) for node in ast.walk(loop)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]


class TestOutsideReaders:
    """Every number and point from outside is read by kernel.real or
    kernel.point, which reads its entries through kernel.real, so the
    refusal of an integer beyond the float range, and the reading of a
    point, are written once."""

    PACKAGE = Path(fracroots.__file__).parent
    REFUSAL = "too large for a float"

    def sites(self, found):
        """(module, function, node) for each node of ``src`` for which ``found(node)`` holds.

        Docstrings are no nodes here.
        """
        sites = []
        for path in sorted(self.PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner, docstrings = {}, set()
            # Breadth first, so a nested function's nodes end up its own.
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    owner.update(dict.fromkeys(ast.walk(node), node.name))
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                        and ast.get_docstring(node) is not None:
                    docstrings.add(node.body[0].value)
            sites += [(path.stem, owner.get(node, "<module>"), node) for node in ast.walk(tree)
                      if node not in docstrings and found(node)]
        return sites

    def test_the_refusal_is_written_only_in_kernel_real(self):
        text = self.sites(lambda node: isinstance(node, ast.Constant)
                          and isinstance(node.value, str) and self.REFUSAL in node.value)
        assert sorted(site[:2] for site in text) == [("kernel", "real")]

        def reraises_the_refusal(node):
            return (isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name)
                    and node.type.id == "OverflowError"
                    and any(isinstance(s, ast.Raise) and self.REFUSAL in ast.unparse(s)
                            for s in node.body))

        assert sorted(site[:2] for site in self.sites(reraises_the_refusal)) == [
            ("kernel", "real")]

    def test_only_kernel_point_reads_a_point_inline(self):
        # np.asarray(<argument>, dtype=float), then ravel(): kernel.point
        # reads an input so, and nothing else does; a residual's result is
        # read by kernel.entries, which calls kernel.point.
        def conversion(node):
            return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "ravel" and isinstance(node.func.value, ast.Call)
                    and ast.unparse(node.func.value.func) in ("np.asarray", "asarray")
                    and "dtype=float" in ast.unparse(node.func.value))

        def reader(node):
            return (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and ast.unparse(node.value) == "np.asarray(x, dtype=float)")

        read = {}
        for module, function, node in self.sites(conversion):
            read.setdefault(ast.unparse(node.func.value.args[0]), []).append((module, function))
        for module, function, node in self.sites(reader):
            read.setdefault(ast.unparse(node.value.args[0]), []).append((module, function))
        assert read == {"x": [("kernel", "point")]}

    def test_the_written_out_reads_are_kernel_entries(self):
        # The driver's loop reads the residual's result r into rs with
        # kernel.entries' statements written out in place of its call, with
        # np.ndarray bound to the local ndarray once per solve.
        def functions(module):
            tree = ast.parse((self.PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
            return {node.name: node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)}

        read, exit_ = functions("kernel")["entries"].body[1:]  # after the docstring
        assert ast.unparse(exit_) == "return xs"
        assert ast.dump(read) == ast.dump(ast.parse(
            "if type(x) is np.ndarray and x.dtype is FLOAT64 and x.ndim == 1:\n"
            "    xs = x.tolist()\n"
            "else:\n"
            "    xs = point(x).tolist()").body[0])

        class AsEntries(ast.NodeTransformer):
            def visit_Name(self, node):
                if node.id == "ndarray":
                    return ast.Attribute(value=ast.Name(id="np", ctx=ast.Load()),
                                         attr="ndarray", ctx=node.ctx)
                return ast.Name(id={"r": "x", "rs": "xs"}.get(node.id, node.id), ctx=node.ctx)

        loop = next(node for node in ast.walk(functions("solver")["fixed_point_solve"])
                    if isinstance(node, ast.For) and ast.unparse(node.target) == "i")
        call, copy = next(node for node in loop.body if isinstance(node, ast.Try)).body
        assert ast.unparse(call) == "r = f(x)"
        assert ast.dump(AsEntries().visit(copy)) == ast.dump(read)


class TestThresholdKernelDiagonal:
    """x1 = x2 is an ordinary point of the threshold residual, so the fused
    loop may start on it."""

    C = ModelConstants(a1=0.5355, a2=1.5808, a3=1.5355, a4=0.5808,
                       a5=18.9753, a6=451474.0, a7=396499.0)
    ARGS = (C.a1, C.a2, C.a3, C.a4, C.a5, C.a6, C.a7)

    def test_the_fused_loop_starts_from_a_diagonal_pair(self):
        residuals = np.empty(2)
        code, n = _kernels.solve_reduced(*self.ARGS, 5.0, 5.0, 0.26131, 1e-4, 1e-5, 1e-4,
                                         1, 1e10, np.empty((2, 2)), np.empty(1),
                                         residuals)[:2]
        assert (code, n) == (1, 1)
        f1, f2 = _kernels.reduced_residual_checked(*self.ARGS, 5.0, 5.0)
        assert f1 - f2 == pytest.approx(self.C.a7 - self.C.a6, rel=1e-12)
        assert residuals[0] == math.sqrt(f1 * f1 + f2 * f2)
