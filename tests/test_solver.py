"""Solver-level tests: steps, the driver, the baseline, order estimates, sweeps."""

import ast
import copy
import dataclasses
import math
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from fracroots import (FractionalOrder, InsufficientData, IterationTrace, NonRealEvaluation,
                       SingularJacobian, SolverSettings, Status, alpha_sweep,
                       default_alpha_grid, estimate_order, fd_jacobian,
                       fixed_point_solve, fpn_step, fpn_update, newton_step,
                       norm2, p_matrix)
from fracroots import kernel, solver
from fracroots.solver import (CYCLE_LAG, MAX_ITER, _evaluate, _with_order, collect_roots,
                              same_root)


def linear_root_residual(matrix, root):
    def f(x):
        return matrix @ (x - root)

    return f


class TestFpnStep:
    def test_root_is_a_fixed_point_exactly(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 4):
            root = rng.uniform(-5, 5, size=n)
            f = linear_root_residual(rng.uniform(-2, 2, size=(n, n)), root)
            stepped = fpn_step(f, root, FractionalOrder(0.5), 1e-4)
            assert np.array_equal(stepped, root)

    def test_scalar_quadratic_example(self):
        # x - (1/sqrt(pi) + eps) * (x**2 - 2) at x = 1
        out = fpn_step(lambda x: x**2 - 2.0, np.array([1.0]), FractionalOrder(0.5), 1e-4)
        expected = 1.0 + (1.0 / math.sqrt(math.pi) + 1e-4)
        assert out[0] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("alpha", [-1.5, 0.26131, 0.9])
    def test_step_uses_the_p_matrix_entries(self, alpha):
        x = np.array([3.0, 0.0, -2.5, 1e-3])
        fx = np.array([0.5, -1.0, 2.0, 7.0])
        expected = x - p_matrix(alpha, x, 1e-4) * fx
        assert np.array_equal(fpn_update(alpha, 1e-4)(x, fx), expected)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            fpn_step(lambda x: x, np.array([1.0]), FractionalOrder(0.5), 0.0)

    def test_infinite_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            fpn_update(FractionalOrder(0.5), math.inf)

    def test_zero_component_moves_by_epsilon_times_residual(self):
        out = fpn_step(lambda x: x - 5.0, np.array([0.0]), FractionalOrder(0.5), 1e-4)
        assert out[0] == pytest.approx(5e-4, rel=1e-15)


class TestFixedPointSolve:
    def test_zero_residual_converges_immediately(self):
        f = lambda x: np.zeros_like(x)
        out = fixed_point_solve(f, np.array([3.0, -7.0]), SolverSettings())
        assert out.status is Status.CONVERGED
        assert out.iterations == 1
        assert np.array_equal(out.x_final, np.array([3.0, -7.0]))
        assert out.final_step_norm == 0.0
        assert out.final_residual_norm == 0.0

    def test_max_iterations_on_rootless_function(self):
        # x**2 + 1 has no real root; the bounded orbit hits the cap
        out = fixed_point_solve(lambda x: x * x + 1.0, np.array([0.5]),
                                SolverSettings(alpha=0.5, max_iter=10))
        assert out.status is Status.MAX_ITERATIONS
        assert out.iterations == 10

    def test_divergence_guard(self):
        out = fixed_point_solve(lambda x: x - 3.0, np.array([-5.0]),
                                SolverSettings(alpha=-1.95, max_iter=50))
        assert out.status is Status.DIVERGED

    def test_evaluation_failure_is_a_status_not_a_crash(self):
        def f(x):
            if x[0] < 0:
                raise ValueError("left the domain")
            return x - 10.0

        out = fixed_point_solve(f, np.array([-1.0]), SolverSettings(), keep_trace=True)
        assert out.status is Status.EVALUATION_FAILED
        assert out.iterations == 0
        # The trace holds the start alone, whose residual does not exist.
        assert out.trace.iterates.tolist() == [[-1.0]]
        assert out.trace.step_norms.size == 0
        assert np.isnan(out.trace.residual_norms).tolist() == [True]

    @pytest.mark.parametrize("f, x0", [
        (lambda x: np.array([math.nan]), [1.0]),
        (lambda x: np.array([math.inf, 1.0]), [1.0, 1.0]),
        (lambda x: np.array([math.nan]) if x[0] < 1.0 else x - 0.5, [1.0]),
    ], ids=["nan-at-start", "inf-at-start", "nan-after-a-step"])
    def test_non_finite_residual_is_an_evaluation_failure(self, f, x0):
        out = fixed_point_solve(f, np.array(x0), SolverSettings())
        assert out.status is Status.EVALUATION_FAILED
        assert math.isnan(out.final_residual_norm)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_residual_whose_squares_overflow_has_an_inf_norm(self):
        out = fixed_point_solve(lambda x: np.array([1e200, 1e200]), np.array([1.0, 2.0]),
                                SolverSettings(alpha=0.5, divergence_bound=math.inf,
                                               max_iter=3))
        assert out.status is Status.MAX_ITERATIONS
        assert out.iterations == 3
        assert out.final_residual_norm == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_iterate_diverges_under_an_infinite_bound(self):
        out = fixed_point_solve(lambda x: x, np.array([1e200]),
                                SolverSettings(alpha=-1.5, divergence_bound=math.inf))
        assert out.status is Status.DIVERGED
        assert out.iterations == 1
        assert out.x_final.tolist() == [-math.inf]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_iterate_whose_squares_overflow_passes_an_infinite_bound(self):
        out = fixed_point_solve(lambda x: x, np.array([1e160, 1e160]),
                                SolverSettings(alpha=0.5, divergence_bound=math.inf,
                                               max_iter=5))
        assert out.status is Status.MAX_ITERATIONS
        assert np.all(np.isfinite(out.x_final))
        assert out.final_residual_norm == math.inf
        bounded = fixed_point_solve(lambda x: x, np.array([1e160, 1e160]),
                                    SolverSettings(alpha=0.5, max_iter=5))
        assert (bounded.status, bounded.iterations) == (Status.DIVERGED, 1)

    def test_converged_predicates_recompute(self):
        settings = SolverSettings(alpha=0.9)
        f = lambda x: x**3 - 8.0
        out = fixed_point_solve(f, np.array([1.5]), settings, keep_trace=True)
        assert out.status is Status.CONVERGED
        assert norm2(f(out.x_final)) <= settings.tol_residual
        tr = out.trace
        assert norm2(tr.iterates[-1] - tr.iterates[-2]) <= settings.tol_step

    def test_trace_consistency_recompute_is_exact(self):
        cases = [
            (lambda x: x**2 - 2.0, [3.0], 0.5),
            (lambda v: np.array([v[0] * v[0] + v[1] * v[1] - 4.0, v[0] * v[1] - 1.0]),
             [-1.0, 1.5], 0.7),
        ]
        for f, x0, alpha in cases:
            out = fixed_point_solve(f, np.array(x0), SolverSettings(alpha=alpha),
                                    keep_trace=True)
            assert out.status is Status.CONVERGED
            tr = out.trace
            assert tr.iterates.shape == (out.iterations + 1, len(x0))
            assert tr.step_norms.shape[0] == out.iterations
            assert tr.residual_norms.shape[0] == out.iterations + 1
            for i in range(out.iterations):
                assert norm2(tr.iterates[i + 1] - tr.iterates[i]) == tr.step_norms[i]
            for i in range(out.iterations + 1):
                assert norm2(f(tr.iterates[i])) == tr.residual_norms[i]

    def test_rejects_non_finite_start(self):
        with pytest.raises(ValueError):
            fixed_point_solve(lambda x: x, np.array([math.inf]), SolverSettings())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("keep_trace", [False, True], ids=["fused", "driver"])
    def test_non_finite_start_is_refused_before_either_path(self, bad, keep_trace):
        class Fused:
            calls = []

            def __call__(self, x):
                self.calls.append("f")
                return x * x - 4.0

            def fused_solve(self, x0, settings):
                self.calls.append("fused_solve")

        f = Fused()
        with pytest.raises(ValueError, match="x0 must be finite"):
            fixed_point_solve(f, [3.0, bad], SolverSettings(), keep_trace=keep_trace)
        assert Fused.calls == []

    def test_fused_solve_takes_over_only_the_default_iteration(self):
        class Fused:
            calls = []

            def __call__(self, x):
                return x * x - 4.0

            def fused_solve(self, x0, settings):
                self.calls.append((x0.tolist(), settings.alpha.value))
                return fixed_point_solve(lambda x: self(x), x0, settings)

        f = Fused()
        out = fixed_point_solve(f, [3.0], SolverSettings(alpha=0.5))
        assert Fused.calls == [([3.0], 0.5)]
        assert out.status is Status.CONVERGED and out.trace is None
        # A traced solve runs the driver loop.
        traced = fixed_point_solve(f, [3.0], SolverSettings(alpha=0.5), keep_trace=True)
        assert traced.status is Status.CONVERGED and traced.trace is not None
        assert len(Fused.calls) == 1


def numpy_reference_solve(f, x0, settings):
    """The driver loop in whole-array numpy arithmetic, kept as a reference.

    The step is ``x - p_matrix(...) * f(x)``, each norm the square root of
    one ``np.dot``; the status rules are the driver's.  Returns the status,
    the iteration count, the final iterate, the final step and residual
    norms and the trace's iterates, step norms and residual norms.
    """
    def evaluate(x):
        try:
            fx = np.asarray(f(x), dtype=float).ravel()
        except (ArithmeticError, ValueError) as exc:
            raise NonRealEvaluation(str(exc)) from exc
        squares = float(np.dot(fx, fx))
        if not math.isfinite(squares) and not np.isfinite(fx).all():
            raise NonRealEvaluation("non-finite residual")
        return fx, math.sqrt(squares)

    x = np.asarray(x0, dtype=float).ravel()
    iterates, steps, residuals = [x], [], []

    def result(status, x_final, n, step_norm, res_norm):
        return (status, n, np.asarray(x_final), step_norm, res_norm,
                np.array(iterates), steps, residuals)

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            fx, res_norm = evaluate(x)
        except NonRealEvaluation:
            residuals.append(math.nan)
            return result(Status.EVALUATION_FAILED, x, 0, math.nan, math.nan)
        residuals.append(res_norm)
        step_norm = math.nan
        for i in range(1, settings.max_iter + 1):
            x_next = x - p_matrix(settings.alpha, x, settings.epsilon) * fx
            delta = x_next - x
            step_norm = math.sqrt(float(np.dot(delta, delta)))
            size = float(np.dot(x_next, x_next))
            if math.sqrt(size) > settings.divergence_bound or (
                    not math.isfinite(size) and not np.isfinite(x_next).all()):
                return result(Status.DIVERGED, x_next, i, step_norm, math.nan)
            try:
                fx, res_norm = evaluate(x_next)
            except NonRealEvaluation:
                return result(Status.EVALUATION_FAILED, x_next, i, step_norm, math.nan)
            iterates.append(x_next)
            steps.append(step_norm)
            residuals.append(res_norm)
            x = x_next
            if step_norm <= settings.tol_step and res_norm <= settings.tol_residual:
                return result(Status.CONVERGED, x, i, step_norm, res_norm)
    return result(Status.MAX_ITERATIONS, x, settings.max_iter, step_norm, res_norm)


#: Entries for starts and coefficients: moderate values plus exact zeros
#: (the multiplier's zero-component rule), values whose squares overflow,
#: and subnormal-scale values whose multiplier entry overflows.
ENTRIES = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e160, -1e160, 1e200, 1e-300]),
)


@st.composite
def driver_problems(draw):
    """A random affine or quadratic residual on n = 1..5 with its start and settings."""
    n = draw(st.integers(min_value=1, max_value=5))
    vector = st.lists(ENTRIES, min_size=n, max_size=n).map(np.array)
    matrix = np.array([draw(vector) for _ in range(n)])
    shift = draw(vector)
    if draw(st.booleans()):
        def f(x):
            return matrix @ x + shift
    else:
        curvature = draw(vector)

        def f(x):
            return curvature * x * x + matrix @ x + shift
    # Each limit at its default or where its cut is subnormal (1e-160),
    # overflows to DBL_MAX (1e200) or is infinite.
    settings = SolverSettings(
        alpha=draw(st.sampled_from([a.value for a in default_alpha_grid()])),
        max_iter=draw(st.integers(min_value=1, max_value=60)),
        tol_step=draw(st.sampled_from([1e-5, 1e-160, 1e200, math.inf])),
        tol_residual=draw(st.sampled_from([1e-4, 1e-160, 1e200, math.inf])),
        divergence_bound=draw(st.sampled_from([1e10, math.inf, 1e-160, 1e200])))
    return f, draw(vector), settings


def same_norm(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b, rel=1e-14, abs=0.0)


def assert_driver_matches_numpy_reference(f, x0, settings):
    """The driver, traced and untraced, against :func:`numpy_reference_solve`.

    Statuses, iteration counts and iterates must be equal bit for bit, and
    norms equal up to the reference's ``np.dot`` rounding.
    """
    (status, n, x_final, step_norm, res_norm,
     iterates, steps, residuals) = numpy_reference_solve(f, x0, settings)
    out = fixed_point_solve(f, x0, settings, keep_trace=True)
    assert (out.status, out.iterations) == (status, n)
    assert out.x_final.tobytes() == x_final.tobytes()
    assert out.trace.iterates.tobytes() == iterates.tobytes()
    assert same_norm(out.final_step_norm, step_norm)
    assert same_norm(out.final_residual_norm, res_norm)
    assert len(out.trace.step_norms) == len(steps)
    assert all(map(same_norm, out.trace.step_norms.tolist(), steps))
    assert len(out.trace.residual_norms) == len(residuals)
    assert all(map(same_norm, out.trace.residual_norms.tolist(), residuals))
    untraced = fixed_point_solve(f, x0, settings)
    assert (untraced.status, untraced.iterations) == (status, n)
    assert untraced.x_final.tobytes() == x_final.tobytes()
    assert untraced.final_step_norm.hex() == out.final_step_norm.hex()
    assert untraced.final_residual_norm.hex() == out.final_residual_norm.hex()


class TestDriverAgainstNumpyReference:
    """The float-list driver loop against the whole-array numpy loop."""

    @given(problem=driver_problems())
    @hypothesis_settings(max_examples=300, deadline=None)
    def test_same_statuses_iterates_and_norms(self, problem):
        assert_driver_matches_numpy_reference(*problem)


class CountingResidual:
    """A residual that counts its calls."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def signed_zero_residual(x):
    """A residual whose iterates repeat up to the sign of a zero, but do not cycle.

    From x_0 = (-0, -0, 1e20) the first two steps only flip the zeros'
    signs, to x_1 = (-0, +0, 1e20) and x_2 = (+0, +0, 1e20): both steps are
    0, and x_2 equals x_1 under float ``==``.  From x_2 the first entry
    moves.  The last entry is too large for its step to change it, so
    the residual norm stays at least 1.
    """
    z1, z2, _ = x.tolist()
    if math.copysign(1.0, z1) < 0.0 and math.copysign(1.0, z2) < 0.0:
        return np.array([0.0, -0.0, 1.0])
    if math.copysign(1.0, z1) < 0.0:
        return np.array([-0.0, 0.0, 1.0])
    return np.array([z1 - 1.0, z2, 1.0])


class TestSolverSettings:
    def test_defaults(self):
        s = SolverSettings()
        assert s.epsilon == 1e-4
        assert s.tol_step == 1e-5
        assert s.tol_residual == 1e-4
        assert s.max_iter == 500
        assert s.divergence_bound == 1e10

    def test_alpha_coercion(self):
        assert SolverSettings(alpha=0.25628).alpha == FractionalOrder(0.25628)

    @pytest.mark.parametrize("kwargs", [
        dict(epsilon=0.0), dict(tol_step=-1e-5), dict(tol_residual=0.0),
        dict(max_iter=0), dict(divergence_bound=0.0), dict(alpha=1.0),
        dict(max_iter=1.5), dict(max_iter=True), dict(max_iter=math.nan),
        dict(max_iter=MAX_ITER + 1), dict(max_iter=1e15), dict(max_iter=10**400),
        dict(epsilon=math.inf),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverSettings(**kwargs)

    @pytest.mark.parametrize("value, shown", [
        (1e300, "1e+300"), (10**34, str(10**34)), (0, "0"), (MAX_ITER + 1.0, "1000001.0")])
    def test_range_error_shows_max_iter_as_given(self, value, shown):
        with pytest.raises(ValueError) as raised:
            SolverSettings(max_iter=value)
        assert str(raised.value) == f"max_iter must lie in [1, {MAX_ITER}], got {shown}"

    def test_integral_max_iter_accepted(self):
        for value in (7, np.int64(7), 7.0):
            assert SolverSettings(max_iter=value).max_iter == 7
        assert SolverSettings(max_iter=MAX_ITER).max_iter == MAX_ITER

    @pytest.mark.parametrize("value", ["5e2", "500.0", "500", 500.0, np.float64(500.0),
                                       Decimal("5E+2")])
    def test_every_form_of_an_integral_number_gives_its_integer(self, value):
        # The integer of the float that was checked, not int() of the value:
        # int("5e2") and int("500.0") refuse their text.
        count = SolverSettings(max_iter=value).max_iter
        assert (count, type(count)) == (500, int)

    @pytest.mark.parametrize("value", ["abc", None, [500]])
    def test_non_number_max_iter_is_refused_by_name(self, value):
        with pytest.raises(ValueError) as raised:
            SolverSettings(max_iter=value)
        assert str(raised.value) == f"max_iter must be an integer, got {value!r}"


class TestIterationTrace:
    @pytest.mark.parametrize("iterates, steps, residuals, message", [
        (np.ones(3), np.ones(2), np.ones(3), "a (n+1, dim) array"),
        (np.ones((3, 2)), np.ones(3), np.ones(3), "one step norm per transition"),
        (np.ones((3, 2)), np.ones(2), np.ones(2), "one residual norm per iterate"),
    ], ids=["flat-iterates", "extra-step-norm", "missing-residual-norm"])
    def test_refuses_inconsistent_shapes(self, iterates, steps, residuals, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            IterationTrace(iterates=iterates, step_norms=steps, residual_norms=residuals)


class TestFdJacobian:
    def test_exact_on_affine_maps(self):
        rng = np.random.default_rng(5)
        matrix = rng.uniform(-3, 3, size=(4, 4))
        b = rng.uniform(-1, 1, size=4)
        jac = fd_jacobian(lambda x: matrix @ x + b, rng.uniform(-2, 2, size=4))
        assert np.max(np.abs(jac - matrix)) < 1e-6

    def test_non_finite_evaluation_raises(self):
        with pytest.raises(NonRealEvaluation, match="non-finite"):
            fd_jacobian(lambda x: np.where(x > 1.0, np.inf, x), np.array([1.0, 0.0]))

    def test_separable_powers(self):
        f = lambda x: np.array([x[0] ** 2, x[1] ** 3])
        jac = fd_jacobian(f, np.array([1.0, 2.0]))
        assert jac == pytest.approx(np.diag([2.0, 12.0]), abs=1e-5)

    def test_constant_map_gives_zero(self):
        jac = fd_jacobian(lambda x: np.array([4.0, -1.0]), np.array([0.3, 9.0]))
        assert np.all(jac == 0.0)


class TestNewtonStep:
    def test_one_step_on_affine_system(self):
        rng = np.random.default_rng(17)
        matrix = rng.uniform(-2, 2, size=(3, 3)) + 3.0 * np.eye(3)
        b = rng.uniform(-1, 1, size=3)
        solution = np.linalg.solve(matrix, -b)
        stepped = newton_step(lambda x: matrix @ x + b, rng.uniform(-1, 1, size=3))
        assert norm2(stepped - solution) <= 1e-8 * (1.0 + norm2(solution))

    def test_babylonian_first_iterate(self):
        stepped = newton_step(lambda x: x**2 - 2.0, np.array([1.5]))
        assert stepped[0] == pytest.approx(17.0 / 12.0, rel=1e-10)

    def test_converges_to_sqrt2_quickly(self):
        x = np.array([1.5])
        for iterations in range(1, 9):
            x = newton_step(lambda v: v**2 - 2.0, x)
            if abs(x[0] - math.sqrt(2.0)) < 1e-10:
                break
        assert abs(x[0] - math.sqrt(2.0)) < 1e-10
        assert iterations <= 8

    def test_root_is_fixed(self):
        f = lambda x: 2.0 * (x - 3.0)
        assert newton_step(f, np.array([3.0]))[0] == 3.0

    def test_singular_jacobian_detected(self):
        with pytest.raises(SingularJacobian):
            newton_step(lambda x: x**2, np.array([0.0]))

    def test_non_finite_residual_at_x_raises(self):
        # A pole exactly at x: f(x) is inf while f(x +/- h) is finite.
        def f(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 2.0)

        assert np.isfinite(fd_jacobian(f, np.array([2.0]))).all()
        with pytest.raises(NonRealEvaluation, match="non-finite"):
            newton_step(f, np.array([2.0]))


class TestEstimateOrder:
    def test_linear_on_geometric(self):
        seq = [2.0 ** (-k) for k in range(10)]
        assert estimate_order(seq) == pytest.approx(1.0, abs=1e-6)

    def test_quadratic_on_squared_sequence(self):
        seq = [0.5]
        while seq[-1] > 1e-200:
            seq.append(seq[-1] ** 2)
        assert estimate_order(seq) == pytest.approx(2.0, abs=1e-2)

    def test_too_short_raises(self):
        with pytest.raises(InsufficientData):
            estimate_order([1.0, 0.5, 0.25])

    def test_non_monotone_tail_raises(self):
        with pytest.raises(InsufficientData):
            estimate_order([1.0, 0.5, 0.25, 0.5])

    def test_non_positive_tail_raises(self):
        with pytest.raises(InsufficientData):
            estimate_order([1.0, 0.5, 0.25, 0.0])

    def test_nan_ends_the_run(self):
        with pytest.raises(InsufficientData, match="run has 0 entries"):
            estimate_order([4.0, 3.0, 2.0, math.nan])

    def test_ratio_underflowing_to_zero_raises(self):
        # 1e-300 / 1e299 underflows to 0, whose logarithm is undefined.
        with pytest.raises(InsufficientData, match="underflows to 0"):
            estimate_order([1e300, 5e299, 1e299, 1e-300])


class TestAlphaGrid:
    def test_default_grid_contents(self):
        grid = default_alpha_grid()
        values = [a.value for a in grid]
        assert len(values) == 76
        assert min(values) == -1.95
        assert max(values) == 1.95
        assert all(abs(v - round(v)) > 0.01 for v in values)

    def test_custom_step(self):
        values = [a.value for a in default_alpha_grid(step=0.5)]
        assert values == [-1.5, -0.5, 0.5, 1.5]

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            default_alpha_grid(step=0.0)
        # Refused before any point is built: this step would never finish.
        with pytest.raises(ValueError, match="10000"):
            default_alpha_grid(step=1e-300)
        # Every point of this step lies on an integer band.
        with pytest.raises(ValueError, match="leaves no valid orders"):
            default_alpha_grid(step=4.0)

    @pytest.mark.parametrize("step", [np.float32(0.05), "0.05", Decimal("0.05")],
                             ids=["float32", "str", "Decimal"])
    def test_any_form_of_a_step_gives_the_grid_of_its_float(self, step):
        # The step is read once, and the grid is built and kept by the float
        # read.  The cache is emptied first: np.float32(0.05) == float of it,
        # with the same hash, so a grid kept by one is found by the other.
        expected = [a.value.hex() for a in solver._order_grid.__wrapped__(float(step))]
        solver._order_grid.cache_clear()
        assert [a.value.hex() for a in default_alpha_grid(step)] == expected
        assert [a.value.hex() for a in default_alpha_grid(float(step))] == expected


def root_set_key(roots) -> tuple:
    """Everything a RootSet reports, with arrays as lists, so two sets compare with ==."""
    return (
        tuple((r.x.tolist(), r.alpha, r.found_by, r.outcome.status, r.outcome.iterations,
               r.outcome.x_final.tolist(), r.outcome.final_step_norm,
               r.outcome.final_residual_norm) for r in roots.roots),
        roots.skipped, roots.dedup_tolerance)


class TestAlphaSweep:
    def test_default_grid_is_the_explicit_default_grid(self):
        f, x0 = (lambda x: x * x - 1.0), np.array([2.0])
        assert root_set_key(alpha_sweep(f, x0)) == root_set_key(
            alpha_sweep(f, x0, default_alpha_grid()))

    def test_caller_changes_to_the_default_grid_do_not_leak(self):
        f, x0 = (lambda x: x * x - 1.0), np.array([2.0])
        expected = root_set_key(alpha_sweep(f, x0))
        fresh = default_alpha_grid()
        mutated = default_alpha_grid()
        mutated.reverse()
        del mutated[3:]
        mutated[0] = FractionalOrder(0.5)
        assert default_alpha_grid() == fresh
        assert len(fresh) == 76
        assert root_set_key(alpha_sweep(f, x0)) == expected

    def test_unique_root_collapses(self):
        roots = alpha_sweep(lambda x: x - 3.0, np.array([1.0]),
                            grid=default_alpha_grid(step=0.25))
        assert len(roots.roots) == 1
        assert roots.roots[0].x[0] == pytest.approx(3.0, abs=1e-4)
        assert len(roots.roots[0].found_by) > 1

    def test_finds_both_roots_of_quadratic(self):
        roots = alpha_sweep(lambda x: x * x - 1.0, np.array([2.0]))
        found = sorted(r.x[0] for r in roots.roots)
        assert len(found) == 2
        assert found[0] == pytest.approx(-1.0, abs=1e-4)
        assert found[1] == pytest.approx(1.0, abs=1e-4)

    def test_result_independent_of_grid_order(self):
        f = lambda x: x * x - 1.0
        grid = default_alpha_grid()
        forward = alpha_sweep(f, np.array([2.0]), grid=grid)
        backward = alpha_sweep(f, np.array([2.0]), grid=list(reversed(grid)))
        assert len(forward.roots) == len(backward.roots)
        for a, b in zip(forward.roots, backward.roots):
            assert np.array_equal(a.x, b.x)
            assert a.found_by == b.found_by
            assert a.alpha == b.alpha

    def test_skipped_alphas_carry_reasons(self):
        roots = alpha_sweep(lambda x: x * x + 1.0, np.array([0.5]),
                            grid=default_alpha_grid(step=0.5),
                            settings=SolverSettings(max_iter=20))
        assert not roots.roots
        assert len(roots.skipped) == 4
        assert all(s.status in (Status.MAX_ITERATIONS, Status.DIVERGED,
                                Status.EVALUATION_FAILED) for s in roots.skipped)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            alpha_sweep(lambda x: x, np.array([1.0]), grid=[])

    def test_lane_settings_are_the_replaced_settings(self):
        settings = SolverSettings(epsilon=1e-3, tol_step=1e-6, max_iter=300.0,
                                  divergence_bound=math.inf)
        for alpha in default_alpha_grid():
            lane = _with_order(settings, alpha)
            replaced = dataclasses.replace(settings, alpha=alpha)
            assert lane == replaced and hash(lane) == hash(replaced)
            assert type(lane) is SolverSettings and lane.alpha is alpha
            with pytest.raises(dataclasses.FrozenInstanceError):
                lane.alpha = FractionalOrder(0.5)
        assert settings.alpha == FractionalOrder(0.5)

    #: Per residual: its start, the status counts over the default grid, and
    #: each root's (best alpha, number of orders that found it, iterations),
    #: recorded from the driver before its norms took one dot per vector.
    GOLDEN = {
        "x*x-1": (lambda x: x * x - 1.0, [2.0],
                  {"converged": 19, "diverged": 33, "max_iterations": 24},
                  [(0.25, 5, 29), (0.55, 14, 5)]),
        "cos(x)": (np.cos, [1.0],
                   {"converged": 36, "max_iterations": 40},
                   [(0.1, 11, 286), (1.45, 19, 56), (0.2, 6, 89)]),
        "(x-1)(x-2)(x+1.5)": (lambda x: (x - 1.0) * (x - 2.0) * (x + 1.5), [0.5],
                              {"converged": 29, "diverged": 22, "max_iterations": 25},
                              [(1.45, 19, 16), (0.6, 10, 5)]),
        "[x^2+y^2-4, xy-1]": (
            lambda v: np.array([v[0] * v[0] + v[1] * v[1] - 4.0, v[0] * v[1] - 1.0]),
            [-1.0, 1.5],
            {"converged": 4, "diverged": 59, "max_iterations": 13},
            [(0.85, 2, 237), (0.7, 2, 20)]),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_generic_residuals_match_recorded_sweeps(self, name):
        f, x0, counts, roots = self.GOLDEN[name]
        found = alpha_sweep(f, np.array(x0))
        statuses = {"converged": sum(len(r.found_by) for r in found.roots)}
        for skip in found.skipped:
            statuses[skip.status.value] = statuses.get(skip.status.value, 0) + 1
        assert statuses == counts
        assert [(r.alpha, len(r.found_by), r.outcome.iterations)
                for r in found.roots] == roots

    def test_roots_sorted_canonically(self):
        roots = alpha_sweep(lambda x: x * x - 1.0, np.array([2.0]))
        vectors = [tuple(r.x) for r in roots.roots]
        assert vectors == sorted(vectors)


class TestSameRoot:
    """The dedup predicate refuses a tolerance under which no two points are one root."""

    @pytest.mark.parametrize("tolerance", [math.nan, -1e-3, -math.inf, -5e-324])
    def test_nan_or_negative_tolerance_is_refused(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be zero or positive"):
            same_root([1.0], [1.0], tolerance)

    @pytest.mark.parametrize("tolerance, same", [(0.0, True), (-0.0, True), (math.inf, True)])
    def test_zero_and_infinite_tolerances_compare(self, tolerance, same):
        assert same_root([1.0], [1.0], tolerance) is same
        assert same_root([1.0], [2.0], tolerance) is (tolerance == math.inf)

    def test_collect_roots_refuses_a_nan_tolerance(self):
        # Each hit would otherwise be kept as a root of its own.
        out = fixed_point_solve(lambda x: x - 3.0, [1.0], SolverSettings(alpha=0.5))
        hits = [(out.x_final, 0.5, out), (out.x_final, 0.55, out)]
        assert len(collect_roots(hits, [], 1e-3).roots) == 1
        with pytest.raises(ValueError, match="tolerance must be zero or positive"):
            collect_roots(hits, [], math.nan)

    @pytest.mark.parametrize("tolerance", ["1e-3", np.float32(1e-3), Decimal("1e-3")],
                             ids=["str", "float32", "Decimal"])
    def test_collect_roots_keeps_the_float_it_read(self, tolerance, monkeypatch):
        # The tolerance is read once: same_root and the RootSet get that float.
        out = fixed_point_solve(lambda x: x - 3.0, [1.0], SolverSettings(alpha=0.5))
        hits = [(out.x_final, 0.5, out), (out.x_final, 0.55, out)]
        compared = []

        def spy(a, b, tol):
            compared.append(tol)
            return same_root(a, b, tol)

        monkeypatch.setattr(solver, "same_root", spy)
        roots = collect_roots(hits, [], tolerance)
        assert len(roots.roots) == 1
        assert type(roots.dedup_tolerance) is float
        assert roots.dedup_tolerance == float(tolerance)
        assert compared and all(type(tol) is float and tol == float(tolerance)
                                for tol in compared)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, -5e-324])
    @pytest.mark.parametrize("hits", [0, 1])
    def test_collect_roots_refuses_the_tolerance_with_fewer_than_two_hits(self, hits,
                                                                          tolerance):
        # With fewer than two hits no pair reaches same_root.
        out = fixed_point_solve(lambda x: x - 3.0, [1.0], SolverSettings(alpha=0.5))
        converged = [(out.x_final, 0.5, out)][:hits]
        assert len(collect_roots(converged, [], 1e-3).roots) == hits
        with pytest.raises(ValueError, match="tolerance must be zero or positive"):
            collect_roots(converged, [], tolerance)


class TestCycleStop:
    """An untraced solve whose iterate at a checkpoint repeats the one CYCLE_LAG
    iterations back ends with the full run's outcome."""

    @pytest.mark.parametrize("max_iter", [497, 498, 499, 500])
    @pytest.mark.parametrize("name", sorted(TestAlphaSweep.GOLDEN))
    def test_golden_residuals_match_the_full_run(self, name, max_iter):
        # Four consecutive caps put the checkpoints at every remainder modulo the lag.
        f, x0 = TestAlphaSweep.GOLDEN[name][:2]
        for alpha in default_alpha_grid():
            settings = SolverSettings(alpha=alpha, max_iter=max_iter)
            assert_driver_matches_numpy_reference(f, np.array(x0), settings)

    @pytest.mark.parametrize("name, alpha, period", [
        ("cos(x)", -1.1, 1), ("cos(x)", -0.9, 2), ("cos(x)", -0.75, 4),
        ("(x-1)(x-2)(x+1.5)", -1.1, 4)])
    def test_calls_stop_within_two_lags_of_cycle_entry(self, name, alpha, period):
        f, x0 = TestAlphaSweep.GOLDEN[name][:2]
        settings = SolverSettings(alpha=alpha)
        (status, n, x_final, step_norm, res_norm,
         iterates) = numpy_reference_solve(f, x0, settings)[:6]
        assert (status, n) == (Status.MAX_ITERATIONS, settings.max_iter)
        rows = [row.tobytes() for row in iterates]
        # The full run ends in a cycle of exactly this period.
        assert [rows[-1] == rows[-1 - q] for q in range(1, period + 1)] == [
            q == period for q in range(1, period + 1)]
        # The first iterate from which the full run repeats with this period.
        entry = len(rows) - 1 - period
        while entry > 0 and rows[entry - 1] == rows[entry - 1 + period]:
            entry -= 1
        counting = CountingResidual(f)
        out = fixed_point_solve(counting, np.array(x0), settings)
        assert (out.status, out.iterations) == (status, n)
        assert out.x_final.tobytes() == x_final.tobytes()
        assert same_norm(out.final_step_norm, step_norm)
        assert same_norm(out.final_residual_norm, res_norm)
        # Two checkpoints at or after the entry come within 2 lags of it, so
        # the calls evaluate x_0 .. x_{entry + 2 CYCLE_LAG - 1} at most.
        assert counting.calls <= entry + 2 * CYCLE_LAG < settings.max_iter

    @pytest.mark.parametrize("alpha", [-1.1, -0.9])
    def test_traced_solve_evaluates_every_iterate(self, alpha):
        # The cycle stop serves untraced solves only: a traced solve reports
        # no row it did not compute.
        settings = SolverSettings(alpha=alpha)
        f = CountingResidual(np.cos)
        out = fixed_point_solve(f, [1.0], settings, keep_trace=True)
        assert (out.status, out.iterations) == (Status.MAX_ITERATIONS, settings.max_iter)
        assert f.calls == settings.max_iter + 1

    def test_repeat_up_to_the_sign_of_zero_is_not_a_cycle(self):
        settings = SolverSettings(alpha=0.5, max_iter=20, divergence_bound=math.inf)
        x0 = np.array([-0.0, -0.0, 1e20])
        iterates, steps = numpy_reference_solve(signed_zero_residual, x0, settings)[5:7]
        assert steps[:2] == [0.0, 0.0] and iterates[2].tolist() == iterates[1].tolist()
        assert iterates[2].tobytes() != iterates[1].tobytes()
        assert_driver_matches_numpy_reference(signed_zero_residual, x0, settings)


def square_minus_two(x):
    return x * x - 2.0


def floor_of_four_x(x):
    return np.floor(4.0 * x) - 5.0


def first_call_ok_then(bad):
    """x * x - 2 at the start x = [1.0], and ``bad(x)`` at every other point."""
    def f(x):
        return x * x - 2.0 if x[0] == 1.0 else bad(x)

    return f


def raising(exc):
    def f(x):
        raise exc

    return f


class TestInlinedStepAndCheck:
    """The driver's loop writes out fpn_update's step and _evaluate's residual
    check, so each copy must keep the results of the function it copies."""

    @pytest.mark.parametrize("name", sorted(TestAlphaSweep.GOLDEN))
    def test_every_step_is_the_fpn_update_closure(self, name):
        f, x0 = TestAlphaSweep.GOLDEN[name][:2]
        steps = 0
        for alpha in default_alpha_grid():
            settings = SolverSettings(alpha=alpha)
            step = fpn_update(alpha, settings.epsilon)
            iterates = fixed_point_solve(f, np.array(x0), settings,
                                         keep_trace=True).trace.iterates
            for before, after in zip(iterates, iterates[1:]):
                rs = np.asarray(f(before), dtype=float).ravel().tolist()
                assert np.array(step(before.tolist(), rs)).tobytes() == after.tobytes()
                steps += 1
        assert steps > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad, expected", [
        (raising(ZeroDivisionError("division by zero")), "failed"),
        (raising(ValueError("left the domain")), "failed"),
        (raising(NonRealEvaluation("complex power")), "failed"),
        (lambda x: np.array([math.nan]), "failed"),
        (lambda x: np.array([-math.inf]), "failed"),
        (lambda x: np.array([1e200]), math.inf),
        (lambda x: np.array([1.0, 2.0]),
         "ValueError: residual has shape (2,), expected (1,)"),
        # A masked entry has no value: np.asarray would read the hidden 1.0.
        (lambda x: np.ma.array([1.0], mask=[True]), "failed"),
        (lambda x: np.ma.array([[1.0]], mask=[[True]]), "failed"),
        # kernel.entries refuses what np.asarray would read as NaN, or as
        # the hidden NaN, or raise OverflowError on.
        (lambda x: [None], "failed"),
        (lambda x: [10**400], "failed"),
        (lambda x: np.ma.array([[math.nan]], mask=[[True]]), "failed"),
    ], ids=["raises-arithmetic", "raises-value", "raises-non-real", "nan-entry",
            "inf-entry", "squares-overflow", "wrong-shape", "masked-entry",
            "masked-column-entry", "none-entry", "big-integer-entry",
            "masked-column-over-nan"])
    def test_residual_check_agrees_with_evaluate(self, bad, expected):
        # The start is checked by _evaluate itself; the first step's iterate
        # is checked by the loop's copy.
        f = first_call_ok_then(bad)
        x1 = fpn_step(f, np.array([1.0]), FractionalOrder(0.5), 1e-4)
        try:
            by_evaluate = _evaluate(f, x1)[1]
        except NonRealEvaluation:
            by_evaluate = "failed"
        except ValueError as exc:
            by_evaluate = f"ValueError: {exc}"
        settings = SolverSettings(alpha=0.5, max_iter=1, divergence_bound=math.inf)
        try:
            out = fixed_point_solve(f, np.array([1.0]), settings, keep_trace=True)
        except ValueError as exc:
            by_driver = f"ValueError: {exc}"
        else:
            assert out.iterations == 1 and out.x_final.tobytes() == x1.tobytes()
            if out.status is Status.EVALUATION_FAILED:
                by_driver = "failed"
            else:
                by_driver = out.final_residual_norm
                assert out.trace.residual_norms[1] == by_driver
        assert by_driver == by_evaluate == expected

    class Reversed(np.ndarray):
        """An ndarray subclass whose own tolist() reverses the entries."""

        def tolist(self):
            return super().tolist()[::-1]

    @staticmethod
    def in_place(x):
        x *= x
        x -= 2.0
        return x

    # (name, start, residual): each returns one form of x * x - 2 (or x itself).
    READS = [
        ("1-d float64", [1.0, 0.5], square_minus_two),
        ("list", [1.0, 0.5], lambda x: square_minus_two(x).tolist()),
        ("tuple", [1.0, 0.5], lambda x: tuple(square_minus_two(x).tolist())),
        ("python float", [1.0], lambda x: float(square_minus_two(x)[0])),
        ("0-d array", [1.0], lambda x: square_minus_two(x).reshape(())),
        ("(1, 1) column", [1.0], lambda x: square_minus_two(x).reshape(1, 1)),
        ("float32", [1.0, 0.5], lambda x: square_minus_two(x).astype(np.float32)),
        ("int64", [1.0, 0.5], lambda x: floor_of_four_x(x).astype(np.int64)),
        # Entries beyond 2**53, whose squares as Python ints are not the
        # squares of their floats.
        ("large int64", [1.0, 0.5],
         lambda x: floor_of_four_x(x).astype(np.int64) * (2**53 + 1)),
        ("big-endian f8", [1.0, 0.5], lambda x: square_minus_two(x).astype(">f8")),
        ("strided view", [1.0, 0.5], lambda x: np.repeat(square_minus_two(x), 2)[::2]),
        ("subclass", [1.0, 0.5],
         lambda x: square_minus_two(x).view(TestInlinedStepAndCheck.Reversed)),
        # A masked array with no masked entry reads as its data; one with a
        # masked entry fails to evaluate (test_residual_check_agrees_with_evaluate).
        ("masked array", [1.0, 0.5],
         lambda x: np.ma.array(square_minus_two(x), mask=[False, False])),
        ("its argument", [1.0, 0.5], lambda x: x),
        ("argument in place", [1.0, 0.5], lambda x: TestInlinedStepAndCheck.in_place(x)),
    ]

    @pytest.mark.parametrize("name, x0, f", READS, ids=[c[0] for c in READS])
    def test_every_read_gives_the_bits_of_the_general_conversion(self, name, x0, f):
        # A 1-d float64 ndarray is read with one tolist(), every other result
        # with kernel.point(r).tolist(); both must give the bits of the
        # general conversion np.asarray(r, dtype=float).ravel().tolist().
        def general(x):
            return np.asarray(f(x), dtype=float).ravel().tolist()

        rs = _evaluate(f, np.array(x0))[0]
        assert [v.hex() for v in rs] == [v.hex() for v in general(np.array(x0))]
        settings = SolverSettings(alpha=0.5, max_iter=12, divergence_bound=math.inf)
        for keep_trace in (False, True):
            out = fixed_point_solve(f, np.array(x0), settings, keep_trace=keep_trace)
            assert out.iterations > 1
            assert TestResidualResultContract.outcome_bits(out) == \
                TestResidualResultContract.outcome_bits(fixed_point_solve(
                    general, np.array(x0), settings, keep_trace=keep_trace))

    def test_loop_repeats_the_step_and_the_check_statements(self):
        tree = ast.parse(Path(solver.__file__).read_text(encoding="utf-8"))
        functions = {node.name: node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)}
        loop = next(node for node in ast.walk(functions["fixed_point_solve"])
                    if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                    and node.target.id == "i")

        def statement(source):
            return ast.dump(ast.parse(source).body[0])

        # The locals the loop calls in place of numpy's and math's functions:
        # bound once per solve, before the loop, each to the function it names.
        block = next(node for node in functions["fixed_point_solve"].body
                     if isinstance(node, ast.With)).body
        hoist = next(node for node in block
                     if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
                     and "ndarray" in [t.id for t in node.targets[0].elts])
        assert block.index(hoist) < block.index(loop)
        bound = {t.id: value for t, value in zip(hoist.targets[0].elts, hoist.value.elts)}
        assert {name: ast.unparse(value) for name, value in bound.items()} == {
            "n": "len(xs)", "array": "np.array", "ndarray": "np.ndarray", "pow_": "math.pow",
            "sqrt": "math.sqrt", "isfinite": "math.isfinite", "inf": "math.inf"}
        start = functions["fixed_point_solve"].body[1:3]  # after the docstring
        assert [ast.dump(node) for node in start] == [
            statement("x = _point(x0)"), statement("xs = x.tolist()")]
        # _point reads through kernel.point, the one reader of a point.
        assert ast.dump(functions["_point"].body[1]) == statement("x = point(x)")
        kernel_tree = ast.parse(Path(kernel.__file__).read_text(encoding="utf-8"))
        kernel_functions = {node.name: node for node in ast.walk(kernel_tree)
                            if isinstance(node, ast.FunctionDef)}
        reader = kernel_functions["point"].body
        assert ast.dump(reader[1].body[0]) == statement("a = np.asarray(x, dtype=float)")
        assert ast.dump(reader[-1]) == statement("return a.ravel()")

        class Unhoist(ast.NodeTransformer):
            """Put each hoisted function's module attribute back in its place."""

            def visit_Name(self, node):
                value = bound.get(node.id)
                return copy.deepcopy(value) if isinstance(value, ast.Attribute) else node

        def unhoisted(node):
            return ast.dump(Unhoist().visit(copy.deepcopy(node)))

        # The multiplier's constants: computed once per solve, from the
        # checked settings, by kernel.multiplier's own statements.
        make_entry, entry = kernel_functions["multiplier"], kernel_functions["entry"]
        constants = [statement("power = -alpha"), statement("g = math.gamma(1.0 - alpha)")]
        assert [ast.dump(node) for node in make_entry.body[1:3]] == constants
        assert ast.dump(make_entry.body[3]) == statement("pow_ = math.pow")
        prologue = functions["fixed_point_solve"].body
        end = prologue.index(next(node for node in prologue if isinstance(node, ast.With)))
        at = [ast.dump(node) for node in prologue[:end]].index(
            statement("alpha, eps = settings.alpha.value, settings.epsilon"))
        assert [ast.dump(node) for node in prologue[at + 1:at + 3]] == constants

        # The step: each entry is the closure's list element, over the same
        # pairs, with entry(v) written out as p: the statements of the
        # multiplier's entry, in its order, with its x renamed v.
        closure = next(node for node in ast.walk(functions["fpn_update"])
                       if isinstance(node, ast.ListComp))
        pairs = next(node for node in loop.body if isinstance(node, ast.For))
        assert ast.dump(pairs.target) == ast.dump(closure.generators[0].target)
        assert ast.dump(pairs.iter) == ast.dump(closure.generators[0].iter)

        class RenameX(ast.NodeTransformer):
            def visit_Name(self, node):
                return ast.Name(id="v" if node.id == "x" else node.id, ctx=node.ctx)

        *written, exit_ = entry.body
        assert ast.dump(exit_) == statement("return p")
        assert [unhoisted(node) for node in pairs.body[:len(written)]] == [
            unhoisted(RenameX().visit(copy.deepcopy(node))) for node in written]

        class EntryAsP(ast.NodeTransformer):
            def visit_Call(self, node):
                if ast.unparse(node) == "entry(v)":
                    return ast.Name(id="p", ctx=ast.Load())
                return self.generic_visit(node)

        element = ast.unparse(EntryAsP().visit(copy.deepcopy(closure.elt)))
        assert element == "v - p * r"
        assert ast.dump(pairs.body[len(written)]) == statement(f"w = {element}")

        # The loop calls no package function but the residual, _same_bits at
        # a checkpoint, and kernel.point on a result that is not a 1-d
        # float64 array.
        assert {ast.unparse(node.func) for node in ast.walk(loop)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)} == {
            "f", "outcome", "_same_bits", "point", "ValueError", "abs", "all", "array", "len",
            "map", "pow_", "range", "sqrt", "type", "zip"}

        # No call in the loop looks a function up on numpy or math.
        assert not [ast.unparse(node) for node in ast.walk(loop)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "math")]

        # The check: _evaluate's statements, with _sum_squares written out and
        # a failure returned where _evaluate raises NonRealEvaluation.  The
        # loop's n is x0's length, and every iterate has x0's length.
        evaluate = functions["_evaluate"].body[1:]  # after the docstring
        assert ast.dump(evaluate[0]) == statement("n = len(x)")
        k = next(k for k, node in enumerate(loop.body) if isinstance(node, ast.Try))
        check = loop.body[k:k + 5]
        assert unhoisted(loop.body[k - 1]) == statement("x = np.array(xs_next)")
        # The read: one call of the residual, read by kernel.entries, whose
        # statements the loop writes out in place of its call
        # (test_kernel.py's test_the_written_out_reads_are_kernel_entries
        # holds that copy).
        assert [ast.dump(node) for node in evaluate[1].body] == [
            statement("rs = entries(f(x))")]
        assert ast.dump(check[0].body[0]) == statement("r = f(x)")
        assert len(check[0].body) == 2
        assert solver.FLOAT64 is kernel.FLOAT64 is np.dtype(float)
        assert [ast.dump(handler.type) for handler in check[0].handlers] == [
            ast.dump(evaluate[1].handlers[-1].type)]
        assert unhoisted(check[1]) == ast.dump(evaluate[2])  # the length check
        assert ast.dump(evaluate[3]) == statement("squares = _sum_squares(rs)")

        class Rename(ast.NodeTransformer):
            names = {"total": "squares", "values": "rs", "v": "r"}

            def visit_Name(self, node):
                return ast.Name(id=self.names.get(node.id, node.id), ctx=node.ctx)

        sum_squares = copy.deepcopy(functions["_sum_squares"]).body[1:3]
        assert [ast.dump(node) for node in check[2:4]] == [
            ast.dump(Rename().visit(node)) for node in sum_squares]
        assert unhoisted(check[4].test) == ast.dump(evaluate[4].test)
        assert ast.dump(evaluate[4].test) == ast.dump(ast.parse(
            "not squares < math.inf and not all(map(math.isfinite, rs))", mode="eval").body)

        # The limits: each tested on its sum of squares against its cut, so
        # the loop takes a root only of a norm that it reports, as _evaluate
        # takes it: in the trace, and in the outcome.
        assert statement(
            "step_cut, residual_cut, bound_cut = (square_cut(settings.tol_step), "
            "square_cut(settings.tol_residual), square_cut(settings.divergence_bound))"
        ) in [ast.dump(node) for node in block[:block.index(loop)]]
        assert ast.unparse(loop.body[k - 2].test).startswith("size > bound_cut or ")
        norm = ast.unparse(evaluate[5].value.elts[1])
        assert norm == "math.sqrt(squares)"
        assert unhoisted(check[4].body[0]) == statement(
            "return outcome(Status.EVALUATION_FAILED, xs_next, i, step_squares, math.nan)")
        assert unhoisted(loop.body[k + 5]) == statement(
            "if keep_trace:\n"
            "    iterates.append(xs_next)\n"
            "    step_norms.append(math.sqrt(step_squares))\n"
            f"    residual_norms.append({norm})")
        assert unhoisted(loop.body[k + 6].test) == ast.dump(ast.parse(
            "step_squares <= step_cut and squares <= residual_cut", mode="eval").body)
        reported = {keyword.arg: ast.unparse(keyword.value)
                    for keyword in functions["outcome"].body[-1].value.keywords}
        assert (reported["final_step_norm"], reported["final_residual_norm"]) == (
            "math.sqrt(step_squares)", "math.sqrt(res_squares)")
        in_trace = set(map(id, ast.walk(loop.body[k + 5])))
        assert all(id(node) in in_trace for node in ast.walk(loop)
                   if isinstance(node, ast.Call) and ast.unparse(node.func) == "sqrt")


class TestResidualResultContract:
    """What a residual may return: any array-like whose entries, flattened,
    are the vector, which then gives the bits of the 1-d float array."""

    # (name, start, residual returning a 1-d float array, another form of its result)
    FORMS = [
        ("column", [1.0, 0.5], square_minus_two, lambda r: r.reshape(-1, 1)),
        ("list", [1.0, 0.5], square_minus_two, lambda r: r.tolist()),
        ("0-d array", [1.0], square_minus_two, lambda r: r.reshape(())),
        ("python float", [1.0], square_minus_two, lambda r: float(r[0])),
        ("integer array", [1.0, 0.5], floor_of_four_x, lambda r: r.astype(np.int64)),
    ]

    @staticmethod
    def outcome_bits(out):
        trace = out.trace and tuple(a.tobytes() for a in (
            out.trace.iterates, out.trace.step_norms, out.trace.residual_norms))
        return (out.status, out.iterations, out.x_final.tobytes(),
                out.final_step_norm.hex(), out.final_residual_norm.hex(), trace)

    @pytest.mark.parametrize("name, x0, base, form", FORMS, ids=[c[0] for c in FORMS])
    def test_evaluate_reads_the_form_as_the_vector(self, name, x0, base, form):
        rs, norm = _evaluate(lambda x: form(base(x)), np.array(x0))
        expected_rs, expected_norm = _evaluate(base, np.array(x0))
        assert [v.hex() for v in rs] == [v.hex() for v in expected_rs]
        assert norm.hex() == expected_norm.hex()

    @pytest.mark.parametrize("keep_trace", [False, True])
    @pytest.mark.parametrize("name, x0, base, form", FORMS, ids=[c[0] for c in FORMS])
    def test_solve_gives_the_bits_of_the_vector(self, name, x0, base, form, keep_trace):
        settings = SolverSettings(alpha=0.5, max_iter=40)
        expected = self.outcome_bits(fixed_point_solve(base, x0, settings, keep_trace))
        assert expected[1] > 1
        # The form at every call: x0 through _evaluate, then the loop.
        everywhere = fixed_point_solve(lambda x: form(base(x)), x0, settings, keep_trace)
        assert self.outcome_bits(everywhere) == expected
        # The form from the first step on, x0 giving the 1-d array: the loop alone.
        first = first_call_ok_then(base)
        expected = self.outcome_bits(fixed_point_solve(first, x0, settings, keep_trace))
        mid_solve = fixed_point_solve(first_call_ok_then(lambda x: form(base(x))), x0,
                                      settings, keep_trace)
        assert self.outcome_bits(mid_solve) == expected

    @pytest.mark.parametrize("resize, length", [
        (lambda r: r[:-1], 1), (lambda r: np.append(r, 0.0), 3)], ids=["short", "long"])
    def test_wrong_length_raises_the_exact_message(self, resize, length):
        message = f"residual has shape ({length},), expected (2,)"
        x0 = np.array([1.0, 0.5])
        with pytest.raises(ValueError) as raised:
            _evaluate(lambda x: resize(square_minus_two(x)), x0)
        assert str(raised.value) == message
        for f in (lambda x: resize(square_minus_two(x)),
                  first_call_ok_then(lambda x: resize(square_minus_two(x)))):
            with pytest.raises(ValueError) as raised:
                fixed_point_solve(f, x0, SolverSettings(alpha=0.5))
            assert str(raised.value) == message
