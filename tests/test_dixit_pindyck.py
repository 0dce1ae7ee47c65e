"""Threshold-model tests: constants, residuals, back-substitution, solves."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings, strategies as st

from fracroots import (DegenerateThresholds, Decision, EconomicPrimitives,
                       InvalidPrimitives, ModelConstants, NonRealEvaluation,
                       SolverSettings, Status, ThresholdOrderingWarning,
                       ThresholdProblem, ThresholdSolveFailed,
                       back_substitute, classify_income, derive_constants,
                       full_residual, full_residual_scale, make_residual,
                       default_alpha_grid, fixed_point_solve, norm2,
                       reduced_residual, solve_thresholds, sweep_thresholds)
from fracroots.dixit_pindyck import STATUS_FROM_CODE, KernelResidual, _label_thresholds
from fracroots.solver import MAX_ITER, IterationTrace
from fracroots import _kernels, reference

#: Full-precision initial residual norms of the bundled scenarios, frozen
#: from the implementation after verifying the published 6-digit values.
FROZEN_F0 = {
    1: 600379.4153755388,
    2: 961232.3251519458,
    3: 835071.8695142496,
    4: 678951.0659284986,
    5: 857733.3970745404,
}


def random_primitives(rng, sigma_floor: float = 0.05) -> EconomicPrimitives:
    """Admissible primitives; sigma_floor bounds the implied exponents."""
    mu = float(rng.uniform(-0.5, 0.5))
    sigma = float(rng.uniform(sigma_floor, 2.0))
    l = abs(mu) + float(rng.uniform(0.01, 1.0))
    return EconomicPrimitives(mu=mu, sigma=sigma, l=l,
                              c=float(rng.uniform(0.0, 10.0)),
                              kappa=float(rng.uniform(0.0, 5.0)),
                              chi=float(rng.uniform(0.0, 5.0)))


class TestDeriveConstants:
    def test_worked_example(self):
        c = derive_constants(EconomicPrimitives(mu=0.0, sigma=1.0, l=0.5,
                                                c=1.0, kappa=0.1, chi=0.05))
        assert c.rho == pytest.approx(math.sqrt(1.25), abs=1e-12)
        assert c.a1 == pytest.approx(0.618033989, abs=1e-9)
        assert c.a2 == pytest.approx(1.618033989, abs=1e-9)
        assert c.a3 == pytest.approx(1.618033989, abs=1e-9)
        assert c.a4 == pytest.approx(0.618033989, abs=1e-9)
        assert c.a5 == 2.0
        assert c.a6 == pytest.approx(2.1, abs=1e-12)
        assert c.a7 == pytest.approx(1.95, abs=1e-12)

    def test_identities_hold_for_random_primitives(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            p = random_primitives(rng)
            c = derive_constants(p)
            assert abs(c.a3 - c.a1 - 1.0) < 1e-10
            assert abs(c.a2 - c.a4 - 1.0) < 1e-10
            assert abs(c.a1 + c.a2 - 2.0 * c.rho) < 1e-10
            assert abs(c.a3 + c.a4 - 2.0 * c.rho) < 1e-10
            assert abs((c.a6 - c.a7) - (p.kappa + p.chi)) < 1e-10
            assert c.a1 > 0.0 and c.a2 > 0.0

    def test_degenerate_interest_rate_rejected(self):
        with pytest.raises(InvalidPrimitives):
            EconomicPrimitives(mu=0.3, sigma=1.0, l=0.3, c=1.0, kappa=0.0, chi=0.0)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(InvalidPrimitives):
            EconomicPrimitives(mu=0.0, sigma=0.0, l=0.5, c=1.0, kappa=0.0, chi=0.0)

    def test_invalid_message_names_field(self):
        with pytest.raises(InvalidPrimitives, match="sigma"):
            EconomicPrimitives(mu=0.0, sigma=-1.0, l=0.5, c=1.0, kappa=0.0, chi=0.0)


class TestModelConstants:
    def test_bundled_structural_constants_satisfy_identities(self):
        c = reference.scenario_constants(451474.0, 396499.0)
        assert c.a3 - c.a1 == pytest.approx(1.0, abs=1e-12)
        assert c.a2 - c.a4 == pytest.approx(1.0, abs=1e-12)
        assert c.a1 + c.a2 == pytest.approx(2.0 * c.rho, abs=1e-12)

    def test_inconsistent_exponents_rejected(self):
        with pytest.raises(ValueError):
            ModelConstants(a1=0.5, a2=1.5, a3=2.5, a4=0.5, a5=1.0, a6=2.0, a7=1.0)

    def test_overflowing_half_sum_rejected(self):
        # a1 + a2 overflows; an infinite rho would scale every identity gap to 0.
        with pytest.raises(ValueError):
            ModelConstants(a1=1e308, a2=1e308, a3=1e308 + 1, a4=1e308 - 1,
                           a5=1.0, a6=2.0, a7=1.0)

    def test_nonpositive_a1_rejected(self):
        with pytest.raises(ValueError):
            ModelConstants(a1=-0.5, a2=0.5, a3=0.5, a4=-0.5, a5=1.0, a6=2.0, a7=1.0)

    @pytest.mark.parametrize("name, value", [("a5", math.inf), ("a6", math.nan),
                                             ("a7", -math.inf)])
    def test_non_finite_constant_rejected(self, name, value):
        values = dict(reference.STRUCTURAL, a6=451474.0, a7=396499.0)
        values[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelConstants(**values)

    def test_trigger_ordering_enforced_by_problem(self):
        constants = reference.scenario_constants(100.0, 200.0)
        with pytest.raises(ValueError, match="a6"):
            ThresholdProblem(constants=constants, x0=(1.0, 2.0))


class TestReducedResidual:
    @pytest.mark.parametrize("row", reference.ROWS, ids=lambda r: f"row{r.index}")
    def test_initial_norms_match_reference(self, row):
        c = reference.scenario_constants(row.a6, row.a7)
        value = norm2(reduced_residual(c, np.array(row.x0)))
        assert value == pytest.approx(row.f0_norm, rel=1e-5)
        assert value == pytest.approx(FROZEN_F0[row.index], rel=1e-12)

    def test_norm_small_at_reference_solution(self):
        row = reference.ROWS[0]
        c = reference.scenario_constants(row.a6, row.a7)
        assert norm2(reduced_residual(c, np.array(row.solution))) <= 1e-4

    def test_degenerate_diagonal(self):
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(DegenerateThresholds, match=r"coincide at \(5\.0, 5\.0\)"):
            reduced_residual(c, np.array([5.0, 5.0]))

    def test_near_coincident_components_are_degenerate(self):
        # Against a 60-digit mpmath evaluation on row 1 at x1 = 2e4, the
        # residual's relative error is 1.4e-8 at |1 - x2/x1| = 1e-6, 2.5e-6 at
        # 1e-10, 4.8e-3 at 1e-12 and 0.51 at 1e-14: such a point has no
        # trustworthy value, so it raises instead of returning one.
        row = reference.ROWS[0]
        c = reference.scenario_constants(row.a6, row.a7)
        x = np.array([2e4, 2e4 * (1.0 - 1e-12)])
        with pytest.raises(DegenerateThresholds):
            reduced_residual(c, x)
        with pytest.raises(DegenerateThresholds):
            back_substitute(c, x)

    def test_underflowed_powers_are_degenerate(self):
        # Both powers underflow to 0, so t1 - t2 is 0 however far apart x1 and x2 are.
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(DegenerateThresholds):
            reduced_residual(c, np.array([1e-300, 2e-300]))
        with pytest.raises(DegenerateThresholds):
            back_substitute(c, np.array([1e-300, 2e-300]))

    @pytest.mark.parametrize("x", [(-1.0, 2.0), (2.0, -1.0), (0.0, 3.0)])
    def test_nonpositive_components(self, x):
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(NonRealEvaluation):
            reduced_residual(c, np.array(x))

    def test_overflowing_point_raises_typed_error(self):
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(NonRealEvaluation):
            reduced_residual(c, np.array([1e300, 1.0]))


def residual_with_repeated_powers(a1, a2, a3, a4, a5, a6, a7, x1, x2):
    """The checked reduced residual as written with x1**a3 and x2**a3 each taken twice."""
    if x1 <= 0.0 or x2 <= 0.0:
        raise NonRealEvaluation(f"thresholds must be positive, got {(x1, x2)}")
    s = a3 + a4
    try:
        t1 = x1 ** s
        t2 = x2 ** s
        if abs(t1 - t2) <= 1e-8 * max(t1, t2):
            raise DegenerateThresholds(f"threshold components coincide at {(x1, x2)}")
        den = a1 * a2 * (t1 - t2)
        g13 = x2 ** a3 - x1 ** a3
        g14 = x1 ** a4 - x2 ** a4
        f1 = a5 * x1 - a6 + a5 * (a1 * x1 ** a2 * g13 + a2 * x1 * x2 ** a3 * g14) / den
        f2 = a5 * x2 - a7 + a5 * (a1 * x2 ** a2 * g13 + a2 * x1 ** a3 * x2 * g14) / den
    except OverflowError as exc:
        raise NonRealEvaluation("reduced residual evaluated to a non-finite value") from exc
    if not (math.isfinite(f1) and math.isfinite(f2)):
        raise NonRealEvaluation("reduced residual evaluated to a non-finite value")
    return f1, f2


def checked_outcome(fn, *args):
    """``fn(*args)`` as float hex strings, or the type and message of what it raised."""
    try:
        return tuple(v.hex() for v in fn(*args))
    except NonRealEvaluation as exc:
        return type(exc), str(exc)


THRESHOLD_POINTS = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0, 5.0, 1e150, 1e300, 1e308]))


class TestReducedResidualBitwise:
    """The kernel's residual against the same expression with its repeated powers.

    Values compare as float hex; a raised error (overflow, coincident or
    non-positive components) must have the same type and message.
    """

    @given(row=st.sampled_from(reference.ROWS), x1=THRESHOLD_POINTS, x2=THRESHOLD_POINTS)
    @hypothesis_settings(max_examples=400, deadline=None)
    @example(row=reference.ROWS[0], x1=41844.57090443, x2=11857.32126593)
    @example(row=reference.ROWS[0], x1=5.0, x2=5.0)
    @example(row=reference.ROWS[0], x1=1e300, x2=1.0)
    @example(row=reference.ROWS[0], x1=-1.0, x2=2.0)
    @example(row=reference.ROWS[0], x1=2.0, x2=0.0)
    def test_values_and_errors_match(self, row, x1, x2):
        c = reference.scenario_constants(row.a6, row.a7)
        args = (c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.a7, x1, x2)
        assert (checked_outcome(_kernels.reduced_residual_checked, *args)
                == checked_outcome(residual_with_repeated_powers, *args))


class TestBackSubstitute:
    def test_swap_symmetry_is_exact(self):
        c = reference.scenario_constants(451474.0, 396499.0)
        a, b = back_substitute(c, np.array([41844.0, 11857.0]))
        a2, b2 = back_substitute(c, np.array([11857.0, 41844.0]))
        assert a == a2
        assert b == b2

    def test_degenerate_diagonal(self):
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(DegenerateThresholds):
            back_substitute(c, np.array([7.0, 7.0]))

    def test_matches_linear_solve_oracle(self):
        # The coefficients solve the two derivative-matching equations, which
        # are linear in (A, B); solve that 2x2 system directly and compare.
        rng = np.random.default_rng(23)
        for _ in range(50):
            c = derive_constants(random_primitives(rng, sigma_floor=0.3))
            x1 = float(rng.uniform(0.5, 50.0))
            x2 = float(rng.uniform(0.5, 50.0))
            if abs(x1 - x2) < 1e-3:
                continue
            a, b = back_substitute(c, np.array([x1, x2]))
            lhs = np.array([
                [-c.a2 * x1 ** c.a4, -c.a1 * x1 ** (-c.a3)],
                [-c.a2 * x2 ** c.a4, -c.a1 * x2 ** (-c.a3)],
            ])
            coeffs = np.linalg.solve(lhs, np.array([-c.a5, -c.a5]))
            assert a == pytest.approx(coeffs[0], rel=1e-9)
            assert b == pytest.approx(coeffs[1], rel=1e-9)


def back_substitute_unguarded(c, x1, x2):
    """back_substitute's closed form as written before its overflow fallback."""
    t1 = x1 ** (c.a3 + c.a4)
    t2 = x2 ** (c.a3 + c.a4)
    a = c.a5 * (x1 ** c.a3 - x2 ** c.a3) / (c.a2 * (t1 - t2))
    b = c.a5 * (x1 * x2) ** c.a3 * (x1 ** c.a4 - x2 ** c.a4) / (c.a1 * (t1 - t2))
    return a, b


#: Textbook primitives (mu = sigma = 5 %, l = 10 %) whose converged
#: thresholds make (H L)^a3 overflow although B is about 1.17e162.
LARGE_EXPONENT_PRIMITIVES = EconomicPrimitives(mu=0.05, sigma=0.05, l=0.1, c=10_000.0,
                                               kappa=10_000.0, chi=100.0)


def large_exponent_problems():
    """(problem, alpha) pairs whose converged (H L)^a3 overflows: 1 + 12 cases."""
    cases = [(ThresholdProblem(constants=derive_constants(LARGE_EXPONENT_PRIMITIVES),
                               x0=[220_000.0, 99_950.0]), 0.25)]
    for a1, s in [(20.0, 1e8), (39.0, 1e4), (39.0, 1e6), (60.0, 1e4)]:
        c = ModelConstants(a1=a1, a2=1.5, a3=a1 + 1.0, a4=0.5, a5=2.0, a6=1.1 * s, a7=s)
        for x0 in [(2 * s, s / 2), (s / 2, 2 * s), (s, 3 * s)]:
            cases.append((ThresholdProblem(constants=c, x0=list(x0)), -0.05))
    return cases


class TestBackSubstituteOverflow:
    @pytest.mark.parametrize("problem, alpha", large_exponent_problems())
    def test_converged_scenario_back_substitutes(self, problem, alpha):
        sol = solve_thresholds(problem, SolverSettings(alpha=alpha))
        with pytest.raises(OverflowError):
            back_substitute_unguarded(problem.constants, sol.H, sol.L)
        assert math.isfinite(sol.A) and math.isfinite(sol.B)
        scale = full_residual_scale(problem.constants, sol.H, sol.L)
        assert sol.full_residual_norm / scale <= 1e-10

    def test_finite_results_keep_their_bits(self):
        # The fallback runs only where the closed form is not finite, so
        # every finite result is the same float as before it existed.
        constant_sets = [reference.scenario_constants(row.a6, row.a7)
                         for row in reference.ROWS]
        constant_sets += [problem.constants for problem, _ in large_exponent_problems()]
        points = [(row.solution[0], row.solution[1]) for row in reference.ROWS]
        grid = np.geomspace(1e-2, 1e8, 11).tolist()
        points += [(x1, x2) for x1 in grid for x2 in grid if x1 != x2]
        compared = 0
        for c in constant_sets:
            for x1, x2 in points:
                try:
                    old = back_substitute_unguarded(c, x1, x2)
                except (OverflowError, ZeroDivisionError):
                    continue
                t1, t2 = x1 ** (c.a3 + c.a4), x2 ** (c.a3 + c.a4)
                if not all(map(math.isfinite, old)) or abs(t1 - t2) <= 1e-8 * max(t1, t2):
                    continue
                new = back_substitute(c, np.array([x1, x2]))
                assert [v.hex() for v in new] == [v.hex() for v in old], (c, x1, x2)
                compared += 1
        assert compared > 1000


class TestFullResidual:
    def test_zero_coefficients_leave_affine_part(self):
        c = reference.scenario_constants(451474.0, 396499.0)
        r = full_residual(c, 7.0, 3.0, 0.0, 0.0)
        assert r[0] == c.a5 * 7.0 - c.a6
        assert r[2] == c.a5 * 3.0 - c.a7

    def test_nonpositive_thresholds_rejected(self):
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(NonRealEvaluation):
            full_residual(c, -1.0, 2.0, 0.1, 0.1)

    def test_reduction_equivalence(self):
        # After back-substitution the derivative equations vanish and the
        # value-matching rows equal the reduced residual, for any (H, L).
        rng = np.random.default_rng(31)
        for _ in range(100):
            c = derive_constants(random_primitives(rng, sigma_floor=0.3))
            x = np.sort(rng.uniform(0.5, 80.0, size=2))[::-1]
            if abs(x[0] - x[1]) < 1e-2:
                continue
            a, b = back_substitute(c, x)
            reduced = reduced_residual(c, x)
            full = full_residual(c, x[0], x[1], a, b)
            scale = max(1.0, abs(a) * max(x) ** c.a2, abs(b) * min(x) ** (-c.a1))
            assert abs(full[1]) <= 1e-10 * scale
            assert abs(full[3]) <= 1e-10 * scale
            assert full[0] == pytest.approx(reduced[0], rel=1e-9, abs=1e-9 * scale)
            assert full[2] == pytest.approx(reduced[1], rel=1e-9, abs=1e-9 * scale)


class TestSolveThresholds:
    @pytest.mark.parametrize("row", [reference.ROWS[0], reference.ROWS[2]],
                             ids=lambda r: f"row{r.index}")
    def test_reference_rows(self, row):
        sol = solve_thresholds(reference.scenario_problem(row),
                               SolverSettings(alpha=row.alpha))
        assert sol.H == pytest.approx(row.solution[0], rel=1e-9)
        assert sol.L == pytest.approx(row.solution[1], rel=1e-9)
        assert sol.outcome.status is Status.CONVERGED
        assert sol.H > sol.L > 0.0

    def test_degenerate_start_surfaces_failure(self):
        constants = reference.scenario_constants(451474.0, 396499.0)
        problem = ThresholdProblem(constants=constants, x0=(5.0, 5.0))
        with pytest.raises(ThresholdSolveFailed) as err:
            solve_thresholds(problem, SolverSettings(alpha=0.26131))
        assert err.value.outcome.status is Status.EVALUATION_FAILED

    def test_trace_attached_on_request(self):
        row = reference.ROWS[1]
        sol = solve_thresholds(reference.scenario_problem(row),
                               SolverSettings(alpha=row.alpha), keep_trace=True)
        tr = sol.outcome.trace
        assert tr is not None
        assert tr.iterates.shape == (sol.outcome.iterations + 1, 2)
        assert tr.step_norms.shape == (sol.outcome.iterations,)
        assert tr.residual_norms.shape == (sol.outcome.iterations + 1,)
        assert np.array_equal(tr.iterates[0], np.array(row.x0))

    def test_kernel_trace_norms_recompute(self):
        row = reference.ROWS[1]
        problem = reference.scenario_problem(row)
        sol = solve_thresholds(problem, SolverSettings(alpha=row.alpha),
                               keep_trace=True)
        tr = sol.outcome.trace
        f = make_residual(problem.constants)
        for i in range(sol.outcome.iterations):
            assert norm2(tr.iterates[i + 1] - tr.iterates[i]) == tr.step_norms[i]
        for i in range(sol.outcome.iterations + 1):
            assert norm2(f(tr.iterates[i])) == tr.residual_norms[i]

    def test_label_helper(self):
        assert _label_thresholds(2.0, 1.0) == (2.0, 1.0, False)
        assert _label_thresholds(1.0, 2.0) == (2.0, 1.0, True)

    def test_no_ordering_warning_on_reference_row(self):
        row = reference.ROWS[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ThresholdOrderingWarning)
            solve_thresholds(reference.scenario_problem(row),
                             SolverSettings(alpha=row.alpha))


def kernel_trace(constants, x0, settings) -> IterationTrace:
    """The scalar kernel's own trace: ``_kernels.solve_reduced`` with trace arrays.

    The arrays are filled up to the last point where the residual was
    evaluable, so a failed solve keeps one iterate fewer than its count.
    """
    c = constants
    n_max = settings.max_iter
    xs, steps, residuals = np.empty((n_max + 1, 2)), np.empty(n_max), np.empty(n_max + 1)
    code, n = _kernels.solve_reduced(
        c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.a7, float(x0[0]), float(x0[1]),
        settings.alpha.value, settings.epsilon, settings.tol_step,
        settings.tol_residual, n_max, settings.divergence_bound,
        xs, steps, residuals)[:2]
    last = n if STATUS_FROM_CODE[code] in (Status.CONVERGED, Status.MAX_ITERATIONS) \
        else max(n - 1, 0)
    return IterationTrace(iterates=xs[:last + 1], step_norms=steps[:last],
                          residual_norms=residuals[:last + 1])


def bitwise_equal(a, b) -> bool:
    """Exact equality of floats or float arrays, NaN equal to NaN."""
    return np.array_equal(a, b, equal_nan=True)


class TestKernelAgreement:
    """The scalar kernel against the generic driver: both sum squares in entry
    order, so iterates and norms are equal, not just close."""

    @pytest.mark.parametrize("row", reference.ROWS, ids=lambda r: f"row{r.index}")
    def test_every_sweep_order_matches_generic_driver(self, row):
        problem = reference.scenario_problem(row)
        f = make_residual(problem.constants)
        for alpha in default_alpha_grid():
            settings = SolverSettings(alpha=alpha)
            kernel = KernelResidual(problem.constants).fused_solve(problem.x0, settings)
            trace = kernel_trace(problem.constants, problem.x0, settings)
            generic = fixed_point_solve(f, problem.x0, settings, keep_trace=True)
            where = f"alpha {alpha.value}"
            assert kernel.status is generic.status, where
            assert kernel.iterations == generic.iterations, where
            assert bitwise_equal(kernel.x_final, generic.x_final), where
            assert bitwise_equal(kernel.final_step_norm, generic.final_step_norm), where
            assert bitwise_equal(kernel.final_residual_norm,
                                 generic.final_residual_norm), where
            # Same iterates and norms up to the last evaluable point.
            assert bitwise_equal(trace.iterates, generic.trace.iterates), where
            assert bitwise_equal(trace.step_norms, generic.trace.step_norms), where
            assert bitwise_equal(trace.residual_norms,
                                 generic.trace.residual_norms), where

    @pytest.mark.parametrize("row", reference.ROWS, ids=lambda r: f"row{r.index}")
    def test_reference_solve_matches_generic_driver(self, row):
        problem = reference.scenario_problem(row)
        settings = SolverSettings(alpha=row.alpha)
        kernel = KernelResidual(problem.constants).fused_solve(problem.x0, settings)
        generic = fixed_point_solve(make_residual(problem.constants),
                                    problem.x0, settings)
        assert generic.status is Status.CONVERGED
        assert kernel.status is Status.CONVERGED
        assert generic.iterations == kernel.iterations
        assert bitwise_equal(generic.x_final, kernel.x_final)
        assert generic.final_residual_norm == kernel.final_residual_norm
        assert generic.final_step_norm == kernel.final_step_norm


    @pytest.mark.parametrize("x0", [[15.0], [15.0, 20.0, 25.0]], ids=["length-1", "length-3"])
    def test_start_of_another_length_fails_at_the_start_on_both_paths(self, x0):
        f = KernelResidual(reference.scenario_problem(reference.ROWS[0]).constants)
        settings = SolverSettings(alpha=reference.ROWS[0].alpha)
        traced = fixed_point_solve(f, x0, settings, keep_trace=True)
        fused = fixed_point_solve(f, x0, settings)
        assert (traced.status, traced.iterations) == (Status.EVALUATION_FAILED, 0)
        assert (fused.status, fused.iterations) == (traced.status, traced.iterations)
        assert fused.x_final.tobytes() == traced.x_final.tobytes() == np.array(x0).tobytes()
        assert math.isnan(fused.final_step_norm) and math.isnan(traced.final_step_norm)
        assert math.isnan(fused.final_residual_norm) and math.isnan(traced.final_residual_norm)


class TestKernelTrace:
    """The kernel keeps a trace only when one is asked for."""

    @pytest.mark.parametrize("x0", [(15.0, 20.0), (5.0, 5.0), (1e-300, 1.0)],
                             ids=["converges", "fails-at-start", "diverges"])
    def test_solve_reduced_without_trace_arrays_returns_the_same(self, x0):
        c = reference.scenario_constants(451474.0, 396499.0)
        for alpha in (0.26131, 1.5):
            args = (c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.a7, x0[0], x0[1], alpha,
                    1e-4, 1e-5, 1e-4, 500, 1e10)
            traced = _kernels.solve_reduced(*args, np.empty((501, 2)), np.empty(500),
                                            np.empty(501))
            assert _kernels.solve_reduced(*args, None, None, None) == traced

    def test_untraced_solve_allocates_no_trace(self):
        # The cap allows a million iterations: a trace would take 32 MB.
        row = reference.ROWS[0]
        problem = reference.scenario_problem(row)
        settings = SolverSettings(alpha=row.alpha, max_iter=MAX_ITER)
        tracemalloc.start()
        try:
            out = KernelResidual(problem.constants).fused_solve(problem.x0, settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.status, out.iterations) == (Status.CONVERGED, row.iterations)
        assert peak < 100_000

    def test_traced_solve_grows_with_the_iterations_not_the_cap(self):
        # A trace sized for the cap would take 32 MB; the driver loop grows
        # its trace as it goes.
        row = reference.ROWS[0]
        problem = reference.scenario_problem(row)
        settings = SolverSettings(alpha=row.alpha, max_iter=MAX_ITER)
        tracemalloc.start()
        try:
            out = fixed_point_solve(KernelResidual(problem.constants), problem.x0,
                                    settings, keep_trace=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.status, out.iterations) == (Status.CONVERGED, row.iterations)
        assert out.trace.iterates.shape == (row.iterations + 1, 2)
        assert peak < 1_000_000


class TestSweepThresholds:
    def test_grid_containing_reference_alpha_finds_reference_root(self):
        row = reference.ROWS[0]
        roots = sweep_thresholds(reference.scenario_problem(row),
                                 grid=[0.2, row.alpha, 0.3])
        assert roots.roots
        hit = min(roots.roots,
                  key=lambda r: abs(r.x[0] - row.solution[0]))
        assert max(hit.x) == pytest.approx(row.solution[0], rel=1e-6)
        assert min(hit.x) == pytest.approx(row.solution[1], rel=1e-6)
        assert row.alpha in hit.found_by

    @pytest.mark.parametrize("x0, grid, status", [
        # x1 ** (a3 + a4) overflows in the residual at the start.
        ((1e200, 1.0), [0.25, 0.5], Status.EVALUATION_FAILED),
        # |x1| ** (-1.5) overflows in the multiplier of the first step.
        ((1e-300, 1.0), [0.25, 1.5], Status.DIVERGED),
    ])
    def test_overflow_gives_the_generic_drivers_status(self, x0, grid, status):
        constants = reference.scenario_problem(reference.ROWS[0]).constants
        problem = ThresholdProblem(constants=constants, x0=x0)
        roots = sweep_thresholds(problem, grid=grid)
        assert not roots.roots
        assert [s.status for s in roots.skipped] == [status] * len(grid)
        for alpha in grid:
            settings = SolverSettings(alpha=alpha)
            kernel = KernelResidual(constants).fused_solve(problem.x0, settings)
            trace = kernel_trace(constants, problem.x0, settings)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                generic = fixed_point_solve(make_residual(constants), problem.x0,
                                            settings, keep_trace=True)
            assert (kernel.status, kernel.iterations) == (generic.status, generic.iterations)
            # Both fail at or right after the start, so the trace is x0 alone.
            for each in (trace, generic.trace):
                assert np.array_equal(each.iterates, [problem.x0])
                assert each.step_norms.size == 0
            assert bitwise_equal(kernel.x_final, generic.x_final)
            assert bitwise_equal(kernel.final_step_norm, generic.final_step_norm)
            assert bitwise_equal(kernel.final_residual_norm, generic.final_residual_norm)
            assert bitwise_equal(trace.residual_norms, generic.trace.residual_norms)

    def test_every_order_is_a_driver_solve(self, monkeypatch):
        # The kernel runs behind fixed_point_solve, so whatever wraps the
        # driver sees each order's status and iteration count.
        from fracroots import solver
        seen = []

        def counting(*args, **kwargs):
            out = fixed_point_solve(*args, **kwargs)
            seen.append((out.status, out.iterations))
            return out

        monkeypatch.setattr(solver, "fixed_point_solve", counting)
        problem = reference.scenario_problem(reference.ROWS[0])
        grid = default_alpha_grid()
        roots = sweep_thresholds(problem, grid=grid)
        assert len(seen) == len(grid)
        kernel = KernelResidual(problem.constants)
        expected = [(o.status, o.iterations) for o in
                    (kernel.fused_solve(problem.x0, SolverSettings(alpha=a))
                     for a in grid)]
        assert seen == expected
        assert sum(s is Status.CONVERGED for s, _ in seen) == \
            sum(len(r.found_by) for r in roots.roots)

    def test_empty_grid_rejected(self):
        row = reference.ROWS[0]
        with pytest.raises(ValueError):
            sweep_thresholds(reference.scenario_problem(row), grid=[])


@pytest.fixture(scope="module")
def solution():
    row = reference.ROWS[0]
    return solve_thresholds(reference.scenario_problem(row),
                            SolverSettings(alpha=row.alpha))


class TestClassifyIncome:
    def test_boundaries_are_inclusive(self, solution):
        assert classify_income(solution.H, solution) is Decision.EXPAND
        assert classify_income(solution.L, solution) is Decision.REDUCE_OR_CLOSE

    def test_interior_continues(self, solution):
        midpoint = 0.5 * (solution.H + solution.L)
        assert classify_income(midpoint, solution) is Decision.CONTINUE

    def test_far_sides(self, solution):
        assert classify_income(2.0 * solution.H, solution) is Decision.EXPAND
        assert classify_income(0.5 * solution.L, solution) is Decision.REDUCE_OR_CLOSE

    def test_nonpositive_income_rejected(self, solution):
        with pytest.raises(ValueError):
            classify_income(0.0, solution)
