"""Threshold-model tests: constants, residuals, back-substitution, solves."""

import ast
import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings, strategies as st

from fracroots import (Decision, EconomicPrimitives,
                       FractionalOrder, InvalidPrimitives, ModelConstants,
                       NonRealEvaluation,
                       SolverSettings, Status, ThresholdOrderingWarning,
                       ThresholdProblem, ThresholdSolveFailed,
                       back_substitute, classify_income, derive_constants,
                       full_residual, full_residual_scale, make_residual,
                       default_alpha_grid, fixed_point_solve, norm2,
                       reduced_residual, solve_thresholds, sweep_thresholds)
from fracroots.dixit_pindyck import STATUS_FROM_CODE, KernelResidual, label_root
from fracroots.solver import MAX_ITER, IterationTrace
from fracroots import _kernels, dixit_pindyck, reference

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

    def test_nonpositive_interest_rate_rejected(self):
        # l = 0 exceeds mu = -1, so only the sign check refuses it.
        with pytest.raises(InvalidPrimitives, match="l must be positive"):
            EconomicPrimitives(mu=-1.0, sigma=1.0, l=0.0, c=1.0, kappa=0.0, chi=0.0)

    @pytest.mark.parametrize("name", ["c", "kappa", "chi"])
    def test_negative_cost_rejected(self, name):
        costs = {"c": 1.0, "kappa": 0.0, "chi": 0.0, name: -1.0}
        with pytest.raises(InvalidPrimitives, match=f"{name} must be non-negative, got -1.0"):
            EconomicPrimitives(mu=0.0, sigma=1.0, l=0.5, **costs)

    def test_non_finite_derived_constant_rejected(self):
        # sigma**2 is the subnormal 1e-320, so 2 l / sigma**2 overflows to inf
        # without an arithmetic error and ModelConstants refuses the infinite a1.
        p = EconomicPrimitives(mu=0.0, sigma=1e-160, l=0.5, c=1.0, kappa=0.1, chi=0.05)
        with pytest.raises(InvalidPrimitives, match="derived constants are invalid"):
            derive_constants(p)


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

    @pytest.mark.parametrize("x0, message", [((1.0, 2.0, 3.0), "2-vector"),
                                             ((math.inf, 2.0), "must be finite")])
    def test_problem_refuses_a_bad_start(self, x0, message):
        constants = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(ValueError, match=message):
            ThresholdProblem(constants=constants, x0=x0)


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

    @pytest.mark.parametrize("x", [(2e4,), [2e4, 1e4, 5e3], np.array([[2e4], [1e4], [5e3]])],
                             ids=["length-1", "length-3", "length-3-column"])
    def test_refuses_a_point_that_is_not_a_pair(self, x):
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(ValueError) as raised:
            reduced_residual(c, x)
        assert type(raised.value) is ValueError and str(raised.value) == "x must be a 2-vector"

    def test_any_form_of_the_pair_gives_the_vector_bits(self):
        row = reference.ROWS[0]
        c = reference.scenario_constants(row.a6, row.a7)
        expected = reduced_residual(c, np.array(row.x0, dtype=float)).tobytes()
        for x in (tuple(row.x0), list(row.x0), np.array(row.x0, dtype=float).reshape(2, 1)):
            assert reduced_residual(c, x).tobytes() == expected

    def test_diagonal_pair_evaluates(self):
        # x1 = x2 is an ordinary point: both components take the divided
        # differences' common limit there, so f1 - f2 is a7 - a6.
        for row in reference.ROWS:
            c = reference.scenario_constants(row.a6, row.a7)
            for x in (5.0, 2e4, 1e6):
                f1, f2 = reduced_residual(c, np.array([x, x]))
                assert f1 - f2 == pytest.approx(c.a7 - c.a6, rel=1e-12)

    @pytest.mark.parametrize("x", [(1e300, 1.0), (1e-300, 2e-300)],
                             ids=["far-apart", "tiny"])
    def test_pairs_whose_powers_leave_the_float_range_evaluate(self, x):
        # x**(a3 + a4) overflows at 1e300 and underflows to 0 at 1e-300 on
        # reference row 1; the residual and the coefficients take only the
        # ratio's log and expm1 of non-positive arguments.
        c = reference.scenario_constants(451474.0, 396499.0)
        assert np.all(np.isfinite(reduced_residual(c, np.array(x))))
        assert all(map(math.isfinite, back_substitute(c, np.array(x))))

    @pytest.mark.parametrize("x", [(-1.0, 2.0), (2.0, -1.0), (0.0, 3.0)])
    def test_nonpositive_components(self, x):
        c = reference.scenario_constants(451474.0, 396499.0)
        for evaluate in (reduced_residual, back_substitute):
            with pytest.raises(NonRealEvaluation, match="must be positive"):
                evaluate(c, np.array(x))

    def test_overflowing_point_raises_typed_error(self):
        # a5 * x1 overflows.
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(NonRealEvaluation, match="no finite value"):
            reduced_residual(c, np.array([1e308, 1.0]))

    def test_ratio_that_underflows_raises_typed_error(self):
        # 1e-30 / 1e300 is 0.0, whose log is undefined.
        c = reference.scenario_constants(451474.0, 396499.0)
        for evaluate in (reduced_residual, back_substitute):
            with pytest.raises(NonRealEvaluation, match=r"no finite value at \(1e\+300, 1e-30\)"):
                evaluate(c, np.array([1e300, 1e-30]))

    @pytest.mark.parametrize("x", [(math.inf, 1.0), (1.0, math.inf), (math.inf, 1e-300)])
    def test_infinite_component_is_refused(self, x):
        c = reference.scenario_constants(451474.0, 396499.0)
        for evaluate in (reduced_residual, back_substitute):
            with pytest.raises(NonRealEvaluation, match="finite, got"):
                evaluate(c, np.array(x))


class Reversed(np.ndarray):
    """An ndarray subclass whose own tolist() reverses the entries."""

    def tolist(self):
        return super().tolist()[::-1]


#: A pair whose integers differ but whose floats are equal: read as Python
#: integers, x2 / x1 is below 1 and the pair leaves the diagonal.
BIG_PAIR = [2**53 + 1, 2**53]


class TestKernelResidualRead:
    """KernelResidual reads its point as kernel.entries reads one: a 1-d
    float64 ndarray with one tolist(), anything else by kernel.point; both
    give the bits of the general conversion."""

    C = reference.scenario_constants(451474.0, 396499.0)

    # (name, make()): each makes a pair in one form.
    PAIRS = [
        ("1-d float64", lambda: np.array([15.0, 20.0])),
        ("list", lambda: [15.0, 20.0]),
        ("tuple", lambda: (15.0, 20.0)),
        ("(2, 1) column", lambda: np.array([[15.0], [20.0]])),
        ("(1, 2) row", lambda: np.array([[15.0, 20.0]])),
        ("float32", lambda: np.array([15.1, 20.3], dtype=np.float32)),
        ("int64", lambda: np.array(BIG_PAIR, dtype=np.int64)),
        ("object integers", lambda: np.array(BIG_PAIR, dtype=object)),
        ("big-endian f8", lambda: np.array([15.0, 20.0], dtype=">f8")),
        ("strided view", lambda: np.array([15.0, -1.0, 20.0, -1.0])[::2]),
        ("subclass", lambda: np.array([15.0, 20.0]).view(Reversed)),
        ("masked array, nothing masked", lambda: np.ma.array([15.0, 20.0])),
    ]
    # (name, make()): each makes one entry in one form, which is no pair.
    SINGLES = [
        ("python float", lambda: 15.0),
        ("0-d array", lambda: np.array(15.0)),
        ("(1, 1) column", lambda: np.array([[15.0]])),
    ]

    def general(self, x):
        c = self.C
        return np.array(_kernels.reduced_residual_checked(
            c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.a7,
            *np.asarray(x, dtype=float).ravel().tolist()))

    def readers(self):
        return (KernelResidual(self.C), make_residual(self.C),
                lambda x: reduced_residual(self.C, x))

    @pytest.mark.parametrize("name, make", PAIRS, ids=[c[0] for c in PAIRS])
    def test_every_form_of_a_pair_gives_the_bits_of_the_general_conversion(self, name, make):
        expected = self.general(make())
        assert expected.dtype == np.float64 and expected.shape == (2,)
        for read in self.readers():
            got = read(make())
            assert type(got) is np.ndarray
            assert (got.dtype, got.shape, got.tobytes()) == (
                expected.dtype, expected.shape, expected.tobytes())

    def test_the_big_pair_leaves_the_diagonal_only_as_integers(self):
        # So the int64 and object cases tell a read of the integers from a
        # read of their floats.
        c = self.C
        as_integers = _kernels.reduced_residual_checked(
            c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.a7, *BIG_PAIR)
        assert [v.hex() for v in as_integers] != [
            v.hex() for v in self.general(np.array(BIG_PAIR, dtype=float)).tolist()]

    @pytest.mark.parametrize("name, make", SINGLES, ids=[c[0] for c in SINGLES])
    def test_one_entry_is_refused_in_every_form(self, name, make):
        for read in self.readers():
            with pytest.raises(ValueError) as raised:
                read(make())
            assert type(raised.value) is ValueError
            assert str(raised.value) == "x must be a 2-vector"

    def test_a_point_changed_in_place_is_read_anew(self):
        x = np.array([15.0, 20.0])
        for read in self.readers():
            x[:] = [15.0, 20.0]
            first = read(x)
            x *= 2.0
            assert read(x).tobytes() == self.general(x).tobytes() != first.tobytes()

    def test_the_call_reads_its_point_then_calls_the_kernel_once(self):
        # KernelResidual.__call__ reads its point by kernel.entries and calls
        # the checked residual that __init__ bound to the seven constants.
        def functions(module):
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            return {node.name: node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)}

        call = functions(dixit_pindyck)["__call__"].body
        assert [ast.unparse(node) for node in call] == [
            "xs = entries(x)",
            "if len(xs) != 2:\n    raise ValueError('x must be a 2-vector')",
            "return np.array(self._checked(*xs))"]
        init = functions(dixit_pindyck)["__init__"].body
        assert [ast.unparse(node) for node in init] == [
            "c = self.constants = constants",
            "self._checked = functools.partial(_kernels.reduced_residual_checked, "
            "c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.a7)"]
        checked = KernelResidual(self.C)._checked
        c = self.C
        assert checked.func is _kernels.reduced_residual_checked and not checked.keywords
        assert checked.args == (c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.a7)
        # reduced_residual is the call, so the formula's call is written once.
        body = functions(dixit_pindyck)["reduced_residual"].body[1:]
        assert [ast.unparse(node) for node in body] == ["return KernelResidual(constants)(x)"]
        tree = ast.parse(Path(dixit_pindyck.__file__).read_text(encoding="utf-8"))
        assert [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "reduced_residual_checked"
                ] == ["_kernels.reduced_residual_checked"]


def residual_by_orientation(a1, a2, a3, a4, a5, a6, a7, x1, x2):
    """The divided-difference residual written out per orientation of the pair.

    With hi and lo the larger and the smaller component, r = lo / hi and
    e(a) = expm1(a log r), the hi component's divided difference is
    (a1 e(a3) - a2 r**a3 e(a4)) / (a1 a2 e(a3 + a4)) and the lo component's
    (a1 r**a4 e(a3) - a2 e(a4)) / (a1 a2 e(a3 + a4)), with r**a = 1 + e(a).
    """
    if not (0.0 < x1 < math.inf and 0.0 < x2 < math.inf):
        raise NonRealEvaluation(f"thresholds must be positive and finite, got {(x1, x2)}")
    first_high = not x2 > x1
    hi, lo = (x1, x2) if first_high else (x2, x1)
    try:
        lam = math.log(lo / hi)
        if lam == 0.0:
            w_hi = w_lo = (a1 * a3 - a2 * a4) / (a1 * a2 * (a3 + a4))
        else:
            e3, e4 = math.expm1(a3 * lam), math.expm1(a4 * lam)
            den = a1 * a2 * math.expm1((a3 + a4) * lam)
            w_hi = (a1 * e3 - a2 * (1.0 + e3) * e4) / den
            w_lo = (a1 * (1.0 + e4) * e3 - a2 * e4) / den
        w1, w2 = (w_hi, w_lo) if first_high else (w_lo, w_hi)
        f1 = a5 * x1 - a6 - a5 * x1 * w1
        f2 = a5 * x2 - a7 - a5 * x2 * w2
    except (ArithmeticError, ValueError) as exc:
        raise NonRealEvaluation(f"reduced residual has no finite value at {(x1, x2)}") from exc
    if not (math.isfinite(f1) and math.isfinite(f2)):
        raise NonRealEvaluation(f"reduced residual has no finite value at {(x1, x2)}")
    return f1, f2


def back_substitute_by_orientation(c, x1, x2):
    """Back-substitution's closed form written out in the larger and the smaller component.

    With hi and lo the larger and the smaller component, lam = log(lo / hi)
    and e(a) = expm1(a lam), A = a5 hi**(-a4) e(a3) / (a2 e(a3 + a4)) and
    B = a5 lo**a3 e(a4) / (a1 e(a3 + a4)); at lam = 0 each e(a) is a, so
    each ratio e(a) / e(a3 + a4) takes its limit a / (a3 + a4).
    """
    if not (0.0 < x1 < math.inf and 0.0 < x2 < math.inf):
        raise NonRealEvaluation(f"thresholds must be positive and finite, got {(x1, x2)}")
    hi, lo, s = max(x1, x2), min(x1, x2), c.a3 + c.a4
    try:
        lam = math.log(lo / hi)
        if lam == 0.0:
            e3, e4, es = c.a3, c.a4, s
        else:
            e3, e4, es = math.expm1(c.a3 * lam), math.expm1(c.a4 * lam), math.expm1(s * lam)
        a = c.a5 * hi ** (-c.a4) * e3 / (c.a2 * es)
        b = c.a5 * lo ** c.a3 * e4 / (c.a1 * es)
    except (ArithmeticError, ValueError) as exc:
        raise NonRealEvaluation(f"back-substitution has no finite value at {(x1, x2)}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonRealEvaluation(f"back-substitution has no finite value at {(x1, x2)}")
    return a, b


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
    """The kernel's residual against the same form written out per orientation.

    Values compare as float hex; a raised error (overflow, a ratio that
    underflows, non-positive or infinite components) must have the same
    type and message.
    """

    @given(row=st.sampled_from(reference.ROWS), x1=THRESHOLD_POINTS, x2=THRESHOLD_POINTS)
    @hypothesis_settings(max_examples=400, deadline=None)
    @example(row=reference.ROWS[0], x1=41844.57090443, x2=11857.32126593)
    @example(row=reference.ROWS[0], x1=5.0, x2=5.0)
    @example(row=reference.ROWS[0], x1=1e300, x2=1.0)
    @example(row=reference.ROWS[0], x1=math.inf, x2=1.0)
    @example(row=reference.ROWS[0], x1=-1.0, x2=2.0)
    @example(row=reference.ROWS[0], x1=2.0, x2=0.0)
    @example(row=reference.ROWS[0], x1=1e300, x2=1e-30)
    def test_values_and_errors_match(self, row, x1, x2):
        c = reference.scenario_constants(row.a6, row.a7)
        args = (c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.a7, x1, x2)
        assert (checked_outcome(_kernels.reduced_residual_checked, *args)
                == checked_outcome(residual_by_orientation, *args))

    @given(row=st.sampled_from(reference.ROWS), x1=THRESHOLD_POINTS, x2=THRESHOLD_POINTS)
    @hypothesis_settings(max_examples=200, deadline=None)
    @example(row=reference.ROWS[0], x1=41844.57090443, x2=11857.32126593)
    @example(row=reference.ROWS[0], x1=5.0, x2=5.0)
    def test_the_mirrored_pair_gives_the_mirrored_components(self, row, x1, x2):
        # The form is oriented by the pair's order, so swapping the pair and
        # the triggers a6, a7 swaps the components bit for bit.
        c = reference.scenario_constants(row.a6, row.a7)
        head = (c.a1, c.a2, c.a3, c.a4, c.a5)
        given_order = checked_outcome(_kernels.reduced_residual_checked,
                                      *head, c.a6, c.a7, x1, x2)
        mirrored = checked_outcome(_kernels.reduced_residual_checked,
                                   *head, c.a7, c.a6, x2, x1)
        if isinstance(given_order[0], str):
            assert mirrored == given_order[::-1]
        else:
            assert mirrored[0] is given_order[0]


#: Back-substitution's constants: the reference rows' structural set and the
#: textbook primitives (mu = 5 %, l = 10 %) at sigma 3 %, 4 % and 30 %,
#: whose exponent a3 runs from 1.5 (the rows) to 113 (sigma 3 %).
BACK_SUBSTITUTE_CONSTANTS = [reference.scenario_constants(451474.0, 396499.0)] + [
    derive_constants(EconomicPrimitives(mu=0.05, sigma=sigma, l=0.1, c=10_000.0,
                                        kappa=10_000.0, chi=100.0))
    for sigma in (0.03, 0.04, 0.3)]


class TestBackSubstituteBitwise:
    """back_substitute against its closed form written out, as float hex, or
    the same error type and message."""

    @given(c=st.sampled_from(BACK_SUBSTITUTE_CONSTANTS), x1=THRESHOLD_POINTS,
           x2=THRESHOLD_POINTS)
    @hypothesis_settings(max_examples=400, deadline=None)
    @example(c=BACK_SUBSTITUTE_CONSTANTS[0], x1=5.0, x2=5.0)
    @example(c=BACK_SUBSTITUTE_CONSTANTS[0], x1=1e300, x2=1.0)
    @example(c=BACK_SUBSTITUTE_CONSTANTS[0], x1=1e300, x2=1e-30)
    @example(c=BACK_SUBSTITUTE_CONSTANTS[0], x1=2e250, x2=1e250)
    def test_values_and_errors_match(self, c, x1, x2):
        assert (checked_outcome(back_substitute, c, np.array([x1, x2]))
                == checked_outcome(back_substitute_by_orientation, c, x1, x2))


def elimination_oracle(c, x1, x2):
    """The reduced residual as the elimination in powers, at 60 digits."""
    with mpmath.workdps(60):
        a1, a2, a3, a4, a5, a6, a7 = map(mpmath.mpf, (c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.a7))
        x1, x2 = mpmath.mpf(x1), mpmath.mpf(x2)
        den = a1 * a2 * (x1 ** (a3 + a4) - x2 ** (a3 + a4))
        g13 = x2 ** a3 - x1 ** a3
        g14 = x1 ** a4 - x2 ** a4
        return (a5 * x1 - a6 + a5 * (a1 * x1 ** a2 * g13 + a2 * x1 * x2 ** a3 * g14) / den,
                a5 * x2 - a7 + a5 * (a1 * x2 ** a2 * g13 + a2 * x1 ** a3 * x2 * g14) / den)


def worst_relative_error(c, x1, x2):
    """The larger of the two components' relative errors against the oracle."""
    got = reduced_residual(c, np.array([x1, x2]))
    with mpmath.workdps(60):
        return max(float(abs(mpmath.mpf(float(v)) - w) / abs(w))
                   for v, w in zip(got, elimination_oracle(c, x1, x2)))


class TestReducedResidualAccuracy:
    """The divided-difference form against a 60-digit evaluation of the
    elimination in powers, which it rewrites."""

    def test_random_pairs_over_the_reference_rows(self):
        # 1 000 pairs in [1, 1e6]^2; the worst error reads 2.5e-14, the
        # float elimination in powers 3.9e-13.
        rng = np.random.default_rng(0)
        constants = [reference.scenario_constants(row.a6, row.a7) for row in reference.ROWS]
        worst = max(worst_relative_error(constants[k % 5], *rng.uniform(1.0, 1e6, 2).tolist())
                    for k in range(1000))
        assert worst <= 1e-12

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 1e-12, 1e-15])
    def test_pairs_near_the_diagonal(self, gap):
        # The float elimination in powers divides by x1**s - x2**s, which
        # cancels here: it reads 1.4e-8 at a gap of 1e-6.
        row = reference.ROWS[0]
        c = reference.scenario_constants(row.a6, row.a7)
        assert worst_relative_error(c, 2e4, 2e4 * (1.0 - gap)) <= 1e-13


class TestBackSubstitute:
    def test_swap_symmetry_is_exact(self):
        c = reference.scenario_constants(451474.0, 396499.0)
        a, b = back_substitute(c, np.array([41844.0, 11857.0]))
        a2, b2 = back_substitute(c, np.array([11857.0, 41844.0]))
        assert a == a2
        assert b == b2

    def test_diagonal_pair_is_the_limit_of_nearby_pairs(self):
        c = reference.scenario_constants(451474.0, 396499.0)
        on = back_substitute(c, np.array([7.0, 7.0]))
        for gap in (1e-6, 1e-9, 1e-12):
            near = back_substitute(c, np.array([7.0, 7.0 * (1.0 - gap)]))
            assert near == pytest.approx(on, rel=10 * gap)

    def test_refuses_a_three_vector(self):
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(ValueError, match="2-vector"):
            back_substitute(c, np.array([1.0, 2.0, 3.0]))

    def test_refuses_where_the_shared_elimination_has_no_value(self):
        # a1 * a2 underflows to 0 although a1, a2 and s are positive, so the
        # elimination divides by zero on and off the diagonal: the residual
        # and back-substitution, which share it, refuse the same pairs.
        c = ModelConstants(a1=1e-170, a2=1e-170, a3=1.0, a4=-1.0 + 2.0**-52,
                           a5=1.0, a6=2.0, a7=1.0)
        for x in ((2.0, 1.0), (3.0, 3.0)):
            for evaluate in (reduced_residual, back_substitute):
                with pytest.raises(NonRealEvaluation, match="no finite value"):
                    evaluate(c, np.array(x))

    def test_overflowing_power_raises_typed_error(self):
        # lo ** a3 overflows.
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(NonRealEvaluation, match="back-substitution has no finite value"):
            back_substitute(c, np.array([2e250, 1e250]))

    def test_non_finite_coefficient_raises_typed_error(self):
        # Every power is finite, but a5 = 1e308 takes B past the float range.
        c = dataclasses.replace(reference.scenario_constants(451474.0, 396499.0), a5=1e308)
        with pytest.raises(NonRealEvaluation, match="back-substitution has no finite value"):
            back_substitute(c, np.array([1e4, 1.0]))

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
    """The coefficients' closed form in powers of x1 and x2, with no guard."""
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

    def test_agrees_with_the_power_form_where_that_is_finite(self):
        # Off the diagonal (the grid's pairs are a factor 10 or more apart)
        # the closed form in powers loses no digits to cancellation, so the
        # two forms agree to a few ulps (4.3e-15 at worst) wherever the
        # powers are finite.
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
                if not all(map(math.isfinite, old)) or 0.0 in old:
                    continue
                new = back_substitute(c, np.array([x1, x2]))
                assert new == pytest.approx(old, rel=1e-14), (c, x1, x2)
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

    def test_overflowing_power_raises_typed_error(self):
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(NonRealEvaluation, match="power overflow"):
            full_residual(c, 1e200, 1.0, 0.1, 0.1)

    def test_non_finite_value_raises_typed_error(self):
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(NonRealEvaluation, match="non-finite value"):
            full_residual(c, 7.0, 3.0, 0.1, math.inf)

    @pytest.mark.parametrize("H, L", [(1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0),
                                      (1.0, -math.inf)])
    def test_scale_refuses_a_threshold_that_is_not_finite(self, H, L):
        # max() would drop a NaN in second place, and an infinite scale would
        # make every full residual relatively 0.
        c = reference.scenario_constants(451474.0, 396499.0)
        with pytest.raises(ValueError, match="^H and L must be finite, got (nan|inf|-inf)$"):
            full_residual_scale(c, H, L)

    def test_reduction_equivalence(self):
        # After back-substitution the derivative equations vanish and the
        # value-matching rows equal the reduced residual, for any (H, L):
        # random pairs, and the reference rows on the diagonal and at
        # relative gaps from 1e-15 to 1e-6 off it, where both take the
        # limit of their divided differences or lose digits near it.
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(100):
            c = derive_constants(random_primitives(rng, sigma_floor=0.3))
            x = np.sort(rng.uniform(0.5, 80.0, size=2))[::-1]
            if abs(x[0] - x[1]) >= 1e-2:
                cases.append((c, x))
        cases += [(reference.scenario_constants(row.a6, row.a7), np.array([x, x * (1.0 - gap)]))
                  for row in reference.ROWS for x in (5.0, 2e4, 1e6)
                  for gap in (0.0, 1e-15, 1e-12, 1e-9, 1e-6)]
        for c, x in cases:
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

    def test_failing_start_surfaces_failure(self):
        constants = reference.scenario_constants(451474.0, 396499.0)
        problem = ThresholdProblem(constants=constants, x0=(-1.0, 20.0))
        with pytest.raises(ThresholdSolveFailed) as err:
            solve_thresholds(problem, SolverSettings(alpha=0.26131))
        assert err.value.outcome.status is Status.EVALUATION_FAILED

    def test_diagonal_start_converges_to_the_reference_root(self):
        # x1 = x2 is an ordinary point of the residual, so a start may lie on it.
        row = reference.ROWS[0]
        problem = ThresholdProblem(constants=reference.scenario_constants(row.a6, row.a7),
                                   x0=(5.0, 5.0))
        sol = solve_thresholds(problem, SolverSettings(alpha=row.alpha))
        assert sol.H == pytest.approx(row.solution[0], rel=1e-6)
        assert sol.L == pytest.approx(row.solution[1], rel=1e-6)

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
        c = reference.scenario_problem(reference.ROWS[0]).constants
        A, B = back_substitute(c, np.array([2.0, 1.0]))
        assert label_root(c, np.array([2.0, 1.0])) == (2.0, 1.0, A, B, False)
        assert label_root(c, np.array([1.0, 2.0])) == (2.0, 1.0, A, B, True)

    def test_no_ordering_warning_on_reference_row(self):
        row = reference.ROWS[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ThresholdOrderingWarning)
            solve_thresholds(reference.scenario_problem(row),
                             SolverSettings(alpha=row.alpha))

    def test_swapped_converged_point_is_relabeled(self, monkeypatch):
        row = reference.ROWS[0]
        problem = reference.scenario_problem(row)
        settings = SolverSettings(alpha=row.alpha)
        unswapped = solve_thresholds(problem, settings)
        swapped = dataclasses.replace(unswapped.outcome,
                                      x_final=unswapped.outcome.x_final[::-1].copy())
        monkeypatch.setattr(dixit_pindyck, "fixed_point_solve",
                            lambda *args, **kwargs: swapped)
        with pytest.warns(ThresholdOrderingWarning, match="labels were swapped"):
            sol = solve_thresholds(problem, settings)
        assert sol.relabeled and not unswapped.relabeled
        assert sol.H > sol.L
        assert (sol.H, sol.L) == (unswapped.H, unswapped.L)
        assert (sol.A.hex(), sol.B.hex()) == (unswapped.A.hex(), unswapped.B.hex())


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


def assert_kernel_matches_generic_driver(constants, x0, settings, where):
    """Fused solve and kernel trace against the traced generic driver, bit for bit."""
    kernel = KernelResidual(constants).fused_solve(x0, settings)
    trace = kernel_trace(constants, x0, settings)
    generic = fixed_point_solve(make_residual(constants), x0, settings, keep_trace=True)
    assert kernel.status is generic.status, where
    assert kernel.iterations == generic.iterations, where
    assert kernel.x_final.tobytes() == generic.x_final.tobytes(), where
    assert bitwise_equal(kernel.final_step_norm, generic.final_step_norm), where
    assert bitwise_equal(kernel.final_residual_norm, generic.final_residual_norm), where
    # Same iterates and norms up to the last evaluable point.
    assert bitwise_equal(trace.iterates, generic.trace.iterates), where
    assert bitwise_equal(trace.step_norms, generic.trace.step_norms), where
    assert bitwise_equal(trace.residual_norms, generic.trace.residual_norms), where


#: Finite starts, and pairs near the diagonal, whose components differ by a
#: few parts in 1e8 or less.
FINITE_POINTS = THRESHOLD_POINTS.filter(math.isfinite)
KERNEL_STARTS = st.one_of(
    st.tuples(FINITE_POINTS, FINITE_POINTS),
    st.builds(lambda x, d: (x, x * (1.0 + d)), st.floats(min_value=1e-3, max_value=1e6),
              st.sampled_from([1e-12, 1e-9, 1e-8, 2e-8, 1e-6])))


#: Settings that put one limit, or all three, where its cut is subnormal
#: (1e-160), overflows to DBL_MAX (1e200) or is infinite; {} keeps the defaults.
EXTREME_LIMITS = [{}] + [
    {name: value} for name in ("tol_step", "tol_residual", "divergence_bound")
    for value in (1e-160, 1e200, math.inf)] + [
    {"tol_step": 1e-160, "tol_residual": 1e200, "divergence_bound": math.inf}]


class TestKernelAgreement:
    """The scalar kernel against the generic driver: both sum squares in entry
    order, so iterates and norms are equal, not just close."""

    @pytest.mark.parametrize("row", reference.ROWS, ids=lambda r: f"row{r.index}")
    def test_every_sweep_order_matches_generic_driver(self, row):
        problem = reference.scenario_problem(row)
        for alpha in default_alpha_grid():
            assert_kernel_matches_generic_driver(
                problem.constants, problem.x0, SolverSettings(alpha=alpha),
                f"alpha {alpha.value}")

    @given(row=st.sampled_from(reference.ROWS), x0=KERNEL_STARTS,
           alpha=st.sampled_from(default_alpha_grid()), max_iter=st.sampled_from([1, 2, 5, 50]),
           scale=st.sampled_from([(1e-4, 1e10), (1e145, 1e200)]),
           limits=st.sampled_from(EXTREME_LIMITS))
    @hypothesis_settings(max_examples=300, deadline=None)
    # The multiplier's power overflows in the first step.
    @example(row=reference.ROWS[0], x0=(1e-300, 1.0), alpha=FractionalOrder(1.45),
             max_iter=5, scale=(1e-4, 1e10), limits={})
    # The residual's power overflows at the start.
    @example(row=reference.ROWS[0], x0=(1e200, 1.0), alpha=FractionalOrder(0.25),
             max_iter=5, scale=(1e-4, 1e10), limits={})
    # The first step lands near 4.5e150, where the residual's power overflows.
    @example(row=reference.ROWS[0], x0=(15.0, 20.0), alpha=FractionalOrder(0.25),
             max_iter=5, scale=(1e145, 1e200), limits={})
    # A start a relative 1e-9 off the diagonal, where the divided
    # differences are close to their limit.
    @example(row=reference.ROWS[0], x0=(5.0, 5.0 * (1.0 + 1e-9)), alpha=FractionalOrder(0.25),
             max_iter=5, scale=(1e-4, 1e10), limits={})
    # The first step lands at (313079.9571643983, 313079.957164398), four
    # floats apart: lam is -8.9e-16, and the divided differences are taken
    # off the diagonal.
    @example(row=reference.ROWS[0], x0=(1.7782794100389228, 1.0818180532035107),
             alpha=FractionalOrder(0.26131), max_iter=5, scale=(1e-4, 1e10), limits={})
    # The first step lands exactly on the diagonal, at (145950.30937316275,
    # 145950.30937316275), where the loop takes the divided differences'
    # limit; both loops converge at iteration 93.
    @example(row=reference.ROWS[0], x0=(32.906490860844094, 20.0),
             alpha=FractionalOrder(0.26131), max_iter=500, scale=(1e-4, 1e10), limits={})
    # The second component's multiplier power overflows in the first step.
    @example(row=reference.ROWS[0], x0=(15.0, 1e-200), alpha=FractionalOrder(1.9),
             max_iter=5, scale=(1e-4, 1e10), limits={})
    # Every limit at an edge of its cut, as in the extreme-limits golden
    # sweep: row 1 at order 0.35 converges at iteration 433 (267 under the
    # defaults), where the step is 0.0, the one sum under the cut of 1e-160.
    @example(row=reference.ROWS[0], x0=(15.0, 20.0), alpha=FractionalOrder(0.35),
             max_iter=500, scale=(1e-4, 1e10), limits=EXTREME_LIMITS[-1])
    def test_any_start_matches_generic_driver(self, row, x0, alpha, max_iter, scale, limits):
        epsilon, bound = scale
        settings = SolverSettings(**{"alpha": alpha, "max_iter": max_iter, "epsilon": epsilon,
                                     "divergence_bound": bound, **limits})
        assert_kernel_matches_generic_driver(
            reference.scenario_constants(row.a6, row.a7), x0, settings,
            f"x0 {x0}, alpha {alpha.value}")

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


class TestLimitsOnSumsOfSquares:
    """Both loops test each limit on a sum of squares, against its cut, and
    decide as the norm would: a norm equal to its limit passes, and one a
    float above it does not."""

    ROW = reference.ROWS[0]
    PROBLEM = reference.scenario_problem(ROW)

    def solves(self, settings):
        """Row 1's untraced fused solve and its traced and untraced driver solves."""
        f = make_residual(self.PROBLEM.constants)
        return (KernelResidual(self.PROBLEM.constants).fused_solve(self.PROBLEM.x0, settings),
                fixed_point_solve(f, self.PROBLEM.x0, settings),
                fixed_point_solve(f, self.PROBLEM.x0, settings, keep_trace=True))

    @pytest.mark.parametrize("k", [1, 10, 50, 100, 144])
    def test_the_norms_of_iteration_k_are_the_tightest_limits_that_stop_it(self, k):
        trace = fixed_point_solve(make_residual(self.PROBLEM.constants), self.PROBLEM.x0,
                                  SolverSettings(alpha=self.ROW.alpha, tol_step=1e-160,
                                                 tol_residual=1e-160), keep_trace=True).trace
        step, res = float(trace.step_norms[k - 1]), float(trace.residual_norms[k])
        # No earlier iteration is as close on both norms.
        assert not [j for j in range(1, k)
                    if trace.step_norms[j - 1] <= step and trace.residual_norms[j] <= res]
        for out in self.solves(SolverSettings(alpha=self.ROW.alpha, tol_step=step,
                                              tol_residual=res)):
            assert (out.status, out.iterations) == (Status.CONVERGED, k)
            assert (out.final_step_norm, out.final_residual_norm) == (step, res)
        below = math.nextafter(step, 0.0), math.nextafter(res, 0.0)
        for tol_step, tol_residual in ((below[0], res), (step, below[1])):
            for out in self.solves(SolverSettings(alpha=self.ROW.alpha, tol_step=tol_step,
                                                  tol_residual=tol_residual)):
                assert out.iterations > k

    def test_an_untraced_solve_takes_no_square_root_per_iteration(self, monkeypatch):
        counted = []
        sqrt = math.sqrt

        def counting_sqrt(x):
            counted.append(x)
            return sqrt(x)

        f = make_residual(self.PROBLEM.constants)
        kernel = KernelResidual(self.PROBLEM.constants)
        loops = {"fused": kernel.fused_solve,
                 "driver": lambda x0, settings: fixed_point_solve(f, x0, settings)}
        for name, solve in loops.items():
            counts = []
            for max_iter in (5, 50, 5):
                settings = SolverSettings(alpha=self.ROW.alpha, max_iter=max_iter)
                solve(self.PROBLEM.x0, settings)  # the cuts of these limits are cached
                counted.clear()
                monkeypatch.setattr(math, "sqrt", counting_sqrt)
                out = solve(self.PROBLEM.x0, settings)
                monkeypatch.setattr(math, "sqrt", sqrt)
                assert (out.status, out.iterations) == (Status.MAX_ITERATIONS, max_iter)
                counts.append(len(counted))
            assert counts[0] == counts[1] == counts[2] <= 3, (name, counts)


class TestFusedLoopChecksOnlyItsStart:
    """The fused loop asks the checked residual about its start alone: every
    later iterate it evaluates with its own statements."""

    C = reference.scenario_constants(451474.0, 396499.0)
    CONSTANTS = (C.a1, C.a2, C.a3, C.a4, C.a5, C.a6, C.a7)

    @pytest.mark.parametrize("start, alpha, eps, first, max_iter, end", [
        # The first iterate's ratio underflows to 0, so the inlined
        # log(0.0) raises and the solve fails there.
        ((1e-322, 20.0), -1.95, 5e-324, (2.230677e-318, 71431564.78847188), 5, (3, 1)),
        # The first iterate lies exactly on the diagonal.
        ((32.906490860844094, 20.0), 0.26131, 1e-4,
         (145950.30937316275, 145950.30937316275), 500, (0, 93)),
    ], ids=["underflow", "diagonal"])
    def test_one_checked_call_per_solve(self, monkeypatch, start, alpha, eps, first,
                                        max_iter, end):
        checked = _kernels.reduced_residual_checked
        asked = []

        def counting(*args):
            asked.append(args[7:])
            return checked(*args)

        monkeypatch.setattr(_kernels, "reduced_residual_checked", counting)
        args = (*self.CONSTANTS, *start, alpha, eps, 1e-5, 1e-4)
        assert _kernels.solve_reduced(*args, 1, 1e10, None, None, None)[1:4] == (1, *first)
        traces = np.empty((max_iter + 1, 2)), np.empty(max_iter), np.empty(max_iter + 1)
        for arrays in ((None, None, None), traces):
            asked.clear()
            assert _kernels.solve_reduced(*args, max_iter, 1e10, *arrays)[:2] == end
            assert asked == [start]


#: Positive finite floats over the whole range, subnormals included.
POSITIVE_POINTS = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)

#: The reference rows, the sigma 0.03 model (a3 = 113), and a set with
#: a4 = -0.96, whose expm1(a4 * lam) overflows where the ratio of the pair
#: is below about 1e-321.
RANGE_CONSTANTS = [reference.scenario_constants(row.a6, row.a7) for row in reference.ROWS] + [
    derive_constants(dataclasses.replace(LARGE_EXPONENT_PRIMITIVES, sigma=0.03)),
    ModelConstants(a1=20.0, a2=0.04, a3=21.0, a4=-0.96, a5=2.0, a6=1.1e4, a7=1e4)]


class TestResidualOverTheFloatRange:
    """Any positive finite pair gives a finite residual or a typed refusal,
    and the fused loop gives the driver's outcome from it."""

    @given(c=st.sampled_from(RANGE_CONSTANTS), x1=POSITIVE_POINTS, x2=POSITIVE_POINTS)
    @hypothesis_settings(max_examples=400, deadline=None)
    @example(c=RANGE_CONSTANTS[0], x1=1e300, x2=1e-30)
    @example(c=RANGE_CONSTANTS[-1], x1=1e20, x2=1e-303)
    @example(c=RANGE_CONSTANTS[5], x1=5e-324, x2=1.7976931348623157e308)
    def test_finite_values_or_a_typed_refusal(self, c, x1, x2):
        for evaluate in (reduced_residual, back_substitute):
            try:
                values = evaluate(c, np.array([x1, x2]))
            except NonRealEvaluation:
                continue
            assert all(map(math.isfinite, values)), (evaluate.__name__, values)

    @given(c=st.sampled_from(RANGE_CONSTANTS), x0=st.tuples(POSITIVE_POINTS, POSITIVE_POINTS),
           alpha=st.sampled_from(default_alpha_grid()), max_iter=st.sampled_from([1, 5, 50]),
           bound=st.sampled_from([1e10, 1e300, math.inf]))
    @hypothesis_settings(max_examples=200, deadline=None)
    @example(c=RANGE_CONSTANTS[0], x0=(1e-322, 20.0), alpha=FractionalOrder(-1.95),
             max_iter=5, bound=1e10)
    # With no divergence bound the first iterate, (1.4e267, 8.0e306), passes
    # on, and a5 * x2 overflows: a residual that is not finite without an
    # exception.
    @example(c=RANGE_CONSTANTS[-1], x0=(3.5443522548778644e+88, 2.083445030752776e+254),
             alpha=FractionalOrder(-0.2), max_iter=5, bound=math.inf)
    def test_fused_loop_matches_the_driver(self, c, x0, alpha, max_iter, bound):
        settings = SolverSettings(alpha=alpha, max_iter=max_iter, divergence_bound=bound)
        assert_kernel_matches_generic_driver(c, x0, settings, f"x0 {x0}, alpha {alpha.value}")


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
        # a5 * x1 overflows in the residual at the start.
        ((1e308, 1.0), [0.25, 0.5], Status.EVALUATION_FAILED),
        # The components' ratio underflows to 0 in the residual at the start.
        ((1e300, 1e-30), [0.25, 0.5], Status.EVALUATION_FAILED),
        # |x1| ** (-1.5) overflows in the multiplier of the first step.
        ((1e-300, 1.0), [0.25, 1.5], Status.DIVERGED),
    ], ids=["residual-overflow", "ratio-underflow", "multiplier-overflow"])
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

    @pytest.mark.parametrize("sigma, root", [
        (0.03, (11098, 7655)), (0.035, (11133, 7650)), (0.04, (11173, 7645))])
    def test_large_exponent_sweep_finds_its_root(self, sigma, root):
        # a3 is 113, 84 and 64: the residual's powers x**(a3 + a4) overflow
        # from the start, but its ratio form does not.
        primitives = dataclasses.replace(LARGE_EXPONENT_PRIMITIVES, sigma=sigma)
        problem = ThresholdProblem(constants=derive_constants(primitives),
                                   x0=[220_000.0, 99_950.0])
        roots = sweep_thresholds(problem)
        assert len(roots.roots) == 1
        record = roots.roots[0]
        assert len(record.found_by) == 5
        assert (max(record.x), min(record.x)) == pytest.approx(root, abs=0.5)

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
