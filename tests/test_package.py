"""Package-level tests: the public export list, the one rule by which
every public function reads a point (and the solver's functions refuse an
empty one), and the refusal of integers beyond the float range."""

import dataclasses

import numpy as np
import pytest

import fracroots
from fracroots import (EconomicPrimitives, FractionalOrder, InvalidPrimitives, ModelConstants,
                       SolveOutcome, SolverSettings, ThresholdProblem, back_substitute,
                       classify_income, default_alpha_grid, estimate_order, fd_jacobian,
                       fixed_point_solve, fpn_step, full_residual, full_residual_scale,
                       newton_step, norm2, p_matrix, reduced_residual, solve_thresholds)
from fracroots.dixit_pindyck import label_root
from fracroots.kernel import checked_epsilon, point
from fracroots.solver import collect_roots, same_root


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fracroots import *", namespace)
    assert len(set(fracroots.__all__)) == len(fracroots.__all__)
    for name in fracroots.__all__:
        assert namespace[name] is getattr(fracroots, name), name


#: Reference row 1's constants, for the functions of a threshold pair.
ROW1 = ModelConstants(a1=0.5355, a2=1.5808, a3=1.5355, a4=0.5808,
                      a5=18.9753, a6=451474.0, a7=396499.0)


def bits(value):
    """A value's exact bits: array dtype, shape and bytes, and floats as hex."""
    if isinstance(value, SolveOutcome):
        trace = value.trace
        return bits((value.status.value, value.iterations, value.x_final,
                     value.final_step_norm, value.final_residual_norm,
                     trace.iterates, trace.step_norms, trace.residual_norms))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, float):
        return value.hex()
    return value


#: A point within same_root's tolerance of [1.0] and of [1.0, 2.0], by length.
NEAR = {1: np.array([1.0005]), 2: np.array([1.0, 2.0005])}


class TestPointReadingRule:
    """Every public function that takes a point reads it as fixed_point_solve
    reads x0, ``np.asarray(x, dtype=float).ravel()``: a column, a list and
    (for one variable) a Python float give the bits of the 1-d array, and a
    residual is only ever called with a 1-d array."""

    # (name, 1-d point, call(f, x), whether call calls the residual f)
    CALLS = [
        ("fixed_point_solve", [3.0, 1.0],
         lambda f, x: fixed_point_solve(f, x, SolverSettings(alpha=0.5, max_iter=40),
                                        keep_trace=True), True),
        ("fpn_step", [1.0, 0.5], lambda f, x: fpn_step(f, x, FractionalOrder(0.5), 1e-4), True),
        ("newton_step", [1.0, 0.5], newton_step, True),
        ("fd_jacobian", [1.0, 0.5], fd_jacobian, True),
        ("p_matrix", [3.0, 0.0, -2.5],
         lambda f, x: p_matrix(FractionalOrder(0.26131), x, 1e-4), False),
        ("norm2", [3.0, -4.0, 1e-3], lambda f, x: norm2(x), False),
        ("same_root", [1.0, 2.0],
         lambda f, x: (same_root(x, NEAR[np.size(x)], 1e-3),
                       same_root(NEAR[np.size(x)], x, 1e-3)), False),
        ("reduced_residual", [15.0, 20.0], lambda f, x: reduced_residual(ROW1, x), False),
        ("back_substitute", [22.0, 14.0], lambda f, x: back_substitute(ROW1, x), False),
        ("label_root", [14.0, 22.0], lambda f, x: label_root(ROW1, x), False),
        # A sequence of norms reads by the same rule.
        ("estimate_order", [1e-1, 1e-2, 1e-4, 1e-8], lambda f, x: estimate_order(x), False),
    ]
    # The threshold functions take a pair, so a float is no point for them.
    CASES = [(*c, form) for c in CALLS for form in ("column", "list")] + [
        (*c, "python float") for c in CALLS[:7]]

    @pytest.mark.parametrize("name, point, call, calls_f, form", CASES,
                             ids=[f"{c[0]}-{c[-1]}" for c in CASES])
    def test_every_form_reads_as_the_1d_array(self, name, point, call, calls_f, form):
        if form == "python float":
            point = point[:1]
        given = {"column": np.array(point).reshape(-1, 1), "list": list(point),
                 "python float": point[0]}[form]
        received = []

        def f(x):
            received.append(x.shape if isinstance(x, np.ndarray) else type(x).__name__)
            return x * x - 2.0

        expected = bits(call(f, np.array(point)))
        received.clear()
        assert bits(call(f, given)) == expected
        assert bool(received) == calls_f
        assert all(shape == (len(point),) for shape in received), received

    # (name, call(x)) for each function that reads a point of any length.
    ENTRIES = [
        ("fixed_point_solve", lambda x: fixed_point_solve(
            lambda v: v * v - 2.0, x, SolverSettings(alpha=0.5, max_iter=40))),
        ("fixed_point_solve-traced", lambda x: fixed_point_solve(
            lambda v: v * v - 2.0, x, SolverSettings(alpha=0.5, max_iter=40), keep_trace=True)),
        ("fpn_step", lambda x: fpn_step(lambda v: v * v - 2.0, x, FractionalOrder(0.5), 1e-4)),
        ("newton_step", lambda x: newton_step(lambda v: v * v - 2.0, x)),
        ("fd_jacobian", lambda x: fd_jacobian(lambda v: v * v - 2.0, x)),
        ("same_root-first", lambda x: same_root(x, [1.0], 1e-3)),
        ("same_root-second", lambda x: same_root([1.0], x, 1e-3)),
    ]

    @pytest.mark.parametrize("name, call", ENTRIES, ids=[e[0] for e in ENTRIES])
    @pytest.mark.parametrize("empty", [[], np.empty(0), np.empty((0, 2))],
                             ids=["list", "1-d", "0-by-2"])
    def test_a_point_with_no_entries_is_refused(self, name, call, empty):
        with pytest.raises(ValueError, match="a point needs at least one entry"):
            call(empty)

    @pytest.mark.parametrize("empty", [[], np.empty(0), np.empty((0, 2))],
                             ids=["list", "1-d", "0-by-2"])
    def test_the_norm_and_the_diagonal_take_a_point_with_no_entries(self, empty):
        # Only the solver's functions need an entry; these two read the
        # empty point as it is.
        assert norm2(empty) == 0.0
        diagonal = p_matrix(FractionalOrder(0.5), empty, 1e-4)
        assert diagonal.dtype == np.float64 and diagonal.shape == (0,)

    @pytest.mark.parametrize("a, b", [([1.0, 1.0], [1.0]), ([1.0], [[1.0], [1.0]])],
                             ids=["pair-and-one", "one-and-column"])
    def test_same_root_refuses_points_of_different_lengths(self, a, b):
        # numpy would broadcast the 1-entry point against the other.
        for first, second in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="cannot compare points of"):
                same_root(first, second, 1e-3)


#: Valid economic primitives (the sigma = 0.04 scenario), as keyword arguments.
PRIMITIVES = dict(mu=0.05, sigma=0.04, l=0.1, c=10000.0, kappa=10000.0, chi=100.0)


def square_minus_two(x):
    return x * x - 2.0


def row1_solution():
    return solve_thresholds(ThresholdProblem(constants=ROW1, x0=[15.0, 20.0]),
                            SolverSettings(alpha=0.26131))


def one_hit(x, alpha, tolerance):
    """collect_roots of one converged hit."""
    out = fixed_point_solve(square_minus_two, [1.0], SolverSettings())
    return collect_roots([(x, alpha, out)], [], tolerance)


#: (name, call(n), the error it must raise) for each reader of a number.
BIG_INTEGER_READERS = [
    *[(f"SolverSettings-{field}", lambda n, field=field: SolverSettings(**{field: n}),
       ValueError)
      for field in ("alpha", "epsilon", "tol_step", "tol_residual", "divergence_bound")],
    ("FractionalOrder", FractionalOrder, ValueError),
    ("FractionalOrder.coerce", FractionalOrder.coerce, ValueError),
    ("checked_epsilon", checked_epsilon, ValueError),
    ("EconomicPrimitives-mu", lambda n: EconomicPrimitives(**{**PRIMITIVES, "mu": n}),
     InvalidPrimitives),
    ("ModelConstants-a5", lambda n: dataclasses.replace(ROW1, a5=n), ValueError),
    ("ThresholdProblem-x0", lambda n: ThresholdProblem(constants=ROW1, x0=[n, 1]), ValueError),
    ("fixed_point_solve", lambda n: fixed_point_solve(square_minus_two, [n], SolverSettings()),
     ValueError),
    ("fixed_point_solve-traced", lambda n: fixed_point_solve(
        square_minus_two, [n], SolverSettings(), keep_trace=True), ValueError),
    ("fpn_step", lambda n: fpn_step(square_minus_two, [n], FractionalOrder(0.5), 1e-4),
     ValueError),
    ("newton_step", lambda n: newton_step(square_minus_two, [n]), ValueError),
    ("fd_jacobian", lambda n: fd_jacobian(square_minus_two, [n]), ValueError),
    ("same_root", lambda n: same_root([n], [1.0], 1e-3), ValueError),
    ("default_alpha_grid", lambda n: default_alpha_grid(step=n), ValueError),
    ("p_matrix", lambda n: p_matrix(FractionalOrder(0.5), [n], 1e-4), ValueError),
    ("norm2", lambda n: norm2([n]), ValueError),
    ("same_root-tolerance", lambda n: same_root([1.0], [1.0], n), ValueError),
    ("estimate_order", lambda n: estimate_order([n, 4.0, 3.0, 2.0, 1.0]), ValueError),
    ("collect_roots-x", lambda n: one_hit([n], 0.5, 1e-3), ValueError),
    ("collect_roots-alpha", lambda n: one_hit([1.0], n, 1e-3), ValueError),
    ("collect_roots-tolerance", lambda n: one_hit([1.0], 0.5, n), ValueError),
    ("reduced_residual", lambda n: reduced_residual(ROW1, [n, 1.0]), ValueError),
    ("back_substitute", lambda n: back_substitute(ROW1, [n, 1.0]), ValueError),
    ("label_root", lambda n: label_root(ROW1, [n, 1.0]), ValueError),
    ("full_residual", lambda n: full_residual(ROW1, n, 1.0, 1.0, 1.0), ValueError),
    ("full_residual_scale", lambda n: full_residual_scale(ROW1, n, 1.0), ValueError),
    ("classify_income", lambda n: classify_income(n, row1_solution()), ValueError),
]


#: (name, call(entry)) for each reader of a point, with entry in the point.
NONE_POINT_READERS = [
    ("ThresholdProblem-x0", lambda e: ThresholdProblem(constants=ROW1, x0=[e, 1.0])),
    ("fixed_point_solve", lambda e: fixed_point_solve(square_minus_two, [e], SolverSettings())),
    ("fixed_point_solve-traced", lambda e: fixed_point_solve(
        square_minus_two, [e], SolverSettings(), keep_trace=True)),
    ("fpn_step", lambda e: fpn_step(square_minus_two, [e], FractionalOrder(0.5), 1e-4)),
    ("newton_step", lambda e: newton_step(square_minus_two, [e])),
    ("fd_jacobian", lambda e: fd_jacobian(square_minus_two, [e])),
    ("same_root-a", lambda e: same_root([e], [1.0], 1e-3)),
    ("same_root-b", lambda e: same_root([1.0], [e], 1e-3)),
    ("p_matrix", lambda e: p_matrix(FractionalOrder(0.5), [e], 1e-4)),
    ("norm2", lambda e: norm2([e, 1.0])),
    ("estimate_order", lambda e: estimate_order([e, 0.1, 0.01, 1e-4, 1e-8])),
    ("collect_roots-x", lambda e: one_hit([e], 0.5, 1e-3)),
    ("reduced_residual", lambda e: reduced_residual(ROW1, [e, 1.0])),
    ("back_substitute", lambda e: back_substitute(ROW1, [e, 1.0])),
    ("label_root", lambda e: label_root(ROW1, [e, 1.0])),
]


@pytest.mark.parametrize("name, call", NONE_POINT_READERS,
                         ids=[r[0] for r in NONE_POINT_READERS])
def test_a_none_entry_of_a_point_is_refused(name, call):
    # np.asarray(x, dtype=float) reads None as NaN; kernel.point refuses it.
    with pytest.raises(ValueError, match="a point's entries must be floats, got None"):
        call(None)


@pytest.mark.parametrize("x", [None, [[None], [1.0]], (1.0, None),
                               np.array([1.0, None], dtype=object)],
                         ids=["bare", "column", "tuple", "object-array"])
def test_a_none_is_refused_in_every_form_of_a_point(x):
    with pytest.raises(ValueError, match="got None"):
        point(x)


def test_only_a_converted_point_with_a_nan_is_searched_for_none(monkeypatch):
    # A float64 array is returned by np.asarray as it is: no search, NaN or not.
    x = np.array([np.nan, 1.0])
    monkeypatch.setattr(np, "isnan", None)
    assert np.shares_memory(point(x), x)
    monkeypatch.undo()
    # A converted NaN that is no None stays a NaN.
    assert np.isnan(point([float("nan"), "nan", np.float32("nan")])).tolist() == [True] * 3


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("name, call, error", BIG_INTEGER_READERS,
                         ids=[r[0] for r in BIG_INTEGER_READERS])
def test_an_integer_beyond_the_float_range_is_refused(name, call, error, sign):
    # float(10**400) raises OverflowError; each reader refuses it with its
    # documented error instead, as the CLI's ConfigError does.
    with pytest.raises(error, match="integer too large for a float"):
        call(sign * 10**400)
