"""Package-level tests: the public export list, the one rule by which
every public function reads a point (and the solver's functions refuse an
empty one), and the refusal of integers beyond the float range, of
non-numbers, of complex values, of None entries and of masked entries."""

import dataclasses
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import fracroots
from fracroots import (EconomicPrimitives, FractionalOrder, InvalidPrimitives, IterationTrace,
                       ModelConstants, RootRecord, SolveOutcome, SolverSettings, ThresholdProblem, back_substitute,
                       classify_income, default_alpha_grid, estimate_order, fd_jacobian,
                       fixed_point_solve, fpn_step, full_residual, full_residual_scale,
                       make_residual, newton_step, norm2, p_matrix, reduced_residual,
                       solve_thresholds)
from fracroots.dixit_pindyck import KernelResidual, label_root
from fracroots.kernel import checked_epsilon, entries, point
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


ORDER_RULE = "fractional order must lie in [-2, 2]"
POINT_RULE = "a point's entries must be floats"

#: (name, call(n), the error it must raise, the rule its message states) for
#: each reader of a number.  A reader of a point gets n as one entry of a
#: pair, so that a list n makes a ragged point.
NUMBER_READERS = [
    ("SolverSettings-alpha", lambda n: SolverSettings(alpha=n), ValueError, ORDER_RULE),
    ("SolverSettings-epsilon", lambda n: SolverSettings(epsilon=n), ValueError,
     "epsilon must be finite and positive"),
    *[(f"SolverSettings-{field}", lambda n, field=field: SolverSettings(**{field: n}),
       ValueError, f"{field} must be positive")
      for field in ("tol_step", "tol_residual", "divergence_bound")],
    ("FractionalOrder", FractionalOrder, ValueError, ORDER_RULE),
    ("FractionalOrder.coerce", FractionalOrder.coerce, ValueError, ORDER_RULE),
    ("checked_epsilon", checked_epsilon, ValueError, "epsilon must be finite and positive"),
    ("EconomicPrimitives-mu", lambda n: EconomicPrimitives(**{**PRIMITIVES, "mu": n}),
     InvalidPrimitives, "mu must be finite"),
    ("ModelConstants-a5", lambda n: dataclasses.replace(ROW1, a5=n), ValueError,
     "a5 must be finite"),
    ("ThresholdProblem-x0", lambda n: ThresholdProblem(constants=ROW1, x0=[n, 1]), ValueError,
     POINT_RULE),
    ("fixed_point_solve", lambda n: fixed_point_solve(square_minus_two, [n, 1.0],
                                                      SolverSettings()), ValueError, POINT_RULE),
    ("fixed_point_solve-traced", lambda n: fixed_point_solve(
        square_minus_two, [n, 1.0], SolverSettings(), keep_trace=True), ValueError, POINT_RULE),
    ("fpn_step", lambda n: fpn_step(square_minus_two, [n, 1.0], FractionalOrder(0.5), 1e-4),
     ValueError, POINT_RULE),
    ("newton_step", lambda n: newton_step(square_minus_two, [n, 1.0]), ValueError, POINT_RULE),
    ("fd_jacobian", lambda n: fd_jacobian(square_minus_two, [n, 1.0]), ValueError, POINT_RULE),
    ("same_root", lambda n: same_root([n, 1.0], [1.0, 1.0], 1e-3), ValueError, POINT_RULE),
    ("default_alpha_grid", lambda n: default_alpha_grid(step=n), ValueError,
     "step must be finite and positive"),
    ("p_matrix", lambda n: p_matrix(FractionalOrder(0.5), [n, 1.0], 1e-4), ValueError,
     POINT_RULE),
    ("norm2", lambda n: norm2([n, 1.0]), ValueError, POINT_RULE),
    ("same_root-tolerance", lambda n: same_root([1.0], [1.0], n), ValueError,
     "tolerance must be zero or positive"),
    ("estimate_order", lambda n: estimate_order([n, 4.0, 3.0, 2.0, 1.0]), ValueError,
     POINT_RULE),
    ("collect_roots-x", lambda n: one_hit([n, 1.0], 0.5, 1e-3), ValueError, POINT_RULE),
    ("collect_roots-alpha", lambda n: one_hit([1.0], n, 1e-3), ValueError,
     "an order must fit in a float"),
    ("collect_roots-tolerance", lambda n: one_hit([1.0], 0.5, n), ValueError,
     "tolerance must be zero or positive"),
    ("reduced_residual", lambda n: reduced_residual(ROW1, [n, 1.0]), ValueError, POINT_RULE),
    ("KernelResidual", lambda n: KernelResidual(ROW1)([n, 1.0]), ValueError, POINT_RULE),
    ("make_residual", lambda n: make_residual(ROW1)([n, 1.0]), ValueError, POINT_RULE),
    ("back_substitute", lambda n: back_substitute(ROW1, [n, 1.0]), ValueError, POINT_RULE),
    ("label_root", lambda n: label_root(ROW1, [n, 1.0]), ValueError, POINT_RULE),
    ("full_residual", lambda n: full_residual(ROW1, n, 1.0, 1.0, 1.0), ValueError,
     "H, L, A and B must fit in a float"),
    ("full_residual_scale", lambda n: full_residual_scale(ROW1, n, 1.0), ValueError,
     "H and L must be finite"),
    ("classify_income", lambda n: classify_income(n, row1_solution()), ValueError,
     "income must be positive"),
]


#: (name, call(x)) for each reader of a point, for the refusal table below.
#: Every reader reads its point before it checks the point's length or
#: shape, so a point of any length is refused.
POINT_READERS = [
    ("ThresholdProblem-x0", lambda x: ThresholdProblem(constants=ROW1, x0=x)),
    ("fixed_point_solve", lambda x: fixed_point_solve(square_minus_two, x, SolverSettings())),
    ("fixed_point_solve-traced", lambda x: fixed_point_solve(
        square_minus_two, x, SolverSettings(), keep_trace=True)),
    ("fpn_step", lambda x: fpn_step(square_minus_two, x, FractionalOrder(0.5), 1e-4)),
    ("newton_step", lambda x: newton_step(square_minus_two, x)),
    ("fd_jacobian", lambda x: fd_jacobian(square_minus_two, x)),
    ("same_root-a", lambda x: same_root(x, [1.0, 2.0], 1e-3)),
    ("same_root-b", lambda x: same_root([1.0, 2.0], x, 1e-3)),
    ("p_matrix", lambda x: p_matrix(FractionalOrder(0.5), x, 1e-4)),
    ("norm2", norm2),
    ("estimate_order", estimate_order),
    ("collect_roots-x", lambda x: one_hit(x, 0.5, 1e-3)),
    ("reduced_residual", lambda x: reduced_residual(ROW1, x)),
    ("KernelResidual", lambda x: KernelResidual(ROW1)(x)),
    ("make_residual", lambda x: make_residual(ROW1)(x)),
    ("back_substitute", lambda x: back_substitute(ROW1, x)),
    ("label_root", lambda x: label_root(ROW1, x)),
    ("RootRecord", lambda x: RootRecord(x=x, alpha=0.5, outcome=None, found_by=(0.5,))),
    ("IterationTrace-iterates", lambda x: IterationTrace(
        iterates=x, step_norms=[1.0], residual_norms=[1.0, 1.0])),
    ("IterationTrace-step_norms", lambda x: IterationTrace(
        iterates=[[1.0], [2.0], [3.0]], step_norms=x, residual_norms=[1.0, 1.0, 1.0])),
    ("IterationTrace-residual_norms", lambda x: IterationTrace(
        iterates=[[1.0], [2.0]], step_norms=[1.0], residual_norms=x)),
]

#: (id, point, the "got" part of its refusal) for each point that
#: kernel.point refuses: numpy would read each of them as floats with at most
#: a warning, or raise TypeError or OverflowError.
REFUSED_POINTS = [
    # numpy keeps a numpy complex's real part, with a ComplexWarning, where
    # the point's numpy form has object dtype.
    ("numpy-complex-object-array", np.array([np.complex128(1 + 2j), 1.0], dtype=object),
     "np.complex128(1+2j)"),
    ("numpy-complex-and-Decimal", [np.complex128(1 + 2j), Decimal(1)], "np.complex128(1+2j)"),
    ("ragged-with-an-array", [np.array([1.0, 2.0]), 3.0], "array([1., 2.])"),
    ("none", [None, 1.0], "None"),  # which numpy reads as NaN
    ("masked-first", np.ma.array([15.0, 20.0], mask=[True, False]), "a masked entry"),
    ("masked-second", np.ma.array([15.0, 20.0], mask=[False, True]), "a masked entry"),
    # numpy reads a masked array inside a list as its data, and np.ma.masked
    # as NaN with only a UserWarning.
    ("masked-arrays-in-a-list", [np.ma.array([1.0, 2.0], mask=[True, False])] * 2,
     "a masked entry"),
    ("masked-constant-in-a-list", [np.ma.masked, 1.0], "a masked entry"),
    ("complex-entry", [15.0 + 2j, 20.0], "(15+2j)"),
    ("complex-ndarray", np.array([15.0 + 2j, 20.0]), "(15+2j)"),
    ("big-integer", [10**400, 1.0], "an integer too large for a float"),
    ("word", ["abc", 1.0], "'abc'"),
    ("object-entry", [object(), 20.0], "<object object at "),
]


@pytest.mark.parametrize("name, call", POINT_READERS,
                         ids=[r[0] for r in POINT_READERS])
@pytest.mark.parametrize("x, got", [r[1:] for r in REFUSED_POINTS],
                         ids=[r[0] for r in REFUSED_POINTS])
def test_an_entry_that_is_not_a_real_number_is_refused(name, call, x, got):
    with pytest.raises(ValueError) as raised:
        call(x)
    assert str(raised.value).startswith(f"a point's entries must be floats, got {got}")


#: (id, point) for each form of a point that numpy reads as floats.
READ_POINTS = [
    ("tuple", (1.5, -2.25)), ("list", [0.1, 1e-310, -0.0]), ("column", np.array([[0.1], [0.7]])),
    ("matrix", np.array([[1.0, 2.0], [3.0, 4.0]])), 
    ("ndarray-subclass", np.array([[0.1, 0.2]]).view(type("Subclass", (np.ndarray,), {}))),
    ("float32", np.array([0.1, 3.4e38], dtype=np.float32)),
    ("int64", np.array([2**53 + 1, -(2**63)], dtype=np.int64)),
    ("uint8", np.array([0, 255], dtype=np.uint8)), ("bool", np.array([True, False])),
    ("big-endian-float64", np.array([0.1, -2.5], dtype=">f8")),
    ("float16", np.array([0.1], dtype=np.float16)),
    ("longdouble", np.array([0.1], dtype=np.longdouble)),
    ("0-d-float", np.array(0.7)), ("python-float", 0.7), ("python-int", 2**60 + 1),
    ("numpy-scalars", [np.float32(0.1), np.int64(2**53 + 1), np.float64(0.3), np.bool_(True)]),
    ("numpy-scalar", np.float32(0.1)), ("Decimal", [Decimal("0.1"), Decimal("1e-400")]),
    ("Fraction", [Fraction(1, 3), Fraction(-2, 7)]),
    ("numeric-strings", ["0.1", " -1e-3 ", "inf", "-0.0", "nan"]),
    ("big-integers", [2**53 + 1, 2**70 + 1, -(10**300)]),
    ("nested-lists", [[1, 2.5], [Decimal("0.1"), "3"]]),
    ("object-array", np.array([0.1, Fraction(1, 3), 2], dtype=object)),
    ("string-array", np.array(["0.1", "2.5"])),
    ("masked-nothing-masked", np.ma.array([1.5, -2.25], mask=[False, False])),
    ("masked-nothing-masked-in-a-list", [np.ma.array([1.5, -2.25]), np.ma.array([0.5, 1.0])]),
    ("no-entries", []),
]


@pytest.mark.parametrize("x", [r[1] for r in READ_POINTS], ids=[r[0] for r in READ_POINTS])
def test_a_point_reads_as_numpy_s_float_array_bit_for_bit(x):
    expected = np.asarray(x, dtype=float).ravel()
    for read in (point(x), np.array(entries(x))):
        assert (read.dtype, read.shape, read.tobytes()) == (
            expected.dtype, expected.shape, expected.tobytes())


@pytest.mark.parametrize("x", [None, [[None], [1.0]], (1.0, None),
                               np.array([1.0, None], dtype=object)],
                         ids=["bare", "column", "tuple", "object-array"])
def test_a_none_is_refused_in_every_form_of_a_point(x):
    with pytest.raises(ValueError, match="got None"):
        point(x)


@pytest.mark.parametrize("x", [np.ma.array([1.0, 2.0], mask=[False, True]),
                               np.ma.array([[1.0], [2.0]], mask=[[True], [False]]),
                               np.ma.array(1.0, mask=True),
                               np.ma.array([1, 2], mask=[True, False]),
                               [np.ma.array([1.0, 2.0], mask=[True, False])] * 2,
                               [np.ma.masked, 1.0],
                               ((1.0,), [(np.ma.masked,)]),
                               np.array([1.0, np.ma.masked], dtype=object)],
                         ids=["1-d", "column", "0-d", "integer", "arrays-in-a-list",
                              "masked-constant-in-a-list", "nested", "object-array"])
def test_a_masked_entry_is_refused_in_every_form_of_a_point(x):
    for read in (point, entries):
        with pytest.raises(ValueError, match="got a masked entry"):
            read(x)


def test_a_list_that_holds_itself_is_refused():
    # The search for a masked entry looks into each list once, so it ends.
    x = [1.0]
    x.append(x)
    with pytest.raises(ValueError, match=r"got \[1\.0, \[\.\.\.\]\]"):
        point(x)


@pytest.mark.parametrize("mask", [False, [False, False], np.ma.nomask],
                         ids=["false", "all-false", "nomask"])
def test_a_masked_array_with_no_masked_entry_reads_as_its_data(mask):
    data = np.array([1.5, -2.25])
    x = np.ma.array(data, mask=mask)
    assert point(x).tobytes() == data.tobytes()
    assert [v.hex() for v in entries(x)] == [v.hex() for v in data.tolist()]
    assert norm2(x) == norm2(data)


def test_a_float64_array_is_read_as_it_is_nan_or_not(monkeypatch):
    # kernel.point's first step returns a float64 array's own entries, before
    # any conversion.
    x = np.array([[np.nan], [1.0]])
    monkeypatch.setattr(np, "asarray", None)
    assert np.shares_memory(point(x), x)
    monkeypatch.undo()
    # A converted NaN stays a NaN.
    assert np.isnan(point([float("nan"), "nan", np.float32("nan")])).tolist() == [True] * 3


@pytest.mark.parametrize("iterates, steps, residuals", [
    (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5]), np.array([1.0, 0.0])),
    ([[1, Decimal("0.1")], ["2.5", Fraction(1, 3)]], (0.5,), [np.float32(1.0), 0]),
    (np.array([[0.1], [2.0]], dtype=np.float32), [1.0], np.array([1.0, 2.0], dtype=">f8")),
], ids=["float64", "mixed", "float32"])
def test_a_trace_reads_each_field_as_numpy_s_floats_in_its_shape(iterates, steps, residuals):
    trace = IterationTrace(iterates=iterates, step_norms=steps, residual_norms=residuals)
    for field, given in ((trace.iterates, iterates), (trace.step_norms, steps),
                         (trace.residual_norms, residuals)):
        expected = np.asarray(given, dtype=float)
        assert (field.dtype, field.shape, field.tobytes()) == (
            expected.dtype, expected.shape, expected.tobytes())


@pytest.mark.parametrize("x", [[1.5, -2.25], np.array([[1.5], [-2.25]]), (Decimal("1.5"), -2.25)],
                         ids=["list", "column", "tuple"])
def test_a_root_record_reads_its_x_as_a_1d_point(x):
    record = RootRecord(x=x, alpha=0.5, outcome=None, found_by=(0.5,))
    assert record.x.tobytes() == np.array([1.5, -2.25]).tobytes()
    assert record.x.shape == (2,)


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("name, call, error, rule", NUMBER_READERS,
                         ids=[r[0] for r in NUMBER_READERS])
def test_an_integer_beyond_the_float_range_is_refused(name, call, error, rule, sign):
    # float(10**400) raises OverflowError; each reader refuses it with its
    # documented error instead, as the CLI's ConfigError does.
    with pytest.raises(error) as raised:
        call(sign * 10**400)
    assert str(raised.value) == f"{rule}, got an integer too large for a float"


@pytest.mark.parametrize("value", [None, "abc", [0.5], 1 + 2j, np.complex128(0.5 + 3j)],
                         ids=["None", "word", "list", "complex", "numpy-complex"])
@pytest.mark.parametrize("name, call, error, rule", NUMBER_READERS,
                         ids=[r[0] for r in NUMBER_READERS])
def test_a_non_number_or_a_complex_value_is_refused(name, call, error, rule, value):
    # float() raises TypeError or ValueError on a non-number and keeps only
    # the real part of a numpy complex; np.asarray does the same to a point's
    # entry.  Each reader refuses them with its documented error, never
    # TypeError, and states its rule.
    with pytest.raises(error) as raised:
        call(value)
    assert str(raised.value).startswith(f"{rule}, got ")
