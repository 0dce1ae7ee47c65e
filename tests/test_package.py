"""Package-level tests: the public export list, and the one rule by which
every public function reads a point."""

import numpy as np
import pytest

import fracroots
from fracroots import (FractionalOrder, ModelConstants, SolveOutcome, SolverSettings,
                       back_substitute, fd_jacobian, fixed_point_solve, fpn_step,
                       newton_step, norm2, p_matrix, reduced_residual)
from fracroots.dixit_pindyck import label_root
from fracroots.solver import same_root


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
