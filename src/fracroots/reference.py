"""Bundled benchmark scenarios with their published reference solutions.

Five scenario rows share one structural constant set and vary the trigger
pair (a6, a7), the initial condition and the fractional order.  The
reference columns (initial residual norm, solved thresholds, final norms,
iteration count) are the golden data behind ``fracroots reproduce-tables``
and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dixit_pindyck import ModelConstants, ThresholdProblem

#: Structural constants shared by all five scenario rows.
STRUCTURAL = dict(a1=0.5355, a2=1.5808, a3=1.5355, a4=0.5808, a5=18.9753)


@dataclass(frozen=True)
class ReferenceRow:
    """One benchmark scenario and its reference results."""

    index: int
    a6: float
    a7: float
    x0: tuple
    f0_norm: float
    alpha: float
    solution: tuple
    step_norm: float
    residual_norm: float
    iterations: int


ROWS = (
    ReferenceRow(1, 451474.0, 396499.0, (15.0, 20.0), 6.00379e5,
                 0.26131, (41844.57090443, 11857.32126593), 6.94046e-6, 6.96414e-5, 78),
    ReferenceRow(2, 706975.0, 652000.0, (17.0, 18.0), 9.61232e5,
                 0.25628, (60324.4350877, 20727.99532223), 5.03627e-6, 8.61788e-5, 85),
    ReferenceRow(3, 598655.0, 582680.0, (9.0, 16.0), 8.35072e5,
                 0.23116, (43561.70316013, 20925.42239162), 7.21678e-6, 8.66393e-5, 128),
    ReferenceRow(4, 506975.0, 452000.0, (5.0, 19.0), 6.78951e5,
                 0.27136, (45951.77394332, 13741.03694719), 4.60353e-6, 8.71723e-5, 105),
    ReferenceRow(5, 633603.0, 578628.0, (11.0, 12.0), 8.57733e5,
                 0.24623, (55117.71562961, 18133.15925118), 6.19923e-6, 9.26936e-5, 83),
)


def scenario_constants(a6: float, a7: float) -> ModelConstants:
    """Structural constants combined with one scenario's trigger pair."""
    return ModelConstants(a6=a6, a7=a7, **STRUCTURAL)


def scenario_problem(row: ReferenceRow) -> ThresholdProblem:
    """ThresholdProblem for one reference row."""
    return ThresholdProblem(constants=scenario_constants(row.a6, row.a7), x0=row.x0)
