"""Every lane of three generic order sweeps, bit for bit, against a golden file.

A lane is one polynomial residual solved at one order of the default grid,
as ``alpha_sweep`` solves it: an untraced ``fixed_point_solve(f, x0,
SolverSettings(alpha=a))``, which runs the generic driver's loop and its
cycle stop.  The residuals are ``x*x-1`` from 2, ``(x-1)(x-2)(x+1.5)`` from
0.5 and ``[x^2+y^2-4, xy-1]`` from (-1, 1.5), so 3 x 76 = 228 lanes.  Each
line of ``golden/generic_lanes.csv`` holds

    residual, alpha (repr), status, iterations, x_final entries, step norm, residual norm

with the last entries as ``float.hex``, so a change to the loop that moves
any outcome by one bit, the sign of zero or a NaN included, fails here.
The residuals use only IEEE ``+``, ``-`` and ``*``, which are exact on every
CPU; ``cos(x)`` is left out, because numpy's float64 ``cos`` may take SIMD
paths whose last bits depend on the CPU.  The driver's own arithmetic adds
libm's ``pow`` and ``gamma``, so the file depends on libm exactly as the
other golden files do.

Regenerate it (only on purpose) with::

    PYTHONPATH=src python tests/test_generic_lanes.py
"""

from pathlib import Path

import numpy as np

from fracroots import SolverSettings, default_alpha_grid
from fracroots.solver import fixed_point_solve

GOLDEN = Path(__file__).resolve().parent / "golden" / "generic_lanes.csv"


def _square_minus_one(x):
    return x * x - 1.0


def _cubic(x):
    return (x - 1.0) * (x - 2.0) * (x + 1.5)


def _circle_hyperbola(v):
    return np.array([v[0] * v[0] + v[1] * v[1] - 4.0, v[0] * v[1] - 1.0])


PROBLEMS = [
    ("x*x-1", _square_minus_one, [2.0]),
    ("(x-1)(x-2)(x+1.5)", _cubic, [0.5]),
    ("[x^2+y^2-4 xy-1]", _circle_hyperbola, [-1.0, 1.5]),
]


def lane_lines() -> bytes:
    """The 3 residuals x 76 orders of lanes, one CSV line each, as bytes."""
    lines = []
    for label, f, x0 in PROBLEMS:
        for alpha in default_alpha_grid():
            out = fixed_point_solve(f, x0, SolverSettings(alpha=alpha))
            lines.append(",".join(
                [label, repr(alpha.value), out.status.value, str(out.iterations)]
                + [v.hex() for v in out.x_final.tolist()]
                + [out.final_step_norm.hex(), out.final_residual_norm.hex()]))
    return "".join(line + "\n" for line in lines).encode("ascii")


def test_every_generic_lane_keeps_its_bits():
    expected = GOLDEN.read_bytes()
    assert len(expected.splitlines()) == len(PROBLEMS) * len(default_alpha_grid()) == 228
    assert lane_lines() == expected


if __name__ == "__main__":
    GOLDEN.write_bytes(lane_lines())
