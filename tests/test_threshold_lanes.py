"""Every lane of the reference order sweeps, bit for bit, against a golden file.

A lane is one reference row solved at one order of the default grid, as
``sweep_thresholds`` solves it: ``KernelResidual(c).fused_solve(x0,
SolverSettings(alpha=a))``, which runs the fused threshold loop.  Each line
of ``golden/threshold_lanes.csv`` holds

    row, alpha (repr), status, iterations, x1, x2, step norm, residual norm

with the last four as ``float.hex``, so a change to the loop that moves any
outcome by one bit, the sign of zero or a NaN included, fails here.  The
file depends on libm exactly as the other golden files do.

Regenerate it (only on purpose) with::

    PYTHONPATH=src python tests/test_threshold_lanes.py
"""

from pathlib import Path

from fracroots import SolverSettings, default_alpha_grid, reference
from fracroots.dixit_pindyck import KernelResidual

GOLDEN = Path(__file__).resolve().parent / "golden" / "threshold_lanes.csv"


def lane_lines() -> bytes:
    """The 5 rows x 76 orders of lanes, one CSV line each, as bytes."""
    lines = []
    for row in reference.ROWS:
        residual = KernelResidual(reference.scenario_problem(row).constants)
        for alpha in default_alpha_grid():
            out = residual.fused_solve(row.x0, SolverSettings(alpha=alpha))
            x1, x2 = out.x_final.tolist()
            lines.append(",".join([
                str(row.index), repr(alpha.value), out.status.value, str(out.iterations),
                x1.hex(), x2.hex(), out.final_step_norm.hex(), out.final_residual_norm.hex()]))
    return "".join(line + "\n" for line in lines).encode("ascii")


def test_every_reference_lane_keeps_its_bits():
    expected = GOLDEN.read_bytes()
    assert len(expected.splitlines()) == len(reference.ROWS) * len(default_alpha_grid()) == 380
    assert lane_lines() == expected


if __name__ == "__main__":
    GOLDEN.write_bytes(lane_lines())
