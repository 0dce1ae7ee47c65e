"""Backend selection for the hot iteration kernels.

The scalar loops in :mod:`fracroots._kernels` are compiled with numba when it
is importable (the optional ``jit`` extra); otherwise the same source runs
interpreted.

Order sweeps always run the scalar kernel.  Single threshold solves use it
only under numba and run the generic driver in :mod:`fracroots.solver`
otherwise.  Both paths give the same statuses, iteration counts and iterates;
only speed differs.  The README's "~20 us" per solve is a numba-only figure;
measured numbers come from the benchmark in ``perfbench/README.md``.
"""

from __future__ import annotations

try:
    import numba  # noqa: F401

    NUMBA_ENABLED = True
except ImportError:  # numba is an optional extra
    NUMBA_ENABLED = False


def backend_name() -> str:
    """Name of the active hot-loop backend, ``"numba"`` or ``"numpy"``."""
    return "numba" if NUMBA_ENABLED else "numpy"
