"""Name of the hot-loop backend, reported by the CLI and the benchmark.

The scalar loops in :mod:`fracroots._kernels` run interpreted; there is one
backend.  Order sweeps run that kernel; single threshold solves run the
generic driver in :mod:`fracroots.solver`.  Measured speeds come from the
benchmark in ``perfbench/README.md``.
"""

from __future__ import annotations


def backend_name() -> str:
    """Name of the hot-loop backend: always ``"numpy"``."""
    return "numpy"
