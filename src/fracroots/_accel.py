"""Backend selection for the hot iteration kernels.

The scalar loops in :mod:`fracroots._kernels` are compiled with numba when it
is importable (the optional ``jit`` extra) and the environment variable
``FRACROOTS_DISABLE_NUMBA`` is not set to a truthy value (``1``, ``true``,
``yes``, ``on``); otherwise the same source runs interpreted.

Order sweeps always run the scalar kernel.  Single threshold solves use it
only under numba and run the generic driver in :mod:`fracroots.solver`
otherwise.  Both paths give the same statuses, iteration counts and iterates;
only speed differs.  The README's "~20 us" per solve is a numba-only figure;
measured numbers come from the benchmark in ``perfbench/README.md``.
"""

from __future__ import annotations

import os

_flag = os.environ.get("FRACROOTS_DISABLE_NUMBA", "").strip().lower()
NUMBA_REQUESTED = _flag not in {"1", "true", "yes", "on"}

if NUMBA_REQUESTED:
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:  # numba is an optional extra
        NUMBA_ENABLED = False
else:
    NUMBA_ENABLED = False

if not NUMBA_ENABLED:
    def njit(*args, **kwargs):
        """Identity stand-in so the kernel sources import unchanged."""
        if args and callable(args[0]):
            return args[0]

        def decorate(fn):
            return fn

        return decorate


def backend_name() -> str:
    """Name of the active hot-loop backend, ``"numba"`` or ``"numpy"``."""
    return "numba" if NUMBA_ENABLED else "numpy"
