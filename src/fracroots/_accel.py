"""Name of the hot-loop backend, reported by the benchmark.

The scalar loops in :mod:`fracroots._kernels` run interpreted; there is one
backend.  Only ``perfbench/probes.py`` and ``perfbench/worker.py`` import this
module, for their report's ``backend`` field; the next change to the
benchmark drops that field and deletes this module.
"""

from __future__ import annotations


def backend_name() -> str:
    """Name of the hot-loop backend: always ``"numpy"``."""
    return "numpy"
