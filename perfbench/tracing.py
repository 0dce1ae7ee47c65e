"""Spans around the package's layer boundaries, recorded from outside ``src/``.

``instrument`` swaps traced wrappers into the module attributes through
which the package calls its own layers, and restores them on exit:

* ``solver.fixed_point_solve`` (also as imported by ``dixit_pindyck``): the
  ``driver`` span, plus each solve's status and exact iteration count;
* ``dixit_pindyck.reduced_residual`` (also as imported by ``cli``): the
  ``residual`` span.  On ``generic_sweep`` the workload wraps the Python
  residual it passes in under the same name;
* ``solver.fpn_update``: the step closure it returns becomes the ``step``
  span;
* ``solver.p_matrix``: the ``p_matrix`` span, a child of ``step``.

Spans are aggregated as they close (calls, total and self time per name), so
a long run keeps no per-span records.  Self time is a span's duration minus
the time covered by its traced children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Span aggregates and the (status, iterations) of every traced solve."""

    def __init__(self):
        self.spans: dict = {}
        self.solves: list = []
        self._open: list = []

    def stats(self, name: str) -> SpanStats:
        return self.spans.setdefault(name, SpanStats())

    def span(self, name: str, fn):
        """``fn`` wrapped so every call is recorded as a span called ``name``."""
        stats = self.stats(name)
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            open_spans.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - children

        return traced

    def solve_span(self, fixed_point_solve):
        """The ``driver`` span, also recording each outcome's status and iterations."""
        timed = self.span("driver", fixed_point_solve)
        solves = self.solves

        def traced(*args, **kwargs):
            out = timed(*args, **kwargs)
            solves.append((out.status.value, out.iterations))
            return out

        return traced

    def take_solves(self) -> list:
        solves = self.solves[:]
        self.solves.clear()
        return solves


@contextmanager
def instrument(tracer: Tracer):
    """Route the package's internal layer calls through ``tracer``."""
    from fracroots import cli, dixit_pindyck, solver

    saved = []

    def patch(module, name, value):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    driver = tracer.solve_span(solver.fixed_point_solve)
    patch(solver, "fixed_point_solve", driver)
    patch(dixit_pindyck, "fixed_point_solve", driver)
    residual = tracer.span("residual", dixit_pindyck.reduced_residual)
    patch(dixit_pindyck, "reduced_residual", residual)
    patch(cli, "reduced_residual", residual)
    patch(solver, "p_matrix", tracer.span("p_matrix", solver.p_matrix))
    fpn_update = solver.fpn_update
    patch(solver, "fpn_update",
          lambda alpha, epsilon: tracer.span("step", fpn_update(alpha, epsilon)))
    try:
        yield tracer
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)
