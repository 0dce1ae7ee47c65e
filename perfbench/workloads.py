"""The four benchmark workloads: their inputs, one op each, and the oracle.

Every workload is a fixed list of inputs.  The seed only permutes the order
in which a block of ops (one op per input) is issued, so a run's mix of
inputs does not depend on the seed.  ``check`` is the oracle: it never
raises and returns ``(ok, fingerprint, message)``.  The fingerprint holds
what an op's result says about its solves (status counts and the iteration
counts the result exposes), so a traced op can be compared with an untraced
op on the same input.

The in-process workloads import fracroots when they are built, so a fresh
worker pays the package import as part of its set-up.
"""

from __future__ import annotations

import io
import math
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout

#: Relative bound on a threshold sweep's root against the row's reference.
SWEEP_ROOT_REL_BOUND = 1e-4

#: A subprocess op that takes longer than this counts as failed.
CLI_TIMEOUT_S = 60.0


def status_counts(counter: Counter) -> tuple:
    return tuple(sorted((status, n) for status, n in counter.items() if n))


class ScenarioSolves:
    """``solve_thresholds`` on one reference row at its own order.

    The row's start is used as published; no jitter (starts near row 4's
    lie close to a basin boundary, so jitter would measure that boundary).
    """

    name = "scenario_solves"
    in_process = True
    tail_percentile = 90.0

    def __init__(self):
        from fracroots import SolverSettings, cli, reference
        from fracroots.dixit_pindyck import full_residual_scale, solve_thresholds
        self._solve = solve_thresholds
        self._scale = full_residual_scale
        self._cli = cli
        self.inputs = [(row, reference.scenario_problem(row), SolverSettings(alpha=row.alpha))
                       for row in reference.ROWS]

    def label(self, item) -> str:
        return f"row {item[0].index}"

    def run(self, item, tracer=None):
        _, problem, settings = item
        return self._solve(problem, settings)

    def check(self, item, sol):
        """The bounds ``reproduce-tables`` enforces, without its wall-clock term."""
        row, problem, _ = item
        cli = self._cli
        out = sol.outcome
        rel_h = abs(sol.H - row.solution[0]) / abs(row.solution[0])
        rel_l = abs(sol.L - row.solution[1]) / abs(row.solution[1])
        full_rel = sol.full_residual_norm / self._scale(problem.constants, sol.H, sol.L)
        ok = (rel_h <= cli.SOLUTION_REL_BOUND and rel_l <= cli.SOLUTION_REL_BOUND
              and out.final_residual_norm <= cli.RESIDUAL_BOUND
              and out.iterations <= cli.ITERATION_BOUND
              and full_rel <= cli.FULL_RESIDUAL_REL_BOUND)
        fingerprint = (status_counts(Counter([out.status.value])), (out.iterations,),
                       (sol.H, sol.L))
        message = "" if ok else (
            f"row {row.index}: rel H {rel_h:.2e}, rel L {rel_l:.2e}, residual "
            f"{out.final_residual_norm:.2e}, {out.iterations} iterations, "
            f"full rel {full_rel:.2e}")
        return ok, fingerprint, message


def _sweep_fingerprint(roots) -> tuple:
    statuses = Counter(s.status.value for s in roots.skipped)
    statuses["converged"] += sum(len(r.found_by) for r in roots.roots)
    return (status_counts(statuses),
            tuple(r.outcome.iterations for r in roots.roots),
            tuple(tuple(float(v) for v in r.x) for r in roots.roots))


class ThresholdSweep:
    """``sweep_thresholds`` over the default 76-order grid for one reference row."""

    name = "threshold_sweep"
    in_process = True
    tail_percentile = 90.0

    def __init__(self):
        from fracroots import reference
        from fracroots.dixit_pindyck import sweep_thresholds
        self._sweep = sweep_thresholds
        self.inputs = [(row, reference.scenario_problem(row)) for row in reference.ROWS]

    def label(self, item) -> str:
        return f"row {item[0].index}"

    def run(self, item, tracer=None):
        return self._sweep(item[1])

    def check(self, item, roots):
        """Exactly one distinct root, the row's reference thresholds."""
        row = item[0]
        fingerprint = _sweep_fingerprint(roots)
        if len(roots.roots) != 1:
            return False, fingerprint, f"row {row.index}: {len(roots.roots)} roots, expected 1"
        x = roots.roots[0].x
        H, L = float(max(x)), float(min(x))
        rel_h = abs(H - row.solution[0]) / abs(row.solution[0])
        rel_l = abs(L - row.solution[1]) / abs(row.solution[1])
        if rel_h <= SWEEP_ROOT_REL_BOUND and rel_l <= SWEEP_ROOT_REL_BOUND:
            return True, fingerprint, ""
        return False, fingerprint, f"row {row.index}: rel H {rel_h:.2e}, rel L {rel_l:.2e}"


def _square_minus_one(x):
    return x * x - 1.0


def _cubic(x):
    return (x - 1.0) * (x - 2.0) * (x + 1.5)


class GenericSweep:
    """``alpha_sweep`` over the default grid on a user-supplied Python residual.

    The residual is a plain Python callable, so no threshold-specific kernel
    can take over this path.  Each problem lists the analytic roots that the
    sweep finds from its start.
    """

    name = "generic_sweep"
    in_process = True
    tail_percentile = 80.0

    def __init__(self):
        import numpy as np
        from fracroots.solver import alpha_sweep, same_root
        self._np = np
        self._sweep = alpha_sweep
        self._same_root = same_root
        a, b = math.sqrt(2.0 + math.sqrt(3.0)), math.sqrt(2.0 - math.sqrt(3.0))

        def circle_hyperbola(v):
            return np.array([v[0] * v[0] + v[1] * v[1] - 4.0, v[0] * v[1] - 1.0])

        self.inputs = [
            ("x*x-1", _square_minus_one, np.array([2.0]), [[-1.0], [1.0]]),
            ("cos(x)", np.cos, np.array([1.0]),
             [[-1.5 * math.pi], [0.5 * math.pi], [1.5 * math.pi]]),
            ("(x-1)(x-2)(x+1.5)", _cubic, np.array([0.5]), [[1.0], [2.0]]),
            ("[x^2+y^2-4, xy-1]", circle_hyperbola, np.array([-1.0, 1.5]),
             [[-a, -b], [a, b]]),
        ]

    def label(self, item) -> str:
        return item[0]

    def run(self, item, tracer=None):
        _, f, x0, _ = item
        if tracer is not None:
            f = tracer.span("residual", f)
        return self._sweep(f, x0)

    def check(self, item, roots):
        """The seed's root set, each root within the dedup tolerance of its analytic value."""
        label, _, _, expected = item
        fingerprint = _sweep_fingerprint(roots)
        unmatched = [self._np.array(e) for e in expected]
        for record in roots.roots:
            hits = [k for k, e in enumerate(unmatched)
                    if self._same_root(record.x, e, roots.dedup_tolerance)]
            if len(hits) != 1:
                return False, fingerprint, f"{label}: unexpected root {record.x.tolist()}"
            unmatched.pop(hits[0])
        if unmatched:
            return False, fingerprint, f"{label}: missed roots {[e.tolist() for e in unmatched]}"
        return True, fingerprint, ""


class CliReproduce:
    """``python -m fracroots reproduce-tables`` as a subprocess, as a user runs it.

    The only workload that pays the interpreter start, the package import and
    the CLI.  Its layer counts come from ``layer_op``: the same command run
    in-process through ``cli.main``.
    """

    name = "cli_reproduce"
    in_process = False
    tail_percentile = 80.0
    COMMAND = ("reproduce-tables",)

    def __init__(self, root, env):
        self._root = str(root)
        self._env = env
        self.inputs = [self.COMMAND]

    def label(self, item) -> str:
        return " ".join(item)

    def run(self, item, tracer=None):
        return subprocess.run([sys.executable, "-m", "fracroots", *item], cwd=self._root,
                              env=self._env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)

    def check(self, item, proc):
        """Exit code 0 and the CLI's own verdict that every bound holds."""
        ok = proc.returncode == 0 and "all bounds hold" in proc.stdout
        failed_lines = [line.strip() for line in proc.stdout.splitlines() if "FAIL" in line]
        message = "" if ok else (f"exit code {proc.returncode}: "
                                 f"{(chr(10).join(failed_lines) or proc.stderr).strip()[-600:]}")
        return ok, (proc.returncode,), message

    def layer_op(self) -> int:
        """The op in-process; returns the exit code."""
        return cli_in_process(self.COMMAND)


def cli_in_process(argv) -> int:
    """``fracroots.cli.main(argv)`` with its stdout captured; returns the exit code."""
    from fracroots import cli
    with redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


NAMES = ("scenario_solves", "threshold_sweep", "generic_sweep", "cli_reproduce")


def build(name: str, root, env):
    """Construct one workload; this is the set-up a fresh worker pays."""
    if name == "cli_reproduce":
        return CliReproduce(root, env)
    return {"scenario_solves": ScenarioSolves, "threshold_sweep": ThresholdSweep,
            "generic_sweep": GenericSweep}[name]()
