"""Command-line front end: scenario solves, reference-table reproduction, sweeps.

Configuration comes from a YAML file; command-line flags override file
values, which override built-in defaults.  No environment variables are
consulted.  Every invalid input exits with code 1 through ConfigError, named
for its field.  Machine-readable output is deterministic: identical inputs
give byte-identical files.

:func:`main` owns each run's ``--out`` file: it checks the path before
anything else, writes the report a command returns, and removes a file its
check created when the run ends without writing it.  The commands only
compute, print and return their reports.

:func:`entrypoint` is the console script and ``python -m fracroots``: it
runs ``main``, then the ``atexit`` handlers, flushes stdout and stderr, and
ends the process without freeing its objects.  :func:`main` is the entry for
in-process use; it returns the exit code and leaves the process running.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Optional

from . import reference
from .dixit_pindyck import (EconomicPrimitives, ModelConstants,
                            ThresholdProblem, derive_constants,
                            full_residual_scale, label_root, reduced_residual,
                            solve_thresholds, sweep_thresholds)
from .errors import ConfigError, FracrootsError, ThresholdSolveFailed
from .kernel import real
from .solver import DEFAULT_GRID_STEP, SolverSettings, default_alpha_grid, norm2

#: Report formats of ``solve``, for ``--format`` and ``output.format``.
FORMATS = ("table", "csv", "structured")
CSV_HEADER = "row,a6,a7,x0_1,x0_2,alpha,H,L,A,B,step_norm,residual_norm,iters,status"

#: Bounds enforced by reproduce-tables, matching the acceptance suite.
F0_REL_BOUND = 1e-5
SOLUTION_REL_BOUND = 1e-4
RESIDUAL_BOUND = 1e-4
ITERATION_BOUND = 300
FULL_RESIDUAL_REL_BOUND = 1e-3
#: Timed calls per initial residual; the fastest must take under 1 ms.
TIMING_REPEATS = 5

#: Every section a scenario file may hold, with the keys it may hold.
_SECTIONS = {
    "constants": tuple(f.name for f in fields(ModelConstants)),
    "primitives": tuple(f.name for f in fields(EconomicPrimitives)),
    "initial": ("H0", "L0"),
    "solver": tuple(f.name for f in fields(SolverSettings)),
    "sweep": ("grid_step",),
    "output": ("format", "trace"),
}


@dataclass
class ScenarioConfig:
    """Validated scenario configuration, as the file gives it.

    ``problem`` is built when the file is loaded.  ``solver`` holds only the
    solver fields that the file set; every other field takes its default from
    :class:`SolverSettings`.  Each value is checked on load, each flag as it is read.
    """

    problem: ThresholdProblem
    solver: dict = field(default_factory=dict)
    grid_step: float = DEFAULT_GRID_STEP
    out_format: str = "table"
    trace: bool = False

    def settings(self, **given) -> SolverSettings:
        """The solver settings, with the fields in ``given`` (flags) over the file's."""
        values = {**self.solver, **given}
        if "alpha" not in values:
            raise ConfigError("solver.alpha", "missing required field (or pass --alpha)")
        return SolverSettings(**values)


def _section(data: dict, name: str) -> dict:
    """Section ``name`` of the file, or {} when absent; refuses keys not in ``_SECTIONS``."""
    value = data.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(name, "must be a mapping")
    for key in value:
        if key not in _SECTIONS[name]:
            raise ConfigError(f"{name}.{key}", "unknown field")
    return value


def _number(section: str, name: str, raw) -> float:
    """A scenario number as a float, but an integer ``max_iter`` stays an integer."""
    if raw is None:
        raise ConfigError(f"{section}.{name}", "missing required field")
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{section}.{name}", f"must be a number, got {raw!r}")
    if isinstance(raw, int) and (section, name) == ("solver", "max_iter"):
        return raw
    return real(raw, "must be a number", functools.partial(ConfigError, f"{section}.{name}"))


def _checked(section: str, name: str, raw) -> float:
    """A ``solver`` or ``sweep`` number, file value or flag, refused by its consumer's rule."""
    value = _number(section, name, raw)
    try:
        if section == "solver":
            SolverSettings(**{name: value})
        else:
            default_alpha_grid(step=value)
    except ValueError as exc:
        raise ConfigError(f"{section}.{name}", str(exc)) from exc
    return value


@functools.cache
def _yaml_loader():
    """``yaml.SafeLoader`` that also reads YAML 1.2 floats such as ``1e-4`` or ``-.5``.

    YAML 1.1, which ``safe_load`` follows, reads ``1e-4``, ``1E5``, ``1.0e300``
    and ``-.5`` as strings.  The added resolver is YAML 1.2's core float rule;
    integers still match the integer resolver first.  The subclass gets its own
    copy of the resolvers; ``yaml.SafeLoader`` is left as it is.  Quoted scalars stay strings.
    """
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?$"),
        list("-+.0123456789"))
    return Loader


def _flag_number(section: str, name: str, text: str) -> float:
    """A number flag's value, read as the same text in a scenario file would be.

    The text is loaded as a YAML scalar and checked by :func:`_checked`, so
    ``--max-iter 5e2`` is 500, as ``max_iter: 5e2`` is, and ``--alpha abc``
    is a ConfigError for ``solver.alpha``.
    """
    import yaml

    try:
        raw = yaml.load(text, Loader=_yaml_loader())
    except yaml.YAMLError:
        raw = text
    return _checked(section, name, text if raw is None else raw)


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file.

    Every section's keys are checked before any value, and the problem is
    built here, so a config that loads holds a solvable ThresholdProblem.
    """
    import yaml  # only the commands that read a config pay for this import

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_yaml_loader())
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"{path!r} is not valid UTF-8: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"invalid YAML in {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a mapping")
    unknown = [name for name in data if name not in _SECTIONS]
    if unknown:
        raise ConfigError(str(unknown[0]), "unknown section")

    if ("constants" in data) == ("primitives" in data):
        raise ConfigError("config", "exactly one of 'constants' or 'primitives' must be present")
    model = "constants" if "constants" in data else "primitives"
    sections = {name: _section(data, name) for name in _SECTIONS}

    values = {name: _number(model, name, sections[model].get(name)) for name in _SECTIONS[model]}
    try:
        constants = (ModelConstants(**values) if model == "constants"
                     else derive_constants(EconomicPrimitives(**values)))
    except ValueError as exc:  # InvalidPrimitives is a ValueError
        raise ConfigError(model, str(exc)) from exc

    initial = sections["initial"]
    x0 = [_number("initial", name, initial.get(name)) for name in _SECTIONS["initial"]]
    if not all(map(math.isfinite, x0)):
        raise ConfigError("initial", f"H0 and L0 must be finite, got {x0}")
    try:
        problem = ThresholdProblem(constants=constants, x0=x0)
    except ValueError as exc:  # x0 is finite, so only a6 <= a7 is left
        raise ConfigError("constants.a6" if model == "constants" else "primitives",
                          str(exc)) from exc

    solver = sections["solver"]
    config = ScenarioConfig(problem=problem, solver={
        name: _checked("solver", name, solver[name])
        for name in _SECTIONS["solver"] if name in solver})

    sweep = sections["sweep"]
    if "grid_step" in sweep:
        config.grid_step = _checked("sweep", "grid_step", sweep["grid_step"])

    output = sections["output"]
    if "format" in output:
        fmt = output.get("format")
        if fmt not in FORMATS:
            raise ConfigError("output.format", f"must be table, csv or structured, got {fmt!r}")
        config.out_format = fmt
    if "trace" in output:
        flag = output.get("trace")
        if not isinstance(flag, bool):
            raise ConfigError("output.trace", f"must be a boolean, got {flag!r}")
        config.trace = flag
    return config


def _g17(x) -> str:
    """Full-precision float formatting; 17 significant digits round-trip."""
    return format(float(x), ".17g")


def _csv_document(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(
            str(v) if isinstance(v, (int, str)) else _g17(v) for v in row))
    return "\n".join(lines) + "\n"


def _csv_row(index, problem, alpha, H, L, A, B, outcome) -> tuple:
    """The values of one CSV_HEADER row, in its column order."""
    return (index, problem.constants.a6, problem.constants.a7, problem.x0[0], problem.x0[1],
            alpha, H, L, A, B, outcome.final_step_norm, outcome.final_residual_norm,
            outcome.iterations, outcome.status.value)


def _solution_json(problem, alpha, sol) -> dict:
    out = sol.outcome
    payload = {
        "row": 1,
        "a6": problem.constants.a6,
        "a7": problem.constants.a7,
        "x0": [problem.x0[0], problem.x0[1]],
        "alpha": alpha,
        "H": sol.H,
        "L": sol.L,
        "A": sol.A,
        "B": sol.B,
        "step_norm": out.final_step_norm,
        "residual_norm": out.final_residual_norm,
        "reduced_residual_norm": sol.reduced_residual_norm,
        "full_residual_norm": sol.full_residual_norm,
        "iterations": out.iterations,
        "status": out.status.value,
        "relabeled": sol.relabeled,
    }
    if out.trace is not None:
        payload["trace"] = {
            "iterates": out.trace.iterates.tolist(),
            "step_norms": out.trace.step_norms.tolist(),
            "residual_norms": out.trace.residual_norms.tolist(),
        }
    return payload


def _check_out(path: Optional[str]) -> bool:
    """Refuse an unwritable ``--out`` before any work; appending keeps its contents.

    Returns whether the check created the file, so that a run that ends
    without writing it can remove it again.
    """
    if path is None:
        return False
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ConfigError("out", f"cannot write {path!r}: {exc}") from exc
    return not existed


def _emit(text: str, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("out", f"cannot write {path!r}: {exc}") from exc


def _human_solution(problem, alpha, sol) -> str:
    out = sol.outcome
    constants, x0 = problem.constants, problem.x0
    lines = [
        "threshold solve",
        f"  a6, a7           {_g17(constants.a6)}, {_g17(constants.a7)}",
        f"  x0               ({_g17(x0[0])}, {_g17(x0[1])})",
        f"  alpha            {_g17(alpha)}",
        f"  status           {out.status.value}",
        f"  iterations       {out.iterations}",
        f"  H  (expand at)   {_g17(sol.H)}",
        f"  L  (close at)    {_g17(sol.L)}",
        f"  A                {_g17(sol.A)}",
        f"  B                {_g17(sol.B)}",
        f"  step norm        {_g17(out.final_step_norm)}",
        f"  residual norm    {_g17(out.final_residual_norm)}",
        f"  full residual    {_g17(sol.full_residual_norm)}",
    ]
    if out.trace is not None:
        lines.append("  trace (iteration, H, L, step norm, residual norm)")
        steps = out.trace.step_norms
        residuals = out.trace.residual_norms
        for i, point in enumerate(out.trace.iterates):
            step = "-" if i == 0 else _g17(steps[i - 1])
            lines.append(f"    {i:4d}  {_g17(point[0]):>24s}  {_g17(point[1]):>24s}"
                         f"  {step:>24s}  {_g17(residuals[i]):>24s}")
    return "\n".join(lines) + "\n"


def _render_solution(problem, alpha, sol, fmt) -> str:
    if fmt == "csv":
        return _csv_document([_csv_row(1, problem, alpha, sol.H, sol.L, sol.A, sol.B,
                                       sol.outcome)])
    if fmt == "structured":
        import json  # only a structured report pays for this import

        payload = _solution_json(problem, alpha, sol)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return _human_solution(problem, alpha, sol)


def _cmd_solve(args) -> tuple:
    config = load_config(args.config)
    settings = config.settings(**{name: _flag_number("solver", name, getattr(args, name))
                                  for name in ("alpha", "epsilon", "max_iter")
                                  if getattr(args, name) is not None})
    problem, alpha = config.problem, settings.alpha.value
    try:
        sol = solve_thresholds(problem, settings, keep_trace=args.trace or config.trace)
    except ThresholdSolveFailed as exc:
        out = exc.outcome
        print(f"solve failed: status {out.status.value} after {out.iterations} "
              f"iterations (x = {out.x_final.tolist()})", file=sys.stderr)
        return 2, None
    report = _render_solution(problem, alpha, sol, args.fmt or config.out_format)
    # With --out the report goes to the file and stdout gets the table.
    sys.stdout.write(report if args.out is None else _human_solution(problem, alpha, sol))
    return 0, report


def _cmd_reproduce(args) -> tuple:
    print(f"re-solving the {len(reference.ROWS)} bundled scenarios")
    all_ok = True
    csv_rows = []
    print()
    print("scenario inputs, initial residual norm against reference")
    print(f"{'row':>3} {'a6':>10} {'a7':>10} {'x0':>12} "
          f"{'reference':>12} {'computed':>16} {'rel dev':>10}")
    results = []
    for row in reference.ROWS:
        problem = reference.scenario_problem(row)
        # The best of several calls, so one host stall cannot fail a correct row.
        dt = math.inf
        for _ in range(TIMING_REPEATS):
            t0 = time.perf_counter()
            f0 = norm2(reduced_residual(problem.constants, problem.x0))
            dt = min(dt, time.perf_counter() - t0)
        rel = abs(f0 - row.f0_norm) / row.f0_norm
        ok = rel <= F0_REL_BOUND and dt < 1e-3
        all_ok &= ok
        results.append((row, problem))
        print(f"{row.index:>3} {row.a6:>10.0f} {row.a7:>10.0f} "
              f"{'(%g, %g)' % row.x0:>12} {row.f0_norm:>12.6g} "
              f"{f0:>16.10g} {rel:>10.2e} {'ok' if ok else 'FAIL'}")

    print()
    print("solved thresholds against reference "
          f"(epsilon = 1e-4, bounds: rel {SOLUTION_REL_BOUND:g}, "
          f"residual {RESIDUAL_BOUND:g}, n <= {ITERATION_BOUND})")
    print(f"{'row':>3} {'alpha':>8} {'component':>10} {'reference':>18} "
          f"{'computed':>20} {'rel dev':>10}")
    for row, problem in results:
        settings = SolverSettings(alpha=row.alpha)
        try:
            t0 = time.perf_counter()
            sol = solve_thresholds(problem, settings)
            dt = time.perf_counter() - t0
        except ThresholdSolveFailed as exc:
            print(f"{row.index:>3} {row.alpha:>8} solve FAILED: "
                  f"{exc.outcome.status.value}")
            all_ok = False
            continue
        out = sol.outcome
        rel_h = abs(sol.H - row.solution[0]) / abs(row.solution[0])
        rel_l = abs(sol.L - row.solution[1]) / abs(row.solution[1])
        full_rel = sol.full_residual_norm / full_residual_scale(problem.constants,
                                                                sol.H, sol.L)
        ok = (rel_h <= SOLUTION_REL_BOUND and rel_l <= SOLUTION_REL_BOUND
              and out.final_residual_norm <= RESIDUAL_BOUND
              and out.iterations <= ITERATION_BOUND and dt < 1.0
              and full_rel <= FULL_RESIDUAL_REL_BOUND)
        all_ok &= ok
        print(f"{row.index:>3} {row.alpha:>8} {'H':>10} {row.solution[0]:>18.8f} "
              f"{sol.H:>20.8f} {rel_h:>10.2e}")
        print(f"{'':>3} {'':>8} {'L':>10} {row.solution[1]:>18.8f} "
              f"{sol.L:>20.8f} {rel_l:>10.2e}")
        print(f"{'':>3} {'':>8} {'norms':>10} step {out.final_step_norm:.5e} "
              f"(ref {row.step_norm:.5e})  residual {out.final_residual_norm:.5e} "
              f"(ref {row.residual_norm:.5e})")
        print(f"{'':>3} {'':>8} {'iters':>10} {out.iterations} "
              f"(ref {row.iterations}); full-system rel residual {full_rel:.2e} "
              f"-> {'ok' if ok else 'FAIL'}")
        csv_rows.append(_csv_row(row.index, problem, row.alpha, sol.H, sol.L, sol.A, sol.B,
                                 out))

    print()
    print("all bounds hold" if all_ok else "some bounds FAILED")
    return (0 if all_ok else 2), _csv_document(csv_rows)


def _cmd_sweep(args) -> tuple:
    config = load_config(args.config)
    step = (config.grid_step if args.grid_step is None
            else _flag_number("sweep", "grid_step", args.grid_step))
    grid = default_alpha_grid(step=step)
    # Every grid order replaces the configured one.
    problem, settings = config.problem, config.settings(alpha=grid[0])
    roots = sweep_thresholds(problem, grid=grid, settings=settings)

    print(f"order sweep over {len(grid)} grid points (step {step:g})")
    print(f"distinct roots found: {len(roots.roots)}")
    csv_rows = []
    for k, record in enumerate(roots.roots, start=1):
        out = record.outcome
        # A sweep reports a relabeled root without warning; only solve_thresholds warns.
        H, L, A, B, _ = label_root(problem.constants, record.x)
        print(f"  root {k}: x = ({_g17(record.x[0])}, {_g17(record.x[1])})")
        print(f"    best alpha {record.alpha:g}: residual norm "
              f"{out.final_residual_norm:.5e}, {out.iterations} iterations")
        print(f"    found by {len(record.found_by)} orders: "
              + ", ".join(f"{a:g}" for a in record.found_by))
        csv_rows.append(_csv_row(k, problem, record.alpha, H, L, A, B, out))
    by_status: dict = {}
    for skip in roots.skipped:
        by_status.setdefault(skip.status.value, []).append(skip.alpha)
    for status, alphas in sorted(by_status.items()):
        print(f"  skipped {len(alphas)} orders with status {status}: "
              + ", ".join(f"{a:g}" for a in alphas))
    return (0 if roots.roots else 2), _csv_document(csv_rows)


class _Parser(argparse.ArgumentParser):
    """Argument parser using exit code 1 for usage errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a word that starts with "-" for an option unless it
        # matches this pattern.  Its default, ^-\d+$|^-\d*\.\d+$, refuses
        # ``--alpha -5e-1`` and ``--alpha -.inf``, and no option here starts
        # with a dash and then a digit or a dot.  argparse has no public hook
        # for it; every subparser is a _Parser, so this covers the number
        # flags of every command.
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracroots",
                     description="Fractional pseudo-Newton root finding and "
                                 "investment-threshold scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one scenario from a config file")
    solve.add_argument("--config", required=True, help="YAML scenario file")
    solve.add_argument("--alpha", help="fractional order override")
    solve.add_argument("--epsilon", help="regularisation override")
    solve.add_argument("--max-iter", dest="max_iter", help="iteration cap override")
    solve.add_argument("--trace", action="store_true", help="include the iteration history")
    solve.add_argument("--out", help="write the report to this file instead of stdout")
    solve.add_argument("--format", dest="fmt", choices=FORMATS,
                       help="report format (default from config, else table)")

    reproduce = sub.add_parser("reproduce-tables",
                               help="re-solve the bundled scenarios and compare "
                                    "against their reference values")
    reproduce.add_argument("--out", help="write recomputed results as CSV to this file")

    sweep = sub.add_parser("sweep", help="order sweep for multiple roots of one scenario")
    sweep.add_argument("--config", required=True, help="YAML scenario file")
    sweep.add_argument("--grid-step", dest="grid_step",
                       help=f"grid spacing over [-2, 2] (default {DEFAULT_GRID_STEP:g})")
    sweep.add_argument("--out", help="write found roots as CSV to this file")

    return parser


_COMMANDS = {"solve": _cmd_solve, "reproduce-tables": _cmd_reproduce, "sweep": _cmd_sweep}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    created = written = False
    try:
        created = _check_out(args.out)
        code, report = _COMMANDS[args.command](args)
        if args.out is not None and report is not None:
            _emit(report, args.out)
            written = True
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FracrootsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # A run that writes no report leaves no file of its own behind.
        if created and not written:
            os.remove(args.out)


def entrypoint() -> None:
    """The console script: :func:`main` on ``sys.argv``, then an exit without teardown.

    After ``main`` returns its code, the ``atexit`` handlers run and stdout
    and stderr are flushed, as at a normal exit; then ``os._exit`` ends the
    process without freeing its objects, which would change nothing the run
    prints or writes.  An exception from ``main`` propagates, and a stream
    that cannot be flushed leaves the exit to the interpreter, so either is
    reported as at a normal exit.
    """
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError, AttributeError):  # full or closed, or no stream (None)
        raise SystemExit(code) from None
    os._exit(code)
