"""Command-line front end: scenario solves, reference-table reproduction, sweeps.

Configuration comes from a YAML file; command-line flags override file
values, which override built-in defaults.  No environment variables are
consulted.  Every invalid input exits with code 1 through ConfigError, named
for its field.  Machine-readable output is deterministic: identical inputs
give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import reference
from ._accel import backend_name
from .dixit_pindyck import (EconomicPrimitives, ModelConstants,
                            ThresholdProblem, back_substitute,
                            derive_constants, full_residual_scale,
                            reduced_residual, solve_thresholds,
                            sweep_thresholds)
from .errors import (ConfigError, FracrootsError, InvalidPrimitives,
                     ThresholdSolveFailed)
from .solver import DEFAULT_GRID_STEP, SolverSettings, default_alpha_grid, norm2

CSV_HEADER = "row,a6,a7,x0_1,x0_2,alpha,H,L,A,B,step_norm,residual_norm,iters,status"

#: Bounds enforced by reproduce-tables, matching the acceptance suite.
F0_REL_BOUND = 1e-5
SOLUTION_REL_BOUND = 1e-4
RESIDUAL_BOUND = 1e-4
ITERATION_BOUND = 300
FULL_RESIDUAL_REL_BOUND = 1e-3
#: Timed calls per initial residual; the fastest must take under 1 ms.
TIMING_REPEATS = 5

_PRIMITIVE_FIELDS = ("mu", "sigma", "l", "c", "kappa", "chi")
_CONSTANT_FIELDS = tuple(f.name for f in fields(ModelConstants))
_SOLVER_FIELDS = tuple(f.name for f in fields(SolverSettings))


@dataclass
class ScenarioConfig:
    """Validated scenario configuration after file parsing and flag overrides.

    ``solver`` holds only the solver fields that the file or a flag set;
    every other field takes its default from :class:`SolverSettings`.
    """

    constants: ModelConstants
    x0: np.ndarray
    solver: dict = field(default_factory=dict)
    grid_step: float = DEFAULT_GRID_STEP
    out_format: str = "table"
    trace: bool = False
    out_path: Optional[str] = None
    #: The section the constants came from, named when they cannot be solved.
    model_section: str = "constants"

    def settings(self, **given) -> SolverSettings:
        """The solver settings, with the fields in ``given`` over the configured ones."""
        values = {**self.solver, **given}
        if "alpha" not in values:
            raise ConfigError("solver.alpha", "missing required field (or pass --alpha)")
        # Each field is checked on its own, in declaration order, so the error
        # names the first bad one.
        for name in _SOLVER_FIELDS:
            if name in values:
                try:
                    SolverSettings(**{name: values[name]})
                except ValueError as exc:
                    raise ConfigError(f"solver.{name}", str(exc)) from exc
        return SolverSettings(**values)

    def problem(self) -> ThresholdProblem:
        try:
            return ThresholdProblem(constants=self.constants, x0=self.x0)
        except ValueError as exc:  # x0 is checked finite on load
            field = "constants.a6" if self.model_section == "constants" else "primitives"
            raise ConfigError(field, str(exc)) from exc


def _section(data: dict, name: str) -> dict:
    value = data.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(name, "must be a mapping")
    return value


def _number(section: str, name: str, raw) -> float:
    if raw is None:
        raise ConfigError(f"{section}.{name}", "missing required field")
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{section}.{name}", f"must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{section}.{name}", "integer is too large for a float") from exc


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file."""
    import yaml  # only the commands that read a config pay for this import

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"{path!r} is not valid UTF-8: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"invalid YAML in {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a mapping")
    unknown = set(data) - {"constants", "primitives", "initial", "solver", "sweep", "output"}
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown section")

    has_constants = "constants" in data
    has_primitives = "primitives" in data
    if has_constants == has_primitives:
        raise ConfigError("config", "exactly one of 'constants' or 'primitives' must be present")

    if has_constants:
        section = _section(data, "constants")
        values = {name: _number("constants", name, section.get(name))
                  for name in _CONSTANT_FIELDS}
        try:
            constants = ModelConstants(**values)
        except ValueError as exc:
            raise ConfigError("constants", str(exc)) from exc
    else:
        section = _section(data, "primitives")
        values = {name: _number("primitives", name, section.get(name))
                  for name in _PRIMITIVE_FIELDS}
        try:
            constants = derive_constants(EconomicPrimitives(**values))
        except InvalidPrimitives as exc:
            raise ConfigError("primitives", str(exc)) from exc

    initial = _section(data, "initial")
    x0 = np.array([_number("initial", "H0", initial.get("H0")),
                   _number("initial", "L0", initial.get("L0"))])
    if not np.all(np.isfinite(x0)):
        raise ConfigError("initial", f"H0 and L0 must be finite, got {x0.tolist()}")

    solver = _section(data, "solver")
    config = ScenarioConfig(constants=constants, x0=x0,
                            model_section="constants" if has_constants else "primitives")
    for name in _SOLVER_FIELDS:
        if name in solver:
            config.solver[name] = _number("solver", name, solver.get(name))

    sweep = _section(data, "sweep")
    if "grid_step" in sweep:
        config.grid_step = _number("sweep", "grid_step", sweep.get("grid_step"))

    output = _section(data, "output")
    if "format" in output:
        fmt = output.get("format")
        if fmt not in ("table", "csv", "structured"):
            raise ConfigError("output.format", f"must be table, csv or structured, got {fmt!r}")
        config.out_format = fmt
    if "trace" in output:
        flag = output.get("trace")
        if not isinstance(flag, bool):
            raise ConfigError("output.trace", f"must be a boolean, got {flag!r}")
        config.trace = flag
    return config


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    """Flags beat file values; precedence is flags > file > defaults."""
    for name in ("alpha", "epsilon", "max_iter"):
        if getattr(args, name, None) is not None:
            config.solver[name] = getattr(args, name)
    if getattr(args, "trace", False):
        config.trace = True
    if getattr(args, "fmt", None) is not None:
        config.out_format = args.fmt
    if getattr(args, "out", None) is not None:
        config.out_path = args.out
    if getattr(args, "grid_step", None) is not None:
        config.grid_step = args.grid_step
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


def _solution_csv_row(index, a6, a7, x0, alpha, sol) -> tuple:
    out = sol.outcome
    return (index, a6, a7, x0[0], x0[1], alpha, sol.H, sol.L, sol.A, sol.B,
            out.final_step_norm, out.final_residual_norm, out.iterations,
            out.status.value)


def _solution_json(index, a6, a7, x0, alpha, sol) -> dict:
    out = sol.outcome
    payload = {
        "row": index,
        "a6": a6,
        "a7": a7,
        "x0": [x0[0], x0[1]],
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
    """Refuse an unwritable ``--out`` before any solve; appending keeps its contents.

    Returns whether the check created the file, so that a command that ends
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


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("out", f"cannot write {path!r}: {exc}") from exc


def _human_solution(config: ScenarioConfig, sol) -> str:
    out = sol.outcome
    lines = [
        "threshold solve",
        f"  backend          {backend_name()}",
        f"  a6, a7           {_g17(config.constants.a6)}, {_g17(config.constants.a7)}",
        f"  x0               ({_g17(config.x0[0])}, {_g17(config.x0[1])})",
        f"  alpha            {_g17(config.solver['alpha'])}",
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


def _render_solution(config: ScenarioConfig, sol) -> str:
    index = 1
    a6, a7, alpha = config.constants.a6, config.constants.a7, config.solver["alpha"]
    if config.out_format == "csv":
        return _csv_document([_solution_csv_row(index, a6, a7, config.x0, alpha, sol)])
    if config.out_format == "structured":
        payload = _solution_json(index, a6, a7, config.x0, alpha, sol)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return _human_solution(config, sol)


def _cmd_solve(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    settings = config.settings()
    problem = config.problem()
    created = _check_out(config.out_path)
    try:
        sol = solve_thresholds(problem, settings, keep_trace=config.trace)
    except ThresholdSolveFailed as exc:
        # A failed solve writes no report, so it leaves no empty file behind.
        if created:
            os.remove(config.out_path)
        out = exc.outcome
        print(f"solve failed: status {out.status.value} after {out.iterations} "
              f"iterations (x = {out.x_final.tolist()})", file=sys.stderr)
        return 2
    text = _render_solution(config, sol)
    _emit(text, config.out_path)
    if config.out_path is not None:
        sys.stdout.write(_human_solution(config, sol))
    return 0


def _cmd_reproduce(args) -> int:
    _check_out(args.out)
    print(f"re-solving the {len(reference.ROWS)} bundled scenarios "
          f"(backend: {backend_name()})")
    all_ok = True
    csv_rows = []
    print()
    print("scenario inputs, initial residual norm against reference")
    print(f"{'row':>3} {'a6':>10} {'a7':>10} {'x0':>12} "
          f"{'reference':>12} {'computed':>16} {'rel dev':>10}")
    results = []
    for row in reference.ROWS:
        constants = reference.scenario_constants(row.a6, row.a7)
        # The best of several calls, so one host stall cannot fail a correct row.
        dt = math.inf
        for _ in range(TIMING_REPEATS):
            t0 = time.perf_counter()
            f0 = norm2(reduced_residual(constants, np.array(row.x0)))
            dt = min(dt, time.perf_counter() - t0)
        rel = abs(f0 - row.f0_norm) / row.f0_norm
        ok = rel <= F0_REL_BOUND and dt < 1e-3
        all_ok &= ok
        results.append((row, constants))
        print(f"{row.index:>3} {row.a6:>10.0f} {row.a7:>10.0f} "
              f"{'(%g, %g)' % row.x0:>12} {row.f0_norm:>12.6g} "
              f"{f0:>16.10g} {rel:>10.2e} {'ok' if ok else 'FAIL'}")

    print()
    print("solved thresholds against reference "
          f"(epsilon = 1e-4, bounds: rel {SOLUTION_REL_BOUND:g}, "
          f"residual {RESIDUAL_BOUND:g}, n <= {ITERATION_BOUND})")
    print(f"{'row':>3} {'alpha':>8} {'component':>10} {'reference':>18} "
          f"{'computed':>20} {'rel dev':>10}")
    for row, constants in results:
        problem = ThresholdProblem(constants=constants, x0=row.x0)
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
        full_rel = sol.full_residual_norm / full_residual_scale(constants, sol.H, sol.L)
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
        csv_rows.append(_solution_csv_row(row.index, row.a6, row.a7, row.x0,
                                          row.alpha, sol))

    print()
    print("all bounds hold" if all_ok else "some bounds FAILED")
    if args.out is not None:
        _emit(_csv_document(csv_rows), args.out)
    return 0 if all_ok else 2


def _cmd_sweep(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    try:
        grid = default_alpha_grid(step=config.grid_step)
    except ValueError as exc:
        raise ConfigError("sweep.grid_step", str(exc)) from exc
    if not grid:
        raise ConfigError("sweep.grid_step",
                          f"grid step {config.grid_step!r} leaves no valid orders "
                          "after excluding the integer bands")
    # Every grid order replaces the configured one, which is not checked.
    problem, settings = config.problem(), config.settings(alpha=grid[0])
    _check_out(args.out)
    roots = sweep_thresholds(problem, grid=grid, settings=settings)

    print(f"order sweep over {len(grid)} grid points "
          f"(step {config.grid_step:g}, backend: {backend_name()})")
    print(f"distinct roots found: {len(roots.roots)}")
    csv_rows = []
    for k, record in enumerate(roots.roots, start=1):
        out = record.outcome
        coeff_a, coeff_b = back_substitute(config.constants, record.x)
        print(f"  root {k}: x = ({_g17(record.x[0])}, {_g17(record.x[1])})")
        print(f"    best alpha {record.alpha:g}: residual norm "
              f"{out.final_residual_norm:.5e}, {out.iterations} iterations")
        print(f"    found by {len(record.found_by)} orders: "
              + ", ".join(f"{a:g}" for a in record.found_by))
        csv_rows.append((k, config.constants.a6, config.constants.a7,
                         config.x0[0], config.x0[1], record.alpha,
                         float(max(record.x)), float(min(record.x)),
                         coeff_a, coeff_b, out.final_step_norm,
                         out.final_residual_norm, out.iterations,
                         out.status.value))
    by_status: dict = {}
    for skip in roots.skipped:
        by_status.setdefault(skip.status.value, []).append(skip.alpha)
    for status, alphas in sorted(by_status.items()):
        print(f"  skipped {len(alphas)} orders with status {status}: "
              + ", ".join(f"{a:g}" for a in alphas))
    if args.out is not None:
        _emit(_csv_document(csv_rows), args.out)
    return 0 if roots.roots else 2


class _Parser(argparse.ArgumentParser):
    """Argument parser using exit code 1 for usage errors."""

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
    solve.add_argument("--alpha", type=float, help="fractional order override")
    solve.add_argument("--epsilon", type=float, help="regularisation override")
    solve.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap override")
    solve.add_argument("--trace", action="store_true", help="include the iteration history")
    solve.add_argument("--out", help="write the report to this file instead of stdout")
    solve.add_argument("--format", dest="fmt", choices=("table", "csv", "structured"),
                       help="report format (default from config, else table)")

    reproduce = sub.add_parser("reproduce-tables",
                               help="re-solve the bundled scenarios and compare "
                                    "against their reference values")
    reproduce.add_argument("--out", help="write recomputed results as CSV to this file")

    sweep = sub.add_parser("sweep", help="order sweep for multiple roots of one scenario")
    sweep.add_argument("--config", required=True, help="YAML scenario file")
    sweep.add_argument("--grid-step", dest="grid_step", type=float,
                       help=f"grid spacing over [-2, 2] (default {DEFAULT_GRID_STEP:g})")
    sweep.add_argument("--out", help="write found roots as CSV to this file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "reproduce-tables":
            return _cmd_reproduce(args)
        return _cmd_sweep(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FracrootsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
