"""CLI tests: config validation, exit codes, output formats, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import fracroots
from fracroots import (ConfigError, NonRealEvaluation, SolveOutcome, SolverSettings, Status,
                       ThresholdSolveFailed, solve_thresholds)
from fracroots import cli, reference, solver
from fracroots.cli import CSV_HEADER, load_config, main

ROW2 = {
    "constants": {"a1": 0.5355, "a2": 1.5808, "a3": 1.5355, "a4": 0.5808,
                  "a5": 18.9753, "a6": 706975, "a7": 652000},
    "initial": {"H0": 17, "L0": 18},
    "solver": {"alpha": 0.25628},
}

PRIMITIVES = {
    "primitives": {"mu": 0.0, "sigma": 1.0, "l": 0.5, "c": 1.0,
                   "kappa": 0.1, "chi": 0.05},
    "initial": {"H0": 1.0, "L0": 3.0},
    "solver": {"alpha": 0.9, "max_iter": 2000},
}


#: Textbook primitives (mu = sigma = 5 %, l = 10 %) whose thresholds make
#: (H L)^a3 overflow in back-substitution although B itself is finite.
LARGE_EXPONENTS = {
    "primitives": {"mu": 0.05, "sigma": 0.05, "l": 0.1, "c": 10000,
                   "kappa": 10000, "chi": 100},
    "initial": {"H0": 220000, "L0": 99950},
    "solver": {"alpha": 0.25},
}


#: ``--out`` files of README's scenario and of reproduce-tables, kept byte for byte.
GOLDEN = Path(__file__).resolve().parent / "golden"


def readme_scenario(directory):
    """README's scenario block (reference row 1), written as ``scenario.yaml`` in ``directory``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    path = directory / "scenario.yaml"
    path.write_text(re.search(r"^```yaml\n(.*?)^```$", readme,
                              flags=re.MULTILINE | re.DOTALL)[1], encoding="utf-8")
    return str(path)


def primitives_with(**fields):
    return {**PRIMITIVES, "primitives": {**PRIMITIVES["primitives"], **fields}}


def write_config(tmp_path, payload, name="scenario.yaml"):
    """``payload`` as YAML, or written as it is when it is a string."""
    path = tmp_path / name
    # In the payload's own key order, which may mix key types.
    text = payload if isinstance(payload, str) else yaml.safe_dump(payload, sort_keys=False)
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSolveCommand:
    def test_reference_row_solves(self, tmp_path, capsys):
        code = main(["solve", "--config", write_config(tmp_path, ROW2)])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out
        assert "60324.435087" in out
        assert "20727.995322" in out

    def test_flag_overrides_file_alpha(self, tmp_path, capsys):
        config = {**ROW2, "solver": {"alpha": 0.9, "max_iter": 500}}
        code = main(["solve", "--config", write_config(tmp_path, config),
                     "--alpha", "0.25628"])
        assert code == 0
        assert "60324.435087" in capsys.readouterr().out

    def test_missing_sigma_names_the_field(self, tmp_path, capsys):
        payload = {k: dict(v) for k, v in PRIMITIVES.items()}
        del payload["primitives"]["sigma"]
        code = main(["solve", "--config", write_config(tmp_path, payload)])
        err = capsys.readouterr().err
        assert code == 1
        assert "primitives.sigma" in err

    def test_missing_alpha_rejected(self, tmp_path, capsys):
        payload = {"constants": ROW2["constants"], "initial": ROW2["initial"]}
        code = main(["solve", "--config", write_config(tmp_path, payload)])
        assert code == 1
        assert "solver.alpha" in capsys.readouterr().err

    def test_both_sections_rejected(self, tmp_path, capsys):
        payload = {**ROW2, "primitives": PRIMITIVES["primitives"]}
        code = main(["solve", "--config", write_config(tmp_path, payload)])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        payload = {**ROW2, "extra": {"x": 1}}
        code = main(["solve", "--config", write_config(tmp_path, payload)])
        assert code == 1
        assert "extra" in capsys.readouterr().err

    def test_diagonal_start_solves(self, tmp_path, capsys):
        # H0 = L0 is an ordinary point of the residual; row 2 converges from it.
        payload = {**ROW2, "initial": {"H0": 5, "L0": 5}}
        code = main(["solve", "--config", write_config(tmp_path, payload)])
        assert code == 0
        assert "60324.435" in capsys.readouterr().out

    def test_trace_of_a_failing_start_exits_2(self, tmp_path, capsys):
        payload = {**ROW2, "initial": {"H0": -1, "L0": 20},
                   "output": {"trace": True}}
        code = main(["solve", "--config", write_config(tmp_path, payload)])
        err = capsys.readouterr().err
        assert code == 2
        assert "evaluation_failed" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_iterate_is_a_status_without_warnings(self, tmp_path, capsys):
        # The first step lands near 4e305, whose square overflows in the
        # driver's norms; the status reports it and numpy stays silent.
        code = main(["solve", "--config", write_config(tmp_path, ROW2),
                     "--epsilon", "1e300"])
        assert code == 2
        assert "diverged" in capsys.readouterr().err

    def test_nonconvergent_exits_2(self, tmp_path, capsys):
        payload = {**ROW2, "solver": {"alpha": 0.25628, "max_iter": 5}}
        code = main(["solve", "--config", write_config(tmp_path, payload)])
        assert code == 2
        assert "max_iterations" in capsys.readouterr().err

    def test_primitives_mode_solves(self, tmp_path, capsys):
        code = main(["solve", "--config", write_config(tmp_path, PRIMITIVES)])
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_large_exponent_primitives_solve(self, tmp_path, capsys):
        code = main(["solve", "--config", write_config(tmp_path, LARGE_EXPONENTS)])
        out = capsys.readouterr().out
        assert code == 0
        assert "  status           converged\n" in out
        assert "  B                1.17085898084" in out

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "absent.yaml")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.yaml"
        path.write_bytes(b"\xff\xfe" + yaml.safe_dump(ROW2).encode("utf-16-le"))
        code = main(["solve", "--config", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: config:")

    @pytest.mark.parametrize("command, payload", [
        ("solve", ROW2),
        # A solve that does not converge must not be reached either.
        ("solve", {**ROW2, "solver": {"alpha": 0.9, "max_iter": 5}}),
        ("sweep", ROW2),
        ("reproduce-tables", None),
        # Checked before the config is read, so a bad config is not reported.
        ("solve", {**ROW2, "solver": {"alpha": 1.0}}),
    ], ids=["solve", "solve-not-converging", "sweep", "reproduce-tables", "solve-bad-config"])
    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys, command, payload):
        config = [] if payload is None else ["--config", write_config(tmp_path, payload)]
        code = main([command, *config, "--out", str(tmp_path / "absent" / "out.csv")])
        assert code == 1
        captured = capsys.readouterr()
        # Found before the first solve, so no report reaches stdout.
        assert captured.out == ""
        assert captured.err.startswith("config error: out:")

    def test_failed_solve_leaves_out_as_it_was(self, tmp_path, capsys):
        config = write_config(tmp_path, {**ROW2, "solver": {"alpha": 0.9, "max_iter": 5}})
        fresh = tmp_path / "fresh.csv"
        assert main(["solve", "--config", config, "--out", str(fresh)]) == 2
        assert not fresh.exists()
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"earlier,report\r\n")
        assert main(["solve", "--config", config, "--out", str(kept)]) == 2
        assert kept.read_bytes() == b"earlier,report\r\n"
        assert capsys.readouterr().err.count("solve failed: status max_iterations") == 2

    def test_usage_error_exit_1(self, capsys):
        assert main(["solve"]) == 1
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize("command, payload, flags, field", [
        ("solve", ROW2, ["--max-iter", "0"], "solver.max_iter"),
        ("solve", ROW2, ["--alpha", "1.0"], "solver.alpha"),
        ("solve", ROW2, ["--alpha", "nan"], "solver.alpha"),
        ("solve", ROW2, ["--epsilon", "-1"], "solver.epsilon"),
        ("solve", ROW2, ["--epsilon", "inf"], "solver.epsilon"),
        ("solve", {**ROW2, "constants": {**ROW2["constants"], "a6": 1.0}}, [],
         "constants.a6"),
        ("sweep", {**ROW2, "constants": {**ROW2["constants"], "a6": 1.0}}, [],
         "constants.a6"),
        ("solve", {**ROW2, "solver": {"alpha": 0.25628, "max_iter": 1.5}}, [],
         "solver.max_iter"),
        ("sweep", ROW2, ["--grid-step", "1e-300"], "sweep.grid_step"),
        ("sweep", ROW2, ["--grid-step", "1e-7"], "sweep.grid_step"),
        ("sweep", ROW2, ["--grid-step", "inf"], "sweep.grid_step"),
        ("solve", primitives_with(sigma=1e-200), [], "primitives"),
        ("solve", primitives_with(sigma=1e200), [], "primitives"),
        ("solve", primitives_with(sigma=math.inf), [], "primitives"),
        ("solve", primitives_with(mu=-math.inf), [], "primitives"),
        ("solve", primitives_with(kappa=0, chi=0), [], "primitives"),
        ("solve", {**ROW2, "constants": {**ROW2["constants"], "a5": math.inf}}, [],
         "constants"),
        ("solve", {**ROW2, "constants": {"a1": 1e308, "a2": 1e308, "a3": 1e308 + 1,
                                         "a4": 1e308 - 1, "a5": 1.0, "a6": 2.0, "a7": 1.0}},
         [], "constants"),
        ("sweep", {**ROW2, "solver": {"alpha": 0.25628, "max_iter": 1e15}}, [],
         "solver.max_iter"),
        ("solve", ROW2, ["--max-iter", str(10**400)], "solver.max_iter"),
        ("solve", {**ROW2, "solver": {"alpha": 0.25628, "tol_residul": 1.0e-12}}, [],
         "solver.tol_residul"),
        ("sweep", {**ROW2, "constants": {**ROW2["constants"], "a8": 1.0}}, [],
         "constants.a8"),
        # The problem is built on load, before the solver section is read.
        ("solve", {**ROW2, "constants": {**ROW2["constants"], "a6": 1.0},
                   "solver": {"alpha": 0.25628, "max_iter": 0}}, [], "constants.a6"),
        # The first unknown section in file order; keys of two types cannot be sorted.
        ("solve", {**ROW2, 1: {"x": 1}, "foo": {"x": 1}}, [], "1"),
        ("sweep", {**ROW2, "sweep": {"grid_step": math.nan}}, [], "sweep.grid_step"),
        ("sweep", {**ROW2, "sweep": {"grid_step": 10**400}}, [], "sweep.grid_step"),
        ("solve", {**ROW2, "output": {"format": 1}}, [], "output.format"),
        ("solve", {**ROW2, "output": {"trace": "yes"}}, [], "output.trace"),
        ("solve", {**ROW2, "solver": 5}, [], "solver"),
        ("solve", "constants: [1, 2\n", [], "config"),
        ("sweep", [ROW2], [], "config"),
        ("solve", {**ROW2, "initial": {"H0": math.inf, "L0": 18}}, [], "initial"),
        # Every file value is checked on load, whatever the command and the flags.
        ("solve", {**ROW2, "solver": {"alpha": 0.25628, "epsilon": -1}},
         ["--epsilon", "1e-4"], "solver.epsilon"),
        ("sweep", {**ROW2, "solver": {"alpha": 7.0}}, [], "solver.alpha"),
        ("solve", {**ROW2, "sweep": {"grid_step": -1}}, [], "sweep.grid_step"),
        ("sweep", {**ROW2, "sweep": {"grid_step": -1}}, ["--grid-step", "0.5"],
         "sweep.grid_step"),
    ], ids=["max-iter-0", "alpha-integer", "alpha-nan", "epsilon-negative", "epsilon-inf",
            "a6-below-a7-solve", "a6-below-a7-sweep", "max-iter-fraction",
            "grid-step-1e-300", "grid-step-1e-7", "grid-step-inf",
            "sigma-underflow", "sigma-overflow", "sigma-inf", "mu-minus-inf",
            "no-switching-cost", "a5-inf", "half-sum-overflow", "max-iter-1e15",
            "max-iter-huge-flag", "solver-misspelt-key", "constants-a8",
            "a6-below-a7-before-solver", "unknown-sections-of-mixed-type",
            "grid-step-nan", "grid-step-huge", "format-not-a-string", "trace-not-a-bool",
            "solver-not-a-mapping", "invalid-yaml", "top-level-not-a-mapping", "H0-inf",
            "file-epsilon-under-flag", "file-alpha-in-sweep", "file-grid-step-in-solve",
            "file-grid-step-under-flag"])
    def test_invalid_input_is_a_config_error(self, tmp_path, capsys, command,
                                             payload, flags, field):
        code = main([command, "--config", write_config(tmp_path, payload), *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {field}:")


def raise_non_real(*args, **kwargs):
    raise NonRealEvaluation("power overflow in back-substitution")


class TestOutFile:
    """``main`` removes an ``--out`` file it created but never wrote.

    Each failing run ends in an error; a failed solve is covered above.
    """

    FAILING_RUNS = {
        "solve-raises": ("solve", ROW2, [], 2),
        "solve-bad-config": ("solve", {**ROW2, "solver": {"alpha": 1.0}}, [], 1),
        "solve-bad-flag": ("solve", ROW2, ["--max-iter", "0"], 1),
        "sweep-raises": ("sweep", ROW2, [], 2),
        "sweep-bad-config": ("sweep", {**ROW2, "constants": {**ROW2["constants"], "a6": 1.0}},
                             [], 1),
        "sweep-bad-grid-step": ("sweep", ROW2, ["--grid-step", "5.0"], 1),
    }

    def run_failing(self, monkeypatch, tmp_path, capsys, name, out):
        command, payload, flags, expected = self.FAILING_RUNS[name]
        if name.endswith("-raises"):
            monkeypatch.setattr(cli, "solve_thresholds", raise_non_real)
            monkeypatch.setattr(cli, "sweep_thresholds", raise_non_real)
        code = main([command, "--config", write_config(tmp_path, payload), *flags,
                     "--out", str(out)])
        assert code == expected
        prefix = "config error:" if expected == 1 else "error:"
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("name", sorted(FAILING_RUNS))
    def test_failed_run_leaves_no_file(self, monkeypatch, tmp_path, capsys, name):
        out = tmp_path / "report.csv"
        self.run_failing(monkeypatch, tmp_path, capsys, name, out)
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(FAILING_RUNS))
    def test_failed_run_keeps_an_existing_file(self, monkeypatch, tmp_path, capsys, name):
        out = tmp_path / "report.csv"
        out.write_bytes(b"earlier,report\r\n")
        self.run_failing(monkeypatch, tmp_path, capsys, name, out)
        assert out.read_bytes() == b"earlier,report\r\n"

    def test_failed_write_removes_the_file_and_keeps_the_table(self, monkeypatch,
                                                                tmp_path, capsys):
        def refuse(text, path):
            raise ConfigError("out", f"cannot write {path!r}: disk full")

        monkeypatch.setattr(cli, "_emit", refuse)
        out = tmp_path / "report.csv"
        code = main(["solve", "--config", write_config(tmp_path, ROW2),
                     "--format", "csv", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert not out.exists()
        assert captured.out.startswith("threshold solve\n")
        assert captured.err.startswith("config error: out:")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_failure_exits_1(self, tmp_path, capsys):
        # /dev/full opens for appending, so the check before the run passes,
        # and the write of the report fails with "no space left on device".
        code = main(["sweep", "--config", readme_scenario(tmp_path), "--out", "/dev/full"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: out:")


class TestFlagPrecedence:
    """Flags override file values, which override defaults."""

    @pytest.mark.parametrize("command, section, flags, code, stdout_starts", [
        ("solve", {"output": {"format": "structured"}}, ["--format", "csv"], 0, CSV_HEADER),
        ("solve", {"output": {"trace": False}}, ["--trace"], 0, "threshold solve\n"),
        ("solve", {"solver": {"alpha": 0.25628, "epsilon": 1e-3, "max_iter": 5}},
         ["--epsilon", "1e-4", "--max-iter", "400"], 0, "threshold solve\n"),
        # Row 2 has no root on this coarse grid, hence exit 2.
        ("sweep", {"sweep": {"grid_step": 0.05}}, ["--grid-step", "0.5"], 2,
         "order sweep over 4 grid points (step 0.5)\n"),
    ], ids=["format", "trace", "epsilon-and-max-iter", "grid-step"])
    def test_flag_beats_file(self, monkeypatch, tmp_path, capsys, command, section,
                             flags, code, stdout_starts):
        calls = []
        real_solve = cli.solve_thresholds

        def spy(problem, settings, keep_trace=False):
            calls.append((settings, keep_trace))
            return real_solve(problem, settings, keep_trace=keep_trace)

        monkeypatch.setattr(cli, "solve_thresholds", spy)
        assert main([command, "--config", write_config(tmp_path, {**ROW2, **section}),
                     *flags]) == code
        out = capsys.readouterr().out
        assert out.startswith(stdout_starts)
        if command == "solve":
            (settings, keep_trace), = calls
            assert keep_trace == ("--trace" in flags)
            assert ("trace (iteration" in out) == ("--trace" in flags)
            assert (settings.epsilon, settings.max_iter) == (
                (1e-4, 400) if "--epsilon" in flags else (1e-4, 500))


class TestFlagNumbers:
    """A number flag is read as the same value in a scenario file would be."""

    @pytest.mark.parametrize("key, spelling", [
        ("max_iter", "5e2"), ("max_iter", "500"), ("max_iter", "500.0"),
        ("alpha", "2.5628e-1"), ("epsilon", "1e-4"), ("epsilon", "1.0e-4"),
    ])
    def test_flag_reads_as_the_file_does(self, monkeypatch, tmp_path, capsys, key, spelling):
        calls = []
        real_solve = cli.solve_thresholds

        def spy(problem, settings, keep_trace=False):
            calls.append(settings)
            return real_solve(problem, settings, keep_trace=keep_trace)

        monkeypatch.setattr(cli, "solve_thresholds", spy)
        flag = "--" + key.replace("_", "-")
        assert main(["solve", "--config", write_config(tmp_path, ROW2),
                     flag, spelling]) == 0
        from_file = load_config(config_with_spelling(tmp_path, ROW2, "solver", key, spelling,
                                                     name="spelled.yaml")).settings()
        (settings,) = calls
        assert settings == from_file

    def test_max_iter_5e2_caps_at_500(self, tmp_path, capsys):
        # Row 2 under a residual tolerance it cannot meet caps at max_iter.
        payload = {**ROW2, "solver": {"alpha": 0.25628, "tol_residual": 1e-300}}
        assert main(["solve", "--config", write_config(tmp_path, payload),
                     "--max-iter", "5e2"]) == 2
        assert "status max_iterations after 500 iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, text, message", [
        ("solve", "--alpha", "abc", "solver.alpha: must be a number, got 'abc'"),
        ("solve", "--epsilon", "[1", "solver.epsilon: must be a number, got '[1'"),
        ("solve", "--max-iter", "true", "solver.max_iter: must be a number, got True"),
        ("solve", "--max-iter", "", "solver.max_iter: must be a number, got ''"),
        ("solve", "--max-iter", "1.5",
         "solver.max_iter: max_iter must be an integer, got 1.5"),
        ("sweep", "--grid-step", "'0.5'", "sweep.grid_step: must be a number, got '0.5'"),
    ], ids=["alpha-word", "epsilon-bad-yaml", "max-iter-bool", "max-iter-empty",
            "max-iter-fraction", "grid-step-quoted"])
    def test_flag_that_is_not_a_number_is_a_config_error(self, tmp_path, capsys, command,
                                                         flag, text, message):
        assert main([command, "--config", write_config(tmp_path, ROW2), flag, text]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"config error: {message}\n")

    @pytest.mark.parametrize("command, flag, text, code, message", [
        ("solve", "--alpha", "-5e-1", 2, "solve failed: status diverged after "),
        ("solve", "--epsilon", "-1e-4", 1, "config error: solver.epsilon: "),
        ("solve", "--max-iter", "-5e2", 1, "config error: solver.max_iter: "),
        ("sweep", "--grid-step", "-5e-2", 1, "config error: sweep.grid_step: "),
        ("solve", "--alpha", "-.inf", 1, "config error: solver.alpha: "),
        ("solve", "--epsilon", "-.inf", 1, "config error: solver.epsilon: "),
    ], ids=["alpha", "epsilon", "max-iter", "grid-step", "alpha-minus-inf",
            "epsilon-minus-inf"])
    def test_negative_exponent_value_reads_the_same_spaced_or_joined(
            self, tmp_path, capsys, command, flag, text, code, message):
        config = write_config(tmp_path, ROW2)
        assert main([command, "--config", config, flag, text]) == code
        spaced = capsys.readouterr()
        assert main([command, "--config", config, f"{flag}={text}"]) == code
        assert capsys.readouterr() == spaced
        assert spaced.err.startswith(message)

    @pytest.mark.parametrize("max_iter, shown", [("0", "0"), ("0.0", "0.0"),
                                                 ("1000001", "1000001"),
                                                 ("9007199254740993", "9007199254740993")])
    def test_max_iter_range_error_reads_the_same_from_file_and_flag(self, tmp_path, capsys,
                                                                     max_iter, shown):
        expected = ("config error: solver.max_iter: max_iter must lie in [1, 1000000], "
                    f"got {shown}\n")
        path = config_with_spelling(tmp_path, ROW2, "solver", "max_iter", max_iter)
        assert main(["solve", "--config", path]) == 1
        assert capsys.readouterr().err == expected
        assert main(["solve", "--config", write_config(tmp_path, ROW2),
                     "--max-iter", max_iter]) == 1
        assert capsys.readouterr().err == expected


class TestMachineOutput:
    def api_solution(self):
        constants = reference.scenario_constants(706975.0, 652000.0)
        problem = reference.scenario_problem(reference.ROWS[1])
        return solve_thresholds(problem, SolverSettings(alpha=0.25628))

    def test_csv_round_trip_is_exact(self, tmp_path, capsys):
        out_path = tmp_path / "row2.csv"
        code = main(["solve", "--config", write_config(tmp_path, ROW2),
                     "--format", "csv", "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        record = next(csv.DictReader(io.StringIO(text)))
        sol = self.api_solution()
        assert float(record["H"]) == sol.H
        assert float(record["L"]) == sol.L
        assert float(record["A"]) == sol.A
        assert float(record["B"]) == sol.B
        assert float(record["step_norm"]) == sol.outcome.final_step_norm
        assert float(record["residual_norm"]) == sol.outcome.final_residual_norm
        assert int(record["iters"]) == sol.outcome.iterations
        assert record["status"] == "converged"

    def test_structured_round_trip_is_exact(self, tmp_path):
        out_path = tmp_path / "row2.json"
        code = main(["solve", "--config", write_config(tmp_path, ROW2),
                     "--format", "structured", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        sol = self.api_solution()
        assert payload["H"] == sol.H
        assert payload["L"] == sol.L
        assert payload["A"] == sol.A
        assert payload["B"] == sol.B
        assert payload["iterations"] == sol.outcome.iterations
        assert payload["status"] == "converged"

    def test_structured_trace_lengths(self, tmp_path):
        out_path = tmp_path / "trace.json"
        code = main(["solve", "--config", write_config(tmp_path, ROW2),
                     "--format", "structured", "--trace", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        trace = payload["trace"]
        n = payload["iterations"]
        assert len(trace["iterates"]) == n + 1
        assert len(trace["step_norms"]) == n
        assert len(trace["residual_norms"]) == n + 1

    def test_machine_output_is_deterministic(self, tmp_path):
        config = write_config(tmp_path, ROW2)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["solve", "--config", config, "--format", "csv",
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestReproduceTables:
    def test_all_bounds_hold(self, tmp_path, capsys):
        out_path = tmp_path / "tables.csv"
        code = main(["reproduce-tables", "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "all bounds hold" in out
        lines = out_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(reference.ROWS)
        for record in csv.DictReader(io.StringIO("\n".join(lines))):
            assert record["status"] == "converged"
            assert int(record["iters"]) <= 300

    def test_failed_row_is_reported_and_the_others_written(self, monkeypatch, tmp_path,
                                                           capsys):
        failing = reference.ROWS[2]
        solve = cli.solve_thresholds

        def fail_one_row(problem, settings, *args, **kwargs):
            if settings.alpha.value == failing.alpha:
                raise ThresholdSolveFailed(SolveOutcome(
                    status=Status.MAX_ITERATIONS, x_final=problem.x0, iterations=500,
                    final_step_norm=1.0, final_residual_norm=1.0))
            return solve(problem, settings, *args, **kwargs)

        monkeypatch.setattr(cli, "solve_thresholds", fail_one_row)
        out_path = tmp_path / "tables.csv"
        assert main(["reproduce-tables", "--out", str(out_path)]) == 2
        out = capsys.readouterr().out
        assert f"{failing.index:>3} {failing.alpha:>8} solve FAILED: max_iterations\n" in out
        assert out.endswith("\nsome bounds FAILED\n")
        # The other four rows, as a run without the failure writes them.
        golden = (GOLDEN / "reproduce_tables.csv").read_bytes().splitlines(keepends=True)
        expected = [line for line in golden if not line.startswith(f"{failing.index},".encode())]
        assert out_path.read_bytes().splitlines(keepends=True) == expected
        assert len(expected) == len(reference.ROWS)

    def test_yaml_is_imported_only_to_read_a_config(self):
        # And json only to write a structured report.  numpy imports numpy.ma
        # on first use, and the refusal of a masked point looks it up only
        # for an ndarray subclass, so the run imports it neither.
        src = os.path.dirname(os.path.dirname(fracroots.__file__))
        script = ("import contextlib, io, sys; from fracroots import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = cli.main(['reproduce-tables'])\n"
                  "print(code, 'yaml' in sys.modules, 'json' in sys.modules,\n"
                  "      'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.split() == ["0", "False", "False", "False"], proc.stderr

    def test_the_module_entry_reproduces_the_tables(self, tmp_path):
        # ``python -m fracroots`` runs __main__.py, as the installed script
        # runs cli.entrypoint.
        src = os.path.dirname(os.path.dirname(fracroots.__file__))
        out_path = tmp_path / "tables.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fracroots", "reproduce-tables", "--out", str(out_path)],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert "all bounds hold" in proc.stdout
        assert out_path.read_bytes() == (GOLDEN / "reproduce_tables.csv").read_bytes()


class TestEntrypoint:
    """``cli.entrypoint`` in-process, with its exit and the handler runner stubbed."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The calls that ``entrypoint`` makes after ``main``, in their order."""
        calls = []

        class Stream(io.StringIO):
            def __init__(self, name):
                super().__init__()
                self.name = name

            def flush(self):
                calls.append(f"flush {self.name}")

        # cli's own name for sys: pytest puts its capture back on sys.stdout
        # between a fixture and its test.
        monkeypatch.setattr(cli, "sys", types.SimpleNamespace(stdout=Stream("stdout"),
                                                              stderr=Stream("stderr")))
        monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: calls.append("handlers"))
        monkeypatch.setattr(cli.os, "_exit", lambda code: calls.append(("_exit", code)))
        return calls

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_handlers_then_flushes_then_exit_with_the_code(self, monkeypatch, calls, code):
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
        cli.entrypoint()
        assert calls == ["main", "handlers", "flush stdout", "flush stderr", ("_exit", code)]

    def test_an_exception_from_main_reaches_the_caller(self, monkeypatch, calls):
        def main():
            calls.append("main")
            raise RuntimeError("from main")

        monkeypatch.setattr(cli, "main", main)
        with pytest.raises(RuntimeError, match="from main"):
            cli.entrypoint()
        assert calls == ["main"]

    def test_a_failed_flush_leaves_the_exit_to_the_interpreter(self, monkeypatch, calls):
        # The interpreter's own exit flushes again and reports the failure,
        # as it did before entrypoint flushed at all.
        def flush():
            calls.append("flush stdout")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 2)
        monkeypatch.setattr(cli.sys.stdout, "flush", flush)
        with pytest.raises(SystemExit) as raised:
            cli.entrypoint()
        assert raised.value.code == 2
        assert calls == ["main", "handlers", "flush stdout"]

    def test_no_stdout_leaves_the_exit_to_the_interpreter(self, monkeypatch, calls):
        # sys.stdout is None when the process starts with its descriptor 1
        # closed; print() then writes nothing and the run exits with its code.
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
        monkeypatch.setattr(cli.sys, "stdout", None)
        with pytest.raises(SystemExit) as raised:
            cli.entrypoint()
        assert raised.value.code == 0
        assert calls == ["main", "handlers"]


#: μ 0.05, σ 0.2, l 0.1, c 10 000, κ 10 000 and χ 200 000, so a7 < 0: the
#: model has no positive closing threshold, and both solve and sweep exit 2.
A7_NEGATIVE = {
    "primitives": {"mu": 0.05, "sigma": 0.2, "l": 0.1, "c": 10000,
                   "kappa": 10000, "chi": 200000},
    "initial": {"H0": 220000, "L0": 99950},
    "solver": {"alpha": 0.25},
}


def console_script(args, prelude="", **kwargs):
    """``entrypoint()`` as a subprocess, as the installed script runs it.

    ``PYTHONUNBUFFERED`` is removed from the child's environment, so its
    stdout is block-buffered when it is not a terminal and a missing flush
    would lose output.  ``prelude`` runs before the entry point.
    """
    src = os.path.dirname(os.path.dirname(fracroots.__file__))
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    script = f"{prelude}\nfrom fracroots.cli import entrypoint\nentrypoint()\n"
    return subprocess.run([sys.executable, "-c", script, *args], text=True,
                          env={**env, "PYTHONPATH": src}, **kwargs)


class TestConsoleScript:
    """The entry point's output reaches its streams whole, without an unbuffered stdout."""

    def test_report_sent_to_a_file_is_whole(self, tmp_path, capsys):
        assert main(["reproduce-tables"]) == 0
        expected = capsys.readouterr().out
        path = tmp_path / "report.txt"
        with open(path, "w", encoding="utf-8") as fh:
            proc = console_script(["reproduce-tables"], stdout=fh, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, "")
        report = path.read_text(encoding="utf-8")
        assert report == expected
        assert report.endswith("\nall bounds hold\n")

    @pytest.mark.parametrize("command", ["sweep", "solve"])
    def test_a7_negative_run_exits_2_with_all_its_output(self, tmp_path, capsys, command):
        config = write_config(tmp_path, A7_NEGATIVE)
        assert main([command, "--config", config]) == 2
        expected = capsys.readouterr()
        proc = console_script([command, "--config", config], capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, expected.out, expected.err)
        assert expected.out if command == "sweep" else expected.err

    def test_an_exit_handler_runs_after_the_run(self):
        prelude = "import atexit\natexit.register(print, 'handler ran')"
        proc = console_script(["reproduce-tables"], prelude=prelude, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("\nall bounds hold\nhandler ran\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_stdout_on_a_full_device_exits_120(self):
        # The report fits in stdout's buffer, so the first write is the flush
        # at the end, and it fails as it does at a normal exit.
        with open("/dev/full", "w", encoding="utf-8") as full:
            proc = console_script(["reproduce-tables"], stdout=full, stderr=subprocess.PIPE)
        assert proc.returncode == 120
        assert "OSError: [Errno 28] No space left on device" in proc.stderr


#: Reference row 1 under limits whose cuts are subnormal (tol_step), overflow
#: to DBL_MAX (tol_residual) and are infinite (divergence_bound).
EXTREME_LIMITS_ROW1 = """\
constants: {a1: 0.5355, a2: 1.5808, a3: 1.5355, a4: 0.5808, a5: 18.9753, a6: 451474, a7: 396499}
initial: {H0: 15, L0: 20}
solver: {alpha: 0.26131, tol_step: 1.0e-160, tol_residual: 1.0e+200, divergence_bound: .inf}
"""

#: Reference row 1 from a start on the diagonal H0 = L0, where the residual
#: and back-substitution take the limit of their divided differences.
DIAGONAL_START_ROW1 = """\
constants: {a1: 0.5355, a2: 1.5808, a3: 1.5355, a4: 0.5808, a5: 18.9753, a6: 451474, a7: 396499}
initial: {H0: 5, L0: 5}
solver: {alpha: 0.26131, epsilon: 1e-4}
"""


class TestGoldenOutput:
    """``--out`` bytes of six runs against files committed from earlier releases.

    The scenario is README's row-1 file, ``extreme_limits.yaml`` is
    EXTREME_LIMITS_ROW1 and ``diagonal_start.yaml`` DIAGONAL_START_ROW1.
    stdout is not compared: the reproduce-tables table marks each row ok or
    FAIL against wall-clock bounds.  The untraced csv solve of row 1 writes
    the first two lines of ``reproduce_tables.csv``.
    To regenerate after an intended change of output, run from a directory
    holding README's scenario block as ``scenario.yaml``,
    EXTREME_LIMITS_ROW1 as ``extreme_limits.yaml`` and DIAGONAL_START_ROW1
    as ``diagonal_start.yaml``:
    ``fracroots reproduce-tables --out reproduce_tables.csv``,
    ``fracroots solve --config scenario.yaml --format structured --trace
    --out solve_structured_trace.json``, ``fracroots sweep --config
    scenario.yaml --out sweep.csv``, ``fracroots sweep --config
    extreme_limits.yaml --out sweep_extreme_limits.csv`` and ``fracroots
    solve --config diagonal_start.yaml --format csv --out
    solve_diagonal_start.csv``.
    """

    @pytest.mark.parametrize("argv, golden, lines", [
        (["reproduce-tables"], "reproduce_tables.csv", None),
        (["solve", "--config", "scenario.yaml", "--format", "structured", "--trace"],
         "solve_structured_trace.json", None),
        (["sweep", "--config", "scenario.yaml"], "sweep.csv", None),
        (["sweep", "--config", "extreme_limits.yaml"], "sweep_extreme_limits.csv", None),
        (["solve", "--config", "scenario.yaml", "--format", "csv"], "reproduce_tables.csv", 2),
        (["solve", "--config", "diagonal_start.yaml", "--format", "csv"],
         "solve_diagonal_start.csv", None),
    ], ids=["reproduce-tables", "solve-structured-trace", "sweep", "sweep-extreme-limits",
            "solve-csv", "solve-diagonal-start"])
    def test_out_bytes_match_the_golden_file(self, tmp_path, monkeypatch, capsys, argv,
                                             golden, lines):
        readme_scenario(tmp_path)
        write_config(tmp_path, EXTREME_LIMITS_ROW1, "extreme_limits.yaml")
        write_config(tmp_path, DIAGONAL_START_ROW1, "diagonal_start.yaml")
        monkeypatch.chdir(tmp_path)
        code = main([*argv, "--out", "out"])
        # reproduce-tables exits 2 when a row misses a wall-clock bound, and
        # still writes its CSV.
        assert code in ((0, 2) if argv[0] == "reproduce-tables" else (0,)), \
            capsys.readouterr().err
        expected = (GOLDEN / golden).read_bytes()
        if lines is not None:
            expected = b"".join(expected.splitlines(keepends=True)[:lines])
        assert (tmp_path / "out").read_bytes() == expected


def config_with_spelling(tmp_path, payload, section, key, spelling, name="scenario.yaml"):
    """``payload`` written with ``section.key`` set to the plain scalar ``spelling``."""
    doc = {**payload, section: {**payload.get(section, {}), key: "SPELLING"}}
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False).replace("SPELLING", spelling),
                    encoding="utf-8")
    return str(path)


class TestYamlFloats:
    """A scenario file may write floats as YAML 1.2 does, without a dot or an
    exponent sign; PyYAML's YAML 1.1 resolver alone reads them as strings."""

    @pytest.mark.parametrize("payload, section, key, short, long", [
        (ROW2, "solver", "epsilon", "1e-4", "1.0e-4"),
        (ROW2, "solver", "tol_residual", "1E-6", "1.0e-6"),
        (ROW2, "solver", "max_iter", "5e2", "500"),
        (ROW2, "initial", "H0", "1.7e1", "17.0"),
        (ROW2, "initial", "L0", ".18e2", "18.0"),
        (PRIMITIVES, "primitives", "kappa", "1e4", "1.0e+4"),
        (PRIMITIVES, "primitives", "chi", "+5.0e-2", "0.05"),
        (ROW2, "solver", "alpha", "+.25628", "0.25628"),
        (ROW2, "solver", "alpha", "-.5", "-0.5"),
    ], ids=["epsilon", "tol-residual", "max-iter", "H0", "L0-leading-dot", "kappa",
            "chi-signed", "alpha-plus-leading-dot", "alpha-minus-leading-dot"])
    def test_short_spelling_loads_as_the_long_one(self, tmp_path, payload, section, key,
                                                  short, long):
        loaded = [load_config(config_with_spelling(tmp_path, payload, section, key, text,
                                                   name=f"{name}.yaml"))
                  for name, text in (("short", short), ("long", long))]
        short_config, long_config = loaded
        assert short_config.problem.constants == long_config.problem.constants
        assert short_config.problem.x0.tobytes() == long_config.problem.x0.tobytes()
        assert short_config.settings() == long_config.settings()

    def test_row_1_solves_with_a_short_epsilon(self, tmp_path, capsys):
        row1 = {**ROW2, "constants": {**ROW2["constants"], "a6": 451474, "a7": 396499},
                "initial": {"H0": 15, "L0": 20}, "solver": {"alpha": 0.26131}}
        code = main(["solve", "--config",
                     config_with_spelling(tmp_path, row1, "solver", "epsilon", "1e-4")])
        assert code == 0
        assert "41844.570904" in capsys.readouterr().out

    def test_huge_max_iter_is_refused_by_its_range(self, tmp_path, capsys):
        # The message shows the value, not its int(), which runs to 301 digits.
        path = config_with_spelling(tmp_path, ROW2, "solver", "max_iter", "1.0e300")
        assert main(["solve", "--config", path]) == 1
        assert capsys.readouterr().err == (
            "config error: solver.max_iter: max_iter must lie in [1, 1000000], got 1e+300\n")

    def test_huge_integer_max_iter_is_shown_as_written(self, tmp_path, capsys):
        # An integer max_iter stays an integer: as a float it would read 1e+34.
        path = config_with_spelling(tmp_path, ROW2, "solver", "max_iter", "1" + "0" * 34)
        assert main(["solve", "--config", path]) == 1
        assert capsys.readouterr().err == (
            "config error: solver.max_iter: max_iter must lie in [1, 1000000], got 1"
            + "0" * 34 + "\n")

    def test_quoted_number_is_still_refused(self, tmp_path, capsys):
        path = config_with_spelling(tmp_path, ROW2, "solver", "epsilon", "'1e-4'")
        assert main(["solve", "--config", path]) == 1
        assert capsys.readouterr().err == (
            "config error: solver.epsilon: must be a number, got '1e-4'\n")

    def test_integers_stay_integers_and_safe_loader_is_untouched(self):
        loader = cli._yaml_loader()
        assert yaml.load("[10, -3, 0x10, 1e-4]", Loader=loader) == [10, -3, 16, 1e-4]
        assert [type(v) for v in yaml.load("[10, 5e2]", Loader=loader)] == [int, float]
        assert yaml.safe_load("1e-4") == "1e-4"

    def test_loader_is_built_once(self):
        assert cli._yaml_loader() is cli._yaml_loader()


class TestSweepCommand:
    def test_default_grid_finds_reference_root(self, tmp_path, capsys):
        payload = {
            "constants": {"a1": 0.5355, "a2": 1.5808, "a3": 1.5355,
                          "a4": 0.5808, "a5": 18.9753,
                          "a6": 451474, "a7": 396499},
            "initial": {"H0": 15, "L0": 20},
        }
        out_path = tmp_path / "roots.csv"
        code = main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "distinct roots found: 1" in out
        with open(out_path, encoding="utf-8") as fh:
            record = next(csv.DictReader(fh))
        assert float(record["H"]) == pytest.approx(41844.57090443, rel=1e-4)
        assert float(record["L"]) == pytest.approx(11857.32126593, rel=1e-4)

    def test_large_exponent_primitives_sweep(self, tmp_path, capsys):
        out_path = tmp_path / "roots.csv"
        code = main(["sweep", "--config", write_config(tmp_path, LARGE_EXPONENTS),
                     "--out", str(out_path)])
        assert code == 0
        assert "distinct roots found: 1" in capsys.readouterr().out
        assert len(out_path.read_text(encoding="utf-8").splitlines()) == 2

    def test_grid_step_leaving_no_orders_exits_1(self, tmp_path, capsys):
        code = main(["sweep", "--config", write_config(tmp_path, ROW2),
                     "--grid-step", "5.0"])
        assert code == 1
        assert "grid" in capsys.readouterr().err

    def test_root_is_reported_as_solve_reports_it(self, tmp_path, capsys):
        # Both commands label and back-substitute a root with label_root, so
        # the sweep's row is the CSV that solve writes at the root's best order.
        config = readme_scenario(tmp_path)
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "sweep.csv")]) == 0
        with open(tmp_path / "sweep.csv", encoding="utf-8") as fh:
            (record,) = csv.DictReader(fh)
        assert float(record["alpha"]) == 0.3
        assert main(["solve", "--config", config, "--alpha", record["alpha"], "--format", "csv",
                     "--out", str(tmp_path / "solve.csv")]) == 0
        assert (tmp_path / "solve.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("file_step, flags, builds, points", [
        (0.5, [], 1, 4),
        (None, ["--grid-step", "0.5"], 1, 4),
        (0.5, ["--grid-step", "0.25"], 2, 12),
    ], ids=["file", "flag", "file-and-flag"])
    def test_each_grid_is_built_once(self, tmp_path, capsys, file_step, flags, builds, points):
        # The file's step is checked on load and the flag's as it is read;
        # the sweep then runs the grid that was built for the check.
        payload = ROW2 if file_step is None else {**ROW2, "sweep": {"grid_step": file_step}}
        solver._order_grid.cache_clear()
        code = main(["sweep", "--config", write_config(tmp_path, payload), *flags])
        assert code in (0, 2)
        assert solver._order_grid.cache_info().misses == builds
        assert f"order sweep over {points} grid points" in capsys.readouterr().out

    def test_rootless_sweep_exits_2_and_reports_reasons(self, tmp_path, capsys):
        payload = {**ROW2, "sweep": {"grid_step": 1.9}}
        code = main(["sweep", "--config", write_config(tmp_path, payload)])
        out = capsys.readouterr().out
        assert code == 2
        assert "order sweep over 2 grid points" in out
        assert "distinct roots found: 0" in out
        assert "evaluation_failed" in out


#: Field values of every kind a YAML document can hold: extreme and
#: non-finite floats, huge integers, bools, strings and nulls.
ANY_VALUE = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300,
                     1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.integers(),
    st.sampled_from([10**400, -10**400]),
    st.sampled_from([True, False, None, "", "1.5", ".inf"]),
)


FUZZ_SOLVER = {"alpha": 0.5, "epsilon": 1e-4, "tol_step": 1e-5, "tol_residual": 1e-4,
               "max_iter": 500, "divergence_bound": 1e10}
#: Valid documents, one per model section, with every solver field set, and
#: one that holds every section and field a constants file may hold.
FUZZ_BASES = [
    {"constants": ROW2["constants"], "initial": ROW2["initial"], "solver": FUZZ_SOLVER},
    {"primitives": PRIMITIVES["primitives"], "initial": PRIMITIVES["initial"],
     "solver": FUZZ_SOLVER},
    {"constants": ROW2["constants"], "initial": ROW2["initial"], "solver": FUZZ_SOLVER,
     "sweep": {"grid_step": 0.5}, "output": {"format": "csv", "trace": False}},
]


#: The keys of every section that FUZZ_BASES hold.
FUZZ_FIELDS = {section: set(fields) for base in FUZZ_BASES for section, fields in base.items()}
#: Keys misspelt, from another section, or not strings.
STRAY_KEYS = ["tol_residul", "a8", "H0", "sweep", 1, 2.5, None]


@st.composite
def fuzzed_documents(draw):
    """A valid document with up to four fields replaced by any value or left out.

    Sometimes one key from STRAY_KEYS is added too, at the top level or in a
    section other than the one it belongs to.
    """
    base = draw(st.sampled_from(FUZZ_BASES))
    doc = {section: dict(fields) for section, fields in base.items()}
    for _ in range(draw(st.integers(0, 4))):
        section = draw(st.sampled_from(sorted(base)))
        name = draw(st.sampled_from(sorted(base[section])))
        if draw(st.integers(0, 4)) == 0:
            doc[section].pop(name, None)
        else:
            doc[section][name] = draw(ANY_VALUE)
    if draw(st.integers(0, 2)) == 0:
        key = draw(st.sampled_from(STRAY_KEYS))
        place = draw(st.sampled_from([None, *sorted(base)]))
        if place is None and key != "sweep":
            doc[key] = draw(ANY_VALUE)
        elif place is not None and key not in base[place]:
            doc[place][key] = draw(ANY_VALUE)
    return doc


def stray_field(doc):
    """The field path under which the stray key of ``doc`` is refused, or None.

    Unknown sections are refused before any section's keys are checked.
    """
    for name in doc:
        if name not in FUZZ_FIELDS:
            return str(name)
    for name, section in doc.items():
        for key in section:
            if key not in FUZZ_FIELDS[name]:
                return f"{name}.{key}"
    return None


#: Documents that once ended in a traceback; both fuzzes always run them.
KNOWN_BAD_DOCUMENTS = [
    primitives_with(sigma=1e-200),
    primitives_with(sigma=1e200),
    primitives_with(sigma=math.inf),
    primitives_with(mu=-math.inf),
    {**ROW2, "constants": {**ROW2["constants"], "a5": 10**400}},
    {**ROW2, "constants": {**ROW2["constants"], "a5": math.inf}},
    primitives_with(kappa=0, chi=0),
]


def with_known_bad_documents(test):
    for doc in reversed(KNOWN_BAD_DOCUMENTS):
        test = example(doc=doc)(test)
    return test


class TestInputBoundaryFuzz:
    @given(doc=fuzzed_documents())
    @with_known_bad_documents
    @settings(max_examples=200, deadline=None)
    def test_only_config_errors_escape(self, tmp_path_factory, doc):
        # Loading and validation only, no solves: every bad document must
        # come back as a ConfigError naming its section, or its stray key.
        path = tmp_path_factory.getbasetemp() / "fuzzed.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        stray = stray_field(doc)
        try:
            load_config(str(path)).settings()
        except ConfigError as exc:
            if stray is None:
                assert exc.field.split(".")[0] in {"config", *doc}
            else:
                assert exc.field == stray
        else:
            assert stray is None

    @given(doc=fuzzed_documents())
    @with_known_bad_documents
    @settings(max_examples=200, deadline=None)
    def test_main_returns_an_exit_code(self, tmp_path_factory, doc):
        # End to end, solve included; the flag bounds the cost of each solve.
        path = tmp_path_factory.getbasetemp() / "fuzzed-main.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--config", str(path), "--max-iter", "200"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
