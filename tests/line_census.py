"""Line census of ``src/fracroots``: a test must run every function line.

A pytest plugin that only the census step loads::

    PYTHONPATH=src:tests python -m pytest -q -p line_census

It traces the run with ``sys.settrace`` and ``threading.settrace``, keeping
the lines run in the package's modules.  At the end of the session it
compares them with the lines of every function, method, lambda and
comprehension of those modules, as their code objects' ``co_lines()`` give
them.  A function line that no test runs fails the session unless ALLOWED
names it with its reason; an ALLOWED line that a test runs fails it too, so
the list stays exact.  Module and class bodies run at import and are not
counted.  Lines are named by module, function and source text, so an edit
elsewhere in a module does not move them.  A line that only hypothesis's
random draws reach would pass or fail the census by chance, so each line has
a fixed input: a plain test or an ``@example``.  Only the standard library
is used.
"""

import inspect
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracroots"

#: (module, function, source line) -> why no test runs the line.
ALLOWED = {
    ("_accel", "backend_name", 'return "numpy"'):
        "only the benchmark calls it, for its report's backend field",
    ("solver", "newton_step", "except np.linalg.LinAlgError as exc:"):
        "error handling kept: the condition check before it refuses a singular Jacobian",
    ("solver", "newton_step", "raise SingularJacobian(str(exc)) from exc"):
        "error handling kept: the condition check before it refuses a singular Jacobian",
}

_modules = {str(path): path.stem for path in PACKAGE.glob("*.py")}
_paths: dict = {}  # co_filename -> the resolved path of a package module, or None
_run: set = set()  # (co_filename, line) of each line event in the package
_report: list = []


def _lines(frame, event, arg):
    if event == "line":
        _run.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _paths:
        path = str(Path(name).resolve())
        _paths[name] = path if path in _modules else None
    return _lines if _paths[name] else None


def function_lines(path: Path) -> dict:
    """(line, source line) -> the outermost function whose code runs the line.

    A code object's first line, where it starts (the ``def`` line, or its
    decorator's), is not counted: no line event reports it.
    """
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    owners: dict = {}
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop(0)
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a body run at import
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    owners.setdefault((line, text[line - 1].strip()), code.co_name)
        stack += [const for const in code.co_consts if inspect.iscode(const)]
    return owners


def pytest_configure(config):
    threading.settrace(_calls)
    sys.settrace(_calls)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    run = {(_paths[name], line) for name, line in _run}
    unrun = {}
    for path, module in sorted(_modules.items()):
        for (line, source), function in sorted(function_lines(Path(path)).items()):
            if (path, line) not in run:
                unrun[(module, function, source)] = f"{module}.py:{line} in {function}: {source}"
    _report.extend(where for key, where in unrun.items() if key not in ALLOWED)
    _report.extend(f"allowed, but run or gone: {key}" for key in ALLOWED if key not in unrun)
    if _report and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("line census of src/fracroots")
    for entry in _report:
        terminalreporter.write_line(entry)
    terminalreporter.write_line(f"{len(_report)} finding(s); {len(ALLOWED)} allowed lines, "
                                "each with its reason")
