"""Rules on the package source itself."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rfharvest"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # Invariants raise exceptions: python -O strips assert statements.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


# numpy's SIMD versions of these may differ from libm in the last bit; the
# closed forms take every such value from ``math`` through ``params._each``,
# which evaluates each distinct argument once and relies on that.  The one
# exception is the guard hole's column quadrature, whose arccos runs on
# (rows, nodes) blocks: test_guard_hole_is_one_value_per_row in
# tests/test_analytics.py checks that each of its rows still equals its
# one-row evaluation bit for bit.
TRANSCENDENTAL = {"exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "power",
                  "float_power", "sqrt", "cbrt", "hypot", "sin", "cos", "tan", "arcsin",
                  "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh", "arcsinh",
                  "arccosh", "arctanh"}
ALLOWED = {"analytics.py": {("_hole_integral", "arccos")}}


@pytest.mark.parametrize("name", ["params.py", "analytics.py", "optimize.py"])
def test_closed_forms_call_no_numpy_transcendental(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
    calls = [f"{node.attr} at line {node.lineno}" for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and node.attr in TRANSCENDENTAL
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
             and (getattr(top, "name", None), node.attr) not in ALLOWED.get(name, ())]
    calls += [f"{alias.name} at line {node.lineno}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
              for alias in node.names if alias.name in TRANSCENDENTAL]
    assert not calls, f"{name} uses numpy transcendentals: {calls}"


def _callers(name: str) -> list[str]:
    """``module.top-level name`` of each call of ``name`` in the package, in order."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers += [f"{path.stem}.{getattr(top, 'name', '<module>')}"
                    for top in tree.body for node in ast.walk(top)
                    if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    return callers


def test_slot_simulator_is_built_only_by_the_slot_driver():
    # One slot driver, sim._measured_slots, owns the warm-up, the lockstep
    # batches and their memory cap for every dynamics run.
    assert _callers("SlotSimulator") == ["sim._measured_slots"]


def test_csv_is_written_only_by_the_sweep_and_study_writers():
    # One CSV path: every analyze, simulate and optimize target goes through
    # cli._write_sweep, and the canned studies through cli.cmd_figure.
    assert _callers("_write_csv") == ["cli._write_sweep", "cli.cmd_figure"]


# Calls that write a file whatever their arguments; open and fdopen write
# unless their mode is a literal without "w", "a", "x" or "+".
FILE_WRITERS = {"write_text", "write_bytes", "savetxt", "tofile"}


def _writes_a_file(call: ast.Call) -> bool:
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in FILE_WRITERS:
        return True
    if name not in ("open", "fdopen"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    return mode is not None and not (isinstance(mode, ast.Constant)
                                     and not set(mode.value) & set("wax+"))


def test_files_are_opened_for_writing_only_by_the_csv_writer():
    # cli._write_csv writes to a temporary file that replaces the output
    # once it is complete, so a failing run leaves no partial file; any
    # other write would bypass that.
    writers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        writers += [f"{path.stem}.{getattr(top, 'name', '<module>')}"
                    for top in tree.body for node in ast.walk(top)
                    if isinstance(node, ast.Call) and _writes_a_file(node)]
    assert writers == ["cli._write_csv"]


def test_dynamics_estimates_are_reached_only_through_the_grouped_sweep():
    # One way to simulate a sweep: simulate and the canned studies reach the
    # p_t and outage runs through cli._simulate_group, one run per group of
    # rows, never one hand-seeded run of their own.
    assert _callers("estimate_p_t") == ["cli._simulate_group"]
    assert _callers("outage_curve") == ["cli._simulate_group", "sim.estimate_outage"]


def test_blas_thread_policy_precedes_every_import():
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, so the
    # package's default must be set before any import that could load numpy;
    # an import re-sort that moved it down would silently undo it.
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    policy = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault"
              and ast.unparse(node.func.value) == "os.environ"
              and [ast.literal_eval(arg) for arg in node.args] == ["OPENBLAS_NUM_THREADS", "1"]]
    imports = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and not (isinstance(node, ast.Import) and [a.name for a in node.names] == ["os"])]
    assert len(policy) == 1 and imports
    assert policy[0] < min(imports), f"imports at lines {sorted(imports)} precede the policy"
