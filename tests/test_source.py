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
# which evaluates each distinct argument once and relies on that.
TRANSCENDENTAL = {"exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "power",
                  "float_power", "sqrt", "cbrt", "hypot", "sin", "cos", "tan", "arcsin",
                  "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh", "arcsinh",
                  "arccosh", "arctanh"}


@pytest.mark.parametrize("name", ["params.py", "analytics.py", "optimize.py"])
def test_closed_forms_call_no_numpy_transcendental(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
    calls = [f"{node.attr} at line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in TRANSCENDENTAL
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
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
