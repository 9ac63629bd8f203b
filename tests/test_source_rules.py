"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rainbowmatch"


def test_no_assert_statements_in_the_package():
    """Invariants raise real exceptions: `python -O` strips assert statements."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_verdicts_read_no_clock():
    """The exact oracle and the checkers decide from the instance, never the time."""
    found = []
    for name in ("solvers/exact.py", "verification.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{name}:{node.lineno}" for mod in modules
                      if mod.split(".")[0] == "time"]
    assert found == []
