"""Rules on the package source itself."""

import ast
import sys
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


def _absolute_imports(path):
    """(line, top-level module name) of each absolute import in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def _imported_outside_cli(modules):
    """(file:line) of each import of one of `modules` outside cli.py."""
    return [f"{path.relative_to(SRC)}:{line}" for path in sorted(SRC.rglob("*.py"))
            if path.relative_to(SRC) != Path("cli.py")
            for line, mod in _absolute_imports(path) if mod in modules]


def test_verdicts_read_no_clock():
    """Solvers and checkers decide from their inputs, never the time: only the
    command line, which reports a solve's wall time, imports a clock."""
    assert _imported_outside_cli(("time", "datetime")) == []


def test_only_the_command_line_sets_the_collector():
    """The cyclic GC's policy lives in `cli.main`: no solver or loader imports gc."""
    assert _imported_outside_cli(("gc",)) == []


def test_imports_are_stdlib_only():
    """The package needs nothing but the standard library: every absolute
    import names a standard-library module."""
    found = [f"{path.relative_to(SRC)}:{line} {mod}" for path in sorted(SRC.rglob("*.py"))
             for line, mod in _absolute_imports(path)
             if mod not in sys.stdlib_module_names]
    assert found == []


def test_shuffles_go_through_seeding():
    """Every shuffle is `seeding.shuffle`, whose order is fixed by the Mersenne
    Twister bit stream alone: no `.shuffle(` method is called in the package."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "shuffle"]
    assert found == []


def _calls(node):
    """(line, name) of each call under `node` to a plain or dotted name."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            callee = call.func
            yield call.lineno, (callee.id if isinstance(callee, ast.Name)
                                else getattr(callee, "attr", ""))


def _self_calls(name):
    """Each call a function in module `name` makes to a function of its own name."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
    return [f"{name}:{line} {fn.name}" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for line, called in _calls(fn) if called == fn.name]


def test_expander_has_no_recursion():
    """The expander's pointer chase runs in a loop, so the recursion limit caps nothing."""
    assert _self_calls("solvers/expander.py") == []


def test_exact_has_no_recursion():
    """The branch and bound and the symmetry search run on explicit stacks."""
    assert _self_calls("solvers/exact.py") == []


_SOLVER_ENTRIES = {"greedy_maximal", "augment_flagged", "sampling_solve",
                   "alspach_solve", "exact_max_rainbow", "expander_matching",
                   "edge_disjoint_matchings", "orient_bipartition_reduce"}


def test_acceptance_criteria_run_shipped_checkers():
    """Only criteria 9 and 10 generate or solve themselves; the others call
    `THEOREMS` checkers, so `verify` can replay each of their cells."""
    path = Path(__file__).with_name("test_acceptance.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
    found = [f"{fn.name}:{line} {called}" for fn in tree.body
             if isinstance(fn, ast.FunctionDef) and fn.name.startswith("criterion_")
             and fn.name not in ("criterion_9", "criterion_10")
             for line, called in _calls(fn)
             if called.startswith("gen_") or called in _SOLVER_ENTRIES]
    assert found == []
