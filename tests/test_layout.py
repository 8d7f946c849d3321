"""Layout: `src/` holds product code only. Every top-level function and
method there has a caller in `src/`, except the public entry points below;
reference functions the tests alone call live in `tests/oracles.py`."""

import ast
from collections import Counter

from conftest import TESTS

SRC = TESTS.parent / "src" / "consfree"

# functions with no caller in src/ that the tests or the benchmark call: the
# statement queries, trace replay and the Turing machine simulator the tests
# check the solver and the engine with, and the printer and type builder
# they build and round-trip systems with
ENTRY_POINTS = {
    "engine.replay_trace",
    "solver.Solver.conf",
    "solver.Solver.confirmed_at",
    "syntax.print_atrs",
    "terms.fn_type",
    "tm.TMRun.accepted",
    "tm.simulate_tm",
}


def referenced(node):
    """The names node reads, as variables or attributes."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def definitions():
    """Every top-level function and method in src/, by dotted name."""
    for path in sorted(SRC.glob("*.py")):
        module = ast.parse(path.read_text())
        for node in module.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{member.name}", member


def test_every_function_in_src_has_a_caller_in_src():
    uses = Counter()
    for path in SRC.glob("*.py"):
        uses.update(referenced(ast.parse(path.read_text())))
    found = dict(definitions())
    assert ENTRY_POINTS <= set(found)
    uncalled = []
    for name, node in found.items():
        short = node.name
        if short.startswith("__") and short.endswith("__"):
            continue  # called by the interpreter
        # uses inside its own body, such as recursion, do not count
        if uses[short] == Counter(referenced(node))[short]:
            uncalled.append(name)
    assert sorted(set(uncalled) - ENTRY_POINTS) == []
    assert sorted(ENTRY_POINTS - set(uncalled)) == []
