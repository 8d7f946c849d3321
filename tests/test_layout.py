"""Layout: `src/` holds product code only. Every top-level function and
method there has a caller in `src/`, except the public entry points below;
reference functions the tests alone call live in `tests/oracles.py`. No code
in `src/` writes a term's fields after `Term.__new__` has built it."""

import ast
from collections import Counter

from consfree.terms import Term

from conftest import TESTS

SRC = TESTS.parent / "src" / "consfree"

# functions with no caller in src/ that the tests or the benchmark call: the
# statement queries, trace replay and the Turing machine simulator the tests
# check the solver and the engine with, the printer and type builder they
# build and round-trip systems with, and the exact size an over-budget space
# error carries for its catchers
ENTRY_POINTS = {
    "engine.replay_trace",
    "solver.ReprSpaceTooLarge.cardinality",
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


def field_writes(tree, fields):
    """The lines of tree that assign one of fields to an attribute, or name
    one of them in a setattr call, outside `Term.__new__`; assignments to
    `self` in the methods of other classes set their own fields."""
    found = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            fn = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute) and target.attr in fields:
                own = isinstance(target.value, ast.Name) and target.value.id == "self"
                if (cls, fn) != ("Term", "__new__") and not (own and cls != "Term"):
                    found.append(node.lineno)
        if isinstance(node, ast.Call) and len(node.args) >= 2:
            name = node.args[1]
            callee = node.func
            called = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", "")
            if (
                called in ("setattr", "__setattr__")
                and isinstance(name, ast.Constant)
                and name.value in fields
            ):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def test_terms_are_not_written_after_construction():
    fields = set(Term.__slots__) - {"__weakref__"}
    writes = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := field_writes(ast.parse(path.read_text()), fields))
    }
    assert writes == {}
    # the fields are the node's own: no printed text or other cache
    assert fields == {"head", "args", "type", "size", "is_data"}


def test_the_guard_sees_writes_to_terms():
    planted = ast.parse(
        "def print_term(t):\n    t._text = 'x'\n    seen[t.head] = t\n"
        "class Term:\n    def __new__(cls):\n        t.size = 1\n"
        "    def grow(self):\n        self.size += 1\n"
        "class Space:\n    def __init__(self):\n        self.size = 1\n"
        "def f(u):\n    object.__setattr__(u, 'head', None)\n"
    )
    assert field_writes(planted, {"_text", "size", "head"}) == [2, 8, 13]
