"""The benchmark's workloads: seeded inputs, set-up, timed queries, oracles.

Every workload is a closed loop: one query at a time, in one process, with
no threads. A query's `run` is the only code the harness times; the oracle
answers are computed once, before any timing, and each query's result is
reduced by `summarize` to an answer plus the exact counts that must repeat.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import types
from dataclasses import dataclass
from typing import Callable, Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "consfree" / "corpus"


def import_library() -> types.SimpleNamespace:
    """Import the library from the checkout. Callers reach every function
    through these module objects, so a tracer that patches a module
    attribute sees the call."""
    import consfree.compiler
    import consfree.engine
    import consfree.modules
    import consfree.solver
    import consfree.syntax
    import consfree.terms
    import consfree.tm
    import consfree.validation

    return types.SimpleNamespace(
        compiler=consfree.compiler,
        engine=consfree.engine,
        modules=consfree.modules,
        solver=consfree.solver,
        syntax=consfree.syntax,
        terms=consfree.terms,
        tm=consfree.tm,
        validation=consfree.validation,
    )


@dataclass
class Query:
    """One timed call into the library and how to read its result."""

    label: str
    run: Callable[[], object]
    summarize: Callable[[object], Dict]  # {"answer": ..., exact counts ...}
    oracle: Callable[[], object]  # the expected answer, computed untimed
    expected: object = None


def constant_names(terms) -> List[str]:
    """Names of nullary normal forms (true, false), without the printer."""
    return sorted(t.head.name for t in terms)


# -- tm_decide ---------------------------------------------------------------


class TmDecide:
    """Compiled Turing machines decided by saturation; oracle: simulate_tm."""

    name = "tm_decide"
    # Each machine with the length-2 inputs the seed draws from: those on
    # which its decision takes the same number of solver steps. contains1
    # takes 58 steps and demands 9,527-9,572 statements on 10 and 11 (56-57
    # steps and down to 9,156 on 00 and 01); parity takes 53 steps and
    # demands 6,351-6,486 on every length-2 input.
    MACHINES = (
        ("contains1.tm", "prod(lin,lin)", ("10", "11")),
        ("parity.tm", "e", ("00", "01", "10", "11")),
    )

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs = [
            (machine, module, rng.choice(inputs))
            for machine, module, inputs in self.MACHINES
        ]

    def describe(self) -> List[Dict]:
        return [
            {"machine": machine, "module": module, "input": x}
            for machine, module, x in self.inputs
        ]

    def setup(self, lib) -> List[Query]:
        return [self.query(lib, *spec) for spec in self.inputs]

    def query(self, lib, machine: str, module: str, x: str) -> Query:
        tm = lib.syntax.parse_tm((CORPUS / machine).read_text())
        system = lib.compiler.compile_tm(tm, lib.modules.parse_module_expr(module))
        atrs = system.atrs
        root = lib.terms.sym_term(
            atrs.symbols["decide"], lib.syntax.encode_input(x, atrs)
        )

        def summarize(result) -> Dict:
            return {
                "answer": constant_names(result.normal_forms),
                "steps": result.steps,
                "demanded": result.demanded,
                "confirmed": len(result.solver.confirmed_at),
            }

        def oracle():
            run = lib.tm.simulate_tm(tm, x)
            if system.module.bound(len(x)) < run.steps + 1:
                return f"module bound too small for {run.steps} machine steps"
            return ["true"] if run.accepted else ["false"]

        return Query(
            f"{machine} {module} {x}",
            lambda: lib.solver.solve(atrs, root),
            summarize,
            oracle,
        )


# -- selftest ----------------------------------------------------------------

# The counting bounds, stated independently of the module generator. The
# acceptance suite's matrix also has exp(lin) n=2 and expab(1,1) n=3; they
# take 2.7 s and 4.7 s, as long as all the cases here together.
SELFTEST_MATRIX = [
    ("lin", range(1, 7), lambda n: n + 1),
    ("prod(lin,lin)", range(1, 5), lambda n: (n + 1) ** 2),
    ("e", range(1, 3), lambda n: 2 ** (n + 1)),
    ("exp(lin)", range(1, 2), lambda n: 2 ** (n + 1)),
    ("expab(1,1)", range(1, 3), lambda n: 2 ** (n + 1)),
]


class Selftest:
    """Counting-module self-tests; oracle: closed-form bounds."""

    name = "selftest"

    def __init__(self, seed: int):
        cases = [
            (text, n, bound) for text, lengths, bound in SELFTEST_MATRIX for n in lengths
        ]
        random.Random(seed).shuffle(cases)
        self.cases = cases

    def describe(self) -> List[Dict]:
        return [{"module": text, "n": n} for text, n, _ in self.cases]

    def setup(self, lib) -> List[Query]:
        return [self.query(lib, *case) for case in self.cases]

    def query(self, lib, text: str, n: int, bound) -> Query:
        expr = lib.modules.parse_module_expr(text)

        def summarize(report) -> Dict:
            return {
                "answer": [report.bound, report.decrements, report.ok],
                "decrements": report.decrements,
            }

        return Query(
            f"{text} n={n}",
            lambda: lib.modules.module_selftest(expr, n),
            summarize,
            lambda: [bound(n), bound(n) - 1, True],
        )


# -- sat_search --------------------------------------------------------------

SAT_BUDGET = (200, 300000, 300)  # max steps, max terms, max term size


def sat_brute_force(formula: str) -> bool:
    """Clause character i constrains variable i (1 positive, 0 negative,
    ? absent); clauses end with #."""
    clauses = [c for c in formula.split("#") if c]
    nvars = max((len(c) for c in clauses), default=0)
    for assignment in itertools.product([False, True], repeat=nvars):
        if all(
            any(
                (ch == "1" and assignment[i]) or (ch == "0" and not assignment[i])
                for i, ch in enumerate(clause)
            )
            for clause in clauses
        ):
            return True
    return not clauses


# Satisfiable formulas of 2 clauses x 2 characters, no ?, like 10#01#. The
# 16 fall into four cost classes of four formulas each, set by whether the
# first clause's bits are equal and whether the second clause starts with
# the first clause's first bit. Within a class the free BFS visits the same
# number of terms to within 0.4%: 1,613-1,614, 1,749-1,752, 1,769-1,771 and
# 1,851-1,857 (15.0k-16.7k for the shape of 10?#?10#).
SAT_CLASSES = [
    [
        f"{a}{b}#{c}{d}#"
        for a, b, c, d in itertools.product("01", repeat=4)
        if (a == b, c == a) == key
    ]
    for key in itertools.product((True, False), repeat=2)
]


def draw_unsat_formula(rng: random.Random) -> str:
    """An unsatisfiable formula of 2 clauses x 2 characters: one variable,
    required positive by one clause and negative by the other."""
    gap = rng.randrange(2)
    literal = rng.choice("01")
    clauses = []
    for value in (literal, "1" if literal == "0" else "0"):
        chars = [value, value]
        chars[gap] = "?"
        clauses.append("".join(chars))
    return "#".join(clauses) + "#"


class SatSearch:
    """Breadth-first search on the SAT system, with witness replay; oracles:
    brute-force SAT and the solver's normal-form set."""

    name = "sat_search"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # One satisfiable formula from each cost class per pass, so that the
        # seed changes the formulas but not the work of a pass.
        self.satisfiable = [rng.choice(formulas) for formulas in SAT_CLASSES]
        self.unsatisfiable = draw_unsat_formula(rng)
        self.runs = [
            (formula, strategy)
            for formula in self.satisfiable
            for strategy in ("free", "outermost")
        ] + [(self.unsatisfiable, "free")]

    def describe(self) -> List[Dict]:
        return [{"formula": f, "strategy": s} for f, s in self.runs]

    def setup(self, lib) -> List[Query]:
        atrs = lib.syntax.parse_atrs((CORPUS / "sat.atrs").read_text())
        oracles: Dict[str, object] = {}
        return [self.query(lib, atrs, oracles, *run) for run in self.runs]

    def query(self, lib, atrs, oracles: Dict, formula: str, strategy: str) -> Query:
        root = lib.terms.sym_term(
            atrs.symbols["decide"], lib.syntax.encode_input(formula, atrs)
        )

        def run():
            search = lib.engine.search_data_normal_forms(
                root, atrs, strategy, lib.engine.Budget(*SAT_BUDGET)
            )
            replays = {
                nf: lib.engine.replay_trace(root, search.traces[nf], atrs)
                for nf in search.data_normal_forms
            }
            return search, replays

        def summarize(outcome) -> Dict:
            search, replays = outcome
            replayed = all(
                seq[0] == root and seq[-1] == nf for nf, seq in replays.items()
            )
            return {
                "answer": [
                    constant_names(search.data_normal_forms),
                    search.exhausted,
                    replayed,
                ],
                "visited": search.visited,
            }

        def oracle():
            if formula not in oracles:
                names = constant_names(lib.solver.solve(atrs, root).normal_forms)
                if ("true" in names) != sat_brute_force(formula):
                    oracles[formula] = "solver and brute force disagree"
                else:
                    oracles[formula] = [names, False, True]
            return oracles[formula]

        return Query(f"{strategy} {formula}", run, summarize, oracle)


WORKLOADS = {w.name: w for w in (TmDecide, Selftest, SatSearch)}
