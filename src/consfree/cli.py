"""Command-line interface: check, run, solve, compile-tm, selftest-module."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .engine import Budget, BudgetTooSmallForRoot, search_data_normal_forms
from .modules import (
    ModuleError,
    SelfTestFailure,
    module_selftest,
    parse_module_expr,
)
from .compiler import compile_tm
from .solver import (
    DEFAULT_SPACE_BUDGET,
    NotConsFree,
    NotProductConsFree,
    ReprSpaceTooLarge,
    solve,
)
from .syntax import PairingRequired, ParseError, parse_atrs, parse_term, parse_tm
from .terms import TermError, print_term
from .tm import TMError
from .validation import NotBasic, check

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


def _load_atrs(path: str):
    with open(path) as handle:
        return parse_atrs(handle.read())


def cmd_check(args) -> int:
    atrs = _load_atrs(args.file)
    verdict = check(atrs)
    report = {
        "constructor-system": verdict.constructor_system,
        "left-linear": verdict.left_linear,
        "cons-free": verdict.cons_free,
        "product-cons-free": verdict.product_cons_free,
        "type-order": verdict.order,
        "violations": [str(v) for v in verdict.violations],
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for key in (
            "constructor-system",
            "left-linear",
            "cons-free",
            "product-cons-free",
            "type-order",
        ):
            print(f"{key}: {report[key]}")
        for violation in verdict.violations:
            print(f"violation: {violation}")
    if args.require:
        wanted = (
            verdict.cons_free
            if args.require == "cons-free"
            else bool(verdict.product_cons_free)
        )
        if not wanted:
            return EXIT_CONTRACT
    return EXIT_OK


def cmd_run(args) -> int:
    atrs = _load_atrs(args.file)
    term = parse_term(args.term, atrs, {})
    budget = Budget(args.max_steps, args.max_terms, args.max_term_size)
    result = search_data_normal_forms(term, atrs, args.strategy, budget)
    forms = sorted(print_term(t) for t in result.data_normal_forms)
    if args.json:
        print(
            json.dumps(
                {
                    "normal_forms": forms,
                    "exhausted": result.exhausted,
                    "visited": result.visited,
                }
            )
        )
    else:
        for form in forms:
            print(form)
        print(f"exhausted={str(result.exhausted).lower()} visited={result.visited}")
    if result.exhausted and not forms:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_solve(args) -> int:
    atrs = _load_atrs(args.file)
    term = parse_term(args.basic, atrs, {})
    result = solve(atrs, term, args.repr_budget)
    forms = [print_term(t) for t in result.normal_forms]
    if args.json:
        print(
            json.dumps(
                {
                    "normal_forms": forms,
                    "exhausted": False,
                    "steps": result.steps,
                    "statements": result.statements,
                    "stats": result.solver.stats(),
                }
            )
        )
    else:
        for form in forms:
            print(form)
        print(f"steps={result.steps} statements={result.statements}")
    return EXIT_OK


def cmd_compile_tm(args) -> int:
    with open(args.file) as handle:
        tm = parse_tm(handle.read())
    expr = parse_module_expr(args.module)
    compiled = compile_tm(tm, expr)
    if compiled.module.pairing and not args.pairing:
        raise PairingRequired(
            f"module {args.module} needs pairing; pass --pairing to emit it"
        )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(compiled.text)
    else:
        sys.stdout.write(compiled.text)
    return EXIT_OK


def cmd_selftest_module(args) -> int:
    expr = parse_module_expr(args.module)
    report = module_selftest(expr, args.n, args.repr_budget)
    if args.json:
        print(json.dumps({"bound": report.bound, "checks": report.checks}))
    else:
        print(f"count={report.bound} OK")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consfree",
        description="Validate, rewrite, solve, and compile applicative term "
        "rewriting systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="classify a system")
    p_check.add_argument("file")
    p_check.add_argument(
        "--require", choices=["cons-free", "product-cons-free"], default=None
    )
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="bounded search for data normal forms")
    p_run.add_argument("file")
    p_run.add_argument("--term", required=True)
    p_run.add_argument(
        "--strategy", choices=["free", "innermost", "outermost"], default="free"
    )
    p_run.add_argument("--max-steps", type=int, default=1000)
    p_run.add_argument("--max-terms", type=int, default=100000)
    p_run.add_argument("--max-term-size", type=int, default=5000)
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_solve = sub.add_parser("solve", help="exact data normal forms by saturation")
    p_solve.add_argument("file")
    p_solve.add_argument("--basic", required=True)
    p_solve.add_argument("--repr-budget", type=int, default=DEFAULT_SPACE_BUDGET)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(fn=cmd_solve)

    p_compile = sub.add_parser("compile-tm", help="compile a Turing machine")
    p_compile.add_argument("file")
    p_compile.add_argument("--module", required=True)
    p_compile.add_argument("--pairing", action="store_true")
    p_compile.add_argument("-o", "--output", default=None)
    p_compile.set_defaults(fn=cmd_compile_tm)

    p_self = sub.add_parser("selftest-module", help="check a counting module")
    p_self.add_argument("--module", required=True)
    p_self.add_argument("--n", type=int, required=True)
    p_self.add_argument("--repr-budget", type=int, default=DEFAULT_SPACE_BUDGET)
    p_self.add_argument("--json", action="store_true")
    p_self.set_defaults(fn=cmd_selftest_module)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetTooSmallForRoot, ReprSpaceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print(
            "error: input nested too deeply for the interpreter's stack",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (
        NotBasic,
        NotConsFree,
        NotProductConsFree,
        PairingRequired,
        SelfTestFailure,
        ModuleError,
        TermError,
        TMError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
