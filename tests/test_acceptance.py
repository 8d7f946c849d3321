"""Acceptance suite: end-to-end checks with independent oracles.

Each test states its oracle before using the library, and asserts the
documented runtime envelope where one applies.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from consfree.compiler import compile_tm
from consfree.engine import Budget, Engine, replay_trace, search_data_normal_forms
from consfree.modules import module_selftest, parse_module_expr
from consfree.solver import Solver, Stmt, solve
from consfree.syntax import encode_input, parse_tm
from consfree.terms import Arrow, Product, Sort, print_term, sym_term
from consfree.tm import simulate_tm
from consfree.validation import check, compute_B

from conftest import CORPUS, corpus_text, load, term
from oracles import is_B_safe, repr_cardinality, within_cardinality_bound


def decide_term(atrs, x: str):
    return sym_term(atrs.symbols["decide"], encode_input(x, atrs))


# -- criterion 1: worked-example fidelity ---------------------------------


def test_01_majority_worked_example(majority):
    s = term("majority (1 ; 0 ; [])", majority)
    # oracle first: exhaustive BFS saturates on this terminating instance
    oracle = search_data_normal_forms(s, majority)
    assert not oracle.exhausted
    assert {print_term(t) for t in oracle.data_normal_forms} == {"1"}

    started = time.monotonic()
    result = solve(majority, s)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    assert result.statements == 1168
    assert result.solver.space(Sort("symb")).card == 4
    assert result.solver.space(Sort("list")).card == 8
    B = compute_B(s, majority)
    assert {print_term(t) for t in B} == {"1", "0", "1 ; 0 ; []", "0 ; []", "[]"}
    assert set(result.normal_forms) == set(oracle.data_normal_forms)


# -- criterion 2: first-step confirmation ---------------------------------


def test_02_confirmed_after_one_step(majority):
    s = term("majority (1 ; 0 ; [])", majority)
    solver = Solver(majority, compute_B(s, majority))
    a1 = frozenset({term("0 ; []", majority)})
    a2 = frozenset({term("0 ; []", majority), term("[]", majority)})
    # cmp (y;ys) [] -> 0 applies immediately: [] is in the second set
    confirmed = Stmt("cmp", (a1, a2), term("0", majority))
    # cmp [] zs -> 1 needs [] in the first set, and the recursive rule's
    # target-1 confirmations don't exist at step 0
    competing = Stmt("cmp", (a1, a2), term("1", majority))
    assert solver.conf(1, confirmed) is True
    assert solver.conf(1, competing) is False
    assert solver.conf(0, confirmed) is False
    assert solver.conf(0, competing) is False


# -- criterion 3: solver equals the engine on saturating systems ----------

SATURATING = [
    ("majority.atrs", "majority (1 ; 0 ; [])"),
    ("contains1.atrs", "decide (0 ; 1 ; [])"),
    ("parity1s.atrs", "decide (1 ; 1 ; 1 ; [])"),
    ("allzeros.atrs", "decide (0 ; 0 ; [])"),
    ("evenlen.atrs", "decide (1 ; 0 ; 1 ; [])"),
    ("firstis1.atrs", "decide (0 ; 1 ; [])"),
    ("lastis1.atrs", "decide (1 ; 0 ; [])"),
    ("ho_apply.atrs", "decide (1 ; [])"),
    ("consfree_fsucc.atrs", "main (s (s o)) (s (s o))"),
]


def test_03_solver_engine_equivalence():
    assert len({name for name, _ in SATURATING}) >= 8
    started = time.monotonic()
    for name, text in SATURATING:
        atrs = load(name)
        s = term(text, atrs)
        oracle = search_data_normal_forms(s, atrs, "free", Budget(1000, 100000, 5000))
        assert not oracle.exhausted, name
        result = solve(atrs, s)
        assert set(result.normal_forms) == set(oracle.data_normal_forms), name
    assert time.monotonic() - started < 60.0


# -- criterion 4: SAT reachability with a replayable witness --------------


def sat_oracle(formula: str) -> bool:
    """Brute force: clause character i constrains variable i (1 positive,
    0 negative, ? absent); clauses separated by #."""
    clauses = [c for c in formula.split("#") if c != ""]
    nvars = max((len(c) for c in clauses), default=0)
    for a in itertools.product([False, True], repeat=nvars):
        if all(
            any(
                (ch == "1" and a[i]) or (ch == "0" and not a[i])
                for i, ch in enumerate(clause)
            )
            for clause in clauses
        ):
            return True
    return not clauses


def test_04_sat_reachability(sat):
    assert sat_oracle("10?#?10#") is True
    assert sat_oracle("1#0#") is False
    started = time.monotonic()

    satisfiable = decide_term(sat, "10?#?10#")
    result = solve(sat, satisfiable)
    true_t = term("true", sat)
    assert true_t in result.normal_forms

    search = search_data_normal_forms(satisfiable, sat, "free", Budget(200, 300000, 300))
    assert true_t in search.data_normal_forms
    sequence = replay_trace(satisfiable, search.traces[true_t], sat)
    assert sequence[0] == satisfiable and sequence[-1] == true_t

    unsat = decide_term(sat, "1#0#")
    assert true_t not in solve(sat, unsat).normal_forms
    assert time.monotonic() - started < 30.0


# -- criterion 5: B-safety is preserved along random reductions -----------

FUZZ_SYSTEMS = [
    ("majority.atrs", lambda rng: "majority " + bits_term(rng, 5)),
    ("contains1.atrs", lambda rng: "decide " + bits_term(rng, 4)),
    ("parity1s.atrs", lambda rng: "decide " + bits_term(rng, 4)),
    ("allzeros.atrs", lambda rng: "decide " + bits_term(rng, 4)),
    ("evenlen.atrs", lambda rng: "decide " + bits_term(rng, 4)),
    ("firstis1.atrs", lambda rng: "decide " + bits_term(rng, 4)),
    ("lastis1.atrs", lambda rng: "decide " + bits_term(rng, 4)),
    ("ho_apply.atrs", lambda rng: "decide " + bits_term(rng, 3)),
    ("sat.atrs", lambda rng: "decide " + clause_term(rng)),
    ("consfree_fsucc.atrs", lambda rng: nat_call(rng)),
]


def bits_term(rng, max_len: int) -> str:
    n = rng.randint(0, max_len)
    text = "[]"
    for _ in range(n):
        text = f"{rng.choice('01')} ; {text}"
    return f"({text})"


def clause_term(rng) -> str:
    chars = [rng.choice("01?#") for _ in range(rng.randint(1, 6))]
    text = "[]"
    for ch in reversed(chars):
        text = f"{ch} ; {text}"
    return f"({text})"


def nat_call(rng) -> str:
    def nat(k):
        return "o" if k == 0 else f"s ({nat(k - 1)})"

    return f"main ({nat(rng.randint(0, 3))}) ({nat(rng.randint(0, 3))})"


def test_05_b_safety_fuzz():
    rng = random.Random(1234)
    total_steps = 0
    loaded = [(load(name), make) for name, make in FUZZ_SYSTEMS]
    engines = [Engine(atrs) for atrs, _ in loaded]
    while total_steps < 10000:
        index = rng.randrange(len(loaded))
        atrs, make = loaded[index]
        engine = engines[index]
        s = term(make(rng), atrs)
        B = compute_B(s, atrs)
        assert is_B_safe(s, B)
        current = s
        for _ in range(rng.randint(1, 30)):
            options = engine.step_options(current, "free")
            if not options:
                break
            current = rng.choice(options)
            if current.size > 400:
                break
            assert is_B_safe(current, B), print_term(current)
            total_steps += 1
    assert total_steps >= 10000


# -- criterion 6: counting-module semantics --------------------------------


def test_06_module_selftests():
    # oracle: the counting bounds, stated independently of the generator
    matrix = [
        ("lin", range(1, 7), lambda n: n + 1),
        ("prod(lin,lin)", range(1, 5), lambda n: (n + 1) ** 2),
        ("e", range(1, 3), lambda n: 2 ** (n + 1)),
        ("exp(lin)", range(1, 3), lambda n: 2 ** (n + 1)),
        ("expab(1,1)", range(1, 4), lambda n: 2 ** (n + 1)),
    ]
    for text, lengths, bound in matrix:
        expr = parse_module_expr(text)
        for n in lengths:
            report = module_selftest(expr, n)
            assert report.bound == bound(n), (text, n)
            assert report.decrements == bound(n) - 1, (text, n)
            assert report.checks["pred at zero stays zero"], (text, n)
            assert report.checks["succ at maximum stays maximum"], (text, n)
            assert report.ok, (text, n)
    # the e-module chain at n=2 has exactly 7 decrements (bit-model: 2^3 - 1)
    assert module_selftest(parse_module_expr("e"), 2).decrements == 7


# -- criterion 7: compiled machines decide like the simulator --------------


def all_inputs(max_len: int):
    for n in range(1, max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


def test_07_tm_compilation_end_to_end():
    started = time.monotonic()
    inputs = list(all_inputs(3))
    assert len(inputs) == 14
    for tm_name in ("contains1.tm", "parity.tm"):
        tm = parse_tm(corpus_text(tm_name))
        for module_text in ("prod(lin,lin)", "e"):
            system = compile_tm(tm, parse_module_expr(module_text))
            for x in inputs:
                run = simulate_tm(tm, x)
                assert system.module.bound(len(x)) >= run.steps + 1
                verdicts = {
                    print_term(t)
                    for t in solve(system.atrs, decide_term(system.atrs, x)).normal_forms
                }
                expected = "true" if run.accepted else "false"
                assert verdicts == {expected}, (tm_name, module_text, x)
    assert time.monotonic() - started < 600.0


# -- criterion 8: representation-space cardinality bound -------------------


def card_oracle(ty, n: int) -> int:
    """Closed form: 2^n at sorts, 2^(n^width) at products, pointwise
    exponentiation at arrows."""
    if isinstance(ty, Sort):
        return 2 ** n
    if isinstance(ty, Product):
        comps, stack = [], [ty]
        while stack:
            t = stack.pop()
            stack.extend([t.left, t.right]) if isinstance(t, Product) else comps.append(t)
        width = 1
        for _ in comps:
            width *= n
        return 2 ** width
    return card_oracle(ty.res, n) ** card_oracle(ty.arg, n)


def random_type(rng, depth, allow_products=True):
    nat = Sort("nat")
    if depth == 0:
        return nat
    kind = rng.randrange(4)
    if kind == 0:
        return nat
    if kind == 1 and allow_products:
        return Product(nat, nat if rng.random() < 0.7 else Product(nat, nat))
    return Arrow(
        random_type(rng, depth - 1, allow_products=False),
        random_type(rng, depth - 1, allow_products),
    )


def representable(ty, n, max_bits=200000):
    if isinstance(ty, Sort):
        return True
    if isinstance(ty, Product):
        return n ** 3 < max_bits
    if not (representable(ty.arg, n, 40) and representable(ty.res, n, max_bits)):
        return False
    return card_oracle(ty.arg, n) * card_oracle(ty.res, n).bit_length() < max_bits


def test_08_cardinality_bound():
    rng = random.Random(987654)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 4)
        ty = random_type(rng, rng.randint(1, 3))
        if ty.order() > 3 or not representable(ty, n):
            continue
        exact = repr_cardinality(ty, {"nat": n})
        assert exact == card_oracle(ty, n)
        assert within_cardinality_bound(exact, ty, n)
        checked += 1


# -- criterion 9: validator discrimination ---------------------------------


def test_09_validator_discrimination(sat, succ_system, nonlinear_tm):
    sat_verdict = check(sat)
    assert sat_verdict.cons_free and sat_verdict.order == 1

    succ_verdict = check(succ_system)
    assert not succ_verdict.cons_free
    assert {v.rule for v in succ_verdict.violations if v.kind == "cons-free"} == {"r2", "r3"}

    assert check(nonlinear_tm).left_linear is False

    from consfree.modules import module_atrs

    _, expab = module_atrs(parse_module_expr("expab(1,1)"))
    expab_verdict = check(expab)
    assert expab_verdict.cons_free and expab_verdict.product_cons_free is True

    _, pipi = module_atrs(parse_module_expr("pipi(prod(lin,lin))"))
    pipi_verdict = check(pipi)
    assert pipi_verdict.cons_free and pipi_verdict.product_cons_free is False


# -- criterion 10: fixpoint properties and determinism ----------------------


def test_10_confirmed_monotone_and_bounded():
    for name, text in SATURATING[:4]:
        atrs = load(name)
        result = solve(atrs, term(text, atrs))
        solver = result.solver
        assert result.steps <= result.statements + 1
        for stmt, confirmed_at in solver.confirmed_at.items():
            previous = False
            for i in range(result.steps + 2):
                now = solver.conf(i, stmt)
                assert now or not previous  # never reverts
                assert now == (0 < confirmed_at <= i)
                previous = now


def test_10_repeated_runs_are_byte_identical():
    argv = [
        sys.executable, "-m", "consfree.cli",
        "solve", str(CORPUS / "majority.atrs"),
        "--basic", "majority (1;0;[])", "--json",
    ]
    outputs = set()
    for _ in range(4):
        done = subprocess.run(argv, capture_output=True, check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1
    payload = json.loads(outputs.pop())
    assert payload["normal_forms"] == ["1"]
    assert payload["statements"] == 1168
