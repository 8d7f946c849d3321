"""Saturation solver: exactness against the engine, fixpoint properties,
representation spaces, and the cardinality bound."""

import gc
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from consfree.compiler import compile_tm
from consfree.engine import STRATEGIES, Budget, search_data_normal_forms
from consfree.modules import module_selftest, parse_module_expr
from consfree.solver import (
    FnRepr,
    NonBSafeTerm,
    NotConsFree,
    ReprSpaceTooLarge,
    Solver,
    Stmt,
    UnboundVariable,
    _Blocked,
    build_space,
    within_cardinality_bound,
    repr_cardinality,
    solve,
)
from consfree.syntax import encode_input, parse_atrs, parse_term, parse_tm
from consfree.terms import (
    Arrow, PairHead, Product, Sort, pair, print_term, result_type, sym_term,
)
from consfree.tm import simulate_tm
from consfree.validation import BSet, NotBasic, compute_B, prune_ho_constructors

from conftest import CORPUS, NESTED_PRODUCTS, TESTS, corpus_text, load, term

SATURATING = [
    ("majority.atrs", "majority (1 ; 0 ; [])"),
    ("majority.atrs", "majority (0 ; 1 ; 1 ; [])"),
    ("contains1.atrs", "decide (0 ; 1 ; [])"),
    ("parity1s.atrs", "decide (1 ; 1 ; 1 ; [])"),
    ("allzeros.atrs", "decide (0 ; 0 ; [])"),
    ("evenlen.atrs", "decide (1 ; 0 ; 1 ; [])"),
    ("firstis1.atrs", "decide (0 ; 1 ; [])"),
    ("lastis1.atrs", "decide (1 ; 0 ; [])"),
    ("ho_apply.atrs", "decide []"),
    ("ho_apply.atrs", "decide (1 ; [])"),
    ("consfree_fsucc.atrs", "main (s (s o)) (s (s o))"),
]


@pytest.mark.parametrize("name,text", SATURATING)
def test_solve_matches_the_engine(name, text):
    atrs = load(name)
    s = term(text, atrs)
    oracle = search_data_normal_forms(s, atrs, "free", Budget(1000, 100000, 5000))
    assert not oracle.exhausted
    result = solve(atrs, s)
    assert set(result.normal_forms) == set(oracle.data_normal_forms)


DECIDERS = sorted({name for name, text in SATURATING if text.startswith("decide")})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(DECIDERS), st.text(alphabet="01", max_size=4))
def test_solve_matches_the_engine_on_drawn_inputs(name, x):
    atrs = load(name)
    s = term("decide (" + "".join(f"{c} ; " for c in x) + "[])", atrs)
    found = {strategy: search_data_normal_forms(s, atrs, strategy) for strategy in STRATEGIES}
    free = found["free"].data_normal_forms
    assert not found["free"].exhausted
    assert found["innermost"].data_normal_forms <= free
    assert found["outermost"].data_normal_forms <= free
    try:
        result = solve(atrs, s)
    except ReprSpaceTooLarge as err:
        # the second-order argument's space, list => bool, has 4 ** 2 ** (n + 1)
        # members over an input of length n: past the default budget from n = 3
        assert name == "ho_apply.atrs" and err.cardinality == 4 ** 2 ** (len(x) + 1)
    else:
        assert set(result.normal_forms) == set(free)


def test_solve_rejects_non_cons_free(succ_system):
    with pytest.raises(NotConsFree):
        solve(succ_system, term("succ (1 ; [])", succ_system))


def test_solve_rejects_non_basic(majority):
    with pytest.raises(NotBasic):
        solve(majority, term("1 ; []", majority))


def test_solve_respects_the_space_budget(majority):
    with pytest.raises(ReprSpaceTooLarge) as err:
        solve(majority, term("majority (1 ; 0 ; [])", majority), space_budget=4)
    assert err.value.cardinality > 4


def test_pruned_system_solves_like_the_unpruned_one():
    # a higher-order constructor and its only rule are removable without
    # changing any basic term's normal forms
    text = (
        "sort nat symb ;\ncons o : nat ;\ncons s : nat => nat ;\n"
        "cons 0 : symb ;\ncons 1 : symb ;\n"
        "cons c : (nat => symb) => nat ;\n"
        "fun f : nat => symb ;\nfun g : nat => symb ;\nfun h : nat => nat => symb ;\n"
        "rule f (c F) -> F o ;\n"
        "rule g o -> 0 ;\nrule g (s n) -> 1 ;\n"
        "rule h n m -> g n ;\nrule h n m -> g m ;\n"
    )
    atrs = parse_atrs(text)
    pruned, removed = prune_ho_constructors(atrs)
    assert removed == ["c"]
    basics = ["g o", "g (s o)", "h o (s o)", "h (s o) (s o)", "h o o"]
    for text in basics:
        s = term(text, atrs)
        assert solve(atrs, s).normal_forms == solve(pruned, s).normal_forms


def test_evaluate_rejects_unbound_variables_and_terms_outside_the_universe(majority):
    s = term("majority (1 ; 0 ; [])", majority)
    solver = Solver(majority, compute_B(s, majority))
    symb, listed = Sort("symb"), Sort("list")
    zero, one = term("0", majority), term("1", majority)
    x_nil = parse_term("x ; []", majority, {"x": symb})
    with pytest.raises(UnboundVariable):
        solver.evaluate([(parse_term("cmp xs ys", majority, {"xs": listed, "ys": listed}),
                          {"xs": frozenset({term("[]", majority)})})])
    # a constructor term over an unbound variable is unbound, not outside B
    with pytest.raises(UnboundVariable):
        solver.evaluate([(x_nil, {})])
    with pytest.raises(NonBSafeTerm):
        solver.evaluate([(term("1 ; 1 ; []", majority), {})])
    # 1 ; [] is not a data subterm of the start term or of a right-hand side
    with pytest.raises(NonBSafeTerm):
        solver.evaluate([(x_nil, {"x": frozenset({one})})])
    # both members lie in B, but a constructor term denotes one data term
    B = BSet(compute_B(s, majority).terms | {term("1 ; []", majority)})
    with pytest.raises(NonBSafeTerm):
        Solver(majority, B).evaluate([(x_nil, {"x": frozenset({zero, one})})])


def counts(result):
    return result.steps, result.demanded, len(result.solver.confirmed_at)


def count_evaluations(monkeypatch):
    """Count the returns of Solver.rule_union per (step, fname, args); an
    evaluation set aside by a blocked read raises and is not counted."""
    evaluations = Counter()
    original = Solver.rule_union

    def counted(self, j, group):
        result = original(self, j, group)
        evaluations[(j, group.fname, group.args)] += 1
        return result

    monkeypatch.setattr(Solver, "rule_union", counted)
    return evaluations


def test_statement_count_and_spaces_on_majority(majority, monkeypatch):
    evaluations = count_evaluations(monkeypatch)
    result = solve(majority, term("majority (1 ; 0 ; [])", majority))
    assert result.statements == 1168
    assert counts(result) == (7, 12, 6)
    # each statement group is evaluated at most once per step
    assert len(evaluations) == 11
    assert max(evaluations.values()) == 1
    solver = result.solver
    assert solver.space(Sort("symb")).card == 4
    assert solver.space(Sort("list")).card == 8


def test_confirmed_monotone_and_terminating(majority):
    result = solve(majority, term("majority (1 ; 0 ; [])", majority))
    solver = result.solver
    assert result.steps <= result.statements + 1
    for stmt, confirmed_at in solver.confirmed_at.items():
        for i in range(0, result.steps + 2):
            assert solver.conf(i, stmt) == (0 < confirmed_at <= i)


def test_fixpoint_counts_are_exact_on_a_compiled_machine(monkeypatch):
    tm = parse_tm(corpus_text("parity.tm"))
    atrs = compile_tm(tm, parse_module_expr("e")).atrs
    evaluations = count_evaluations(monkeypatch)
    result = solve(atrs, sym_term(atrs.symbols["decide"], encode_input("01", atrs)))
    assert simulate_tm(tm, "01").accepted
    assert [print_term(t) for t in result.normal_forms] == ["true"]
    assert counts(result) == (53, 6474, 1244)
    assert len(evaluations) == 3904
    assert max(evaluations.values()) == 1


def test_evaluation_counts_are_exact_where_rules_rebuild_matched_terms(monkeypatch):
    # expab's right-hand sides rebuild matched list and pair terms, such as
    # `c ; zs` from the pattern `(c ; zs)`
    evaluations = count_evaluations(monkeypatch)
    report = module_selftest("expab(1,1)", 2)
    assert report.decrements == 7
    assert len(evaluations) == 1122
    assert max(evaluations.values()) == 1


def flat_member(member):
    """The printed components of a data member, pairs flattened left to
    right, whether the member is stored as a pair term or as a tuple."""
    parts, stack = [], [member]
    while stack:
        m = stack.pop()
        if isinstance(m, tuple) or isinstance(m.head, PairHead):
            stack.extend(reversed(m if isinstance(m, tuple) else m.args))
        else:
            parts.append(print_term(m))
    return tuple(parts)


def canonical(value):
    if isinstance(value, frozenset):
        return sorted(flat_member(m) for m in value)
    return [canonical(entry) for entry in value.table]


def solving_text(text, start):
    def run():
        atrs = parse_atrs(text)
        solve(atrs, term(start, atrs))

    return run


def solving(name, start):
    return solving_text(corpus_text(name), start)


def deciding(machine, module, x):
    def run():
        atrs = compile_tm(parse_tm(corpus_text(machine)), parse_module_expr(module)).atrs
        solve(atrs, sym_term(atrs.symbols["decide"], encode_input(x, atrs)))

    return run


def selftesting(expr, n):
    return lambda: module_selftest(expr, n)


# the exactness gate's cases and their pins: confirmations, evaluations and
# the digest of both, as the tree-walking solver computed them (the first
# ten) and the first closure-compiled solver (the rest)
DIGEST_CASES = {
    "majority": (solving("majority.atrs", "majority (1 ; 0 ; [])"), (6, 11, "3f26a54cb1f743bc")),
    "parity-e-01": (deciding("parity.tm", "e", "01"), (1244, 3904, "0df41bef7439ed88")),
    "parity-e-11": (deciding("parity.tm", "e", "11"), (1236, 3894, "5539db6b23d057c4")),
    "contains1-prod-10": (
        deciding("contains1.tm", "prod(lin,lin)", "10"),
        (1129, 6373, "8ebf7f3137fc7ad2"),
    ),
    "contains1-prod-11": (
        deciding("contains1.tm", "prod(lin,lin)", "11"),
        (1121, 6362, "480f103e673e20e4"),
    ),
    "expab-2": (selftesting("expab(1,1)", 2), (440, 1122, "e471ce2a599611eb")),
    "lin-4": (selftesting("lin", 4), (62, 175, "c6ca200fe94dcb98")),
    "explin-1": (selftesting("exp(lin)", 1), (269, 1064, "25e89bd8053e5985")),
    "ho_apply": (solving("ho_apply.atrs", "decide (1 ; [])"), (6, 8, "9a339e8850eb2101")),
    "fsucc": (
        solving("consfree_fsucc.atrs", "main (s (s o)) (s (s o))"),
        (58, 143, "1dc447363ff6c3c7"),
    ),
    "majority-0111": (
        solving("majority.atrs", "majority (0 ; 1 ; 1 ; [])"),
        (7, 13, "f3e4b212adf0a2c6"),
    ),
    "contains1": (solving("contains1.atrs", "decide (0 ; 1 ; [])"), (2, 3, "c02a914a18631320")),
    "parity1s": (solving("parity1s.atrs", "decide (1 ; 1 ; 1 ; [])"), (5, 9, "7c945d27a3ad6d95")),
    "allzeros": (solving("allzeros.atrs", "decide (0 ; 0 ; [])"), (3, 5, "6eadd4885feaff4d")),
    "evenlen": (solving("evenlen.atrs", "decide (1 ; 0 ; 1 ; [])"), (4, 7, "92f0059fcdc34ffe")),
    "firstis1": (solving("firstis1.atrs", "decide (0 ; 1 ; [])"), (1, 1, "51982eff506365c9")),
    "lastis1": (solving("lastis1.atrs", "decide (1 ; 0 ; [])"), (3, 5, "a039008809f1afd2")),
    "ho_apply-nil": (solving("ho_apply.atrs", "decide []"), (3, 6, "e8535981df00c1cc")),
    "nested-products": (solving_text(NESTED_PRODUCTS, "start (1 ; [])"), (5, 5, "955155dd3fe2531a")),
}


def exactness_digest(run):
    """Run one solver, and digest which statement it confirms at which step
    and which group it evaluates at which step, down to every member;
    returns the two counts and the digest's first 16 hex digits."""
    solvers = []
    evaluations = Counter()
    original_init, original_union = Solver.__init__, Solver.rule_union

    def recorded(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        solvers.append(self)

    def counted(self, j, group):
        result = original_union(self, j, group)
        evaluations[(j, group.fname, group.args)] += 1
        return result

    Solver.__init__, Solver.rule_union = recorded, counted
    try:
        run()
    finally:
        Solver.__init__, Solver.rule_union = original_init, original_union
    (solver,) = solvers
    assert max(evaluations.values()) == 1
    confirmed = sorted(
        repr((stmt.fname, [canonical(a) for a in stmt.args], flat_member(stmt.target), at))
        for stmt, at in solver.confirmed_at.items()
    )
    evaluated = sorted(
        repr((j, fname, [canonical(a) for a in solver.decode_args(fname, args)]))
        for j, fname, args in evaluations
    )
    digest = hashlib.sha256("\n".join(confirmed + evaluated).encode()).hexdigest()
    return len(confirmed), len(evaluated), digest[:16]


@pytest.mark.parametrize("case", list(DIGEST_CASES))
def test_confirmations_and_evaluations_keep_their_digest(case):
    # the exactness gate: which statement is confirmed at which step, and
    # which group is evaluated at which step, down to every member
    run, pinned = DIGEST_CASES[case]
    assert exactness_digest(run) == pinned


def test_the_digest_does_not_depend_on_the_hash_seed():
    # every digest case, in one child per seed
    script = (
        "import test_solver\n"
        "for case, (run, pinned) in test_solver.DIGEST_CASES.items():\n"
        "    print(case, test_solver.exactness_digest(run) == pinned)\n"
    )
    expected = [word for case in DIGEST_CASES for word in (case, "True")]
    for seed in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(CORPUS.parents[1]), str(TESTS), os.environ.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert done.stdout.split() == expected, (seed, done.stdout, done.stderr)


def test_a_scheduling_fault_raises_instead_of_spinning():
    # a _schedule that does not lower the low-water mark leaves a newly
    # demanded group unevaluated, so a blocked evaluation or query would be
    # retried forever; the solver's bounds raise instead
    script = (
        "import test_solver\n"
        "from consfree.solver import Solver\n"
        "def schedule(self, group, step):\n"
        "    group.wake = step\n"
        "    self._due[step].append(group)\n"
        "Solver._schedule = schedule\n"
        "for case in ('parity-e-01', 'expab-2'):\n"
        "    try:\n"
        "        test_solver.DIGEST_CASES[case][0]()\n"
        "    except AssertionError as exc:\n"
        "        print(f'{case}: {exc}')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(CORPUS.parents[1]), str(TESTS), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=30, check=True,
    )
    assert done.stdout.splitlines() == [
        "parity-e-01: evaluations exceeded the per-step bound",
        "expab-2: a query read a group that is not due",
    ], done.stderr


def count_blocked(monkeypatch):
    """Count the Solver.rule_union calls that end in _Blocked: evaluations
    abandoned to be retried."""
    blocked = Counter()
    original = Solver.rule_union

    def counted(self, j, group):
        try:
            return original(self, j, group)
        except _Blocked:
            blocked[(j, group.fname, group.args)] += 1
            raise

    monkeypatch.setattr(Solver, "rule_union", counted)
    return blocked


# the evaluations abandoned on these cases, each by a nested call site's
# read of a new group; the tree-walking solver abandoned as many
ABANDONED = {"parity-e-01": 805, "expab-2": 285, "contains1-prod-11": 1164}


@pytest.mark.parametrize("case", list(ABANDONED))
def test_abandoned_evaluations_keep_their_count(case, monkeypatch):
    blocked = count_blocked(monkeypatch)
    DIGEST_CASES[case][0]()
    assert sum(blocked.values()) == ABANDONED[case]


def last_solver(run, monkeypatch):
    """Run a digest case and return the one solver it built."""
    solvers = []
    original = Solver.__init__

    def recorded(self, *args, **kwargs):
        original(self, *args, **kwargs)
        solvers.append(self)

    monkeypatch.setattr(Solver, "__init__", recorded)
    run()
    (solver,) = solvers
    return solver


@pytest.mark.parametrize("case", ["parity-e-01", "expab-2"])
def test_group_values_at_every_step_match_confirmed_at(case, monkeypatch):
    solver = last_solver(DIGEST_CASES[case][0], monkeypatch)
    first = {}
    for stmt, at in solver.confirmed_at.items():
        first.setdefault((stmt.fname, stmt.args), []).append((stmt.target, at))
    for group in solver.groups.values():
        key = (group.fname, solver.decode_args(group.fname, group.args))
        ty = result_type(solver.symbols[group.fname].type)
        steps = [step for step, _ in group.history]
        assert steps == sorted(set(steps))
        for i in range(solver.step + 1):
            expected = {target for target, at in first.get(key, ()) if at <= i}
            assert solver.decode(ty, group.at(i)) == expected, (key, i)


@pytest.mark.parametrize("case", ["parity-e-01", "expab-2"])
def test_the_worklist_drains(case, monkeypatch):
    # after solve, and after a self-test's last evaluate, no evaluation is
    # due: a low-water mark that skipped a due step would leave its bucket
    solver = last_solver(DIGEST_CASES[case][0], monkeypatch)
    assert [group for group in solver.groups.values() if group.wake is not None] == []
    assert [bucket for bucket in solver._due if bucket] == []


def test_solve_leaves_the_recursion_limit_alone():
    # a fresh interpreter, so no earlier test has moved the limit
    script = (
        "import sys\n"
        "from consfree.syntax import parse_atrs, parse_term\n"
        "from consfree.solver import solve\n"
        "atrs = parse_atrs(open(sys.argv[1]).read())\n"
        "before = sys.getrecursionlimit()\n"
        "solve(atrs, parse_term('majority (1 ; 0 ; [])', atrs, {}))\n"
        "print(before, sys.getrecursionlimit())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(CORPUS.parents[1]), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(CORPUS / "majority.atrs")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    before, after = done.stdout.split()
    assert before == after


def test_early_confirmation_of_the_compare_statement(majority):
    s = term("majority (1 ; 0 ; [])", majority)
    solver = Solver(majority, compute_B(s, majority))
    a1 = frozenset({term("0 ; []", majority)})
    a2 = frozenset({term("0 ; []", majority), term("[]", majority)})
    hit = Stmt("cmp", (a1, a2), term("0", majority))
    miss = Stmt("cmp", (a1, a2), term("1", majority))
    assert solver.conf(1, hit)
    assert not solver.conf(1, miss)
    assert not solver.conf(0, hit)


def test_solve_product_on_a_projection():
    atrs = parse_atrs(
        "pairing ;\nsort symb list ;\ncons 0 : symb ;\ncons 1 : symb ;\n"
        "cons [] : list ;\ncons cons : symb => list => list ;\n"
        "fun f : symb * symb => symb ;\nfun start : list => symb ;\n"
        "rule f (x , y) -> x ;\nrule start cs -> f (0 , 1) ;\n"
    )
    s = term("start (1 ; [])", atrs)
    oracle = search_data_normal_forms(s, atrs)
    assert not oracle.exhausted
    result = solve(atrs, s)
    assert {print_term(t) for t in result.normal_forms} == {"0"}
    assert set(result.normal_forms) == set(oracle.data_normal_forms)


def test_product_universes_are_pair_terms_in_lexicographic_order():
    atrs = parse_atrs(NESTED_PRODUCTS)
    symb = Sort("symb")
    syms = [term("0", atrs), term("1", atrs)]
    B = BSet(frozenset(syms))
    right_nested = build_space(Product(symb, Product(symb, symb)), B, 2 ** 20, {})
    expected = [pair(a, pair(b, c)) for a in syms for b in syms for c in syms]
    assert len(right_nested.universe) == 8
    assert all(u is e for u, e in zip(right_nested.universe, expected))
    left_nested = build_space(Product(Product(symb, symb), symb), B, 2 ** 20, {})
    expected = [pair(pair(a, b), c) for a in syms for b in syms for c in syms]
    assert len(left_nested.universe) == 8
    assert all(u is e for u, e in zip(left_nested.universe, expected))


def test_solve_on_nested_products_and_pair_term_targets():
    atrs = parse_atrs(NESTED_PRODUCTS)
    s = term("start (1 ; [])", atrs)
    oracle = search_data_normal_forms(s, atrs)
    assert not oracle.exhausted
    result = solve(atrs, s)
    assert {print_term(t) for t in result.normal_forms} == {"0", "1"}
    assert set(result.normal_forms) == set(oracle.data_normal_forms)
    one, zero = term("1", atrs), term("0", atrs)
    targets = [
        stmt.target for stmt in result.solver.confirmed_at if stmt.fname == "g"
    ]
    assert len(targets) == 1
    assert targets[0] is pair(one, pair(zero, one))


def test_repr_enumeration_is_canonical():
    majority = load("majority.atrs")
    s = term("majority (1 ; 0 ; [])", majority)
    B = compute_B(s, majority)

    def elements(ty):
        space = build_space(ty, B, 2 ** 20, {})
        return [space.decode(i) for i in range(space.card)]

    lists = elements(Sort("list"))
    assert len(lists) == len(set(lists)) == 8
    fns = elements(Arrow(Sort("symb"), Sort("symb")))
    assert len(fns) == len(set(fns)) == 4 ** 4


@pytest.mark.parametrize("case", ["majority", "expab-2", "explin-1"])
def test_every_built_space_round_trips_through_encode_and_decode(case, monkeypatch):
    # the solver's int codes are its spaces' enumeration orders: each index
    # decodes to an element that encodes back to it, through the space and
    # through the solver's boundary, which codes sets without a space
    solver = last_solver(DIGEST_CASES[case][0], monkeypatch)
    assert solver.spaces
    for ty, space in solver.spaces.items():
        for index in range(space.card):
            value = space.decode(index)
            assert space.encode(value) == index
            assert solver.decode(ty, index) == value
            assert solver.encode(ty, value) == index


def test_a_function_index_decodes_to_its_table_in_enumeration_order(monkeypatch):
    solver = last_solver(DIGEST_CASES["explin-1"][0], monkeypatch)
    lists, bools = (solver.B.of_type(Sort(name)) for name in ("list", "bool"))
    space = solver.spaces[Arrow(Sort("list"), Sort("bool"))]
    assert (len(lists), len(bools), space.card) == (2, 2, 4 ** 4)
    # domain element x is the subset with mask x; digit x, in base 4, is the
    # mask of the value there: 99 has the digits 3, 0, 2, 1
    subsets = [frozenset(), frozenset(lists[:1]), frozenset(lists[1:]), frozenset(lists)]
    assert [space.dom.decode(x) for x in range(4)] == subsets
    table = (frozenset(bools), frozenset(), frozenset(bools[1:]), frozenset(bools[:1]))
    assert space.decode(99).table == table
    assert space.encode(FnRepr(space, table)) == 99


def test_the_solver_retains_a_bounded_heap():
    # the solver and its result, kept alive, after a compiled machine's
    # solve: int-coded values and tuple reads keep 2.95 MB, so the bound
    # leaves 18% margin, and frozenset values with set reads kept 4.4-4.6 MB
    atrs = compile_tm(parse_tm(corpus_text("contains1.tm")), parse_module_expr("prod(lin,lin)")).atrs
    root = sym_term(atrs.symbols["decide"], encode_input("11", atrs))
    gc.collect()
    tracemalloc.start()
    try:
        result = solve(atrs, root)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [print_term(t) for t in result.normal_forms] == ["true"]
    assert retained < 3.5e6, retained


def card_oracle(ty, n):
    """Closed-form space size: 2^n at sorts, pointwise exponentation at
    arrows, subsets of component tuples at products."""
    if isinstance(ty, Sort):
        return 2 ** n
    if isinstance(ty, Product):
        width = 1
        stack = [ty]
        comps = []
        while stack:
            t = stack.pop()
            if isinstance(t, Product):
                stack.extend([t.left, t.right])
            else:
                comps.append(t)
        for comp in comps:
            assert isinstance(comp, Sort)
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
    left = random_type(rng, depth - 1, allow_products=False)
    right = random_type(rng, depth - 1, allow_products)
    return Arrow(left, right)


def representable(ty, n, max_bits=200000):
    """Whether the exact count fits in max_bits bits (counts at order 3 can
    be towers too large to materialize)."""
    if isinstance(ty, Sort):
        return n < max_bits
    if isinstance(ty, Product):
        return n ** 3 < max_bits
    if not (representable(ty.arg, n, 40) and representable(ty.res, n, max_bits)):
        return False
    return card_oracle(ty.arg, n) * card_oracle(ty.res, n).bit_length() < max_bits


def test_cardinality_matches_oracle_and_respects_the_bound():
    rng = random.Random(20240817)
    checked = 0
    orders = set()
    while checked < 50:
        n = rng.randint(1, 4)
        ty = random_type(rng, rng.randint(1, 3))
        if ty.order() > 3 or not representable(ty, n):
            continue
        exact = repr_cardinality(ty, {"nat": n})
        assert exact == card_oracle(ty, n)
        assert within_cardinality_bound(exact, ty, n)
        orders.add(ty.order())
        checked += 1
    assert orders >= {0, 1, 2}


def test_small_spaces_agree_with_the_arithmetic_cardinality():
    nat = Sort("nat")
    terms = [term(t, load("hocount.atrs")) for t in ["o", "s o", "s (s o)"]]
    B = BSet(frozenset(terms))
    for ty in [nat, Arrow(nat, nat), Arrow(nat, Arrow(nat, nat))]:
        space = build_space(ty, B, 2 ** 256, {})
        assert space.card == repr_cardinality(ty, {"nat": 3})
