"""Rewrite engine: reducts, strategies, bounded search, traces."""

import hashlib
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from consfree.engine import (
    STRATEGIES,
    Budget,
    BudgetTooSmallForRoot,
    Engine,
    MissingDecideSymbol,
    NonReplayableTrace,
    decide,
    replay_trace,
    search_data_normal_forms,
    validate_semi_outermost,
)
from consfree.syntax import parse_atrs
from consfree.terms import is_data, print_term

from conftest import CORPUS, NESTED_PRODUCTS, TESTS, corpus_text, load, term

EITHER = parse_atrs(
    "sort nat ;\ncons o : nat ;\ncons s : nat => nat ;\n"
    "fun either : nat => nat => nat ;\n"
    "rule either x y -> x ;\nrule either x y -> y ;\n"
)


def reducts(engine, t, strategy="free"):
    return {u for u, _, _ in engine.step_options(t, strategy)}


def test_one_step_reducts_of_succ(succ_system):
    t = term("succ (1 ; 0 ; 1 ; [])", succ_system)
    found = reducts(Engine(succ_system), t)
    assert {print_term(u) for u in found} == {"0 ; succ (0 ; 1 ; [])"}


def test_one_step_reducts_of_either():
    t = term("either o (s o)", EITHER)
    assert {print_term(u) for u in reducts(Engine(EITHER), t)} == {"o", "s o"}


def test_data_terms_have_no_reducts(majority):
    assert reducts(Engine(majority), term("1 ; 0 ; []", majority)) == set()


def walk_terms(atrs, start, depth):
    engine = Engine(atrs)
    seen, frontier = {start}, [start]
    for _ in range(depth):
        frontier = [
            u
            for t in frontier
            for u, _, _ in engine.step_options(t, "free")
            if u not in seen and not seen.add(u)
        ]
    return seen


@given(st.sampled_from(["majority (1 ; 0 ; [])", "majority (0 ; 1 ; 1 ; [])", "cmp (0 ; []) (1 ; [])"]))
def test_strategy_reduct_sets_are_subsets_of_free(text):
    majority = load("majority.atrs")
    engine = Engine(majority)
    for t in walk_terms(majority, term(text, majority), 4):
        free = reducts(engine, t, "free")
        assert reducts(engine, t, "innermost") <= free
        assert reducts(engine, t, "outermost") <= free


def test_innermost_rewrites_arguments_first():
    t = term("either (either o (s o)) o", EITHER)
    inner = reducts(Engine(EITHER), t, "innermost")
    assert {print_term(u) for u in inner} == {"either o o", "either (s o) o"}


def test_outermost_rewrites_the_head_first():
    t = term("either (either o (s o)) o", EITHER)
    outer = reducts(Engine(EITHER), t, "outermost")
    assert {print_term(u) for u in outer} == {"either o (s o)", "o"}


# name -> (source, start term, pinned line count and digest prefix)
DIGEST_CASES = {
    "majority": (
        corpus_text("majority.atrs"), "majority (1;0;1;0;1;[])", (183, "206f38a36be73643")
    ),
    "sat": (corpus_text("sat.atrs"), "decide (1;?;#;?;0;#;[])", (183, "88185d2914566e02")),
    # repeated variables: equal xl xl, and t t in shift1
    "nonlinear_tm": (
        corpus_text("nonlinear_tm.atrs"),
        "shift1 st_accept nil 0 (cc 0 (cc rnd nil)) R rnd (cc rnd nil) (cc rnd nil)",
        (183, "e2091f8274ca7f36"),
    ),
    # variable-headed right-hand sides, partial application, and a
    # contractum applied to further spine arguments
    "ho_apply": (corpus_text("ho_apply.atrs"), "decide (0;1;[])", (183, "bdc34277dc740253")),
    "hocount": (
        corpus_text("hocount.atrs"), "fsucc (set nul (s o) 1) o (s o)", (183, "4f0c32cfb82430d3")
    ),
    # nested pair patterns
    "nested_products": (NESTED_PRODUCTS, "start (1 ; [])", (183, "abdcee8c99d6737c")),
}


def engine_digest(source, text):
    """The exactness gate: ordered one-step options and normality along
    seeded walks (a normal form restarts the walk), then each strategy's
    search with its traces, which must replay; the line count and a digest
    prefix."""
    atrs = parse_atrs(source)
    start = term(text, atrs)
    lines = []
    for strategy in STRATEGIES:
        engine = Engine(atrs)
        rng = random.Random(7)
        current = start
        for _ in range(60):
            options = engine.step_options(current, strategy)
            lines.append(repr((
                strategy,
                print_term(current),
                not engine.step_options(current, "free"),
                [(print_term(u), rule, path) for u, rule, path in options],
            )))
            current = rng.choice(options)[0] if options else start
        result = search_data_normal_forms(start, atrs, strategy)
        for nf, steps in result.traces.items():
            assert replay_trace(start, steps, atrs)[-1] == nf
        lines.append(repr((
            strategy,
            sorted(print_term(nf) for nf in result.data_normal_forms),
            result.exhausted,
            result.visited,
            sorted((print_term(nf), steps) for nf, steps in result.traces.items()),
        )))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return len(lines), digest[:16]


@pytest.mark.parametrize("case", DIGEST_CASES)
def test_options_and_searches_keep_their_digest(case):
    source, text, pinned = DIGEST_CASES[case]
    assert engine_digest(source, text) == pinned


def test_the_engine_digest_does_not_depend_on_the_hash_seed():
    # symbols and types hash by identity, so set order follows memory
    # addresses; every digest case, in one child per seed
    script = (
        "import test_engine\n"
        "for case, (source, text, pinned) in test_engine.DIGEST_CASES.items():\n"
        "    print(case, test_engine.engine_digest(source, text) == pinned)\n"
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


def test_unknown_strategy_is_rejected(majority):
    with pytest.raises(ValueError):
        search_data_normal_forms(term("majority []", majority), majority, "weird")


def test_search_majority(majority):
    result = search_data_normal_forms(term("majority (1 ; 0 ; [])", majority), majority)
    assert {print_term(t) for t in result.data_normal_forms} == {"1"}
    assert not result.exhausted
    engine = Engine(majority)
    for t in result.data_normal_forms:
        assert is_data(t) and not engine.step_options(t, "free")


def test_search_fsucc_example(hocount):
    # the successor of the function representing 5 represents 6: bits 011
    five = "set (set nul o 1) (s (s o)) 1"
    expected = {"o": "0", "s o": "1", "s (s o)": "1"}
    for index, bit in expected.items():
        t = term(f"fsucc ({five}) o ({index})", hocount)
        result = search_data_normal_forms(
            t, hocount, "innermost", Budget(200, 50000, 400)
        )
        assert not result.exhausted
        assert {print_term(u) for u in result.data_normal_forms} == {bit}


def test_budgets_cause_exhaustion_not_wrong_answers(sat):
    t = term("decide (1 ; # ; [])", sat)
    tight = search_data_normal_forms(t, sat, "free", Budget(3, 50, 200))
    wide = search_data_normal_forms(t, sat, "free", Budget(200, 100000, 300))
    assert tight.exhausted
    assert tight.data_normal_forms <= wide.data_normal_forms


def test_root_larger_than_budget_is_an_error(majority):
    with pytest.raises(BudgetTooSmallForRoot):
        search_data_normal_forms(
            term("majority (1 ; 0 ; [])", majority), majority, "free", Budget(1, 1, 2)
        )


def test_traces_replay(majority):
    s = term("majority (1 ; 0 ; [])", majority)
    result = search_data_normal_forms(s, majority)
    for nf, steps in result.traces.items():
        sequence = replay_trace(s, steps, majority)
        assert sequence[0] == s and sequence[-1] == nf


def test_bad_trace_is_rejected(majority):
    s = term("majority (1 ; 0 ; [])", majority)
    with pytest.raises(NonReplayableTrace):
        replay_trace(s, [("r5", ())], majority)
    with pytest.raises(NonReplayableTrace):
        replay_trace(s, [("nope", ())], majority)
    with pytest.raises(NonReplayableTrace):
        # no rule rewrites the constructor term at 0
        validate_semi_outermost(s, [("r1", (0,))], majority)


def test_semi_outermost_accepts_the_two_step_successor_trace(succ_system):
    s = term("succ (1 ; 0 ; 1 ; [])", succ_system)
    # head step, then a step under the 0-cons constructor
    steps = [("r3", ()), ("r2", (1,))]
    assert replay_trace(s, steps, succ_system)[-1] == term(
        "0 ; 1 ; 1 ; []", succ_system
    )
    assert validate_semi_outermost(s, steps, succ_system)


def test_semi_outermost_rejects_argument_only_evaluation():
    system = parse_atrs(
        "sort nat ;\ncons o : nat ;\ncons s : nat => nat ;\n"
        "fun f : nat => nat ;\nfun g : nat => nat ;\n"
        "rule f x -> o ;\nrule g x -> s x ;\n"
    )
    s = term("f (g o)", system)
    # the argument is rewritten below a plain variable position, then the head
    assert not validate_semi_outermost(s, [("r2", (0,)), ("r1", ())], system)
    assert validate_semi_outermost(s, [("r1", ())], system)


def test_semi_outermost_rejects_a_step_past_the_head_rule_arity():
    system = parse_atrs(
        "sort nat ;\ncons o : nat ;\ncons s : nat => nat ;\n"
        "fun f : nat => nat => nat ;\nfun id : nat => nat ;\nfun g : nat => nat ;\n"
        "rule f x -> id ;\nrule id y -> y ;\nrule g x -> s x ;\n"
    )
    s = term("f o (g o)", system)
    # argument 1 lies past the one pattern of the head rule r1
    steps = [("r3", (1,)), ("r1", ())]
    assert print_term(replay_trace(s, steps, system)[-1]) == "id (s o)"
    assert not validate_semi_outermost(s, steps, system)
    assert validate_semi_outermost(s, [("r1", ()), ("r2", ()), ("r3", ())], system)


def test_semi_outermost_rejects_a_trace_without_its_head_step():
    system = parse_atrs(
        "sort nat ;\ncons o : nat ;\ncons s : nat => nat ;\n"
        "fun f : nat => nat ;\nfun g : nat => nat ;\n"
        "rule f (s x) -> o ;\nrule g x -> s x ;\n"
    )
    s = term("f (g o)", system)
    # below a constructor pattern, but the defined head is never rewritten
    assert not validate_semi_outermost(s, [("r2", (0,))], system)
    assert validate_semi_outermost(s, [("r2", (0,)), ("r1", ())], system)


def test_semi_outermost_validates_a_601_step_trace(succ_system):
    # succ over 600 ones: one head step per digit, each a level deeper
    s = term("succ (" + "1 ; " * 600 + "[])", succ_system)
    steps = [("r3", (1,) * k) for k in range(600)] + [("r1", (1,) * 600)]
    assert validate_semi_outermost(s, steps, succ_system)


def test_decide_is_three_valued():
    system = load("contains1.atrs")
    assert decide(system, "01").answer == "true"
    assert decide(system, "00").answer == "false"
    # true not found before the budget ran out
    cut = decide(system, "01", Budget(1, 100000, 5000))
    assert cut.search.exhausted and cut.answer == "unknown"


def test_decide_requires_the_interface(succ_system):
    with pytest.raises(MissingDecideSymbol):
        decide(succ_system, "1")
