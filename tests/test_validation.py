"""Syntactic classes, reachable-data sets, and B-safety."""

import hashlib
import random

import pytest

from consfree.compiler import compile_tm
from consfree.engine import Budget, search_data_normal_forms
from consfree.modules import gen_module, module_source, parse_module_expr
from consfree.syntax import parse_atrs, parse_tm
from consfree.terms import Atrs, Rule, Sort, Term, TermError, Variable, is_data, subterms
from consfree.validation import (
    NotBasic,
    check,
    compute_B,
    data_universe,
    prune_ho_constructors,
)

from conftest import ATRS_NAMES, corpus_text, load, long_pattern_system, term
from oracles import is_B_safe

EXPECTED = {
    "majority.atrs": dict(cons_free=True, order=1),
    "sat.atrs": dict(cons_free=True, order=1),
    "succ.atrs": dict(cons_free=False, order=1),
    "hocount.atrs": dict(cons_free=False, order=2),
    "consfree_fsucc.atrs": dict(cons_free=True, order=2),
    "nonlinear_tm.atrs": dict(cons_free=False, order=1),
    "contains1.atrs": dict(cons_free=True, order=1),
    "parity1s.atrs": dict(cons_free=True, order=1),
    "allzeros.atrs": dict(cons_free=True, order=1),
    "evenlen.atrs": dict(cons_free=True, order=1),
    "firstis1.atrs": dict(cons_free=True, order=1),
    "lastis1.atrs": dict(cons_free=True, order=1),
    "ho_apply.atrs": dict(cons_free=True, order=2),
    "module_lin.atrs": dict(cons_free=True, order=1),
    "module_prod_lin_lin.atrs": dict(cons_free=True, order=1),
    "module_e.atrs": dict(cons_free=True, order=1),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_corpus_verdicts(name):
    verdict = check(load(name))
    assert verdict.cons_free == EXPECTED[name]["cons_free"]
    assert verdict.order == EXPECTED[name]["order"]


@pytest.mark.parametrize("name", ATRS_NAMES)
def test_cons_free_implies_left_linear_constructor_system(name):
    verdict = check(load(name))
    if verdict.cons_free:
        assert verdict.left_linear and verdict.constructor_system
    if verdict.product_cons_free:
        assert verdict.cons_free


def test_succ_violations_name_the_fresh_data_rules(succ_system):
    verdict = check(succ_system)
    assert not verdict.cons_free
    assert {v.rule for v in verdict.violations if v.kind == "cons-free"} == {"r2", "r3"}


def test_nonlinear_tm_fails_left_linearity(nonlinear_tm):
    verdict = check(nonlinear_tm)
    assert not verdict.left_linear
    # r11 is the non-left-linear equality rule equal xl xl -> true
    assert "r11" in {v.rule for v in verdict.violations if v.kind == "left-linear"}


def test_hocount_violation_is_the_index_stepping_rule(hocount):
    verdict = check(hocount)
    assert {v.rule for v in verdict.violations if v.kind == "cons-free"} == {"r9"}


def test_long_list_patterns_are_checked_without_recursion():
    verdict = check(parse_atrs(long_pattern_system(3000)))
    assert verdict.cons_free and verdict.violations == []


def test_compute_B_majority(majority):
    s = term("majority (1 ; 0 ; [])", majority)
    B = compute_B(s, majority)
    from consfree.terms import print_term

    assert {print_term(t) for t in B.terms} == {"1", "0", "1 ; 0 ; []", "0 ; []", "[]"}


def test_compute_B_requires_basic(majority):
    with pytest.raises(NotBasic):
        compute_B(term("1 ; 0 ; []", majority), majority)
    with pytest.raises(NotBasic):
        compute_B(term("count [] []", majority), majority)


def test_B_is_subterm_closed(majority, sat):
    for atrs, text in [(majority, "majority (1 ; 0 ; [])"), (sat, "decide (1 ; 0 ; [])")]:
        B = compute_B(term(text, atrs), atrs)
        for t in B.terms:
            assert is_data(t)
            assert subterms(t) <= set(B.terms)


def test_B_monotone_in_the_start_term(majority):
    big = compute_B(term("majority (1 ; 0 ; [])", majority), majority)
    small = compute_B(term("majority (0 ; [])", majority), majority)
    rhs_only = compute_B(term("majority []", majority), majority)
    assert set(small.terms) <= set(big.terms) | set(rhs_only.terms)


def test_is_B_safe(majority):
    s = term("majority (1 ; 0 ; [])", majority)
    B = compute_B(s, majority)
    for t in B.terms:
        assert is_B_safe(t, B)
    assert not is_B_safe(term("cmp (1 ; 1 ; []) []", majority), B)
    assert is_B_safe(term("cmp (0 ; []) []", majority), B)


def test_reachable_terms_stay_B_safe(majority):
    s = term("majority (1 ; 0 ; [])", majority)
    B = compute_B(s, majority)
    result = search_data_normal_forms(s, majority, "free", Budget(6, 10000, 500))
    for t in result.traces:
        assert is_B_safe(t, B)
    assert all(is_B_safe(t, B) for t in result.data_normal_forms)


def test_prune_removes_higher_order_constructors():
    text = (
        "sort nat ;\ncons o : nat ;\ncons c : (nat => nat) => nat ;\n"
        "fun f : nat => nat ;\nfun g : nat => nat ;\n"
        "rule f (c F) -> F o ;\nrule g x -> o ;\n"
    )
    atrs = parse_atrs(text)
    pruned, removed = prune_ho_constructors(atrs)
    assert removed == ["c"]
    assert "c" not in pruned.symbols
    assert [r.name for r in pruned.rules] == ["r2"]


def test_prune_is_identity_on_first_order_corpus(majority, sat):
    for atrs in (majority, sat):
        pruned, removed = prune_ho_constructors(atrs)
        assert removed == []
        assert len(pruned.rules) == len(atrs.rules)


def test_data_universe_extends_B(majority):
    s = term("majority (1 ; 0 ; [])", majority)
    universe = data_universe([s.args[0]], majority)
    assert set(compute_B(s, majority).terms) <= set(universe.terms) | {s.args[0]}


# -- the layer's digest -------------------------------------------------------

MODULES = ["lin", "e", "prod(lin,lin)", "exp(lin)", "pipi(prod(lin,lin))", "expab(1,1)"]
KINDS = ["constructor-system", "left-linear", "cons-free", "product-cons-free"]
HO_CONSTRUCTOR_TEXT = (
    "sort nat ;\ncons o : nat ;\ncons c : (nat => nat) => nat ;\n"
    "fun f : nat => nat ;\nfun g : nat => nat ;\n"
    "rule f (c F) -> F o ;\nrule g x -> o ;\n"
)


def _digest_inputs():
    inputs = [(name, load(name)) for name in ATRS_NAMES]
    for text in MODULES:
        source = module_source(gen_module(parse_module_expr(text)))
        inputs.append((text, parse_atrs(source)))
    for machine in ["contains1.tm", "parity.tm"]:
        tm = parse_tm(corpus_text(machine))
        inputs.append((machine, compile_tm(tm, parse_module_expr("prod(lin,lin)")).atrs))
    inputs.append(("ho-constructor", parse_atrs(HO_CONSTRUCTOR_TEXT)))
    return inputs


def _positions(t, path=()):
    yield path, t
    for index, arg in enumerate(t.args):
        yield from _positions(arg, path + (index,))


def _replace(t, path, new):
    if not path:
        return new
    index = path[0]
    arg = _replace(t.args[index], path[1:], new)
    return Term(t.head, t.args[:index] + (arg,) + t.args[index + 1:], t.type)


def _by_text(terms):
    return sorted(terms, key=lambda t: (str(t), str(t.type)))


def _mutant(atrs, rng):
    """atrs with one rule changed: its right-hand side replaced by a subterm
    of another rule, a left-hand-side subterm replaced by a right-hand-side
    term, or a left-hand-side variable occurrence renamed; each replacement
    has the type of what it replaces. None when the draw finds no candidate."""
    index = rng.randrange(len(atrs.rules))
    rule = atrs.rules[index]
    op = rng.choice("rlv")
    if op == "r":
        pool = set()
        for other in atrs.rules:
            if other is not rule:
                pool |= subterms(other.lhs) | subterms(other.rhs)
        pool = _by_text(t for t in pool if t.type == rule.rhs.type and t != rule.rhs)
        if not pool:
            return None
        lhs, rhs = rule.lhs, rng.choice(pool)
    else:
        spots = [(path, t) for path, t in _positions(rule.lhs) if path]
        if op == "v":
            spots = [(path, t) for path, t in spots if isinstance(t.head, Variable)]
        if not spots:
            return None
        path, old = rng.choice(spots)
        if op == "l":
            pool = set()
            for other in atrs.rules:
                pool |= subterms(other.rhs)
            pool = _by_text(t for t in pool if t.type == old.type and t != old)
            if not pool:
                return None
            new = rng.choice(pool)
        else:
            names = sorted(
                {t.head.name for _, t in spots if t.head.type == old.head.type}
                - {old.head.name}
            )
            if not names:
                return None
            new = Term(Variable(rng.choice(names), old.head.type), old.args, old.type)
        lhs, rhs = _replace(rule.lhs, path, new), rule.rhs
    rules = list(atrs.rules)
    rules[index] = Rule(lhs, rhs, rule.name)
    return Atrs(atrs.sorts, atrs.symbols, rules, atrs.pairing, dict(atrs.var_decls))


def _layer_outcome(label, atrs):
    try:
        verdict = check(atrs)
        flags = (
            verdict.constructor_system,
            verdict.left_linear,
            verdict.cons_free,
            verdict.product_cons_free,
            verdict.order,
        )
        violations = [str(v) for v in verdict.violations]
        kinds = {v.kind for v in verdict.violations}
    except TermError as exc:
        flags, violations, kinds = f"{type(exc).__name__}: {exc}", [], set()
    pruned, removed = prune_ho_constructors(atrs)
    universe = data_universe([], atrs)
    by_sort = [
        (sort, [str(t) for t in universe.of_type(Sort(sort))]) for sort in atrs.sorts
    ]
    line = repr((label, flags, violations, removed, [r.name for r in pruned.rules], by_sort))
    return line, kinds


def test_layer_keeps_its_digest():
    # the validation layer's exactness gate: verdicts, violation order and
    # text, pruning and the universe by sort, over the corpus, generated
    # modules and machines, and seeded one-rule mutants of them
    inputs = _digest_inputs()
    rng = random.Random(18)
    systems = list(inputs)
    while len(systems) < len(inputs) + 1000:
        label, atrs = inputs[len(systems) % len(inputs)]
        mutant = _mutant(atrs, rng)
        if mutant is not None:
            systems.append((f"{label}~{len(systems)}", mutant))
    lines = []
    outcomes = {kind: 0 for kind in KINDS}
    for label, atrs in systems:
        line, kinds = _layer_outcome(label, atrs)
        lines.append(line)
        for kind in kinds:
            outcomes[kind] += 1
    # every kind of violation occurs in at least 20 outcomes
    assert outcomes == {
        "constructor-system": 149,
        "left-linear": 296,
        "cons-free": 165,
        "product-cons-free": 41,
    }
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest[:16]) == (1025, "6b02bc54d3b27b8f")
