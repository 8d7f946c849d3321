"""Term core: type orders, subterms, matching, substitution, printing,
hash-consing."""

import copy
import gc
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

from consfree.engine import Engine
from consfree.syntax import encode_input, parse_atrs
from consfree import terms
from consfree.terms import (
    Arrow,
    Atrs,
    Matcher,
    PAIR,
    Product,
    Rule,
    Sort,
    FuncSym,
    Variable,
    apply_term,
    arg_types,
    fn_type,
    is_basic,
    is_data,
    is_pattern,
    pair,
    print_term,
    result_type,
    subterms,
    sym_term,
    variables,
)

from conftest import corpus_text
from oracles import apply_subst, classify, match

NAT = Sort("nat")
SYMB = Sort("symb")
O = FuncSym("o", NAT, "cons")
S = FuncSym("s", Arrow(NAT, NAT), "cons")
ZERO = FuncSym("0", SYMB, "cons")
ONE = FuncSym("1", SYMB, "cons")
F = FuncSym("f", fn_type([NAT, NAT], SYMB), "fun")
G = FuncSym("g", fn_type([Arrow(NAT, SYMB), NAT], SYMB), "fun")


def nat(k: int):
    t = sym_term(O)
    for _ in range(k):
        t = sym_term(S, t)
    return t


types = st.recursive(
    st.sampled_from([NAT, SYMB]),
    lambda inner: st.builds(Arrow, inner, inner) | st.builds(Product, inner, inner),
    max_leaves=12,
)


def order_oracle(ty):
    if isinstance(ty, Sort):
        return 0
    if isinstance(ty, Product):
        return max(order_oracle(ty.left), order_oracle(ty.right))
    return max(order_oracle(ty.arg) + 1, order_oracle(ty.res))


@given(types)
def test_order_arithmetic(ty):
    assert ty.order() == order_oracle(ty)


@given(types)
def test_arrow_decomposition_rebuilds_the_type(ty):
    assert fn_type(arg_types(ty), result_type(ty)) == ty


@st.composite
def data_terms(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return sym_term(O)
    return sym_term(S, draw(data_terms(depth - 1)))


@st.composite
def patterns(draw, depth=3):
    choice = draw(st.integers(0, 3 if depth else 1))
    if choice == 0:
        return sym_term(Variable(draw(st.sampled_from("xyz")), NAT))
    if choice == 1:
        return sym_term(O)
    if choice == 2:
        return sym_term(S, draw(patterns(depth - 1)))
    return sym_term(S, sym_term(Variable(draw(st.sampled_from("xyz")), NAT)))


@given(data_terms())
def test_subterm_closure(t):
    subs = subterms(t)
    for u in subs:
        assert subterms(u) <= subs
        assert is_data(u)


@given(patterns(), st.data())
def test_match_apply_inverse(p, data):
    assert is_pattern(p)
    subst = {v: data.draw(data_terms()) for v in variables(p)}
    t = apply_subst(p, subst)
    found = match(p, t)
    assert found is not None
    assert apply_subst(p, found) == t


@given(patterns(), patterns())
def test_match_result_always_reapplies(p, q):
    t = apply_subst(q, {v: nat(1) for v in variables(q)})
    found = match(p, t)
    if found is not None:
        assert apply_subst(p, found) == t


def test_nonlinear_match_requires_equal_arguments():
    x = Variable("x", NAT)
    p = sym_term(F, sym_term(x), sym_term(x))
    assert match(p, sym_term(F, nat(2), nat(2))) == {x: nat(2)}
    assert match(p, sym_term(F, nat(2), nat(3))) is None


# a head with a pair argument, rules of 1, 2 and 3 patterns, and terms with
# 2 or 3 arguments
PAIR_NAT = Product(NAT, NAT)
H = FuncSym("h", fn_type([PAIR_NAT, NAT, NAT], NAT), "fun")
K = FuncSym("k", fn_type([NAT, NAT], NAT), "fun")
NAT_VARS = [Variable(name, NAT) for name in "xyz"]
PAIR_VAR = Variable("p", PAIR_NAT)


def reference_match(patterns, args):
    """The substitution matching patterns against args, or None, by
    recursion over the patterns."""
    subst = {}

    def walk(p, t):
        if isinstance(p.head, Variable) and not p.args:
            return subst.setdefault(p.head, t) is t
        return p.head == t.head and all(walk(q, u) for q, u in zip(p.args, t.args))

    return subst if all(walk(p, t) for p, t in zip(patterns, args)) else None


@st.composite
def nat_patterns(draw, depth=3):
    choice = draw(st.integers(0, 2 if depth else 1))
    if choice == 0:
        return sym_term(draw(st.sampled_from(NAT_VARS)))
    if choice == 1:
        return sym_term(O)
    return sym_term(S, draw(nat_patterns(depth - 1)))


@st.composite
def rules(draw, name):
    arity = draw(st.integers(1, 3))
    first = draw(
        st.just(sym_term(PAIR_VAR)) | st.builds(pair, nat_patterns(), nat_patterns())
    )
    lhs = sym_term(H, first, *[draw(nat_patterns()) for _ in range(arity - 1)])
    bound = [sym_term(v) for v in NAT_VARS if v in variables(lhs)] + [nat(1)]
    # a right-hand side of the type left over, so that contracting a
    # shorter rule applies its contractum to the remaining arguments
    rhs = sym_term(K, *[draw(st.sampled_from(bound)) for _ in range(arity - 1)])
    if arity == 3 and draw(st.booleans()):
        rhs = draw(st.sampled_from(bound))
    return Rule(lhs, rhs, name)


@st.composite
def spines(draw):
    small = st.integers(0, 3).map(nat)
    args = [pair(draw(small), draw(small)), draw(small), draw(small)]
    return sym_term(H, *args[: draw(st.integers(2, 3))])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(*[rules(f"r{i}") for i in range(n)])),
    spines(),
)
def test_compiled_matching_agrees_with_a_recursive_matcher(drawn, t):
    atrs = Atrs(("nat",), {f.name: f for f in (O, S, H, K)}, list(drawn), pairing=True)
    expected = []
    for rule in atrs.rules:
        if rule.arity <= len(t.args):
            subst = reference_match(rule.lhs.args, t.args)
            if subst is not None:
                contractum = apply_term(apply_subst(rule.rhs, subst), *t.args[rule.arity:])
                expected.append((rule.name, subst, contractum))
    engine = Engine(atrs)
    found = []
    for match in engine.node_matches(t):
        compiled, env = match
        bound = {v: env[slot] for v, slot in compiled.match.slots.items()}
        found.append((compiled.name, bound, engine.contract(t, match)))
    assert found == expected
    # the matcher alone, comparing every head itself
    for rule in atrs.rules:
        if rule.arity <= len(t.args):
            matcher, env = Matcher(rule.lhs.args), list(t.args[: rule.arity])
            subst = reference_match(rule.lhs.args, t.args)
            if matcher(t.args, env):
                assert subst == {v: env[slot] for v, slot in matcher.slots.items()}
            else:
                assert subst is None


def test_classification():
    assert classify(nat(2)) == "data"
    assert is_basic(sym_term(F, nat(1), nat(0)))
    assert not is_basic(sym_term(F, nat(1)))  # not fully applied
    assert not is_basic(sym_term(G, sym_term(F, nat(0)), nat(0)))
    assert not is_data(sym_term(F, nat(1), nat(0)))


def test_partial_application_is_not_a_pattern():
    assert not is_pattern(sym_term(S))
    assert is_pattern(pair(nat(1), nat(0)))


def test_apply_term_extends_the_spine():
    partial = sym_term(F, nat(1))
    full = apply_term(partial, nat(0))
    assert full == sym_term(F, nat(1), nat(0))
    assert full.type == SYMB


def test_print_uses_list_sugar(majority):
    from conftest import term

    t = term("majority (1;0;[])", majority)
    assert print_term(t) == "majority (1 ; 0 ; [])"
    assert print_term(t.args[0]) == "1 ; 0 ; []"


def test_equal_terms_are_one_object(majority):
    a, b = nat(1), sym_term(F, nat(0), nat(2))
    assert sym_term(S, nat(2)) is nat(3)
    assert pair(a, b) is pair(a, b)
    assert encode_input("1011", majority) is encode_input("1011", majority)
    assert hash(a) == object.__hash__(a)
    assert copy.deepcopy(b) is b
    assert pickle.loads(pickle.dumps(b)) is b
    # a copied pair keeps the one pair marker, so it is the same term
    assert copy.deepcopy(pair(a, b)) is pair(a, b)
    assert pickle.loads(pickle.dumps(pair(a, b))) is pair(a, b)
    assert pair(a, b).type is Product(a.type, b.type)
    # types, symbols and variables are interned too: two parses of one
    # source share their sorts, symbols and variable heads
    first, second = (parse_atrs(corpus_text("majority.atrs")) for _ in range(2))
    for name, sym in first.symbols.items():
        assert second.symbols[name] is sym
    assert second.symbols["majority"].type is Arrow(Sort("list"), Sort("symb"))
    for rule, again in zip(first.rules, second.rules):
        assert {id(v) for v in variables(again.lhs)} == {id(v) for v in variables(rule.lhs)}
    assert Arrow(NAT, SYMB) is Arrow(Sort("nat"), Sort("symb"))
    for obj in [PAIR_NAT, Arrow(NAT, SYMB), F, NAT_VARS[0], PAIR]:
        assert copy.copy(obj) is obj
        assert copy.deepcopy(obj) is obj
        assert pickle.loads(pickle.dumps(obj)) is obj
        assert hash(obj) == object.__hash__(obj)
    for obj, name in [(NAT, "name"), (PAIR_NAT, "left"), (F, "type"), (NAT_VARS[0], "name")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))


def test_the_intern_table_holds_its_terms_weakly():
    fresh = FuncSym("fresh", Arrow(NAT, NAT), "cons")
    t = base = sym_term(O)
    gc.collect()
    before = len(terms._TABLE)
    for _ in range(10_000):
        t = sym_term(fresh, t)
    assert len(terms._TABLE) == before + 10_000
    del t
    gc.collect()
    assert len(terms._TABLE) == before
    assert sym_term(O) is base
    symbols = [FuncSym(f"fresh{k}", NAT, "cons") for k in range(10_000)]
    assert len(terms._TABLE) == before + 10_000
    del symbols
    gc.collect()
    assert len(terms._TABLE) == before


def test_long_list_without_recursion(majority):
    assert sys.getrecursionlimit() <= 1000
    t = encode_input("1" * 5000, majority)
    assert t.size == 10001
    assert is_data(t)
    text = print_term(t)
    assert len(text) == 20_002
    assert text == "1 ; " * 5000 + "[]"
