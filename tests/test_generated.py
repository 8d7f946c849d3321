"""Differential testing on generated systems: small, well-typed, left-linear,
cons-free constructor systems over `symb`, `list` and `bool`, with one to
three defined symbols of order 1 or 2 and overlapping rules. On each system
whose free search ends within its budget, the solver, the three search
strategies, the witnesses and the reference fixpoint must agree."""

from hypothesis import assume, given, settings, strategies as st

from consfree.engine import STRATEGIES, Budget, replay_trace, search_data_normal_forms
from consfree.solver import ReprSpaceTooLarge, solve
from consfree.syntax import parse_atrs
from consfree.terms import is_data
from consfree.validation import check

from conftest import term
from oracles import (
    ReferenceFixpoint, TooManyStatements, first_step_disagreements, level_distances,
)

SIGNATURE = (
    "sort symb list bool ;\ncons 0 : symb ;\ncons 1 : symb ;\ncons [] : list ;\n"
    "cons cons : symb => list => list ;\ncons true : bool ;\ncons false : bool ;\n"
)
BASE = ["symb", "list", "bool"]
CONSTANTS = {"symb": ["0", "1"], "list": ["[]", "(1 ; [])"], "bool": ["true", "false"]}
# the argument types of functional parameters: their spaces stay small
FUNCTIONS = [("symb", "bool"), ("symb", "symb"), ("list", "bool")]
BUDGET = Budget(40, 2000, 60)


@st.composite
def symbols(draw):
    """Each defined symbol's argument types, base names or (arg, res) pairs
    for a functional parameter, and result sort. The first symbol is first
    order and reads a list first, so that it can start the run."""
    count = draw(st.integers(1, 3))
    out = []
    for k in range(count):
        if k > 0 and draw(st.booleans()):
            args = [draw(st.sampled_from(FUNCTIONS)), draw(st.sampled_from(BASE))]
        else:
            args = [draw(st.sampled_from(BASE)) for _ in range(draw(st.integers(1, 2)))]
            if k == 0:
                args[0] = "list"
        out.append((f"f{k}", args, draw(st.sampled_from(BASE))))
    return out


def type_text(ty):
    return ty if isinstance(ty, str) else f"({ty[0]} => {ty[1]})"


@st.composite
def patterns(draw, args, fresh):
    """A left-hand side's argument patterns and the types of their
    variables; every variable is new, so the rule is left-linear."""
    texts, env = [], {}

    def var(ty):
        name = f"v{len(env)}{fresh}"
        env[name] = ty
        return name

    for ty in args:
        kind = draw(st.integers(0, 2)) if isinstance(ty, str) else 0
        if kind == 0:
            texts.append(var(ty))
        elif ty == "list" and kind == 2:
            head = draw(st.sampled_from(["0", "1", None]))
            texts.append(f"({head or var('symb')} ; {var('list')})")
        else:
            texts.append(draw(st.sampled_from(CONSTANTS[ty])))
    return texts, env


@st.composite
def rhs(draw, ty, env, sigs, depth):
    """A term of sort ty from the variables of env, constants and calls of
    the defined symbols of sigs; functional arguments are unapplied symbols
    or functional variables of their type."""
    options = [("var", name) for name, vty in env.items() if vty == ty]
    options += [("const", c) for c in CONSTANTS[ty]]
    if depth > 0:
        options += [("call", sig) for sig in sigs if sig[2] == ty]
        options += [
            ("apply", name) for name, vty in env.items() if vty in FUNCTIONS and vty[1] == ty
        ]
    kind, what = draw(st.sampled_from(options))
    if kind in ("var", "const"):
        return what
    if kind == "apply":
        return f"({what} {draw(rhs(env[what][0], env, sigs, depth - 1))})"
    name, args, _ = what
    parts = [name]
    for aty in args:
        if isinstance(aty, str):
            parts.append(draw(rhs(aty, env, sigs, depth - 1)))
            continue
        fns = [n for n, vty in env.items() if vty == aty]
        fns += [n for n, a, r in sigs if a == [aty[0]] and r == aty[1]]
        if not fns:
            return draw(st.sampled_from(CONSTANTS[ty]))
        parts.append(draw(st.sampled_from(fns)))
    return "(" + " ".join(parts) + ")"


@st.composite
def systems(draw):
    """A generated system's text, its rule lines apart, and a basic start
    term on an input of length 1 to 3."""
    sigs = draw(symbols())
    lines = [
        f"fun {name} : {' => '.join(type_text(a) for a in args)} => {res} ;\n"
        for name, args, res in sigs
    ]
    rules = []
    for k, (name, args, res) in enumerate(sigs):
        # the first symbol has an all-variable rule, which overlaps every
        # other rule of it, and at least one more
        count = draw(st.integers(2 if k == 0 else 1, 3))
        for j in range(count):
            if k == 0 and j == 0:
                env = {f"w{i}": a for i, a in enumerate(args)}
                lhs = list(env)
            else:
                lhs, env = draw(patterns(args, f"r{j}"))
            right = draw(rhs(res, env, sigs, 2))
            rules.append(f"rule {name} {' '.join(lhs)} -> {right} ;\n")
    bits = draw(st.lists(st.sampled_from("01"), min_size=1, max_size=3))
    start = ["f0", "(" + " ; ".join(bits) + " ; [])"]
    for aty in sigs[0][1][1:]:
        start.append(draw(st.sampled_from(CONSTANTS[aty])))
    return SIGNATURE + "".join(lines), rules, " ".join(start)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(systems(), st.randoms(use_true_random=False))
def test_generated_systems_agree_with_the_oracles(system, rng):
    head, rules, start = system
    atrs = parse_atrs(head + "".join(rules))
    assume(check(atrs).cons_free)
    s = term(start, atrs)
    found = {
        strategy: search_data_normal_forms(s, atrs, strategy, BUDGET) for strategy in STRATEGIES
    }
    free = found["free"]
    assume(not free.exhausted)
    for strategy in ("innermost", "outermost"):
        assert found[strategy].data_normal_forms <= free.data_normal_forms
    for strategy, result in found.items():
        if result.exhausted:
            continue
        distance = level_distances(atrs, s, strategy)
        for nf, steps in result.traces.items():
            assert is_data(nf)
            assert len(steps) == distance[nf]
            assert replay_trace(s, steps, atrs)[-1] is nf
    try:
        result = solve(atrs, s)
    except ReprSpaceTooLarge:
        assume(False)
    assert set(result.normal_forms) == free.data_normal_forms
    shuffled = list(rules)
    rng.shuffle(shuffled)
    again = parse_atrs(head + "".join(shuffled))
    assert solve(again, term(start, again)).normal_forms == result.normal_forms
    try:
        reference = ReferenceFixpoint(atrs, s)
    except TooManyStatements:
        return
    assert first_step_disagreements(reference, result.solver) == []
    assert set(result.normal_forms) == reference.answer
