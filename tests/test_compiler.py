"""Turing machine compilation: generated systems validate and decide like the
simulator on short inputs."""

import pytest

from consfree.compiler import compile_tm
from consfree.engine import Budget
from consfree.modules import ModuleError, parse_module_expr
from consfree.solver import solve
from consfree.syntax import encode_input, parse_atrs, parse_tm
from consfree.terms import print_term, sym_term
from consfree.tm import TMachine, Transition, simulate_tm
from consfree.validation import check

from conftest import corpus_text


def compiled(tm_name: str, module_text: str):
    tm = parse_tm(corpus_text(tm_name))
    return tm, compile_tm(tm, parse_module_expr(module_text))


def decide_verdicts(system, x: str):
    s = sym_term(system.atrs.symbols["decide"], encode_input(x, system.atrs))
    return {print_term(t) for t in solve(system.atrs, s).normal_forms}


def test_compiled_text_reparses_and_validates():
    for module_text in ["lin", "prod(lin,lin)", "e"]:
        _, system = compiled("contains1.tm", module_text)
        again = parse_atrs(system.text)
        assert len(again.rules) == len(system.atrs.rules)
        verdict = check(system.atrs)
        assert verdict.cons_free
        assert verdict.order == 1


def test_compiled_header_names_the_module():
    _, system = compiled("contains1.tm", "prod(lin,lin)")
    head = system.text.splitlines()[:2]
    assert head[0].startswith("//")
    assert "prod.lin.lin" in head[1]


def test_state_constructors_are_prefixed():
    _, system = compiled("contains1.tm", "lin")
    for state in ("start", "scan", "accept", "reject"):
        sym = system.atrs.symbols[f"st_{state}"]
        assert sym.is_constructor


def tiny_tm(extra_symbol: str) -> str:
    return (
        f"input a ;\ntape a {extra_symbol} _ ;\nstates s accept reject ;\n"
        "start s ;\n"
        "trans s a a R accept ;\n"
        f"trans s {extra_symbol} {extra_symbol} R reject ;\n"
        "trans s _ _ R reject ;\n"
    )


def test_reserved_tape_symbols_are_rejected():
    # "true" would collide with the generated boolean constructor
    with pytest.raises(ModuleError):
        compile_tm(parse_tm(tiny_tm("true")), parse_module_expr("lin"))


def test_blank_named_B_is_rejected():
    # B is reserved as the compiled spelling of the blank
    with pytest.raises(ModuleError):
        compile_tm(parse_tm(tiny_tm("B")), parse_module_expr("lin"))


@pytest.mark.parametrize(
    "symbol,message",
    [
        ("a-b", "is not a valid identifier"),
        ("\u00e9", "is not a valid identifier"),
        ("a b", "is not a valid identifier"),
        ("[]", "collides with a generated symbol"),
    ],
)
def test_tape_symbols_follow_the_identifier_rule(symbol, message):
    # the scanner's rule: [] is an identifier, but the generated empty list
    tm = TMachine(
        ("a",),
        ("a", symbol, "_"),
        ("s", "accept", "reject"),
        "s",
        [
            Transition("s", "a", "a", "R", "accept"),
            Transition("s", symbol, symbol, "R", "reject"),
            Transition("s", "_", "_", "R", "reject"),
        ],
    )
    with pytest.raises(ModuleError, match=message):
        compile_tm(tm, parse_module_expr("lin"))


def test_compiled_decide_agrees_with_the_simulator_on_short_inputs():
    tm, system = compiled("contains1.tm", "prod(lin,lin)")
    for x in ["1", "0", "01"]:
        run = simulate_tm(tm, x)
        # the module must count past the machine's runtime
        assert system.module.bound(len(x)) >= run.steps + 1
        expected = "true" if run.accepted else "false"
        assert decide_verdicts(system, x) == {expected}
