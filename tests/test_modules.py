"""Counting modules: expression parsing, generated systems, self-tests."""

import pytest

from consfree.modules import (
    ModuleError,
    canon,
    expr_text,
    gen_module,
    module_atrs,
    module_selftest,
    module_source,
    parse_module_expr,
)
from consfree.validation import check

EXPRESSIONS = ["lin", "prod(lin,lin)", "e", "exp(lin)", "expab(1,1)", "pipi(prod(lin,lin))"]


def test_expression_parsing_round_trips():
    for text in EXPRESSIONS:
        expr = parse_module_expr(text)
        assert expr_text(expr) == text
        assert parse_module_expr(expr_text(expr)) == expr


def test_canonical_names():
    assert canon(parse_module_expr("prod(lin,lin)")) == "prod.lin.lin"
    assert canon(parse_module_expr("exp(e)")) == "exp.e"
    assert canon(parse_module_expr("expab(2,3)")) == "expab.2.3"


def test_bad_expressions_are_rejected():
    for text in [
        "", "unknown", "prod(lin)", "exp()", "lin)", "expab(2x,3)", "prod(lin,lin",
        "exp(lin,lin)", "expab(1)", "lin2", "prod(lin,e)x", "expab(,1)", "exp(5)",
        "expab(\u00b2,1)",  # a digit to str.isdigit, but not to int()
    ]:
        with pytest.raises(ModuleError):
            parse_module_expr(text)
    assert parse_module_expr("prod ( lin , e )") == ("prod", ("lin",), ("e",))
    assert parse_module_expr("expab(02,3)") == ("expab", 2, 3)
    # well-formed text whose instantiation is impossible fails at generation
    for text in ["expab(0,1)", "pipi(lin)"]:
        with pytest.raises(ModuleError):
            gen_module(parse_module_expr(text))


def test_counting_bounds():
    cases = {
        "lin": lambda n: n + 1,
        "prod(lin,lin)": lambda n: (n + 1) ** 2,
        "e": lambda n: 2 ** (n + 1),
        "exp(lin)": lambda n: 2 ** (n + 1),
        "expab(1,1)": lambda n: 2 ** (n + 1),
        "expab(2,2)": lambda n: 2 ** (2 * (n + 1) ** 2),
        "pipi(prod(lin,lin))": lambda n: 2 ** ((n + 1) ** 2 - 1),
    }
    for text, bound in cases.items():
        inst = gen_module(parse_module_expr(text))
        for n in range(1, 5):
            assert inst.bound(n) == bound(n)


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_generated_systems_validate(text):
    inst, atrs = module_atrs(parse_module_expr(text))
    verdict = check(atrs)
    assert verdict.cons_free
    if text.startswith("pipi"):
        assert inst.pairing and verdict.product_cons_free is False
    elif inst.pairing:
        assert verdict.product_cons_free is True
    else:
        assert verdict.product_cons_free is None


def test_composition_never_collides_names():
    inst, atrs = module_atrs(parse_module_expr("prod(e,e)"))
    names = [line.split(" : ")[0].split()[-1] for line in inst.decls]
    assert len(names) == len(set(names))
    assert check(atrs).cons_free


def test_module_order():
    assert gen_module(parse_module_expr("lin")).types[0].order() == 0
    exp_inst = gen_module(parse_module_expr("exp(lin)"))
    assert max(t.order() for t in exp_inst.types) == 1


@pytest.mark.parametrize("text", ["lin", "prod(lin,lin)", "e", "exp(lin)"])
def test_selftest_smoke(text):
    report = module_selftest(parse_module_expr(text), 1)
    assert report.ok
    assert report.decrements == report.bound - 1
    assert report.checks["pred at zero stays zero"]
    assert report.checks["succ at maximum stays maximum"]


def test_selftest_rejects_empty_input():
    with pytest.raises(ModuleError):
        module_selftest(parse_module_expr("lin"), 0)


def test_module_source_is_reparsable():
    for text in EXPRESSIONS:
        inst = gen_module(parse_module_expr(text))
        from consfree.syntax import parse_atrs

        parse_atrs(module_source(inst))
