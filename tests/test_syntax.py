"""File formats: round-trips on the shipped corpus and parser robustness."""

import hashlib
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

from consfree.syntax import (
    EmptyInput,
    ParseError,
    PairingRequired,
    encode_input,
    parse_atrs,
    parse_term,
    parse_tm,
    print_atrs,
    tokenize,
)
from consfree.terms import Arrow, Product, Sort, TermError, TypeMismatch, print_term
from consfree.tm import TMError

from conftest import CORPUS, corpus_text, term
from oracles import decode_list

ATRS_FILES = sorted(p.name for p in CORPUS.glob("*.atrs"))
TM_FILES = sorted(p.name for p in CORPUS.glob("*.tm"))


def test_corpus_is_present():
    assert len(ATRS_FILES) >= 12
    assert set(TM_FILES) == {"contains1.tm", "parity.tm"}


# a system with variable declarations, which no corpus file has
VAR_DECLS = (
    "sort nat ;\ncons o : nat ;\nfun k : nat => nat => nat ;\n"
    "var y : nat ;\nvar g : nat => nat ;\nrule k x o -> x ;\n"
)


@pytest.mark.parametrize(
    "source",
    [corpus_text(name) for name in ATRS_FILES] + [VAR_DECLS],
    ids=ATRS_FILES + ["var_decls"],
)
def test_atrs_round_trip(source):
    atrs = parse_atrs(source)
    printed = print_atrs(atrs)
    again = parse_atrs(printed)
    assert print_atrs(again) == printed
    assert again.sorts == atrs.sorts
    assert again.symbols == atrs.symbols
    assert [(r.lhs, r.rhs, r.name) for r in again.rules] == [
        (r.lhs, r.rhs, r.name) for r in atrs.rules
    ]
    assert again.pairing == atrs.pairing
    assert again.var_decls == atrs.var_decls


@pytest.mark.parametrize("name", TM_FILES)
def test_tm_round_trip(name):
    tm = parse_tm(corpus_text(name))
    again = parse_tm(str(tm))
    assert again == tm


def test_term_round_trip(majority):
    for text in ["majority (1 ; 0 ; [])", "cmp [] (0 ; [])", "count [] [] []"]:
        t = term(text, majority)
        assert print_term(t) == text
        assert term(print_term(t), majority) is t


def test_long_list_parses_without_recursion(majority):
    ones = "1 ; " * 5000 + "[]"
    t = parse_term(f"majority ({ones})", majority)
    assert t.head.name == "majority"
    assert t.args == (encode_input("1" * 5000, majority),)
    assert parse_term(print_term(t), majority) is t


def test_type_printing():
    nat = Sort("nat")
    assert str(Arrow(Arrow(nat, nat), nat)) == "(nat => nat) => nat"
    assert str(Product(nat, Arrow(nat, nat))) == "nat * (nat => nat)"


def test_encode_decode_input(sat):
    t = encode_input("10?#", sat)
    assert print_term(t) == "1 ; 0 ; ? ; # ; []"
    assert decode_list(t) == "10?#"
    with pytest.raises(EmptyInput):
        encode_input("", sat)


def test_encode_rejects_undeclared_symbols(majority):
    from consfree.syntax import UnknownSymbol

    with pytest.raises(UnknownSymbol):
        encode_input("2", majority)


def test_product_syntax_requires_pairing_directive():
    text = (
        "sort nat ;\ncons o : nat ;\n"
        "fun f : nat * nat => nat ;\nrule f (x , y) -> x ;\n"
    )
    with pytest.raises(PairingRequired):
        parse_atrs(text)
    assert parse_atrs("pairing ;\n" + text).pairing
    # a product below an arrow in a variable declaration
    nested = (
        "sort nat ; cons o : nat ; fun f : nat => nat ;"
        " var g : nat => nat * nat ; rule f o -> o ;"
    )
    with pytest.raises(PairingRequired):
        parse_atrs(nested)
    assert parse_atrs("pairing ;\n" + nested).pairing


def test_parse_errors_carry_positions():
    for bad in [
        "sort nat ; cons o nat ;",
        "sort nat ; fun f : nat => nat ; rule f x -> y ;",
        "sort nat ; cons o : nat ; rule o -> ;",
        "fun f : missing => missing ;",
    ]:
        with pytest.raises((ParseError, TermError)) as err:
            parse_atrs(bad)
        assert str(err.value)


def test_type_errors_print_arrow_arguments_in_parentheses():
    text = (
        "sort nat ; fun f : nat => nat ;"
        " fun k : (nat => nat) => nat => nat ; rule f x -> f {} ;"
    )
    with pytest.raises(TypeMismatch) as err:
        parse_atrs(text.format("k"))
    assert str(err.value) == (
        "in application: cannot unify nat with (nat => nat) => nat => nat"
    )
    # a type not yet known prints as ?
    with pytest.raises(TypeMismatch) as err:
        parse_atrs(text.format("(x x)"))
    assert str(err.value) == "in application: cannot unify nat with nat => ?"


@given(st.text(max_size=120))
def test_parser_never_panics_on_arbitrary_text(text):
    try:
        parse_atrs(text)
    except (ParseError, TermError, EmptyInput, PairingRequired):
        pass
    try:
        parse_tm(text)
    except Exception as exc:
        assert isinstance(exc, (ParseError, TermError)) or "TM" in type(exc).__name__


@given(st.sampled_from(ATRS_FILES), st.text(max_size=30), st.integers(0, 400))
def test_mutated_corpus_never_panics(name, junk, cut):
    text = corpus_text(name)
    mutated = text[:cut] + junk + text[cut:]
    try:
        parse_atrs(mutated)
    except (ParseError, TermError, EmptyInput, PairingRequired):
        pass


PARSE_ERRORS = (ParseError, TermError, PairingRequired, TMError)
# characters the scanner treats specially, beside those of the edited file
EDIT_CHARS = "\n\t\r /-=>[](),;:*#?'._\u00e9"


def _tokens(text):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]


def _outcome(name, text):
    """The tokens of text (or the scanner's error), then the parsed and
    printed system or machine (or the parser's error)."""
    try:
        tokens = _tokens(text)
    except ParseError as exc:
        tokens = f"{type(exc).__name__}: {exc}"
    try:
        if name.endswith(".tm"):
            printed = str(parse_tm(text))
        else:
            printed = print_atrs(parse_atrs(text))
    except PARSE_ERRORS as exc:
        printed = f"{type(exc).__name__}: {exc}"
    return repr((name, tokens, printed))


def test_mutated_corpus_keeps_its_digest():
    # the parser's exactness gate: seeded edits of every corpus file, each
    # inserting, deleting or replacing up to 5 characters
    names = ATRS_FILES + TM_FILES
    texts = {name: corpus_text(name) for name in names}
    rng = random.Random(17)
    lines = []
    for index in range(1000):
        name = names[index % len(names)]
        text = texts[name]
        at = rng.randrange(len(text) + 1)
        count = rng.randint(1, 5)
        op = rng.choice("idr")
        new = "".join(
            rng.choice(EDIT_CHARS) if rng.random() < 0.5 else rng.choice(text)
            for _ in range(count)
        )
        if op == "i":
            text = text[:at] + new + text[at:]
        elif op == "d":
            text = text[:at] + text[at + count:]
        else:
            text = text[:at] + new + text[at + count:]
        lines.append(_outcome(name, text))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest[:16]) == (1000, "b6d072b1cc4dcd38")


def test_scanner_positions_at_the_edges():
    # a comment does not advance the column, so a final comment leaves the
    # end of input where the comment starts
    assert _tokens("sort nat // c")[-1] == ("eof", "", 1, 10)
    with pytest.raises(ParseError, match="^1:10: expected ';', found ''$"):
        parse_atrs("sort nat // c")
    assert _tokens("sort nat\n// end")[-1] == ("eof", "", 2, 1)
    # a carriage return and a tab are one column each
    assert _tokens("sort\r\n\tnat ;") == [
        ("ident", "sort", 1, 1),
        ("ident", "nat", 2, 2),
        ("punct", ";", 2, 6),
        ("eof", "", 2, 7),
    ]
    assert _tokens("fun a[]b") == [
        ("ident", "fun", 1, 1),
        ("ident", "a", 1, 5),
        ("ident", "[]", 1, 6),
        ("ident", "b", 1, 8),
        ("eof", "", 1, 9),
    ]
    assert _tokens("f->x=>y") == [
        ("ident", "f", 1, 1),
        ("punct", "->", 1, 2),
        ("ident", "x", 1, 4),
        ("punct", "=>", 1, 5),
        ("ident", "y", 1, 7),
        ("eof", "", 1, 8),
    ]
    for ch in "-[=/\u00e9":
        with pytest.raises(ParseError) as err:
            tokenize(f"sort\n  {ch}x ;")
        assert str(err.value) == f"2:3: unexpected character {ch!r}"


def test_golden_module_files_match_generator():
    from consfree.modules import canon, gen_module, module_source, parse_module_expr

    for text in ["lin", "prod(lin,lin)", "e"]:
        inst = gen_module(parse_module_expr(text))
        name = "module_" + canon(inst.expr).replace(".", "_") + ".atrs"
        assert corpus_text(name) == module_source(inst)
