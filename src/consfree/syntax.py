"""Concrete syntax: parsing and printing of rewriting systems, terms, and machines."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .terms import (
    CONS_NAME,
    CONSTRUCTOR,
    DEFINED,
    NIL_NAME,
    AmbiguousVariableType,
    Arrow,
    Atrs,
    FuncSym,
    Product,
    Rule,
    SimpleType,
    Sort,
    Term,
    TypeMismatch,
    UndeclaredSymbol,
    Variable,
    pair,
    print_term,
    sym_term,
)
from .tm import Transition, TMachine, TMFormatError


class ParseError(Exception):
    """A syntax error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class EmptyInput(Exception):
    """The input string to encode is empty."""


class UnknownSymbol(Exception):
    """An input character has no matching constructor."""


class PairingRequired(Exception):
    """Pair syntax is used without the pairing directive."""


KEYWORDS = ("sort", "cons", "fun", "var", "rule", "pairing")

# One alternative per token class, tried in this order at each position:
# newline, blanks, comment, identifier, punctuation, and any other character.
_SCAN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|(?P<comment>//[^\n]*)"
    r"|(?P<ident>[A-Za-z0-9_.#?']+|\[\])|(?P<punct>[-=]>|[;:,()*])|(?P<other>.)"
)


def is_identifier(text: str) -> bool:
    """Whether text is exactly one identifier token."""
    found = _SCAN.fullmatch(text)
    return found is not None and found.lastgroup == "ident"


@dataclass
class Token:
    kind: str  # "ident", "punct", or "eof"
    text: str
    line: int
    col: int


# A term is read into postfix code: a flat list of its identifier Tokens and
# the markers APP and PAIR, each of which combines the two values before it
# (function and argument, left and right component). Evaluating the code with
# a value stack needs no recursion, so a list of any length can be read.
APP = "APP"
PAIR = "PAIR"


def tokenize(text: str) -> List[Token]:
    """Split text into identifier and punctuation tokens; // starts a comment."""
    tokens: List[Token] = []
    line = 1
    line_start = 0  # the offset of column 1 on this line
    for found in _SCAN.finditer(text):
        kind = found.lastgroup
        if kind is None:
            continue
        start = found.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
        elif kind == "comment":
            # a comment takes up no columns
            line_start += found.end() - start
        elif kind == "other":
            raise ParseError(
                f"unexpected character {found.group()!r}", line, start - line_start + 1
            )
        else:
            tokens.append(Token(kind, found.group(), line, start - line_start + 1))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _MetaVar:
    """A type unknown resolved by unification."""

    __slots__ = ("ref",)

    def __init__(self) -> None:
        self.ref: Optional[SimpleType] = None


def _resolve(ty) -> object:
    while isinstance(ty, _MetaVar) and ty.ref is not None:
        ty = ty.ref
    return ty


def _occurs(meta: _MetaVar, ty) -> bool:
    ty = _resolve(ty)
    if ty is meta:
        return True
    if isinstance(ty, Arrow):
        return _occurs(meta, ty.arg) or _occurs(meta, ty.res)
    if isinstance(ty, Product):
        return _occurs(meta, ty.left) or _occurs(meta, ty.right)
    return False


def _unify(a, b) -> None:
    a = _resolve(a)
    b = _resolve(b)
    if a is b:
        return
    if isinstance(a, _MetaVar):
        if _occurs(a, b):
            raise TypeMismatch("cannot construct an infinite type")
        a.ref = b
        return
    if isinstance(b, _MetaVar):
        _unify(b, a)
        return
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        _unify(a.arg, b.arg)
        _unify(a.res, b.res)
        return
    if isinstance(a, Product) and isinstance(b, Product):
        _unify(a.left, b.left)
        _unify(a.right, b.right)
        return
    unknown = Sort("?")
    raise TypeMismatch(f"cannot unify {_zonk(a, unknown)} with {_zonk(b, unknown)}")


def _zonk(ty, unknown: Optional[SimpleType] = None) -> SimpleType:
    """The type ty with its metavariables resolved; one still unknown is
    replaced by unknown, or is an error if that is None."""
    ty = _resolve(ty)
    if isinstance(ty, _MetaVar):
        if unknown is None:
            raise AmbiguousVariableType("a type is not determined by its occurrences")
        return unknown
    if isinstance(ty, Arrow):
        return Arrow(_zonk(ty.arg, unknown), _zonk(ty.res, unknown))
    if isinstance(ty, Product):
        return Product(_zonk(ty.left, unknown), _zonk(ty.right, unknown))
    return ty


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        # in range: next stops at the final eof, and a look one token ahead
        # is only taken from a ';', which is never the final token
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text or tok.kind == "eof":
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_ident(self) -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.line, tok.col)
        return tok

    # -- types ----------------------------------------------------------

    def parse_type(self, sorts: Dict[str, Sort]) -> SimpleType:
        left = self.parse_product_type(sorts)
        if self.peek().text == "=>":
            self.next()
            return Arrow(left, self.parse_type(sorts))
        return left

    def parse_product_type(self, sorts: Dict[str, Sort]) -> SimpleType:
        left = self.parse_atom_type(sorts)
        if self.peek().text == "*":
            self.next()
            return Product(left, self.parse_product_type(sorts))
        return left

    def parse_atom_type(self, sorts: Dict[str, Sort]) -> SimpleType:
        tok = self.next()
        if tok.text == "(":
            ty = self.parse_type(sorts)
            self.expect(")")
            return ty
        if tok.kind == "ident":
            sort = sorts.get(tok.text)
            if sort is None:
                raise UndeclaredSymbol(f"{tok.line}:{tok.col}: unknown sort {tok.text}")
            return sort
        raise ParseError(f"expected a type, found {tok.text!r}", tok.line, tok.col)

    # -- terms ----------------------------------------------------------

    def _starts_term(self, tok: Token) -> bool:
        if tok.kind == "ident":
            return tok.text not in KEYWORDS
        return tok.text == "("

    def parse_code(self, code: list) -> list:
        """Append the postfix code of a term, lists included, to code; return code."""
        depth = 0
        while True:
            start = len(code)
            self.parse_atom(code)
            while self._starts_term(self.peek()):
                self.parse_atom(code)
                code.append(APP)
            if self.peek().text != ";" or not self._starts_term(self.peek(1)):
                break
            tok = self.next()
            code.insert(start, Token("ident", CONS_NAME, tok.line, tok.col))
            code.append(APP)
            depth += 1
        code.extend([APP] * depth)
        return code

    def parse_atom(self, code: list) -> None:
        tok = self.next()
        if tok.text == "(":
            self.parse_code(code)
            parts = 1
            while self.peek().text == ",":
                self.next()
                self.parse_code(code)
                parts += 1
            self.expect(")")
            code.extend([PAIR] * (parts - 1))
            return
        if tok.kind == "ident":
            if tok.text in KEYWORDS:
                raise ParseError(
                    f"reserved word {tok.text!r} cannot appear in a term",
                    tok.line,
                    tok.col,
                )
            code.append(tok)
            return
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)


def _check_declared(code: list, symbols: Dict[str, FuncSym], names) -> None:
    for tok in code:
        if isinstance(tok, Token) and tok.text not in symbols and tok.text not in names:
            raise UndeclaredSymbol(f"{tok.line}:{tok.col}: undeclared symbol {tok.text}")


def _run_code(code: list, leaf, app, pair_of):
    """Evaluate postfix code over a value stack, left to right."""
    stack = []
    for item in code:
        if item is APP or item is PAIR:
            right = stack.pop()
            stack[-1] = (app if item is APP else pair_of)(stack[-1], right)
        else:
            stack.append(leaf(item))
    return stack[0]


def _app_type(fn_ty, arg_ty):
    """The result type of applying fn_ty to arg_ty. A known arrow is
    checked directly; only an unknown function type needs a metavariable."""
    fn_ty = _resolve(fn_ty)
    try:
        if isinstance(fn_ty, Arrow):
            _unify(fn_ty.arg, arg_ty)
            return fn_ty.res
        res = _MetaVar()
        _unify(fn_ty, Arrow(arg_ty, res))
        return res
    except TypeMismatch as exc:
        raise TypeMismatch(f"in application: {exc}") from exc


def _infer(code: list, symbols: Dict[str, FuncSym], env: Dict[str, object]):
    def leaf(tok: Token):
        return env[tok.text] if tok.text in env else symbols[tok.text].type

    return _run_code(code, leaf, _app_type, Product)


def _build(code: list, symbols: Dict[str, FuncSym], env: Dict[str, object]) -> Term:
    """Build the term of code, whose types _infer has already checked."""

    def leaf(tok: Token) -> Term:
        if tok.text not in env:
            sym = symbols[tok.text]
            return Term(sym, (), sym.type)
        try:
            ty = _zonk(env[tok.text])
        except AmbiguousVariableType:
            raise AmbiguousVariableType(
                f"{tok.line}:{tok.col}: the type of variable {tok.text} "
                "is not determined by its occurrences"
            )
        return Term(Variable(tok.text, ty), (), ty)

    def app(fn: Term, arg: Term) -> Term:
        return Term(fn.head, fn.args + (arg,), fn.type.res)

    return _run_code(code, leaf, app, pair)


def _check_pairing(code: list, pairing: bool) -> None:
    if not pairing and PAIR in code:
        raise PairingRequired("pair syntax requires the pairing directive")


def parse_atrs(text: str) -> Atrs:
    """Parse a rewriting system description."""
    parser = _Parser(tokenize(text))
    sorts: Dict[str, Sort] = {}
    sort_order: List[str] = []
    symbols: Dict[str, FuncSym] = {}
    var_decls: Dict[str, SimpleType] = {}
    raw_rules: List[Tuple[list, list]] = []
    pairing = False
    while True:
        tok = parser.peek()
        if tok.kind == "eof":
            break
        if tok.kind != "ident" or tok.text not in KEYWORDS:
            raise ParseError(
                f"expected a declaration, found {tok.text!r}", tok.line, tok.col
            )
        parser.next()
        if tok.text == "sort":
            names = [parser.expect_ident()]
            while parser.peek().kind == "ident":
                names.append(parser.next())
            parser.expect(";")
            for name in names:
                if name.text in sorts:
                    raise ParseError(
                        f"duplicate sort {name.text}", name.line, name.col
                    )
                sorts[name.text] = Sort(name.text)
                sort_order.append(name.text)
        elif tok.text in ("cons", "fun", "var"):
            name = parser.expect_ident()
            parser.expect(":")
            ty = parser.parse_type(sorts)
            parser.expect(";")
            if tok.text == "var":
                if name.text in var_decls:
                    raise ParseError(
                        f"duplicate variable declaration {name.text}", name.line, name.col
                    )
                var_decls[name.text] = ty
            elif name.text in symbols:
                raise ParseError(
                    f"duplicate symbol {name.text}", name.line, name.col
                )
            else:
                kind = CONSTRUCTOR if tok.text == "cons" else DEFINED
                symbols[name.text] = FuncSym(name.text, ty, kind)
        elif tok.text == "pairing":
            parser.expect(";")
            pairing = True
        else:  # rule
            lhs = parser.parse_code([])
            parser.expect("->")
            rhs = parser.parse_code([])
            parser.expect(";")
            raw_rules.append((lhs, rhs))
    rules = []
    for index, (lhs, rhs) in enumerate(raw_rules):
        _check_pairing(lhs, pairing)
        _check_pairing(rhs, pairing)
        rules.append(
            _elaborate_rule(lhs, rhs, symbols, var_decls, f"r{index + 1}")
        )
    for name in var_decls:
        if name in symbols:
            raise TypeMismatch(f"{name} is declared both as a symbol and a variable")
    _check_product_types(
        [*var_decls.items(), *((sym.name, sym.type) for sym in symbols.values())],
        pairing,
    )
    return Atrs(tuple(sort_order), symbols, rules, pairing, var_decls)


def _check_product_types(typed: List[Tuple[str, SimpleType]], pairing: bool) -> None:
    if pairing:
        return

    def has_product(ty: SimpleType) -> bool:
        if isinstance(ty, Product):
            return True
        if isinstance(ty, Arrow):
            return has_product(ty.arg) or has_product(ty.res)
        return False

    for name, ty in typed:
        if has_product(ty):
            raise PairingRequired(f"the type of {name} requires the pairing directive")


def _elaborate_rule(
    lhs: list,
    rhs: list,
    symbols: Dict[str, FuncSym],
    var_decls: Dict[str, SimpleType],
    name: str,
) -> Rule:
    lhs_vars = {
        tok.text for tok in lhs if isinstance(tok, Token) and tok.text not in symbols
    }
    _check_declared(rhs, symbols, lhs_vars)
    env: Dict[str, object] = {
        v: var_decls.get(v) or _MetaVar() for v in lhs_vars
    }
    lhs_ty = _infer(lhs, symbols, env)
    rhs_ty = _infer(rhs, symbols, env)
    _unify(lhs_ty, rhs_ty)
    lhs_term = _build(lhs, symbols, env)
    rhs_term = _build(rhs, symbols, env)
    return Rule(lhs_term, rhs_term, name)


def parse_term(
    text: str, atrs: Atrs, var_types: Optional[Dict[str, SimpleType]] = None
) -> Term:
    """Parse a single term against the signature of atrs."""
    parser = _Parser(tokenize(text))
    code = parser.parse_code([])
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    _check_pairing(code, atrs.pairing)
    env: Dict[str, object] = dict(atrs.var_decls)
    if var_types:
        env.update(var_types)
    _check_declared(code, atrs.symbols, env)
    _infer(code, atrs.symbols, env)
    return _build(code, atrs.symbols, env)


def print_atrs(atrs: Atrs) -> str:
    """Render a rewriting system in concrete syntax."""
    lines = []
    if atrs.sorts:
        lines.append("sort " + " ".join(atrs.sorts) + " ;")
    if atrs.pairing:
        lines.append("pairing ;")
    for sym in atrs.symbols.values():
        lines.append(f"{sym.kind} {sym.name} : {sym.type} ;")
    for name, ty in atrs.var_decls.items():
        lines.append(f"var {name} : {ty} ;")
    for rule in atrs.rules:
        lines.append(f"rule {print_term(rule.lhs)} -> {print_term(rule.rhs)} ;")
    return "\n".join(lines) + "\n"


def encode_input(x: str, atrs: Atrs) -> Term:
    """Encode a string as the list c1 ; ... ; cn ; [] of its characters."""
    if x == "":
        raise EmptyInput("cannot encode the empty string")
    nil = atrs.symbols.get(NIL_NAME)
    cons = atrs.symbols.get(CONS_NAME)
    if nil is None or cons is None or not nil.is_constructor or not cons.is_constructor:
        raise UnknownSymbol("the signature lacks the list constructors")
    term = sym_term(nil)
    for ch in reversed(x):
        sym = atrs.symbols.get(ch)
        if sym is None or not sym.is_constructor or sym.arity != 0:
            raise UnknownSymbol(f"no constructor for input character {ch!r}")
        term = sym_term(cons, sym_term(sym), term)
    return term


def parse_tm(text: str) -> TMachine:
    """Parse a Turing machine description."""
    parser = _Parser(tokenize(text))
    sections: Dict[str, List[str]] = {}
    transitions: List[Transition] = []
    while parser.peek().kind != "eof":
        head = parser.expect_ident()
        words: List[str] = []
        while parser.peek().kind == "ident":
            words.append(parser.next().text)
        parser.expect(";")
        if head.text == "trans":
            if len(words) != 5:
                raise ParseError(
                    "trans needs: state read write direction state",
                    head.line,
                    head.col,
                )
            transitions.append(Transition(*words))
        elif head.text in ("input", "tape", "states", "start"):
            if head.text in sections:
                raise ParseError(f"duplicate {head.text} line", head.line, head.col)
            sections[head.text] = words
        else:
            raise ParseError(f"unknown directive {head.text!r}", head.line, head.col)
    for required in ("input", "tape", "states", "start"):
        if required not in sections:
            raise TMFormatError(f"missing {required} line")
    if len(sections["start"]) != 1:
        raise TMFormatError("start line needs exactly one state")
    return TMachine(
        tuple(sections["input"]),
        tuple(sections["tape"]),
        tuple(sections["states"]),
        sections["start"][0],
        transitions,
    )
