"""Simple types, signatures, and applicative terms in spine form."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union


class TermError(Exception):
    """Base class for errors raised by the term core."""


class UndeclaredSymbol(TermError):
    """An identifier is used where a declared symbol or bound variable is required."""


class TypeMismatch(TermError):
    """Two types that must coincide do not."""


class AmbiguousVariableType(TermError):
    """A variable's type is not determined by its occurrences."""


class PrintError(TermError):
    """A term has no concrete-syntax rendering."""


class SimpleType:
    """Base class for simple types with products."""

    def order(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Sort(SimpleType):
    """Base type: a declared sort name."""

    name: str

    def order(self) -> int:
        return 0

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Arrow(SimpleType):
    """Function type: arg => res (right-associative)."""

    arg: SimpleType
    res: SimpleType

    def order(self) -> int:
        return max(self.arg.order() + 1, self.res.order())

    def __str__(self) -> str:
        arg = f"({self.arg})" if isinstance(self.arg, Arrow) else str(self.arg)
        return f"{arg} => {self.res}"


@dataclass(frozen=True)
class Product(SimpleType):
    """Pair type: left * right (right-associative, binds tighter than =>)."""

    left: SimpleType
    right: SimpleType

    def order(self) -> int:
        return max(self.left.order(), self.right.order())

    def __str__(self) -> str:
        left = f"({self.left})" if not isinstance(self.left, Sort) else str(self.left)
        right = f"({self.right})" if isinstance(self.right, Arrow) else str(self.right)
        return f"{left} * {right}"


def fn_type(args: List[SimpleType], res: SimpleType) -> SimpleType:
    """Build the type args[0] => ... => args[-1] => res."""
    ty = res
    for arg in reversed(args):
        ty = Arrow(arg, ty)
    return ty


def arg_types(ty: SimpleType) -> List[SimpleType]:
    """Argument types along the maximal arrow spine of ty."""
    args = []
    while isinstance(ty, Arrow):
        args.append(ty.arg)
        ty = ty.res
    return args


def result_type(ty: SimpleType) -> SimpleType:
    """Result type at the end of the maximal arrow spine of ty."""
    while isinstance(ty, Arrow):
        ty = ty.res
    return ty


def flatten_product(ty: SimpleType) -> List[SimpleType]:
    """Component types of a (possibly nested) product, left to right."""
    if isinstance(ty, Product):
        return flatten_product(ty.left) + flatten_product(ty.right)
    return [ty]


CONSTRUCTOR = "cons"
DEFINED = "fun"


@dataclass(frozen=True)
class FuncSym:
    """A declared function symbol: constructor or defined symbol."""

    name: str
    type: SimpleType
    kind: str  # CONSTRUCTOR or DEFINED

    @property
    def arity(self) -> int:
        return len(arg_types(self.type))

    @property
    def is_constructor(self) -> bool:
        return self.kind == CONSTRUCTOR

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Variable:
    """A typed variable."""

    name: str
    type: SimpleType

    def __str__(self) -> str:
        return self.name


class PairHead:
    """Singleton head marker for pair terms."""

    def __str__(self) -> str:
        return "(,)"

    def __repr__(self) -> str:
        return "PAIR"


PAIR = PairHead()

Head = Union[FuncSym, Variable, PairHead]


@dataclass(frozen=True)
class Term:
    """An applicative term in spine form: head applied to argument terms."""

    head: Head
    args: Tuple["Term", ...]
    type: SimpleType

    def __str__(self) -> str:
        return print_term(self)

    def __repr__(self) -> str:
        return f"Term({print_term(self)!r})"

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.head, self.args, self.type))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def size(self) -> int:
        return 1 + sum(arg.size for arg in self.args)


def _apply_type(head_type: SimpleType, args: Tuple[Term, ...], head: Head) -> SimpleType:
    ty = head_type
    for arg in args:
        if not isinstance(ty, Arrow):
            raise TypeMismatch(f"{head} applied to too many arguments")
        if ty.arg != arg.type:
            raise TypeMismatch(
                f"argument of {head} has type {arg.type}, expected {ty.arg}"
            )
        ty = ty.res
    return ty


def sym_term(head: Union[FuncSym, Variable], *args: Term) -> Term:
    """Build a symbol- or variable-headed term, checking types."""
    return Term(head, tuple(args), _apply_type(head.type, tuple(args), head))


def pair(left: Term, right: Term) -> Term:
    """Build the pair (left, right)."""
    return Term(PAIR, (left, right), Product(left.type, right.type))


def apply_term(fn: Term, *more: Term) -> Term:
    """Extend the spine of fn with further arguments."""
    if not more:
        return fn
    if isinstance(fn.head, PairHead):
        raise TypeMismatch("a pair cannot be applied to arguments")
    args = fn.args + tuple(more)
    return Term(fn.head, args, _apply_type(fn.head.type, args, fn.head))


def subterms(t: Term) -> set:
    """All subterms of t: t itself, plus subterms of every spine argument.

    The head of an application does not count as a subterm, only its
    arguments do; both components of a pair do.
    """
    out = {t}
    for arg in t.args:
        out |= subterms(arg)
    return out


def variables(t: Term) -> set:
    """All variables occurring in t."""
    out = set()
    if isinstance(t.head, Variable):
        out.add(t.head)
    for arg in t.args:
        out |= variables(arg)
    return out


def is_pattern(t: Term) -> bool:
    """Patterns: variables, fully applied constructors of base type over
    patterns, and pairs of patterns."""
    if isinstance(t.head, Variable):
        return not t.args
    if isinstance(t.head, PairHead):
        return all(is_pattern(arg) for arg in t.args)
    if t.head.is_constructor:
        return isinstance(t.type, (Sort, Product)) and all(
            is_pattern(arg) for arg in t.args
        )
    return False


def is_data(t: Term) -> bool:
    """Data terms are ground patterns."""
    if isinstance(t.head, PairHead):
        return all(is_data(arg) for arg in t.args)
    return (
        isinstance(t.head, FuncSym)
        and t.head.is_constructor
        and isinstance(t.type, (Sort, Product))
        and all(is_data(arg) for arg in t.args)
    )


def is_basic(t: Term) -> bool:
    """Basic terms: a defined symbol fully applied to data, of base type."""
    return (
        isinstance(t.head, FuncSym)
        and not t.head.is_constructor
        and t.type.order() == 0
        and all(is_data(arg) for arg in t.args)
    )


def classify(t: Term) -> str:
    """Classify t as 'data', 'pattern', 'basic', or 'none-of-these'."""
    if is_data(t):
        return "data"
    if is_pattern(t):
        return "pattern"
    if is_basic(t):
        return "basic"
    return "none-of-these"


def match(pattern: Term, t: Term) -> Optional[Dict[Variable, Term]]:
    """Match pattern against t, or None.

    Repeated variables are permitted and must bind syntactically equal terms.
    """
    subst: Dict[Variable, Term] = {}
    if _match_into(pattern, t, subst):
        return subst
    return None


def _match_into(pattern: Term, t: Term, subst: Dict[Variable, Term]) -> bool:
    head = pattern.head
    if isinstance(head, Variable) and not pattern.args:
        bound = subst.get(head)
        if bound is None:
            subst[head] = t
            return True
        return bound == t
    if isinstance(head, PairHead):
        if not isinstance(t.head, PairHead):
            return False
        return all(_match_into(p, a, subst) for p, a in zip(pattern.args, t.args))
    if head != t.head or len(pattern.args) != len(t.args):
        return False
    return all(_match_into(p, a, subst) for p, a in zip(pattern.args, t.args))


def apply_subst(t: Term, subst: Dict[Variable, Term]) -> Term:
    """Apply a substitution to t."""
    args = tuple(apply_subst(arg, subst) for arg in t.args)
    head = t.head
    if isinstance(head, Variable):
        image = subst.get(head)
        if image is not None:
            return apply_term(image, *args)
    if isinstance(head, PairHead):
        return pair(*args)
    return Term(head, args, t.type)


def _is_cons_cell(t: Term) -> bool:
    return (
        isinstance(t.head, FuncSym)
        and t.head.name == CONS_NAME
        and t.head.is_constructor
        and len(t.args) == 2
    )


CONS_NAME = "cons"
NIL_NAME = "[]"


def print_term(t: Term) -> str:
    """Render t in concrete syntax, using the `h ; t` list sugar."""
    return _print(t, atom=False)


def _print(t: Term, atom: bool) -> str:
    head = t.head
    if isinstance(head, PairHead):
        return f"({_print(t.args[0], False)}, {_print(t.args[1], False)})"
    if _is_cons_cell(t):
        text = f"{_print(t.args[0], True)} ; {_print(t.args[1], False)}"
        return f"({text})" if atom else text
    if isinstance(head, FuncSym) and head.name == CONS_NAME and head.is_constructor:
        raise PrintError("a partially applied list constructor has no rendering")
    if not t.args:
        return head.name
    text = " ".join([head.name] + [_print(arg, True) for arg in t.args])
    return f"({text})" if atom else text


@dataclass
class Rule:
    """A rewrite rule lhs -> rhs with a stable name."""

    lhs: Term
    rhs: Term
    name: str

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"

    @property
    def head(self) -> Head:
        return self.lhs.head

    @property
    def arity(self) -> int:
        return len(self.lhs.args)


@dataclass
class Atrs:
    """A rewriting system: sorts, declared symbols, rules, pairing flag."""

    sorts: Tuple[str, ...]
    symbols: Dict[str, FuncSym]
    rules: List[Rule]
    pairing: bool = False
    var_decls: Dict[str, SimpleType] = field(default_factory=dict)

    def constructors(self) -> List[FuncSym]:
        return [f for f in self.symbols.values() if f.is_constructor]

    def defined_symbols(self) -> List[FuncSym]:
        return [f for f in self.symbols.values() if not f.is_constructor]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Atrs):
            return NotImplemented
        return (
            self.sorts == other.sorts
            and self.symbols == other.symbols
            and self.pairing == other.pairing
            and [(r.lhs, r.rhs) for r in self.rules]
            == [(r.lhs, r.rhs) for r in other.rules]
        )
