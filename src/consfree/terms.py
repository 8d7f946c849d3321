"""Simple types, signatures, and applicative terms in spine form.

Types, symbols, variables and terms are hash-consed in one weak table:
building one equal to an object that is alive returns that object, so equal
objects are one object and `==` and `hash` are identity. A term's derived
fields (size, whether the term is data, its printed text) are computed once
per node from its children, without recursion.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union


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


class _Entry(weakref.ref):
    """A weak reference to an interned object that knows its table key."""

    __slots__ = ("key",)


# (head, args) -> the entry of the live term with that head and those
# arguments, whose type follows from the two; (class, *fields) -> the entry
# of the live type, symbol, variable or pair marker with those fields
_TABLE: Dict[Tuple, _Entry] = {}


def _forget(entry: _Entry) -> None:
    if _TABLE.get(entry.key) is entry:
        del _TABLE[entry.key]


class _Interned:
    """Base class of interned syntax objects: constructing one with the same
    class and fields as a live one returns that object, so equal objects are
    one object and `==` and `hash` are identity. Fields are the subclass's
    slots, in constructor order, and cannot be assigned. Copies and unpickled
    objects are rebuilt through the constructor, so they are interned too."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        entry = _TABLE.get(key)
        if entry is not None:
            found = entry()
            if found is not None:
                return found
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields, strict=True):
            object.__setattr__(obj, name, value)
        entry = _TABLE[key] = _Entry(obj, _forget)
        entry.key = key
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class SimpleType(_Interned):
    """Base class for simple types with products."""

    __slots__ = ()

    def order(self) -> int:
        raise NotImplementedError


class Sort(SimpleType):
    """Base type: a declared sort name."""

    __slots__ = ("name",)
    name: str

    def order(self) -> int:
        return 0

    def __str__(self) -> str:
        return self.name


class Arrow(SimpleType):
    """Function type: arg => res (right-associative)."""

    __slots__ = ("arg", "res")
    arg: SimpleType
    res: SimpleType

    def order(self) -> int:
        return max(self.arg.order() + 1, self.res.order())

    def __str__(self) -> str:
        arg = f"({self.arg})" if isinstance(self.arg, Arrow) else str(self.arg)
        return f"{arg} => {self.res}"


class Product(SimpleType):
    """Pair type: left * right (right-associative, binds tighter than =>)."""

    __slots__ = ("left", "right")
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


class FuncSym(_Interned):
    """A declared function symbol: constructor or defined symbol."""

    __slots__ = ("name", "type", "kind")
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


class Variable(_Interned):
    """A typed variable."""

    __slots__ = ("name", "type")
    name: str
    type: SimpleType

    def __str__(self) -> str:
        return self.name


class PairHead(_Interned):
    """Singleton head marker for pair terms."""

    __slots__ = ()

    def __str__(self) -> str:
        return "(,)"

    def __repr__(self) -> str:
        return "PAIR"


PAIR = PairHead()

Head = Union[FuncSym, Variable, PairHead]


class Term:
    """An applicative term in spine form: head applied to argument terms.

    `Term(head, args, type)` returns the live term with that head and those
    arguments if there is one, so equal terms are one object: equality and
    hashing are identity. `size` and `is_data` are set from the children
    when the node is built; the printed text is filled in by `print_term`
    on first use. Terms must not be mutated.
    """

    __slots__ = ("head", "args", "type", "size", "is_data", "_text", "__weakref__")

    head: Head
    args: Tuple["Term", ...]
    type: SimpleType
    size: int
    is_data: bool

    def __new__(cls, head: Head, args: Tuple["Term", ...], type: SimpleType) -> "Term":
        key = (head, args)
        entry = _TABLE.get(key)
        if entry is not None:
            found = entry()
            if found is not None:
                return found
        t = object.__new__(cls)
        t.head = head
        t.args = args
        t.type = type
        # data terms are ground patterns: constructors of base or product
        # type, and pairs, over data
        data = isinstance(head, PairHead) or (
            isinstance(head, FuncSym)
            and head.kind == CONSTRUCTOR
            and isinstance(type, (Sort, Product))
        )
        size = 1
        for arg in args:
            size += arg.size
            data = data and arg.is_data
        t.size = size
        t.is_data = data
        t._text = None
        entry = _TABLE[key] = _Entry(t, _forget)
        entry.key = key
        return t

    def __reduce__(self):
        # copies and unpickled terms are interned like any other
        return Term, (self.head, self.args, self.type)

    def __str__(self) -> str:
        return print_term(self)

    def __repr__(self) -> str:
        return f"Term({print_term(self)!r})"


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
    out = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u not in out:
            out.add(u)
            stack.extend(u.args)
    return out


def variables(t: Term) -> set:
    """All variables occurring in t."""
    return {u.head for u in subterms(t) if isinstance(u.head, Variable)}


def is_pattern(t: Term) -> bool:
    """Patterns: variables, fully applied constructors of base type over
    patterns, and pairs of patterns."""
    stack = [t]
    while stack:
        u = stack.pop()
        head = u.head
        if isinstance(head, Variable):
            if u.args:
                return False
        elif isinstance(head, PairHead) or (
            head.is_constructor and isinstance(u.type, (Sort, Product))
        ):
            stack += u.args
        else:
            return False
    return True


def is_data(t: Term) -> bool:
    """Data terms are ground patterns."""
    return t.is_data


def is_basic(t: Term) -> bool:
    """Basic terms: a defined symbol fully applied to data, of base type."""
    return (
        isinstance(t.head, FuncSym)
        and not t.head.is_constructor
        and t.type.order() == 0
        and all(is_data(arg) for arg in t.args)
    )


class Matcher:
    """Argument patterns compiled to be matched without recursion.

    A matcher reads the first `arity` spine arguments of a term and binds
    each pattern variable to a slot of an env list. A variable that is a
    whole argument pattern takes that argument's index, which the caller
    fills; every other variable takes the next slot, in the order the
    binds append them. Positions are read through registers: registers
    0..arity-1 hold the arguments and each load appends the child of an
    earlier register, so a pattern of any depth is matched by flat loops.
    A repeated variable and a head are tested by identity, which is
    equality since terms and symbols are hash-consed. Heads at depth
    `known` or less are not tested: the caller has compared them.
    Well-typed terms with equal heads at a position have equally many
    arguments there, so only heads are compared.
    """

    __slots__ = ("arity", "slots", "heads", "loads", "binds", "same", "arg_same")

    def __init__(self, patterns: Tuple[Term, ...], known: int = 0):
        self.arity = len(patterns)
        # slot by variable: whole-argument variables first, at their index
        self.slots: Dict[Variable, int] = {}
        for i, p in enumerate(patterns):
            if isinstance(p.head, Variable) and not p.args:
                self.slots.setdefault(p.head, i)
        heads, loads, binds, same, arg_same = [], [], [], [], []
        registers = self.arity
        for i, p in enumerate(patterns):
            if isinstance(p.head, Variable) and not p.args:
                if self.slots[p.head] != i:
                    arg_same.append((i, self.slots[p.head]))
                continue
            if known < 1:
                heads.append((i, p.head))
            stack = [(p, i, 1)]  # a checked pattern node, its register and depth
            while stack:
                node, reg, depth = stack.pop()
                for j, child in enumerate(node.args):
                    if isinstance(child.head, Variable) and not child.args:
                        slot = self.slots.get(child.head)
                        if slot is None:
                            slot = self.slots[child.head] = self.arity + len(binds)
                            binds.append((reg, j))
                        else:
                            same.append((reg, j, slot))
                    elif child.args or depth >= known:
                        loads.append((reg, j, child.head if depth >= known else None))
                        stack.append((child, registers, depth + 1))
                        registers += 1
        self.heads, self.loads, self.binds = tuple(heads), tuple(loads), tuple(binds)
        self.same, self.arg_same = tuple(same), tuple(arg_same)

    def __call__(self, args: Tuple[Term, ...], env: List[Term]) -> bool:
        """Match args[:arity]; env holds those arguments, and each bind
        appends its term to it."""
        for i, head in self.heads:
            if args[i].head is not head:
                return False
        nodes = args
        if self.loads:
            nodes = list(args[: self.arity])
            for reg, j, head in self.loads:
                node = nodes[reg].args[j]
                if head is not None and node.head is not head:
                    return False
                nodes.append(node)
        for reg, j in self.binds:
            env.append(nodes[reg].args[j])
        for reg, j, slot in self.same:
            if nodes[reg].args[j] is not env[slot]:
                return False
        for i, slot in self.arg_same:
            if args[i] is not env[slot]:
                return False
        return True


CONS_NAME = "cons"
NIL_NAME = "[]"


def print_term(t: Term) -> str:
    """Render t in concrete syntax, using the `h ; t` list sugar."""
    text = t._text
    if text is not None:
        return text
    # fill the text of every unprinted node below t, children first
    stack = [t]
    while stack:
        u = stack[-1]
        if u._text is not None:
            stack.pop()
            continue
        pending = [arg for arg in u.args if arg._text is None]
        if pending:
            stack += pending
            continue
        stack.pop()
        u._text = _render(u)
    return t._text


def _atom(t: Term) -> str:
    """The printed text of an argument: applications are parenthesised."""
    if t.args and not isinstance(t.head, PairHead):
        return f"({t._text})"
    return t._text


def _render(t: Term) -> str:
    """The text of t from its children's texts."""
    head, args = t.head, t.args
    if isinstance(head, PairHead):
        return f"({args[0]._text}, {args[1]._text})"
    if isinstance(head, FuncSym) and head.name == CONS_NAME and head.is_constructor:
        if len(args) != 2:
            raise PrintError("a partially applied list constructor has no rendering")
        return f"{_atom(args[0])} ; {args[1]._text}"
    if not args:
        return head.name
    return " ".join([head.name] + [_atom(arg) for arg in args])


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
    # the engine's compiled rules, built on first use (`engine.rule_table`)
    compiled: Optional[object] = field(default=None, init=False, repr=False, compare=False)

    def defined_symbols(self) -> List[FuncSym]:
        return [f for f in self.symbols.values() if not f.is_constructor]

