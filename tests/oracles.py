"""Reference functions the tests check the library against.

Each is stated as plainly as its definition allows and is called only from
the tests: syntactic matching and substitution, the list decoding that
inverts `encode_input`, B-safety, term classification, the arithmetic
representation-space sizes and their iterated-exponential bound, the
semi-outermost trace check, and `ReferenceFixpoint`, a tabulating evaluator
of the confirmation calculus that shares no code with the solver.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from consfree.engine import Step, replay_trace
from consfree.solver import NotProductConsFree
from consfree.syntax import CONS_NAME, NIL_NAME
from consfree.terms import (
    Arrow,
    Atrs,
    FuncSym,
    Matcher,
    PairHead,
    Product,
    SimpleType,
    Sort,
    Term,
    Variable,
    apply_term,
    arg_types,
    flatten_product,
    is_basic,
    is_data,
    is_pattern,
    pair,
    result_type,
    subterms,
)
from consfree.validation import BSet


# -- terms -------------------------------------------------------------------


def match(pattern: Term, t: Term) -> Optional[Dict[Variable, Term]]:
    """Match pattern against t, or None.

    Repeated variables are permitted and must bind syntactically equal terms.
    """
    # a term of another type has, under an equal head, other arguments
    if pattern.args and pattern.type != t.type:
        return None
    matcher = Matcher((pattern,))
    env = [t]
    if not matcher((t,), env):
        return None
    return {v: env[slot] for v, slot in matcher.slots.items()}


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


def classify(t: Term) -> str:
    """Classify t as 'data', 'pattern', 'basic', or 'none-of-these'."""
    if is_data(t):
        return "data"
    if is_pattern(t):
        return "pattern"
    if is_basic(t):
        return "basic"
    return "none-of-these"


def decode_list(t: Term) -> Optional[str]:
    """Inverse of encode_input for lists of nullary constructors, else None."""
    chars = []
    while True:
        head = t.head
        if not isinstance(head, FuncSym) or not head.is_constructor:
            return None
        if head.name == NIL_NAME and not t.args:
            return "".join(chars)
        if head.name == CONS_NAME and len(t.args) == 2 and not t.args[0].args:
            first = t.args[0].head
            if not isinstance(first, FuncSym):
                return None
            chars.append(first.name)
            t = t.args[1]
            continue
        return None


def is_B_safe(t: Term, B: BSet) -> bool:
    """Every constructor-headed subterm of t lies in B."""
    return all(
        s in B
        for s in subterms(t)
        if isinstance(s.head, FuncSym) and s.head.is_constructor
    )


# -- representation-space sizes ----------------------------------------------


def repr_cardinality(ty: SimpleType, sort_sizes: Dict[str, int]) -> int:
    """Exact representation-space size from per-sort universe sizes."""
    if isinstance(ty, Sort):
        return 2 ** sort_sizes.get(ty.name, 0)
    if isinstance(ty, Product):
        product = 1
        for comp in flatten_product(ty):
            if not isinstance(comp, Sort):
                raise NotProductConsFree(f"product type {ty} has a functional component")
            product *= sort_sizes.get(comp.name, 0)
        return 2 ** product
    return repr_cardinality(ty.res, sort_sizes) ** repr_cardinality(ty.arg, sort_sizes)


def _chain_width(ty: SimpleType) -> int:
    """The largest number of types along any arrow spine occurring in ty."""
    if isinstance(ty, Sort):
        return 1
    if isinstance(ty, Product):
        return max(_chain_width(comp) for comp in flatten_product(ty))
    spine = arg_types(ty) + [result_type(ty)]
    return max(len(spine), max(_chain_width(part) for part in spine))


def _max_product_width(ty: SimpleType) -> int:
    if isinstance(ty, Sort):
        return 1
    if isinstance(ty, Product):
        return max(
            len(flatten_product(ty)),
            max(_max_product_width(comp) for comp in flatten_product(ty)),
        )
    return max(_max_product_width(ty.arg), _max_product_width(ty.res))


def within_cardinality_bound(value: int, ty: SimpleType, N: int) -> bool:
    """Whether value fits under the iterated-exponential ceiling
    exp2^(K+1)(d^K * N^b) on the representation-space size of a type over a
    data universe with N elements per sort. The tower is never materialized:
    each exponentiation level is inverted with a ceiling log2."""
    K = ty.order()
    d = _chain_width(ty)
    b = _max_product_width(ty)
    base = (d ** K) * (N ** b)
    for _ in range(K + 1):
        if value <= 1:
            return True
        value = (value - 1).bit_length()  # ceil(log2(value))
    return value <= base


# -- traces ------------------------------------------------------------------


def validate_semi_outermost(root: Term, steps: List[Step], atrs: Atrs) -> bool:
    """Check that a trace is semi-outermost: along every spine, arguments are
    only rewritten below non-variable pattern positions before the head step,
    and all sub-reductions have the same shape.

    The trace is replayed once. Each task is a position and the indices of
    the steps below it, in order, from `start` on; its term is the one at
    that position before its first step, which no earlier step above the
    position has moved."""
    terms = replay_trace(root, steps, atrs)  # raises NonReplayableTrace when invalid
    rules = {rule.name: rule for rule in atrs.rules}
    tasks: List[Tuple[Tuple[int, ...], List[int], int]] = [((), list(range(len(steps))), 0)]
    while tasks:
        path, indices, start = tasks.pop()
        if start == len(indices):
            continue
        t = terms[indices[start]]
        for i in path:
            t = t.args[i]
        depth = len(path)
        # the steps below an argument: all of them under a constructor or a
        # pair, which no step rewrites, those before the head step under a
        # defined symbol
        rule, end = None, len(indices)
        if isinstance(t.head, FuncSym) and not t.head.is_constructor:
            end = next(
                (n for n in range(start, end) if len(steps[indices[n]][1]) == depth), None
            )
            if end is None:
                return False
            rule = rules[steps[indices[end]][0]]
            tasks.append((path, indices, end + 1))
        per_arg: Dict[int, List[int]] = {}
        for j in indices[start:end]:
            i = steps[j][1][depth]
            if rule is not None:
                if i >= rule.arity:
                    return False
                pattern = rule.lhs.args[i]
                if isinstance(pattern.head, Variable) and not pattern.args:
                    return False
            per_arg.setdefault(i, []).append(j)
        tasks += [(path + (i,), sub, 0) for i, sub in per_arg.items()]
    return True


# -- the confirmation calculus, tabulated ------------------------------------


# the largest tabulation the tests run, majority (0 ; 1 ; 1 ; []), has 8,736
# statements and takes about a second
STATEMENT_CAP = 10_000


class TooManyStatements(Exception):
    """The full tabulation would hold more statements than STATEMENT_CAP."""


class Table:
    """A function between finite spaces: a dict from each domain value to its
    image. Tables are compared and hashed by their entries, so a table can be
    a domain value or a dict key itself."""

    __slots__ = ("entries", "_key")

    def __init__(self, entries: Dict) -> None:
        self.entries = entries
        self._key = frozenset(entries.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Table) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


class ReferenceFixpoint:
    """Every statement `f A1 .. Am ~> t` of a system over the data universe
    of a basic term s, with the step that first confirms it.

    B holds the data subterms of s and of every right-hand side. A sort or
    product of sorts denotes the subsets of its data terms, a frozenset
    each, and an arrow type every `Table` from its argument's space into its
    result's. The value of a statement group `f A1 .. Am` at step 0 is
    empty, and at step i it is its value at step i-1 joined with what every
    rule instance for it makes of its right-hand side, applied to the
    arguments past the rule's own, under the groups' values at step i-1. An
    instance binds a variable pattern to its argument, and each variable of
    a constructor or pair pattern to the singleton of the subterm it matches
    in one member of its argument. Every group is evaluated at every step,
    until a step confirms nothing new.

    The system must have no constructor of order above one: the solver
    drops those and the rules that mention them before it starts."""

    def __init__(self, atrs: Atrs, s: Term) -> None:
        self.B = frozenset(
            u for root in [s] + [rule.rhs for rule in atrs.rules]
            for u in subterms(root) if u.is_data
        )
        self._rules: Dict[str, List] = {}
        for rule in atrs.rules:
            self._rules.setdefault(rule.lhs.head.name, []).append(rule)
        defined = [f for f in atrs.symbols.values() if not f.is_constructor]
        count = 0
        for f in defined:
            args = 1
            for ty in arg_types(f.type):
                args = min(args * self._card(ty), STATEMENT_CAP + 1)
            count += args * len(self.data(result_type(f.type)))
        if count > STATEMENT_CAP:
            raise TooManyStatements(f"over {STATEMENT_CAP} statements")
        self._spaces: Dict[SimpleType, List] = {}
        # each group with its rule instances: a right-hand side, its env and
        # the arguments past its rule's own
        groups = [
            ((f.name, args), self._instances(f.name, args))
            for f in defined
            for args in itertools.product(*map(self._space, arg_types(f.type)))
        ]
        # (name, args) -> value; (name, args, target) -> first step
        self._values: Dict[Tuple, frozenset] = {}
        self.first: Dict[Tuple, int] = {}
        step = 0
        while True:
            step += 1
            fresh = {}
            for key, instances in groups:
                old = self._values.get(key, frozenset())
                new = set(old)
                for rhs, env, extra in instances:
                    new |= self._value(rhs, env, extra)
                if len(new) > len(old):
                    fresh[key] = frozenset(new)
                    for target in new - old:
                        self.first[(*key, target)] = step
            if not fresh:
                break
            self._values.update(fresh)
        start = tuple(frozenset([a]) for a in s.args)
        self.answer = self._values.get((s.head.name, start), frozenset())

    def data(self, ty: SimpleType) -> List[Term]:
        """The data terms of a sort or product of sorts over B."""
        if isinstance(ty, Product):
            return [pair(a, b) for a in self.data(ty.left) for b in self.data(ty.right)]
        return [t for t in self.B if t.type is ty]

    def _card(self, ty: SimpleType) -> int:
        """The size of ty's space, or the cap plus one when it is larger."""
        if isinstance(ty, Arrow):
            size = self._card(ty.res) ** self._card(ty.arg)
        else:
            size = 2 ** min(len(self.data(ty)), STATEMENT_CAP.bit_length())
        return min(size, STATEMENT_CAP + 1)

    def _space(self, ty: SimpleType) -> List:
        """Every value of type ty."""
        found = self._spaces.get(ty)
        if found is None:
            if isinstance(ty, Arrow):
                dom, cod = self._space(ty.arg), self._space(ty.res)
                found = [
                    Table(dict(zip(dom, images)))
                    for images in itertools.product(cod, repeat=len(dom))
                ]
            else:
                data = self.data(ty)
                found = [
                    frozenset(chosen)
                    for k in range(len(data) + 1)
                    for chosen in itertools.combinations(data, k)
                ]
            self._spaces[ty] = found
        return found

    def _instances(self, name: str, args: Tuple) -> List[Tuple[Term, Dict, List]]:
        """The rule instances for `name args`."""
        instances = []
        for rule in self._rules.get(name, ()):
            patterns = rule.lhs.args
            envs: List[Dict[str, object]] = [{}]
            for pattern, arg in zip(patterns, args):
                if isinstance(pattern.head, Variable) and not pattern.args:
                    envs = [{**env, pattern.head.name: arg} for env in envs]
                    continue
                found = [m for member in arg if (m := match(pattern, member)) is not None]
                envs = [
                    {**env, **{v.name: frozenset([u]) for v, u in subst.items()}}
                    for env in envs
                    for subst in found
                ]
            instances += [(rule.rhs, env, list(args[len(patterns):])) for env in envs]
        return instances

    def _value(self, t: Term, env: Dict[str, object], extra: List = ()):
        """The value of t applied to the values in extra, under env."""
        if t.is_data:
            if t not in self.B:
                raise ValueError(f"data term {t} lies outside B")
            return frozenset([t])
        args = [self._value(a, env, ()) for a in t.args] + list(extra)
        head = t.head
        if isinstance(head, Variable):
            value = env[head.name]
            for a in args:
                value = value.entries[a]
            return value
        if isinstance(head, PairHead):
            left, right = args
            return frozenset(pair(a, b) for a in left for b in right)
        if head.is_constructor:
            if any(len(a) != 1 for a in args):
                raise ValueError(f"{t} does not denote one data term")
            ty = head.type
            for _ in args:
                ty = ty.res
            built = Term(head, tuple(next(iter(a)) for a in args), ty)
            if built not in self.B:
                raise ValueError(f"data term {built} lies outside B")
            return frozenset([built])
        return self._call(head, args)

    def _call(self, f: FuncSym, args: List):
        """The value at the previous step of f applied to args: a group's
        value when f is saturated, else the table over its next argument."""
        types = arg_types(f.type)
        if len(args) == len(types):
            return self._values.get((f.name, tuple(args)), frozenset())
        return Table({x: self._call(f, args + [x]) for x in self._space(types[len(args)])})
