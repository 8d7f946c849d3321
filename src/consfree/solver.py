"""Exact data-normal-form saturation for cons-free systems.

Terms are evaluated over finite representation spaces: a base sort denotes
subsets of the data universe of that sort, an arrow type denotes tabulated
functions between spaces, and a product sort denotes subsets of pair terms.
Statements `f A1 .. Am ~> t` are confirmed by a step-indexed fixpoint; the
implementation materializes only the statements the root question demands,
but computes for each of them exactly the step-indexed values of the full
tabulation: evaluation at step i reads only step-(i-1) values.

The statements that share `f A1 .. Am` form a group: they are confirmed from
one value, what any rule instance for `f A1 .. Am` produces at the previous
step, so the group is the unit of evaluation and storage.

The fixpoint runs in layers, one per step (semi-naive evaluation). Invariant:
once layer L is done, every demanded group's values are known through step L,
and each open group that read one with a statement first confirmed at L is
due at L+1. Layer L+1 evaluates only those due groups, found through a
reverse index from each group to the groups whose last evaluation read it;
every other group keeps its values without a visit. All due evaluations sit
on one worklist, a list of per-step buckets with a low-water mark below which
every bucket is empty, always taken at its lowest step. One rule says whose
values are known: a group's values are known through step i exactly when no
evaluation of it is due at a step <= i. A group is due at step 1 from its
demand, so a group demanded while an evaluation at step k runs is the only
kind an evaluation can find unknown; that evaluation is abandoned
(`_Blocked`) and re-queued at k, and the lowest-step order brings the group
up to date through k-1 before the retry. A group is therefore evaluated at
step 1 and again right after each step that confirmed a statement of a group
it read, while it has an unconfirmed statement, and at no other step, so at
strictly increasing steps; each evaluation that confirms a statement stores
a (step, value) snapshot, so the group's value at any step is stored.

Inside the solver every value is an int, and only the solver codes it: at a
sort or a product, a bit mask over the type's data terms (a pair's bit is its
left component's rank times the right size plus its right component's), and
at an arrow type, an index whose digit x, in base the codomain's card, codes
the value at domain element x. Spaces keep only sizes. Frozensets and
`FnRepr` tables exist only at the boundary, through `encode` and `decode`.

A solver is built over a fixed data universe B, and each rule's right-hand
side, padded to full arity, is compiled once, at construction, in one
recursive pass into a tree of closures (closure generation), one per node.
Env slot j holds a rule instance's argument j, its patterns' variables
follow, bound by each constructor or pair pattern's `terms.Matcher`, the
one the engine matches with; a variable reads its slot and applies it to its arguments in turn,
a data constant is a prebuilt singleton, a call builds its argument tuple
in a loop and reads its group, and a pair or constructor term is its head
applied to each choice of argument values. Cons-freeness binds a
constructor term's variables to single data terms, so its value must be
one term of B. The pass also reports whether a term calls a defined
symbol; a call whose arguments call none is static: a rule instance's
arguments fix it, so the instance is built with its group, demanded there
and then, and the call's closure adds that group to the evaluation's reads,
as every other read does. Instances are built at their group's first
evaluation, at step 1, which reads every group at step 0, where all values
are empty; so a static call never reads an unknown value, and only nested
calls, whose arguments are computed, abandon an evaluation. `evaluate`
compiles its query terms the same way, with every call read through the
group table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .terms import (
    Arrow,
    Atrs,
    FuncSym,
    Matcher,
    PairHead,
    Product,
    Rule,
    SimpleType,
    Sort,
    Term,
    Variable,
    apply_term,
    arg_types,
    flatten_product,
    is_basic,
    pair,
    print_term,
    result_type,
    sym_term,
    variables,
)
from .validation import BSet, NotBasic, check, compute_B, prune_ho_constructors

DEFAULT_SPACE_BUDGET = 2 ** 20


class NotConsFree(Exception):
    """The system is outside the cons-free class the solver requires."""


class NotProductConsFree(Exception):
    """The system (or a product type in it) is outside the product-cons-free
    class the solver requires."""


class ReprSpaceTooLarge(Exception):
    """A representation space exceeds the budget; carries the exact size."""

    def __init__(self, ty: SimpleType, cardinality: int, budget: int):
        super().__init__(
            f"representation space for {ty} has {cardinality} elements, "
            f"budget allows {budget}"
        )
        self.type = ty
        self.cardinality = cardinality
        self.budget = budget


class UnboundVariable(Exception):
    """Evaluation met a variable with no environment entry."""


class NonBSafeTerm(Exception):
    """Evaluation met a constructor term outside the data universe."""


Repr = Union[FrozenSet, "FnRepr"]


class SetSpace:
    """Subsets of the `size` data terms of a sort or product of sorts, as
    bit masks."""

    def __init__(self, ty: SimpleType, size: int):
        self.type = ty
        self.size = size
        self.card = 2 ** size


@dataclass(frozen=True)
class FnRepr:
    """A tabulated function: table[i] is the value at domain element i."""

    table: Tuple = ()


class FnSpace:
    """All functions from one space into another, as indices."""

    def __init__(self, ty: SimpleType, dom, cod):
        self.type = ty
        self.dom = dom
        self.cod = cod
        self.card = cod.card ** dom.card


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_space(ty: SimpleType, B: BSet, budget: int, cache: Dict) -> object:
    """The representation space of a type over the data universe B."""
    space = cache.get(ty)
    if space is not None:
        return space
    if isinstance(ty, Sort):
        space = SetSpace(ty, len(B.of_type(ty)))
    elif isinstance(ty, Product):
        size = 1
        for comp in flatten_product(ty):
            if not isinstance(comp, Sort):
                raise NotProductConsFree(
                    f"product type {ty} has a functional component"
                )
            size *= len(B.of_type(comp))
        space = SetSpace(ty, size)
    else:
        dom = build_space(ty.arg, B, budget, cache)
        cod = build_space(ty.res, B, budget, cache)
        space = FnSpace(ty, dom, cod)
    if space.card > budget:
        raise ReprSpaceTooLarge(ty, space.card, budget)
    cache[ty] = space
    return space


@dataclass(frozen=True)
class Stmt:
    """A statement `f A1 .. Am ~> target` over representations; its args are
    the decoded views, frozensets of data terms and `FnRepr` tables."""

    fname: str
    args: Tuple[Repr, ...]
    target: Term  # a data term; at a product sort, a pair term


class _Group:
    """The statements `fname args ~> t` for each of the `count` data terms t
    of the result type, where args are the int codes of the arguments and
    every value is a bit mask over those terms. `history` holds a (step,
    value) snapshot for each evaluation that confirmed a statement, at
    strictly increasing steps, and is the only record of confirmations: the
    group's value at step i is that of the last snapshot at a step <= i.
    `value` and `last` are the latest snapshot's, so `value` is the group's
    value at every step from `last` on. The group is open while fewer than
    `count` statements are confirmed.
    `plans` are the rule instances, built on first evaluation. `deps` is a
    tuple of the groups its last evaluation read, `dependents` the groups
    whose evaluations read it, and `wake` the step of its next evaluation,
    if one is due: its values are known through step i exactly when no
    evaluation of it is due at a step <= i."""

    __slots__ = (
        "fname", "args", "count", "history", "value", "last", "plans", "deps",
        "dependents", "wake",
    )

    def __init__(self, fname: str, args: Tuple[int, ...], count: int) -> None:
        self.fname = fname
        self.args = args
        self.count = count
        self.history: List[Tuple[int, int]] = []
        self.value = 0
        self.last = 0
        self.plans: Optional[List[Tuple["Code", List]]] = None
        self.deps: Tuple["_Group", ...] = ()
        self.dependents: Dict["_Group", None] = {}
        self.wake: Optional[int] = None

    @property
    def open(self) -> bool:
        return self.value.bit_count() < self.count

    def at(self, i: int) -> int:
        """The group's value at step i."""
        if i >= self.last:
            return self.value
        value = 0
        for step, snapshot in self.history:
            if step > i:
                break
            value = snapshot
        return value


class _Blocked(Exception):
    """An evaluation must read a group at a step its values are not known
    through."""


# A compiled term: code(i, env, deps) is the int code of the term's value at
# step i, where env holds a rule instance's arguments, its matched patterns'
# variables and the group of each static call site, or a query's variables;
# it adds every group it reads to deps.
Code = Callable[[int, List, set], int]


@dataclass
class SolveResult:
    """Reachable data normal forms of a basic term, with solver statistics."""

    normal_forms: List[Term]
    steps: int
    statements: int
    demanded: int
    solver: "Solver" = field(repr=False)


class Solver:
    """Step-indexed statement confirmation over representation spaces."""

    def __init__(
        self,
        atrs: Atrs,
        B: BSet,
        space_budget: int = DEFAULT_SPACE_BUDGET,
    ):
        """A solver for atrs, a system as `solvable` returns it, over the data
        universe B."""
        self.atrs = atrs
        self.B = B
        self.space_budget = space_budget
        self.spaces: Dict[SimpleType, object] = {}
        self.symbols = self.atrs.symbols
        # per query term, its code and variables; per term of B, its rank
        # among the terms of its type; per head, its rules compiled
        self._queries: Dict[Term, Tuple[Code, List[Tuple[str, SimpleType]]]] = {}
        types = {t.type for t in B.terms}
        self._rank = {t: k for ty in types for k, t in enumerate(B.of_type(ty))}
        self._compiled: Dict[str, List[Tuple]] = {}
        for rule in self.atrs.rules:
            if isinstance(rule.lhs.head, FuncSym):
                compiled = self._compiled.setdefault(rule.lhs.head.name, [])
                compiled.append(self._compile_rule(rule))
        self.groups: Dict[Tuple, _Group] = {}
        self.step = 0
        # _demanded: statements over all groups; _confirmed: statements
        # confirmed; _due[k]: the worklist's groups to evaluate at step k, for
        # each k through step + 1, the highest step a schedule names, and
        # none of them below _low; _evaluations and _blocked: rule unions
        # returned and abandoned
        self._demanded = 0
        self._confirmed = 0
        self._evaluations = self._blocked = 0
        self._due: List[List[_Group]] = [[], []]
        self._low = 1

    @property
    def confirmed_at(self) -> Dict[Stmt, int]:
        """Every confirmed statement and the step that first confirmed it,
        decoded from the groups' histories on each access: the earliest
        snapshot that holds a target is written last."""
        confirmed: Dict[Stmt, int] = {}
        views: Dict[Tuple[SimpleType, int], Repr] = {}
        for group in self.groups.values():
            if group.history:
                args = self.decode_args(group.fname, group.args, views)
                ty = result_type(self.symbols[group.fname].type)
                for at, value in reversed(group.history):
                    for target in self.decode(ty, value):
                        confirmed[Stmt(group.fname, args, target)] = at
        return confirmed

    def stats(self) -> Dict[str, int]:
        """The solver's counters: statements demanded and confirmed, groups,
        and rule unions returned and abandoned by a blocked read."""
        return {"demanded": self._demanded, "confirmed": self._confirmed,
                "groups": len(self.groups), "evaluations": self._evaluations,
                "blocked": self._blocked}

    # -- spaces and sizes -----------------------------------------------

    def space(self, ty: SimpleType):
        """The space of ty, built on first use, which checks its budget."""
        return self.spaces.get(ty) or build_space(ty, self.B, self.space_budget, self.spaces)

    def _count(self, ty: SimpleType) -> int:
        """The number of data terms of a sort or product of sorts, building
        a product's space, so that its budget is checked."""
        if isinstance(ty, Product):
            return self.space(ty).size
        return len(self.B.of_type(ty))

    def statement_count(self) -> int:
        """The arithmetic number of statements over all defined symbols."""
        total = 0
        for sym in self.atrs.defined_symbols():
            product = 1
            for ty in arg_types(sym.type):
                product *= self.space(ty).card
            total += product * self._count(result_type(sym.type))
        return total

    # -- data representations and the boundary --------------------------

    def _size(self, ty: SimpleType) -> int:
        """The number of data terms of a sort or product of sorts."""
        if isinstance(ty, Product):
            return self._size(ty.left) * self._size(ty.right)
        return len(self.B.of_type(ty))

    def _index(self, t: Term) -> int:
        """The position of a data term whose components lie in B among the
        data terms of its type: the bit that stands for it."""
        if isinstance(t.head, PairHead):
            right = self._index(t.args[1])
            return self._index(t.args[0]) * self._size(t.type.right) + right
        k = self._rank.get(t)
        if k is None:
            raise NonBSafeTerm(f"data term {print_term(t)} lies outside the universe")
        return k

    def _member(self, ty: SimpleType, k: int) -> Term:
        """The data term at position k of a sort or product of sorts."""
        if isinstance(ty, Product):
            left, right = divmod(k, self._size(ty.right))
            return pair(self._member(ty.left, left), self._member(ty.right, right))
        return self.B.of_type(ty)[k]

    def encode(self, ty: SimpleType, value: Optional[Repr]) -> Optional[int]:
        """The int code of a representation of type ty; None stays None."""
        if value is None:
            return None
        if not isinstance(ty, Arrow):
            return sum(1 << self._index(t) for t in value)
        card = self.space(ty).cod.card
        index, weight = 0, 1
        for entry in value.table:
            index += self.encode(ty.res, entry) * weight
            weight *= card
        return index

    def decode(self, ty: SimpleType, code: int) -> Repr:
        """The representation of type ty that code stands for."""
        if not isinstance(ty, Arrow):
            return frozenset(self._member(ty, k) for k in _bits(code))
        space = self.space(ty)
        table = []
        for _ in range(space.dom.card):
            code, digit = divmod(code, space.cod.card)
            table.append(self.decode(ty.res, digit))
        return FnRepr(tuple(table))

    def decode_args(
        self, fname: str, args: Tuple[int, ...], views: Optional[Dict] = None
    ) -> Tuple[Repr, ...]:
        """The representations of the coded arguments of a call of fname;
        given views, equal arguments decode to one shared object kept there."""
        views = {} if views is None else views
        keys = list(zip(arg_types(self.symbols[fname].type), args))
        for key in keys:
            if key not in views:
                views[key] = self.decode(*key)
        return tuple(views[key] for key in keys)

    # -- compiling terms ------------------------------------------------

    def _compile(
        self, t: Term, slots: Dict[str, int], sites: Optional[List]
    ) -> Tuple[Code, bool]:
        """The code of t, whose variables read the env slots that slots
        names, and whether t calls a defined symbol. Given a sites list, a
        saturated call whose arguments call no defined symbol is static: its
        arguments depend on the environment alone, so it is appended to sites
        and reads its group from env, from the slot after the variables' and
        the earlier sites'; plans resolves it once per rule instance."""
        head = t.head
        if t.is_data:
            try:
                value = 1 << self._index(t)
                return (lambda i, env, deps: value), False
            except NonBSafeTerm:
                pass  # compiled below, to raise when evaluated
        compiled = [self._compile(a, slots, sites) for a in t.args]
        codes = [code for code, _ in compiled]
        calls = any(called for _, called in compiled)
        if isinstance(head, Variable):
            name, slot, spaces = head.name, slots[head.name], self.spaces

            def variable(i, env, deps):
                value = env[slot]
                if value is None:
                    raise UnboundVariable(f"variable {name} is not bound")
                space = spaces[head.type]  # built before any value of its type
                for code in codes:
                    space = space.cod
                    value = value // space.card ** code(i, env, deps) % space.card
                return value

            def lookup(i, env, deps):
                value = env[slot]
                if value is None:
                    raise UnboundVariable(f"variable {name} is not bound")
                return value

            return (variable if codes else lookup), calls
        if isinstance(head, PairHead) or head.is_constructor:
            return self._compile_data(t, codes), calls
        if sites is not None and not calls and not isinstance(t.type, Arrow):
            slot = len(slots) + len(sites)
            sites.append((head.name, codes))

            def static(i, env, deps):
                group = env[slot]
                deps.add(group)
                return group.value if i >= group.last else group.at(i)

            return static, True
        name, ty = head.name, t.type
        read = partial(self._tabulate, ty=ty) if isinstance(ty, Arrow) else self._read

        def call(i, env, deps):
            args = []
            for code in codes:
                args.append(code(i, env, deps))
            return read(i, name, tuple(args), deps)

        return call, True

    def _compile_data(self, t: Term, codes: List[Code]) -> Code:
        """The code of a pair or constructor term t that is not a constant of
        B: its head applied to each choice of argument values. A pair's mask
        holds, for each bit k of its left value, its right value shifted by k
        times the right size. A constructor term's value must be one data
        term of B; in a rule instance its variables are bound to singletons."""
        head, ty = t.head, t.type
        if isinstance(head, PairHead):
            left, right = codes
            size = self._size(ty.right)

            def pairs(i, env, deps):
                lefts, rights = left(i, env, deps), right(i, env, deps)
                return sum(rights << k * size for k in _bits(lefts))

            return pairs
        index, member = self._index, self._member
        types = [a.type for a in t.args]

        def build(i, env, deps):
            values = [c(i, env, deps) for c in codes]
            if any(value.bit_count() != 1 for value in values):
                raise NonBSafeTerm(f"{print_term(t)} does not denote one data term")
            args = tuple(member(a, v.bit_length() - 1) for a, v in zip(types, values))
            return 1 << index(Term(head, args, ty))

        return build

    def _compile_rule(self, rule: Rule) -> Tuple:
        """The rule's right-hand side, padded to its head's full arity, as
        code; its constructor and pair patterns with their argument indices,
        ground ones first, each ground one with its bit (0 outside B), each
        other one with its type, its matcher and the slots of the matcher's
        variables; the slots by variable name; and the static call sites.
        Slot j holds argument j, under a top-level variable's or pad's name
        or, for a pattern, a placeholder, and the patterns' variables follow,
        in each matcher's bind order."""
        head = rule.lhs.head
        types = arg_types(head.type)
        pads = tuple(
            sym_term(Variable(f"#pad{j}", types[j])) for j in range(rule.arity, head.arity)
        )
        slots: Dict[str, int] = {}
        matched: List[Tuple] = []
        for j, pattern in enumerate(rule.lhs.args + pads):
            if isinstance(pattern.head, Variable):
                slots[pattern.head.name] = j
            else:
                slots[f"#arg{j}"] = j
                matched.append((j, pattern))
        matched.sort(key=lambda m: not m[1].is_data)
        for n, (j, pattern) in enumerate(matched):
            if pattern.is_data:
                try:
                    matched[n] = (j, 1 << self._index(pattern), None, None, ())
                except NonBSafeTerm:
                    matched[n] = (j, 0, None, None, ())
            else:
                matcher = Matcher((pattern,))
                bound = tuple(slots.setdefault(v.name, len(slots)) for v in matcher.slots)
                matched[n] = (j, 0, types[j], matcher, bound)
        sites: List[Tuple[str, List[Code]]] = []
        code, _ = self._compile(apply_term(rule.rhs, *pads), slots, sites)
        return code, matched, slots, sites

    def _query(self, t: Term) -> Tuple[Code, List[Tuple[str, SimpleType]]]:
        """The code of a query term, compiled on first use, and the names and
        types of its variables in slot order."""
        found = self._queries.get(t)
        if found is None:
            names = sorted({v.name: v.type for v in variables(t)}.items())
            slots = {name: k for k, (name, _) in enumerate(names)}
            found = self._queries[t] = (self._compile(t, slots, None)[0], names)
        return found

    # -- evaluation -----------------------------------------------------

    def _read(self, i: int, name: str, args: Tuple[int, ...], deps: set) -> int:
        """The value at step i of the group `name args`, demanding it and
        adding it to deps. Reading it at a step its values are not known
        through raises _Blocked."""
        group = self.groups.get((name, args))
        if group is None:
            group = self._group(name, args)
        deps.add(group)
        if group.wake is not None and group.wake <= i:
            raise _Blocked()
        return group.value if i >= group.last else group.at(i)

    def _tabulate(
        self, i: int, name: str, prefix: Tuple[int, ...], deps: set, ty: Arrow
    ) -> int:
        """The index at step i of `name prefix`, of type ty, over its next
        argument: domain element x, coded as x, contributes the value of
        `name prefix x` times the codomain's card to the power x."""
        space, res = self.spaces.get(ty) or self.space(ty), ty.res
        card = space.cod.card
        index, weight = 0, 1
        for x in range(space.dom.card):
            if isinstance(res, Arrow):
                value = self._tabulate(i, name, prefix + (x,), deps, res)
            else:
                value = self._read(i, name, prefix + (x,), deps)
            index += value * weight
            weight *= card
        return index

    # -- statements -----------------------------------------------------

    def plans(self, fname: str, args: Tuple[int, ...]) -> List:
        """The rule instances for `fname args`, demanding the groups of their
        static call sites. An instance is a rule's code, shared by its
        instances, with an env: a copy of the arguments, then, one instance
        per choice of a member matching each constructor or pair pattern,
        that pattern's variables bound to singletons, then the group of each
        static call site. A ground pattern matches exactly when its argument
        has its bit set."""
        plans = []
        for code, matched, slots, sites in self._compiled.get(fname, ()):
            envs = [[*args, *[None] * (len(slots) - len(args))]]
            for j, bit, ty, matcher, bound in matched:
                if matcher is None:
                    if args[j] & bit:
                        continue
                    envs = []
                    break
                matches = []
                for k in _bits(args[j]):
                    found = [self._member(ty, k)]
                    if matcher((found[0],), found):
                        matches.append(
                            [(slot, 1 << self._index(d)) for slot, d in zip(bound, found[1:])]
                        )
                extended = []
                for env in envs:
                    for match in matches:
                        copy = env.copy()
                        for slot, value in match:
                            copy[slot] = value
                        extended.append(copy)
                envs = extended
            for env in envs:
                for name, codes in sites:
                    env.append(self._group(name, tuple([c(0, env, None) for c in codes])))
                plans.append((code, env))
        return plans

    def rule_union(self, j: int, group: _Group):
        """Everything any rule instance for the group's call can produce at
        step j, as a mask, and the groups read to find it."""
        if group.plans is None:
            group.plans = self.plans(group.fname, group.args)
        deps: set = set()
        out = 0
        for code, env in group.plans:
            out |= code(j - 1, env, deps)
        return out, deps

    def _group(self, fname: str, args: Tuple[int, ...]) -> _Group:
        """The group of `fname args ~> t` for every data term t, demanding it:
        a group with a statement is due at step 1."""
        group = self.groups.get((fname, args))
        if group is None:
            count = self._count(result_type(self.symbols[fname].type))
            group = self.groups[(fname, args)] = _Group(fname, args, count)
            self._demanded += count
            if count:
                self._schedule(group, 1)
        return group

    def conf(self, i: int, stmt: Stmt) -> bool:
        """Whether the statement is confirmed at step i. Layers run only while
        a group is due, as a group this demands first is."""
        ty = self.symbols[stmt.fname].type
        group = self._group(stmt.fname, tuple(map(self.encode, arg_types(ty), stmt.args)))
        if any(self._due[self._low:]):
            self.advance_to_fixpoint()
        return stmt.target in self.decode(result_type(ty), group.at(i))

    def _schedule(self, group: _Group, step: int) -> None:
        group.wake = step
        self._due[step].append(group)
        if step < self._low:
            self._low = step

    def _evaluate(self, group: _Group, step: int) -> None:
        """Evaluate the group at step, reading the values at step-1."""
        union, deps = self.rule_union(step, group)
        self._evaluations += 1
        group.deps = deps = tuple(deps)
        group.wake = None
        wake = None
        for dep in deps:
            dep.dependents[group] = None
            # a statement read as unconfirmed, but confirmed since, first at
            # the first snapshot from step on
            if dep.last >= step:
                at = next(at for at, _ in dep.history if at >= step)
                if wake is None or at < wake:
                    wake = at
        fresh = union & ~group.value
        if fresh:
            group.value |= fresh
            group.last = step
            group.history.append((step, group.value))
            self._confirmed += fresh.bit_count()
        if wake is not None and group.open:
            self._schedule(group, wake + 1)
        if not fresh:
            return
        for reader in group.dependents:
            if (
                reader.open
                and (reader.wake is None or reader.wake > step + 1)
                and group in reader.deps
            ):
                self._schedule(reader, step + 1)

    # -- the fixpoint loop ----------------------------------------------

    def _run(self, last: int) -> None:
        """Evaluate the due groups through step last, always at the lowest due
        step. An evaluation that must read a group demanded since it began is
        re-queued at its own step, so the lower steps bring that group up to
        date before the retry. Each step evaluates a group once, and each
        retry follows a new group's demand, so more evaluations are a fault."""
        due = self._due
        evaluations = 0
        while self._low <= last:
            k = self._low
            bucket = due[k]
            if not bucket:
                self._low = k + 1
                continue
            group = bucket.pop()
            if group.wake != k:
                continue
            evaluations += 1
            if evaluations > len(self.groups) * (last + 1):
                raise AssertionError("evaluations exceeded the per-step bound")
            try:
                self._evaluate(group, k)
            except _Blocked:
                self._blocked += 1
                self._schedule(group, k)

    def advance_to_fixpoint(self, queries: Sequence[Tuple[Code, List]] = ()) -> List:
        """Run layers until one confirms and demands nothing new and the
        queries' values repeat; returns those values. Layer L = step + 1
        evaluates only the groups due at L, those that read a statement
        confirmed at L-1 and those demanded on the way (due at step 1), and
        then the queries at L."""
        previous: Optional[List[int]] = None
        rounds = 0
        while True:
            before = (self._confirmed, self._demanded)
            self.step += 1
            self._due.append([])
            values = None
            while values is None:
                self._run(self.step)
                known = len(self.groups)
                try:
                    values = [code(self.step, env, set()) for code, env in queries]
                except _Blocked:
                    # nothing is due through this step but what they demanded
                    if len(self.groups) == known:
                        raise AssertionError("a query read a group that is not due")
            stable = (self._confirmed, self._demanded) == before
            if stable and (not queries or values == previous):
                return values
            previous = values
            rounds += 1
            if rounds > self._demanded + len(queries) + 2:
                raise AssertionError("fixpoint exceeded the statement bound")

    def evaluate(self, queries: List[Tuple[Term, Dict[str, Repr]]]) -> List[Repr]:
        """Evaluate terms under environments, dicts from variable names to
        representations, at the stable table, extending the demanded
        fragment as needed; the environments are encoded and the values
        decoded here."""
        compiled = []
        for t, eta in queries:
            code, names = self._query(t)
            compiled.append((code, [self.encode(ty, eta.get(name)) for name, ty in names]))
        values = self.advance_to_fixpoint(compiled)
        return [self.decode(t.type, value) for (t, _), value in zip(queries, values)]


def solvable(atrs: Atrs) -> Atrs:
    """The system a solver runs on: atrs without its higher-order
    constructors and the rules that mention them, once atrs itself is
    checked to be cons-free, or product-cons-free under pairing."""
    verdict = check(atrs)
    if atrs.pairing:
        if not verdict.product_cons_free:
            raise NotProductConsFree(
                "; ".join(str(v) for v in verdict.violations) or "not product-cons-free"
            )
    elif not verdict.cons_free:
        raise NotConsFree("; ".join(str(v) for v in verdict.violations) or "not cons-free")
    return prune_ho_constructors(atrs)[0]


def solve(
    atrs: Atrs,
    s: Term,
    space_budget: int = DEFAULT_SPACE_BUDGET,
) -> SolveResult:
    """All data normal forms reachable from the basic term s, computed by
    statement saturation (no rewriting)."""
    if not is_basic(s):
        raise NotBasic(f"{print_term(s)} is not a basic term")
    pruned = solvable(atrs)
    solver = Solver(pruned, compute_B(s, pruned), space_budget)
    head = s.head
    if head.name not in solver.symbols:
        raise NotBasic(f"{head.name} was pruned from the system")
    seed = solver._group(head.name, tuple(1 << solver._index(arg) for arg in s.args))
    solver.advance_to_fixpoint()
    found = solver.decode(result_type(head.type), seed.value)
    return SolveResult(
        sorted(found, key=print_term),
        solver.step,
        solver.statement_count(),
        solver._demanded,
        solver,
    )
