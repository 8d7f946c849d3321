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
from itertools import product
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
    """Subsets of a fixed, ordered universe of data elements."""

    def __init__(self, ty: SimpleType, universe: Sequence):
        self.type = ty
        self.universe = tuple(universe)
        self.card = 2 ** len(self.universe)
        self._position = {elem: i for i, elem in enumerate(self.universe)}

    def index_of(self, value: FrozenSet) -> int:
        mask = 0
        for elem in value:
            mask |= 1 << self._position[elem]
        return mask

    def elem_at(self, index: int) -> FrozenSet:
        return frozenset(
            elem for i, elem in enumerate(self.universe) if index >> i & 1
        )


@dataclass(frozen=True)
class FnRepr:
    """A tabulated function: table[i] is the value at domain element i."""

    space: "FnSpace" = field(compare=False, hash=False, repr=False)
    table: Tuple = ()

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.table)
            object.__setattr__(self, "_hash", cached)
        return cached

    def apply(self, arg: Repr) -> Repr:
        return self.table[self.space.dom.index_of(arg)]


class FnSpace:
    """All functions from one space into another, in tabulated form."""

    def __init__(self, ty: SimpleType, dom, cod):
        self.type = ty
        self.dom = dom
        self.cod = cod
        self.card = cod.card ** dom.card

    def index_of(self, value: FnRepr) -> int:
        index = 0
        weight = 1
        for entry in value.table:
            index += self.cod.index_of(entry) * weight
            weight *= self.cod.card
        return index

    def elem_at(self, index: int) -> FnRepr:
        table = []
        for _ in range(self.dom.card):
            table.append(self.cod.elem_at(index % self.cod.card))
            index //= self.cod.card
        return FnRepr(self, tuple(table))


def build_space(ty: SimpleType, B: BSet, budget: int, cache: Dict) -> object:
    """The representation space of a type over the data universe B."""
    space = cache.get(ty)
    if space is not None:
        return space
    if isinstance(ty, Sort):
        space = SetSpace(ty, B.of_type(ty))
    elif isinstance(ty, Product):
        for comp in flatten_product(ty):
            if not isinstance(comp, Sort):
                raise NotProductConsFree(
                    f"product type {ty} has a functional component"
                )
        space = SetSpace(ty, _members(ty, B))
    else:
        dom = build_space(ty.arg, B, budget, cache)
        cod = build_space(ty.res, B, budget, cache)
        space = FnSpace(ty, dom, cod)
    if space.card > budget:
        raise ReprSpaceTooLarge(ty, space.card, budget)
    cache[ty] = space
    return space


def _members(ty: SimpleType, B: BSet) -> List[Term]:
    """The data terms of a sort or product of sorts: pairs in lexicographic
    order of their components."""
    if isinstance(ty, Sort):
        return B.of_type(ty)
    right = _members(ty.right, B)
    return [pair(left, r) for left in _members(ty.left, B) for r in right]


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


@dataclass(frozen=True)
class Stmt:
    """A statement `f A1 .. Am ~> target` over representations."""

    fname: str
    args: Tuple[Repr, ...]
    target: Term  # a data term; at a product sort, a pair term


class _Group:
    """The statements `fname args ~> t` for each of its `count` targets t.
    `history` holds a (step, value) snapshot for each evaluation that
    confirmed a target, at strictly increasing steps, and is the only record
    of confirmations: the group's value at step i is that of the last
    snapshot at a step <= i. `value` and `last` are the latest snapshot's,
    so `value` is the group's value at every step from `last` on. The group
    is open while fewer than `count` targets are confirmed. `plans` are the
    rule instances, built on first evaluation. `deps` are the groups its
    last evaluation read, `dependents` the groups whose evaluations read it,
    and `wake` the step of its next evaluation, if one is due: its values
    are known through step i exactly when no evaluation of it is due at a
    step <= i."""

    __slots__ = (
        "fname", "args", "count", "history", "value", "last", "plans", "deps",
        "dependents", "wake",
    )

    def __init__(self, fname: str, args: Tuple[Repr, ...], count: int) -> None:
        self.fname = fname
        self.args = args
        self.count = count
        self.history: List[Tuple[int, FrozenSet]] = []
        self.value: FrozenSet = frozenset()
        self.last = 0
        self.plans: Optional[List[Tuple["Code", List]]] = None
        self.deps: set = set()
        self.dependents: Dict["_Group", None] = {}
        self.wake: Optional[int] = None

    @property
    def open(self) -> bool:
        return len(self.value) < self.count

    def at(self, i: int) -> FrozenSet:
        """The group's value at step i."""
        if i >= self.last:
            return self.value
        value = frozenset()
        for step, snapshot in self.history:
            if step > i:
                break
            value = snapshot
        return value


class _Blocked(Exception):
    """An evaluation must read a group at a step its values are not known
    through."""


# A compiled term: code(i, env, deps) is the term's representation at step i,
# where env holds a rule instance's arguments, its matched patterns'
# variables and the group of each static call site, or a query's variables;
# it adds every group it reads to deps.
Code = Callable[[int, List, set], Repr]


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
        # per query term, its code and variable names; per data term, its
        # singleton; per head, its rules compiled
        self._queries: Dict[Term, Tuple[Code, List[str]]] = {}
        self._singletons: Dict[Term, FrozenSet] = {}
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
        # none of them below _low
        self._demanded = 0
        self._confirmed = 0
        self._due: List[List[_Group]] = [[], []]
        self._low = 1

    @property
    def confirmed_at(self) -> Dict[Stmt, int]:
        """Every confirmed statement and the step that first confirmed it,
        built from the groups' histories on each access: the earliest
        snapshot that holds a target is written last."""
        return {
            Stmt(group.fname, group.args, target): at
            for group in self.groups.values()
            for at, value in reversed(group.history)
            for target in value
        }

    # -- spaces and targets ---------------------------------------------

    def space(self, ty: SimpleType):
        return build_space(ty, self.B, self.space_budget, self.spaces)

    def targets(self, ty: SimpleType) -> Sequence[Term]:
        if isinstance(ty, Sort):
            return self.B.of_type(ty)
        if isinstance(ty, Product):
            return self.space(ty).universe
        raise NotBasic(f"{ty} is not a base type")

    def statement_count(self) -> int:
        """The arithmetic number of statements over all defined symbols."""
        total = 0
        for sym in self.atrs.defined_symbols():
            product = 1
            for ty in arg_types(sym.type):
                product *= self.space(ty).card
            total += product * len(self.targets(result_type(sym.type)))
        return total

    # -- data representations -------------------------------------------

    def _singleton(self, t: Term) -> FrozenSet:
        """The singleton of a data term whose components lie in B, one object
        per term."""
        value = self._singletons.get(t)
        if value is None:
            stack = [t]
            while stack:
                u = stack.pop()
                if isinstance(u.head, PairHead):
                    stack += u.args
                elif u not in self.B:
                    raise NonBSafeTerm(
                        f"data term {print_term(u)} lies outside the universe"
                    )
            value = self._singletons[t] = frozenset((t,))
        return value

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
                value = self._singleton(t)
                return (lambda i, env, deps: value), False
            except NonBSafeTerm:
                pass  # compiled below, to raise when evaluated
        compiled = [self._compile(a, slots, sites) for a in t.args]
        codes = [code for code, _ in compiled]
        calls = any(called for _, called in compiled)
        if isinstance(head, Variable):
            name, slot = head.name, slots[head.name]

            def variable(i, env, deps):
                value = env[slot]
                if value is None:
                    raise UnboundVariable(f"variable {name} is not bound")
                for code in codes:
                    value = value.apply(code(i, env, deps))
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
        name = head.name
        read = self._tabulate if isinstance(t.type, Arrow) else self._read

        def call(i, env, deps):
            args = []
            for code in codes:
                args.append(code(i, env, deps))
            return read(i, name, tuple(args), deps)

        return call, True

    def _compile_data(self, t: Term, codes: List[Code]) -> Code:
        """The code of a pair or constructor term t that is not a constant of
        B: its head applied to each choice of argument values. A constructor
        term's value must be one data term of B; in a rule instance its
        variables are bound to singletons."""
        head, ty = t.head, t.type
        if isinstance(head, PairHead):
            return lambda i, env, deps: frozenset(
                [pair(left, right) for left, right in product(*[c(i, env, deps) for c in codes])]
            )
        singleton = self._singleton

        def build(i, env, deps):
            built = [Term(head, args, ty) for args in product(*[c(i, env, deps) for c in codes])]
            if len(built) != 1:
                raise NonBSafeTerm(f"{print_term(t)} does not denote one data term")
            return singleton(built[0])

        return build

    def _compile_rule(self, rule: Rule) -> Tuple:
        """The rule's right-hand side, padded to its head's full arity, as
        code; its constructor and pair patterns with their argument indices,
        ground ones first, each other one with its matcher and the slots of
        the matcher's variables; the slots by variable name; and the static
        call sites. Slot j holds argument j, under a top-level variable's or
        pad's name or, for a pattern, a placeholder, and the patterns'
        variables follow, in each matcher's bind order."""
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
            matcher, targets = None, ()
            if not pattern.is_data:
                matcher = Matcher((pattern,))
                targets = tuple(slots.setdefault(v.name, len(slots)) for v in matcher.slots)
            matched[n] = (j, pattern, matcher, targets)
        sites: List[Tuple[str, List[Code]]] = []
        code, _ = self._compile(apply_term(rule.rhs, *pads), slots, sites)
        return code, matched, slots, sites

    def _query(self, t: Term) -> Tuple[Code, List[str]]:
        """The code of a query term, compiled on first use, and the names of
        its variables in slot order."""
        found = self._queries.get(t)
        if found is None:
            names = sorted({v.name for v in variables(t)})
            slots = {name: k for k, name in enumerate(names)}
            found = self._queries[t] = (self._compile(t, slots, None)[0], names)
        return found

    # -- evaluation -----------------------------------------------------

    def _read(self, i: int, name: str, args: Tuple[Repr, ...], deps: set) -> FrozenSet:
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

    def _tabulate(self, i: int, name: str, prefix: Tuple[Repr, ...], deps: set) -> FnRepr:
        """The table at step i of `name prefix` over its next argument."""
        head = self.symbols[name]
        types = arg_types(head.type)
        next_ty = types[len(prefix)]
        remaining = head.type
        for _ in range(len(prefix)):
            remaining = remaining.res
        fn_space = self.space(remaining)
        dom = self.space(next_ty)
        table = []
        for index in range(dom.card):
            extended = prefix + (dom.elem_at(index),)
            if len(extended) == head.arity:
                table.append(self._read(i, name, extended, deps))
            else:
                table.append(self._tabulate(i, name, extended, deps))
        return FnRepr(fn_space, tuple(table))

    # -- statements -----------------------------------------------------

    def plans(self, fname: str, args: Tuple[Repr, ...]) -> List:
        """The rule instances for `fname args`, demanding the groups of their
        static call sites. An instance is a rule's code, shared by its
        instances, with an env: a copy of the arguments, then, one instance
        per choice of a member matching each constructor or pair pattern,
        that pattern's variables bound to singleton data values, then the
        group of each static call site. A ground pattern matches exactly when
        its argument holds it."""
        plans = []
        for code, matched, slots, sites in self._compiled.get(fname, ()):
            envs = [[*args, *[None] * (len(slots) - len(args))]]
            for j, pattern, matcher, targets in matched:
                if matcher is None:
                    if pattern in args[j]:
                        continue
                    envs = []
                    break
                matches = []
                for member in args[j]:
                    found = [member]
                    if matcher((member,), found):
                        matches.append(
                            [(slot, self._singleton(d)) for slot, d in zip(targets, found[1:])]
                        )
                extended = []
                for env in envs:
                    for match in matches:
                        bound = env.copy()
                        for slot, value in match:
                            bound[slot] = value
                        extended.append(bound)
                envs = extended
            for env in envs:
                for name, codes in sites:
                    env.append(self._group(name, tuple([c(0, env, None) for c in codes])))
                plans.append((code, env))
        return plans

    def rule_union(self, j: int, group: _Group):
        """Everything any rule instance for the group's call can produce at
        step j, and the groups read to find it."""
        if group.plans is None:
            group.plans = self.plans(group.fname, group.args)
        deps: set = set()
        out: set = set()
        for code, env in group.plans:
            out |= code(j - 1, env, deps)
        return out, deps

    def _group(self, fname: str, args: Tuple[Repr, ...]) -> _Group:
        """The group of `fname args ~> t` for every target t, demanding it: a
        group with targets is due at step 1."""
        group = self.groups.get((fname, args))
        if group is None:
            count = len(self.targets(result_type(self.symbols[fname].type)))
            group = self.groups[(fname, args)] = _Group(fname, args, count)
            self._demanded += count
            if count:
                self._schedule(group, 1)
        return group

    def conf(self, i: int, stmt: Stmt) -> bool:
        """Whether the statement is confirmed at step i."""
        group = self._group(stmt.fname, stmt.args)
        self._fixpoint([])
        return stmt.target in group.at(i)

    def _schedule(self, group: _Group, step: int) -> None:
        group.wake = step
        self._due[step].append(group)
        if step < self._low:
            self._low = step

    def _evaluate(self, group: _Group, step: int) -> None:
        """Evaluate the group at step, reading the values at step-1."""
        union, deps = self.rule_union(step, group)
        group.deps = deps
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
        fresh = union - group.value
        if fresh:
            group.value = group.value | fresh
            group.last = step
            group.history.append((step, group.value))
            self._confirmed += len(fresh)
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
                self._schedule(group, k)

    def _fixpoint(self, queries: List[Tuple[Code, List]]) -> List[Repr]:
        """Run layers until one confirms and demands nothing new and the
        queries' values repeat; returns those values. Layer L = step + 1
        evaluates only the groups due at L, those that read a statement
        confirmed at L-1 and those demanded on the way (due at step 1), and
        then the queries at L."""
        previous: Optional[List[Repr]] = None
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

    def advance_to_fixpoint(self, seeds: List[Stmt]) -> int:
        """Demand the seeds and run layers to the fixpoint; returns the step
        of the last layer."""
        for stmt in seeds:
            self._group(stmt.fname, stmt.args)
        self._fixpoint([])
        return self.step

    def evaluate(self, queries: List[Tuple[Term, Dict[str, Repr]]]) -> List[Repr]:
        """Evaluate terms under environments, dicts from variable names to
        representations, at the stable table, extending the demanded
        fragment as needed."""
        compiled = []
        for t, eta in queries:
            code, names = self._query(t)
            compiled.append((code, [eta.get(name) for name in names]))
        return self._fixpoint(compiled)


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
    args = tuple(solver._singleton(arg) for arg in s.args)
    res_ty = result_type(head.type)
    seeds = [Stmt(head.name, args, target) for target in solver.targets(res_ty)]
    steps = solver.advance_to_fixpoint(seeds)
    seed = solver.groups.get((head.name, args))
    found = list(seed.value) if seed is not None else []
    return SolveResult(
        sorted(found, key=print_term),
        steps,
        solver.statement_count(),
        solver._demanded,
        solver,
    )
