"""Bounded nondeterministic rewriting: one-step reducts, search, and traces."""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .terms import (
    Atrs,
    FuncSym,
    Head,
    Matcher,
    Rule,
    Term,
    Variable,
    is_data,
    print_term,
)


FREE = "free"
INNERMOST = "innermost"
OUTERMOST = "outermost"
STRATEGIES = (FREE, INNERMOST, OUTERMOST)


class BudgetTooSmallForRoot(Exception):
    """The start term already exceeds the term-size budget."""


class NonReplayableTrace(Exception):
    """A recorded trace does not replay against the system."""


Step = Tuple[str, Tuple[int, ...]]  # rule name, spine-argument path


def format_step(step: Step) -> str:
    name, path = step
    where = ".".join(str(i) for i in path) if path else "ε"
    return f"{name} @ {where}"


@dataclass
class Budget:
    """Limits for breadth-first search over reducts."""

    max_steps: int = 1000
    max_terms: int = 100000
    max_term_size: int = 5000


@dataclass
class SearchResult:
    """Data normal forms found, whether the search was cut short, and a
    witness trace from the root to each normal form."""

    root: Term
    strategy: str
    data_normal_forms: frozenset
    exhausted: bool
    visited: int
    traces: Dict[Term, List[Step]] = field(default_factory=dict)


def _is_variable(t: Term) -> bool:
    return isinstance(t.head, Variable) and not t.args


def _compile_rhs(rhs: Term, slots: Dict[Variable, int], width: int) -> Callable:
    """The builder of a right-hand side, made in one walk, children first.
    It takes the env of a match, the spine arguments past the matched ones
    and the type of the whole, and makes one `Term(...)` per node that holds
    a variable: values are the env's slots, then the ground subterms, built
    here once, then the nodes built so far. A variable head applies its
    value to the node's arguments."""
    kinds: Dict[Term, Tuple[str, int]] = {}  # node -> ("env" | "const" | "step", index)
    consts: List[Term] = []
    steps: List[Tuple[Optional[Head], List[Tuple[str, int]], object]] = []
    stack = [rhs]
    while stack:
        u = stack[-1]
        if u in kinds:
            stack.pop()
            continue
        pending = [arg for arg in u.args if arg not in kinds]
        if pending:
            stack += pending
            continue
        stack.pop()
        head = u.head
        bound = isinstance(head, Variable) and head in slots
        if bound and not u.args:
            kinds[u] = ("env", slots[head])
        elif not bound and all(kinds[arg][0] == "const" for arg in u.args):
            kinds[u] = ("const", len(consts))
            consts.append(u)
        else:
            refs = [kinds[arg] for arg in u.args]
            if bound:
                head, refs = None, [("env", slots[u.head])] + refs
            kinds[u] = ("step", len(steps))
            steps.append((head, refs, u.type))
    if not steps:
        kind, at = kinds[rhs]
        fixed = consts[at] if kind == "const" else None

        def leaf(env, extra, ty):
            value = env[at] if fixed is None else fixed
            return Term(value.head, value.args + extra, ty) if extra else value

        return leaf
    base = {"env": 0, "const": width, "step": width + len(consts)}
    program = [(head, [base[k] + i for k, i in refs], ty) for head, refs, ty in steps]
    body, (root_head, root_refs, _) = program[:-1], program[-1]

    def build(env, extra, ty):
        values = env + consts
        for head, refs, node_ty in body:
            args = tuple([values[r] for r in refs])
            if head is None:
                image = args[0]
                values.append(Term(image.head, image.args + args[1:], node_ty))
            else:
                values.append(Term(head, args, node_ty))
        args = tuple([values[r] for r in root_refs]) + extra
        if root_head is None:
            image = args[0]
            return Term(image.head, image.args + args[1:], ty)
        return Term(root_head, args, ty)

    return build


class CompiledRule:
    """A rule compiled once per system: a matcher of its argument patterns
    whose heads at depth 1 and 2 its head's dispatch has compared, and a
    builder of its contractum."""

    __slots__ = ("rule", "name", "arity", "match", "build")

    def __init__(self, rule: Rule):
        self.rule = rule
        self.name = rule.name
        self.arity = rule.arity
        self.match = Matcher(rule.lhs.args, known=2)
        width = self.arity + len(self.match.binds)
        self.build = _compile_rhs(rule.rhs, self.match.slots, width)


class HeadRules:
    """The compiled rules of one defined symbol, in rule order, with a
    dispatch on its terms' spines. The key is the argument count, the head
    of each argument some rule has a pattern for, and the heads of those
    arguments' own arguments that some pattern fixes; each key maps to the
    rules whose heads at those places it agrees with, found on the key's
    first occurrence."""

    __slots__ = ("rules", "probes", "dispatch")

    def __init__(self, rules: List[CompiledRule]):
        # the places each rule fixes, with their heads: (i, -1) is argument
        # i, and (i, j) is argument j of argument i
        fixed = []
        for rule in rules:
            places = []
            for i, pattern in enumerate(rule.rule.lhs.args):
                if not _is_variable(pattern):
                    places.append(((i, -1), pattern.head))
                    places += [
                        ((i, j), p.head) for j, p in enumerate(pattern.args) if not _is_variable(p)
                    ]
            fixed.append(places)
        # key index k + 1 holds the head at the k-th place in sorted order
        ordered = sorted({place for places in fixed for place, _ in places})
        at = {place: k + 1 for k, place in enumerate(ordered)}
        self.probes = tuple(
            (i, tuple(j for i2, j in ordered if i2 == i and j >= 0)) for i, j in ordered if j < 0
        )
        self.rules = [
            (rule, tuple((at[place], head) for place, head in places))
            for rule, places in zip(rules, fixed)
        ]
        self.dispatch: Dict[Tuple, Tuple[CompiledRule, ...]] = {}

    def candidates(self, args: Tuple[Term, ...]) -> Tuple[CompiledRule, ...]:
        """The rules whose patterns' heads at depth 1 and 2 agree with args."""
        n = len(args)
        key = [n]
        for i, subs in self.probes:
            if i >= n:
                break
            arg = args[i]
            key.append(arg.head)
            if subs:
                inner = arg.args
                m = len(inner)
                for j in subs:
                    key.append(inner[j].head if j < m else None)
        key = tuple(key)
        found = self.dispatch.get(key)
        if found is None:
            found = self.dispatch[key] = tuple(
                rule
                for rule, required in self.rules
                if rule.arity <= n
                and all(key[k] is head for k, head in required)
            )
        return found


def rule_table(atrs: Atrs) -> Tuple[Dict[FuncSym, HeadRules], Dict[str, CompiledRule]]:
    """The system's rules, compiled on first use and kept with it, by
    defined head and by name; the rules of a system are not changed once
    it is built."""
    if atrs.compiled is None:
        by_head: Dict[FuncSym, List[CompiledRule]] = {}
        by_name: Dict[str, CompiledRule] = {}
        for rule in atrs.rules:
            compiled = by_name[rule.name] = CompiledRule(rule)
            if isinstance(rule.head, FuncSym):
                by_head.setdefault(rule.head, []).append(compiled)
        atrs.compiled = ({head: HeadRules(rules) for head, rules in by_head.items()}, by_name)
    return atrs.compiled


Match = Tuple[CompiledRule, List[Term]]


# a term's one-step reducts under a strategy; the rule names of its own
# contractions, which come first; and the first argument whose reducts
# follow theirs, in ascending argument order
Entry = Tuple[Tuple[Term, ...], Tuple[str, ...], int]


class Engine:
    """Rewrites terms of one system, with per-term memoization of reducts."""

    def __init__(self, atrs: Atrs):
        self.atrs = atrs
        self.by_head, self.by_name = rule_table(atrs)
        self._memo: Dict[str, Dict[Term, Entry]] = {}

    def node_matches(self, t: Term) -> List[Match]:
        """The rules, in order, whose patterns match a prefix of t's spine
        arguments, each with its env: the matched arguments, then the
        terms bound to the variables inside the patterns."""
        if t.is_data:
            return []
        rules = self.by_head.get(t.head)
        if rules is None:
            return []
        args = t.args
        out = []
        for rule in rules.candidates(args):
            env = list(args[: rule.arity])
            if rule.match(args, env):
                out.append((rule, env))
        return out

    def contract(self, t: Term, match: Match) -> Term:
        """Replace the matched prefix of t by the instantiated right-hand side."""
        rule, env = match
        return rule.build(env, t.args[rule.arity :], t.type)

    def step_options(self, t: Term, strategy: str) -> Tuple[Term, ...]:
        """All one-step reducts of t under the strategy: t's own
        contractions in rule order, then each argument's reducts in turn,
        from the first argument the strategy lets be rewritten. `step_of`
        names the step to each."""
        memo = self._memo.get(strategy)
        if memo is None:
            memo = self._memo[strategy] = {}
        entry = memo.get(t)
        if entry is not None:
            return entry[0]
        for arg in t.args:
            if arg not in memo:
                return self._fill(t, strategy, memo)[0]
        entry = memo[t] = self._entry_at(t, strategy, memo)
        return entry[0]

    def step_of(self, t: Term, k: int, strategy: str) -> Step:
        """The rule and path of the step from t to its k-th reduct in
        `step_options(t, strategy)`, read down the arguments' entries."""
        memo = self._memo.setdefault(strategy, {})
        reducts, names, first = memo.get(t) or self._fill(t, strategy, memo)
        if not 0 <= k < len(reducts):
            raise IndexError(f"{print_term(t)} has no reduct {k}")
        path: List[int] = []
        while k >= len(names):
            k -= len(names)
            for i in range(first, len(t.args)):
                count = len(memo[t.args[i]][0])
                if k < count:
                    break
                k -= count
            path.append(i)
            t = t.args[i]
            _, names, first = memo[t]
        return names[k], tuple(path)

    def _fill(self, t: Term, strategy: str, memo: Dict[Term, Entry]) -> Entry:
        """The entry of t, made after those of its unknown subterms,
        children first."""
        stack = [t]
        while stack:
            u = stack[-1]
            if u in memo:
                stack.pop()
                continue
            pending = [arg for arg in u.args if arg not in memo]
            if pending:
                stack += pending
                continue
            stack.pop()
            memo[u] = self._entry_at(u, strategy, memo)
        return memo[t]

    def _entry_at(self, t: Term, strategy: str, memo: Dict[Term, Entry]) -> Entry:
        """t's own contractions, then argument i's reducts for ascending i,
        each with t's other arguments, read from the arguments' entries."""
        reducts: List[Term] = []
        names: List[str] = []
        matches = self.node_matches(t)
        first = 0
        if strategy == OUTERMOST and matches:
            first = max(rule.arity for rule, _ in matches)
            matches = [m for m in matches if m[0].arity == first]
        args = t.args
        for match in matches:
            rule = match[0]
            # a term without innermost reducts is normal, since a lowest
            # redex has normal arguments
            if strategy == INNERMOST and any(memo[arg][0] for arg in args[: rule.arity]):
                continue
            reducts.append(self.contract(t, match))
            names.append(rule.name)
        spine, head, ty = list(args), t.head, t.type
        for i in range(first, len(args)):
            for reduct in memo[args[i]][0]:
                spine[i] = reduct
                reducts.append(Term(head, tuple(spine), ty))
            spine[i] = args[i]
        return tuple(reducts), tuple(names), first


def search_data_normal_forms(
    t: Term, atrs: Atrs, strategy: str = FREE, budget: Optional[Budget] = None
) -> SearchResult:
    """Breadth-first search of the reduct space of t for data normal forms.

    Terms are visited in the order they are generated: each level's terms in
    the order they were found, and each term's reducts in `step_options`'
    order. A term's parent is the term it was first found from, one level
    up, so every witness trace is a shortest reduction to its normal form.
    Only the witnesses' steps are named, by `Engine.step_of`.

    The search builds no reference cycles, so the cyclic garbage collector
    is paused while it runs and left as the caller had it."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    budget = budget or Budget()
    if t.size > budget.max_term_size:
        raise BudgetTooSmallForRoot(
            f"the start term has {t.size} nodes, budget allows {budget.max_term_size}"
        )
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _search(t, atrs, strategy, budget)
    finally:
        if collecting:
            gc.enable()


def _search(t: Term, atrs: Atrs, strategy: str, budget: Budget) -> SearchResult:
    engine = Engine(atrs)
    # reduct -> (the term it was first found from, its index among that
    # term's reducts)
    parents: Dict[Term, Optional[Tuple[Term, int]]] = {t: None}
    frontier: List[Term] = [t]
    normal_forms: Set[Term] = set()
    exhausted = False
    depth = 0
    while frontier:
        next_frontier: List[Term] = []
        for u in frontier:
            options = engine.step_options(u, strategy)
            if not options:
                if is_data(u):
                    normal_forms.add(u)
                continue
            if depth >= budget.max_steps:
                exhausted = True
                continue
            for k, reduct in enumerate(options):
                if reduct in parents:
                    continue
                if reduct.size > budget.max_term_size or len(parents) >= budget.max_terms:
                    exhausted = True
                    continue
                parents[reduct] = (u, k)
                next_frontier.append(reduct)
        frontier = next_frontier
        depth += 1
    traces: Dict[Term, List[Step]] = {}
    for nf in normal_forms:
        steps: List[Step] = []
        node = nf
        while parents[node] is not None:
            parent, k = parents[node]
            steps.append(engine.step_of(parent, k, strategy))
            node = parent
        traces[nf] = list(reversed(steps))
    return SearchResult(t, strategy, frozenset(normal_forms), exhausted, len(parents), traces)


def _rewrite_at(
    t: Term, path: Tuple[int, ...], rewrite: Callable[[Term], Term]
) -> Term:
    """t with its subterm at path replaced by rewrite of that subterm."""
    spine: List[Term] = []
    for i in path:
        if i >= len(t.args):
            raise NonReplayableTrace(f"path {path} leaves the term")
        spine.append(t)
        t = t.args[i]
    t = rewrite(t)
    for parent, i in zip(reversed(spine), reversed(path)):
        t = Term(parent.head, parent.args[:i] + (t,) + parent.args[i + 1 :], parent.type)
    return t


def replay_trace(root: Term, steps: List[Step], atrs: Atrs) -> List[Term]:
    """The term sequence a trace denotes; raises if any step does not apply."""
    engine = Engine(atrs)
    terms = [root]
    current = root
    for name, path in steps:
        if name not in engine.by_name:
            raise NonReplayableTrace(f"no rule named {name}")

        def contract(node: Term) -> Term:
            for match in engine.node_matches(node):
                if match[0].name == name:
                    return engine.contract(node, match)
            raise NonReplayableTrace(
                f"rule {name} does not apply at {format_step((name, path))} "
                f"in {print_term(current)}"
            )

        current = _rewrite_at(current, path, contract)
        terms.append(current)
    return terms

