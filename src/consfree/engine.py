"""Bounded nondeterministic rewriting: one-step reducts, search, and traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .syntax import encode_input
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
    sym_term,
)


FREE = "free"
INNERMOST = "innermost"
OUTERMOST = "outermost"
STRATEGIES = (FREE, INNERMOST, OUTERMOST)


class BudgetTooSmallForRoot(Exception):
    """The start term already exceeds the term-size budget."""


class NonReplayableTrace(Exception):
    """A recorded trace does not replay against the system."""


class MissingDecideSymbol(Exception):
    """The system lacks the decide / true / false interface."""


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


class Engine:
    """Rewrites terms of one system, with per-term memoization."""

    def __init__(self, atrs: Atrs):
        self.atrs = atrs
        self.by_head, self.by_name = rule_table(atrs)
        self._options: Dict[str, Dict[Term, Tuple]] = {}

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

    def step_options(self, t: Term, strategy: str) -> Tuple[Tuple[Term, str, Tuple[int, ...]], ...]:
        """All one-step reducts of t under the strategy, with rule and path."""
        memo = self._options.setdefault(strategy, {})
        # fill the options of every unknown subterm of t, children first
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
            memo[u] = self._options_at(u, strategy, memo)
        return memo[t]

    def _options_at(self, t: Term, strategy: str, memo: Dict[Term, Tuple]) -> Tuple:
        """t's own contractions, then argument i's options for ascending i,
        read from the arguments' memo entries."""
        out: List[Tuple[Term, str, Tuple[int, ...]]] = []
        matches = self.node_matches(t)
        blocked_below = 0
        if strategy == OUTERMOST and matches:
            kmax = max(rule.arity for rule, _ in matches)
            matches = [m for m in matches if m[0].arity == kmax]
            blocked_below = kmax
        for match in matches:
            rule = match[0]
            # a term without innermost options is normal, since a lowest
            # redex has normal arguments
            if strategy == INNERMOST and any(memo[arg] for arg in t.args[: rule.arity]):
                continue
            out.append((self.contract(t, match), rule.name, ()))
        for i, arg in enumerate(t.args[blocked_below:], blocked_below):
            for reduct, name, path in memo[arg]:
                args = t.args[:i] + (reduct,) + t.args[i + 1 :]
                out.append((Term(t.head, args, t.type), name, (i,) + path))
        return tuple(out)


def search_data_normal_forms(
    t: Term, atrs: Atrs, strategy: str = FREE, budget: Optional[Budget] = None
) -> SearchResult:
    """Breadth-first search of the reduct space of t for data normal forms."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    budget = budget or Budget()
    if t.size > budget.max_term_size:
        raise BudgetTooSmallForRoot(
            f"the start term has {t.size} nodes, budget allows {budget.max_term_size}"
        )
    engine = Engine(atrs)
    visited: Set[Term] = {t}
    parents: Dict[Term, Optional[Tuple[Term, str, Tuple[int, ...]]]] = {t: None}
    frontier: List[Term] = [t]
    normal_forms: Set[Term] = set()
    exhausted = False
    depth = 0
    while frontier:
        next_frontier: List[Term] = []
        for u in sorted(frontier, key=print_term):
            options = engine.step_options(u, strategy)
            if not options:
                if is_data(u):
                    normal_forms.add(u)
                continue
            if depth >= budget.max_steps:
                exhausted = True
                continue
            for reduct, name, path in sorted(
                options, key=lambda o: (print_term(o[0]), o[1], o[2])
            ):
                if reduct in visited:
                    continue
                if reduct.size > budget.max_term_size:
                    exhausted = True
                    continue
                if len(visited) >= budget.max_terms:
                    exhausted = True
                    continue
                visited.add(reduct)
                parents[reduct] = (u, name, path)
                next_frontier.append(reduct)
        frontier = next_frontier
        depth += 1
    traces: Dict[Term, List[Step]] = {}
    for nf in normal_forms:
        steps: List[Step] = []
        node = nf
        while parents[node] is not None:
            parent, name, path = parents[node]
            steps.append((name, path))
            node = parent
        traces[nf] = list(reversed(steps))
    return SearchResult(
        t, strategy, frozenset(normal_forms), exhausted, len(visited), traces
    )


def _decide_interface(atrs: Atrs) -> Tuple[FuncSym, Term, Term]:
    decide = atrs.symbols.get("decide")
    true = atrs.symbols.get("true")
    false = atrs.symbols.get("false")
    if decide is None or decide.is_constructor:
        raise MissingDecideSymbol("the system has no defined symbol decide")
    if true is None or false is None or not true.is_constructor or not false.is_constructor:
        raise MissingDecideSymbol("the system lacks the constructors true and false")
    return decide, sym_term(true), sym_term(false)


@dataclass
class DecideResult:
    """A three-valued verdict, with a nondeterminism warning."""

    answer: str  # "true", "false", or "unknown"
    nondeterministic: bool
    search: SearchResult


def decide(atrs: Atrs, x: str, budget: Optional[Budget] = None) -> DecideResult:
    """Decide the input: true if reachable, false only on a complete search."""
    decide_sym, true, false = _decide_interface(atrs)
    start = sym_term(decide_sym, encode_input(x, atrs))
    search = search_data_normal_forms(start, atrs, FREE, budget)
    found = search.data_normal_forms
    nondeterministic = len(found) > 1
    if true in found:
        answer = "true"
    elif search.exhausted:
        answer = "unknown"
    else:
        answer = "false"
    return DecideResult(answer, nondeterministic, search)


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
