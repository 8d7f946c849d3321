"""Bounded nondeterministic rewriting: one-step reducts, search, and traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .syntax import encode_input
from .terms import (
    Atrs,
    FuncSym,
    Rule,
    Term,
    Variable,
    _match_into,
    apply_subst,
    apply_term,
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


class Engine:
    """Rewrites terms of one system, with per-term memoization."""

    def __init__(self, atrs: Atrs):
        self.atrs = atrs
        self.rules_by_head: Dict[str, List[Rule]] = {}
        self.rules_by_name: Dict[str, Rule] = {}
        for rule in atrs.rules:
            head = rule.lhs.head
            if isinstance(head, FuncSym):
                self.rules_by_head.setdefault(head.name, []).append(rule)
            self.rules_by_name[rule.name] = rule
        self._options: Dict[str, Dict[Term, Tuple]] = {}

    def node_matches(self, t: Term) -> List[Tuple[Rule, Dict[Variable, Term], int]]:
        """Rules whose pattern list matches a prefix of t's spine arguments."""
        head = t.head
        if not isinstance(head, FuncSym) or head.is_constructor:
            return []
        out = []
        for rule in self.rules_by_head.get(head.name, ()):
            k = rule.arity
            if k > len(t.args):
                continue
            subst: Dict[Variable, Term] = {}
            if all(
                _match_into(l, a, subst) for l, a in zip(rule.lhs.args, t.args)
            ):
                out.append((rule, subst, k))
        return out

    def contract(self, t: Term, rule: Rule, subst: Dict[Variable, Term], k: int) -> Term:
        """Replace the matched prefix of t by the instantiated right-hand side."""
        return apply_term(apply_subst(rule.rhs, subst), *t.args[k:])

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
            kmax = max(k for _, _, k in matches)
            matches = [m for m in matches if m[2] == kmax]
            blocked_below = kmax
        for rule, subst, k in matches:
            # a term without innermost options is normal, since a lowest
            # redex has normal arguments
            if strategy == INNERMOST and any(memo[arg] for arg in t.args[:k]):
                continue
            out.append((self.contract(t, rule, subst, k), rule.name, ()))
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
        if name not in engine.rules_by_name:
            raise NonReplayableTrace(f"no rule named {name}")

        def contract(node: Term) -> Term:
            for cand, subst, k in engine.node_matches(node):
                if cand.name == name:
                    return engine.contract(node, cand, subst, k)
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
