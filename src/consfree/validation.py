"""Syntactic-class checks and the bounded data universe of a basic term."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .terms import (
    Atrs,
    FuncSym,
    PairHead,
    SimpleType,
    Term,
    Variable,
    is_basic,
    is_data,
    is_pattern,
    print_term,
    subterms,
)


class NotBasic(Exception):
    """The start term is not a defined symbol fully applied to data."""


@dataclass
class Violation:
    """A rule and the reason it breaks a syntactic class."""

    rule: str
    kind: str  # "constructor-system", "left-linear", "cons-free", "product-cons-free"
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: [{self.kind}] {self.message}"


@dataclass
class Verdict:
    """The syntactic classes a system belongs to."""

    constructor_system: bool
    left_linear: bool
    cons_free: bool
    product_cons_free: Optional[bool]  # None when pairing is off
    order: int
    violations: List[Violation] = field(default_factory=list)


def _constructor_headed(t: Term) -> bool:
    return isinstance(t.head, FuncSym) and t.head.is_constructor


def check(atrs: Atrs) -> Verdict:
    """Classify atrs: constructor system, left-linear, cons-free, and (with
    pairing) product-cons-free. The verdict lists the constructor-system and
    left-linear violations rule by rule, then every cons-free violation, then
    every product-cons-free one; within a rule, by the offending term's text."""
    shape: List[Violation] = []
    built: List[Violation] = []
    paired: List[Violation] = []
    for rule in atrs.rules:
        lhs = rule.lhs
        if not isinstance(lhs.head, FuncSym) or lhs.head.is_constructor:
            shape.append(
                Violation(
                    rule.name,
                    "constructor-system",
                    "left-hand side is not headed by a defined symbol",
                )
            )
        elif not all(is_pattern(arg) for arg in lhs.args):
            shape.append(
                Violation(
                    rule.name,
                    "constructor-system",
                    "left-hand side arguments are not all patterns",
                )
            )
        # every occurrence below the head: the strict subterms, and each
        # variable occurrence
        below: Set[Term] = set()
        seen: Set[Variable] = set()
        linear = True
        stack = list(lhs.args)
        while stack:
            t = stack.pop()
            below.add(t)
            if isinstance(t.head, Variable):
                linear = linear and t.head not in seen
                seen.add(t.head)
            stack += t.args
        if not linear:
            shape.append(
                Violation(
                    rule.name,
                    "left-linear",
                    "a variable occurs twice on the left-hand side",
                )
            )
        top_vars = {
            arg.head for arg in lhs.args if isinstance(arg.head, Variable) and not arg.args
        }
        fresh: List[Term] = []
        pairs: List[Tuple[Term, List[Term]]] = []
        for s in subterms(rule.rhs):
            if isinstance(s.head, PairHead) and atrs.pairing:
                bad = [
                    c
                    for c in s.args
                    if not isinstance(c.head, PairHead)
                    and not _constructor_headed(c)
                    and not (
                        isinstance(c.head, Variable)
                        and not c.args
                        and c.head not in top_vars
                    )
                ]
                if bad:
                    pairs.append((s, bad))
            elif _constructor_headed(s) and not is_data(s) and s not in below:
                fresh.append(s)
        for s in sorted(fresh, key=print_term):
            built.append(
                Violation(
                    rule.name,
                    "cons-free",
                    f"constructor term {print_term(s)} is neither data nor "
                    "a subterm of the left-hand side",
                )
            )
        for _, bad in sorted(pairs, key=lambda found: print_term(found[0])):
            for component in bad:
                paired.append(
                    Violation(
                        rule.name,
                        "product-cons-free",
                        f"pair component {print_term(component)} is not a pair, "
                        "a constructor term, or a variable below a pattern",
                    )
                )
    kinds = {v.kind for v in shape}
    cons_free = not shape and not built
    order = max((sym.type.order() for sym in atrs.symbols.values()), default=0)
    return Verdict(
        "constructor-system" not in kinds,
        "left-linear" not in kinds,
        cons_free,
        cons_free and not paired if atrs.pairing else None,
        order,
        shape + built + paired,
    )


@dataclass(frozen=True)
class BSet:
    """The data terms reachable from a start term: its data subterms plus the
    data subterms of every right-hand side. Closed under subterms. The terms
    are sorted by their text once, when the set is built, and grouped by
    type."""

    terms: frozenset
    _by_type: Dict[SimpleType, Tuple[Term, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        by_type: Dict[SimpleType, List[Term]] = {}
        for t in sorted(self.terms, key=print_term):
            by_type.setdefault(t.type, []).append(t)
        groups = {ty: tuple(members) for ty, members in by_type.items()}
        object.__setattr__(self, "_by_type", groups)

    def __contains__(self, t: Term) -> bool:
        return t in self.terms

    def of_type(self, ty: SimpleType) -> Tuple[Term, ...]:
        return self._by_type.get(ty, ())

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(sorted(self.terms, key=print_term))


def compute_B(s: Term, atrs: Atrs) -> BSet:
    """The data universe for solving s: data subterms of s and of all rules'
    right-hand sides."""
    if not is_basic(s):
        raise NotBasic(f"{print_term(s)} is not a basic term")
    return data_universe([s], atrs)


def data_universe(seeds: List[Term], atrs: Atrs) -> BSet:
    """Data subterms of the seed terms and of all rules' right-hand sides."""
    out: Set[Term] = set()
    for seed in seeds:
        out |= {t for t in subterms(seed) if is_data(t)}
    for rule in atrs.rules:
        out |= {t for t in subterms(rule.rhs) if is_data(t)}
    return BSet(frozenset(out))


def prune_ho_constructors(atrs: Atrs) -> Tuple[Atrs, List[str]]:
    """Drop constructors of type order above one, and every rule mentioning
    them; reachable data terms are unaffected."""
    removed = [
        sym
        for sym in atrs.symbols.values()
        if sym.is_constructor and sym.type.order() > 1
    ]
    if not removed:
        return atrs, []
    symbols = {name: sym for name, sym in atrs.symbols.items() if sym not in removed}
    rules = [
        rule
        for rule in atrs.rules
        if not any(s.head in removed for s in subterms(rule.lhs) | subterms(rule.rhs))
    ]
    pruned = Atrs(atrs.sorts, symbols, rules, atrs.pairing, dict(atrs.var_decls))
    return pruned, [sym.name for sym in removed]
