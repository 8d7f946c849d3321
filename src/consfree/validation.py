"""Syntactic-class checks and the bounded data universe of a basic term."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

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

    def violations_for(self, kind: str) -> List[Violation]:
        return [v for v in self.violations if v.kind == kind]


def _strict_subterms(lhs: Term) -> Set[Term]:
    out: Set[Term] = set()
    for arg in lhs.args:
        out |= subterms(arg)
    return out


def _constructor_headed(t: Term) -> bool:
    return isinstance(t.head, FuncSym) and t.head.is_constructor


def check(atrs: Atrs) -> Verdict:
    """Classify atrs: constructor system, left-linear, cons-free, and (with
    pairing) product-cons-free; the verdict carries per-rule violations."""
    violations: List[Violation] = []
    constructor_system = True
    left_linear = True
    for rule in atrs.rules:
        head = rule.lhs.head
        if not isinstance(head, FuncSym) or head.is_constructor:
            constructor_system = False
            violations.append(
                Violation(
                    rule.name,
                    "constructor-system",
                    "left-hand side is not headed by a defined symbol",
                )
            )
        elif not all(is_pattern(arg) for arg in rule.lhs.args):
            constructor_system = False
            violations.append(
                Violation(
                    rule.name,
                    "constructor-system",
                    "left-hand side arguments are not all patterns",
                )
            )
        seen: Set[Variable] = set()
        linear = True
        for arg in rule.lhs.args:
            for var in _occurrences(arg):
                if var in seen:
                    linear = False
                seen.add(var)
        if not linear:
            left_linear = False
            violations.append(
                Violation(
                    rule.name,
                    "left-linear",
                    "a variable occurs twice on the left-hand side",
                )
            )
    cons_free = constructor_system and left_linear
    for rule in atrs.rules:
        allowed = _strict_subterms(rule.lhs)
        for s in sorted(subterms(rule.rhs), key=print_term):
            if _constructor_headed(s) and not is_data(s) and s not in allowed:
                cons_free = False
                violations.append(
                    Violation(
                        rule.name,
                        "cons-free",
                        f"constructor term {print_term(s)} is neither data nor "
                        "a subterm of the left-hand side",
                    )
                )
    product_cons_free: Optional[bool] = None
    if atrs.pairing:
        product_cons_free = cons_free
        for rule in atrs.rules:
            top_vars = {
                arg.head
                for arg in rule.lhs.args
                if isinstance(arg.head, Variable) and not arg.args
            }
            for s in sorted(subterms(rule.rhs), key=print_term):
                if not isinstance(s.head, PairHead):
                    continue
                for component in s.args:
                    if isinstance(component.head, PairHead):
                        continue
                    if _constructor_headed(component):
                        continue
                    if (
                        isinstance(component.head, Variable)
                        and not component.args
                        and component.head not in top_vars
                    ):
                        continue
                    product_cons_free = False
                    violations.append(
                        Violation(
                            rule.name,
                            "product-cons-free",
                            f"pair component {print_term(component)} is not a pair, "
                            "a constructor term, or a variable below a pattern",
                        )
                    )
    order = max((sym.type.order() for sym in atrs.symbols.values()), default=0)
    return Verdict(
        constructor_system, left_linear, cons_free, product_cons_free, order, violations
    )


def _occurrences(t: Term) -> List[Variable]:
    out = []
    if isinstance(t.head, Variable):
        out.append(t.head)
    for arg in t.args:
        out.extend(_occurrences(arg))
    return out


@dataclass(frozen=True)
class BSet:
    """The data terms reachable from a start term: its data subterms plus the
    data subterms of every right-hand side. Closed under subterms."""

    terms: frozenset

    def __contains__(self, t: Term) -> bool:
        return t in self.terms

    def of_type(self, ty: SimpleType) -> List[Term]:
        return sorted((t for t in self.terms if t.type == ty), key=print_term)

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


def is_B_safe(t: Term, B: BSet) -> bool:
    """Every constructor-headed subterm of t lies in B."""
    return all(
        s in B for s in subterms(t) if _constructor_headed(s)
    )


def prune_ho_constructors(atrs: Atrs) -> Tuple[Atrs, List[str]]:
    """Drop constructors of type order above one, and every rule mentioning
    them; reachable data terms are unaffected."""
    removed = [
        sym.name
        for sym in atrs.symbols.values()
        if sym.is_constructor and sym.type.order() > 1
    ]
    removed_set = set(removed)

    def mentions(t: Term) -> bool:
        return any(
            isinstance(s.head, FuncSym) and s.head.name in removed_set
            for s in subterms(t)
        )

    symbols = {
        name: sym for name, sym in atrs.symbols.items() if name not in removed_set
    }
    rules = [
        rule
        for rule in atrs.rules
        if not mentions(rule.lhs) and not mentions(rule.rhs)
    ]
    pruned = Atrs(atrs.sorts, symbols, rules, atrs.pairing, dict(atrs.var_decls))
    return pruned, removed
