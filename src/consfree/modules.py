"""Composable counting modules: families of rules that count to large bounds
over a fixed input list, exposing seed / pred / succ / zero / equal symbols."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .syntax import encode_input, parse_atrs
from .terms import (
    Arrow,
    Atrs,
    Product,
    SimpleType,
    Sort,
    Term,
    Variable,
    sym_term,
)
from .validation import data_universe

SYMB = Sort("symb")
LIST = Sort("list")
BOOL = Sort("bool")


class ModuleError(Exception):
    """A counting-module expression is malformed or unsupported."""


class SelfTestFailure(Exception):
    """A counting module failed one of its behavioral checks."""


def parse_module_expr(text: str):
    """Parse expressions like lin, e, prod(lin,e), exp(lin), expab(2,3), pipi(e)."""
    expr, rest = _parse_expr(text.strip())
    if rest.strip():
        raise ModuleError(f"trailing input in module expression: {rest!r}")
    return expr


def _parse_expr(text: str):
    text = text.lstrip()
    for kind, (params, _) in KINDS.items():
        if not text.startswith(kind):
            continue
        rest = text[len(kind) :].lstrip()
        if not params:
            if rest[:1].isalnum():
                break
            return (kind,), rest
        if not rest.startswith("("):
            raise ModuleError(f"{kind} needs parenthesized arguments")
        rest = rest[1:]
        args = []
        for parse_param in params:
            if args:
                rest = _expect(rest, ",")
            arg, rest = parse_param(rest)
            args.append(arg)
        return (kind, *args), _expect(rest, ")")
    raise ModuleError(f"cannot parse module expression at {text!r}")


def _expect(text: str, token: str) -> str:
    text = text.lstrip()
    if not text.startswith(token):
        raise ModuleError(f"expected {token!r} at {text!r}")
    return text[len(token) :]


def _parse_int(text: str):
    text = text.lstrip()
    rest = text.lstrip("0123456789")
    if rest == text:
        raise ModuleError(f"expected a number at {text!r}")
    return int(text[: len(text) - len(rest)]), rest


def canon(expr) -> str:
    """Canonical dotted name of a module expression."""
    return expr_text(expr).replace("(", ".").replace(",", ".").replace(")", "")


def expr_text(expr) -> str:
    """Concrete syntax of a module expression."""
    kind, *args = expr
    if not args:
        return kind
    texts = [expr_text(arg) if isinstance(arg, tuple) else str(arg) for arg in args]
    return f"{kind}({','.join(texts)})"


def type_tag(ty: SimpleType) -> str:
    """An unambiguous identifier fragment for a type."""
    if isinstance(ty, Sort):
        return ty.name
    if isinstance(ty, Arrow):
        return f"A{type_tag(ty.arg)}_{type_tag(ty.res)}"
    return f"P{type_tag(ty.left)}_{type_tag(ty.right)}"


def _ty(parts: List[SimpleType], res: SimpleType) -> str:
    pieces = []
    for part in parts + [res]:
        text = str(part)
        if isinstance(part, Arrow):
            text = f"({text})"
        pieces.append(text)
    return " => ".join(pieces)


def emit_fun(out: List[str], name: str, args: List[SimpleType], res: SimpleType) -> str:
    """Append the declaration of name to out; returns the name."""
    out.append(f"fun {name} : {_ty(args, res)} ;")
    return name


def emit_rule(out: List[str], lhs: str, rhs: str) -> None:
    """Append the rule lhs -> rhs to out."""
    out.append(f"rule {lhs} -> {rhs} ;")


@dataclass
class ModuleInstance:
    """Generated rules and symbol names of one counting module."""

    expr: tuple
    path: str
    types: List[SimpleType]
    bound: Callable[[int], int]
    pairing: bool = False
    decls: List[str] = field(default_factory=list)
    rules: List[str] = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.types)

    def seed(self, i: int) -> str:
        return f"seed{i}_{self.path}"

    def pred(self, i: int) -> str:
        return f"pred{i}_{self.path}"

    def succ(self, i: int) -> str:
        return f"succ{i}_{self.path}"

    @property
    def zero(self) -> str:
        return f"zero_{self.path}"

    @property
    def equal(self) -> str:
        return f"equal_{self.path}"

    def ifelse(self, ty: SimpleType) -> str:
        return f"ifelse_{type_tag(ty)}_{self.path}"

    def aux(self, name: str) -> str:
        return f"{name}_{self.path}"

    def fun(self, name: str, args: List[SimpleType], res: SimpleType) -> str:
        return emit_fun(self.decls, name, args, res)

    def rule(self, lhs: str, rhs: str) -> None:
        emit_rule(self.rules, lhs, rhs)

    def seed_calls(self, cs: str = "cs") -> List[str]:
        return [f"({self.seed(i)} {cs})" for i in range(1, self.width + 1)]

    def pred_calls(self, vec: List[str], cs: str = "cs") -> List[str]:
        joined = " ".join(vec)
        return [f"({self.pred(i)} {cs} {joined})" for i in range(1, self.width + 1)]

    def succ_calls(self, vec: List[str], cs: str = "cs") -> List[str]:
        joined = " ".join(vec)
        return [f"({self.succ(i)} {cs} {joined})" for i in range(1, self.width + 1)]

    def zero_call(self, vec: List[str], cs: str = "cs") -> str:
        return f"({self.zero} {cs} {' '.join(vec)})"


def _vec(prefix: str, a: int) -> List[str]:
    return [f"{prefix}{i}" for i in range(1, a + 1)]


def _add_ifelse(inst: ModuleInstance) -> None:
    tags: List[SimpleType] = [BOOL]
    for ty in inst.types:
        if ty not in tags:
            tags.append(ty)
    for ty in tags:
        name = inst.ifelse(ty)
        inst.fun(name, [BOOL, ty, ty], ty)
        inst.rule(f"{name} true y z", "y")
        inst.rule(f"{name} false y z", "z")


def _add_counting_api(inst: ModuleInstance) -> None:
    """The equality test and saturating successor derived from seed/pred/zero."""
    a = inst.width
    n = _vec("n", a)
    m = _vec("m", a)
    ns = " ".join(n)
    ms = " ".join(m)
    ifb = inst.ifelse(BOOL)
    eq = inst.fun(inst.equal, [LIST] + inst.types + inst.types, BOOL)
    preds_n = " ".join(inst.pred_calls(n))
    preds_m = " ".join(inst.pred_calls(m))
    inst.rule(
        f"{eq} cs {ns} {ms}",
        f"{ifb} {inst.zero_call(n)} {inst.zero_call(m)} "
        f"({ifb} {inst.zero_call(m)} false ({eq} cs {preds_n} {preds_m}))",
    )
    for i in range(1, a + 1):
        ty = inst.types[i - 1]
        ife = inst.ifelse(ty)
        succ = inst.fun(inst.succ(i), [LIST] + inst.types, ty)
        succ2 = inst.fun(inst.aux(f"succstep{i}"), [LIST] + inst.types + inst.types, ty)
        succ3 = inst.fun(
            inst.aux(f"succtest{i}"), [LIST] + inst.types + [ty] + inst.types, ty
        )
        inst.rule(f"{succ} cs {ns}", f"{succ2} cs {ns} {' '.join(inst.seed_calls())}")
        inst.rule(
            f"{succ2} cs {ns} {ms}",
            f"{ife} {inst.zero_call(m)} ({inst.seed(i)} cs) "
            f"({succ3} cs {ns} m{i} {preds_m})",
        )
        inst.rule(
            f"{succ3} cs {ns} w {ms}",
            f"{ife} ({eq} cs {ns} {ms}) w ({succ2} cs {ns} {ms})",
        )


def gen_module(expr, path: Optional[str] = None) -> ModuleInstance:
    """Generate the rules of a counting module expression."""
    if isinstance(expr, str):
        expr = parse_module_expr(expr)
    if expr[0] not in KINDS:
        raise ModuleError(f"unknown module kind {expr[0]!r}")
    return KINDS[expr[0]][1](expr, canon(expr) if path is None else path)


def _gen_lin(expr, path: str) -> ModuleInstance:
    """Counts 0..n by list suffixes: the input itself is the largest value."""
    inst = ModuleInstance(expr, path, [LIST], bound=lambda n: n + 1)
    _add_ifelse(inst)
    seed = inst.fun(inst.seed(1), [LIST], LIST)
    pred = inst.fun(inst.pred(1), [LIST, LIST], LIST)
    zero = inst.fun(inst.zero, [LIST, LIST], BOOL)
    inst.rule(f"{seed} cs", "cs")
    inst.rule(f"{pred} cs []", "[]")
    inst.rule(f"{pred} cs (x ; xs)", "xs")
    inst.rule(f"{zero} cs []", "true")
    inst.rule(f"{zero} cs (x ; xs)", "false")
    _add_counting_api(inst)
    return inst


def _gen_prod(expr, path: str) -> ModuleInstance:
    """Counts to the product of two modules' bounds, in mixed radix."""
    left = gen_module(expr[1], f"{path}.1")
    right = gen_module(expr[2], f"{path}.2")
    a = left.width
    b = right.width
    inst = ModuleInstance(
        expr,
        path,
        left.types + right.types,
        bound=lambda n: left.bound(n) * right.bound(n),
        pairing=left.pairing or right.pairing,
    )
    inst.decls += left.decls + right.decls
    inst.rules += left.rules + right.rules
    _add_ifelse(inst)
    u = _vec("u", a)
    v = _vec("v", b)
    us = " ".join(u)
    vs = " ".join(v)
    ifb = inst.ifelse(BOOL)
    for i in range(1, a + b + 1):
        seed = inst.fun(inst.seed(i), [LIST], inst.types[i - 1])
        if i <= a:
            inst.rule(f"{seed} cs", f"{left.seed(i)} cs")
        else:
            inst.rule(f"{seed} cs", f"{right.seed(i - a)} cs")
    zero = inst.fun(inst.zero, [LIST] + inst.types, BOOL)
    inst.rule(
        f"{zero} cs {us} {vs}",
        f"{ifb} ({left.zero} cs {us}) ({right.zero} cs {vs}) false",
    )
    for i in range(1, a + b + 1):
        ty = inst.types[i - 1]
        pred = inst.fun(inst.pred(i), [LIST] + inst.types, ty)
        guard = inst.fun(inst.aux(f"pzero{i}"), [LIST, BOOL] + inst.types, ty)
        ptest = inst.fun(inst.aux(f"ptest{i}"), [LIST, BOOL] + inst.types, ty)
        inst.rule(
            f"{pred} cs {us} {vs}",
            f"{guard} cs ({zero} cs {us} {vs}) {us} {vs}",
        )
        stays = u[i - 1] if i <= a else v[i - a - 1]
        inst.rule(f"{guard} cs true {us} {vs}", stays)
        inst.rule(
            f"{guard} cs false {us} {vs}",
            f"{ptest} cs ({right.zero} cs {vs}) {us} {vs}",
        )
        if i <= a:
            inst.rule(f"{ptest} cs false {us} {vs}", u[i - 1])
            inst.rule(f"{ptest} cs true {us} {vs}", f"{left.pred(i)} cs {us}")
        else:
            inst.rule(f"{ptest} cs false {us} {vs}", f"{right.pred(i - a)} cs {vs}")
            inst.rule(f"{ptest} cs true {us} {vs}", f"{right.seed(i - a)} cs")
    _add_counting_api(inst)
    return inst


def _add_subset_machinery(
    inst: ModuleInstance,
    elem_ty: SimpleType,
    seed_elem: str,
    pred_elem: Callable[[str], str],
    zero_elem: Callable[[str], str],
    is_elem: Callable[[str, str], str],
) -> None:
    """The shared bitset construction: a number is a nondeterministic pair of
    element collections (set bits, clear bits); counts to 2^(element count).

    seed_elem / pred_elem / zero_elem walk the element chain; is_elem tests
    collection membership. All take rendered term strings and return one.
    """
    ife = inst.ifelse(elem_ty)
    ifb = inst.ifelse(BOOL)
    either = inst.fun(inst.aux("either"), [elem_ty, elem_ty], elem_ty)
    inst.rule(f"{either} n xss", "n")
    inst.rule(f"{either} n xss", "xss")
    bot = inst.fun(inst.aux("bot"), [], elem_ty)
    inst.rule(bot, bot)
    all_ = inst.fun(inst.aux("all"), [LIST, elem_ty, elem_ty], elem_ty)
    inst.rule(
        f"{all_} cs n xss",
        f"{ife} {zero_elem('n')} ({either} n xss) "
        f"({all_} cs {pred_elem('n')} ({either} n xss))",
    )
    seed1 = inst.fun(inst.seed(1), [LIST], elem_ty)
    seed2 = inst.fun(inst.seed(2), [LIST], elem_ty)
    inst.rule(f"{seed1} cs", f"{all_} cs {seed_elem} {bot}")
    inst.rule(f"{seed2} cs", bot)
    chk = inst.fun(inst.aux("checkreducts"), [BOOL, BOOL], BOOL)
    inst.rule(f"{chk} true b", "true")
    inst.rule(f"{chk} b true", "false")
    bitset = inst.fun(inst.aux("bitset"), [LIST, elem_ty, elem_ty, elem_ty], BOOL)
    inst.rule(
        f"{bitset} cs n yss zss",
        f"{chk} {is_elem('n', 'yss')} {is_elem('n', 'zss')}",
    )
    zero = inst.fun(inst.zero, [LIST, elem_ty, elem_ty], BOOL)
    zo = inst.fun(inst.aux("zo"), [LIST, elem_ty, elem_ty, elem_ty], BOOL)
    inst.rule(f"{zero} cs yss zss", f"{zo} cs {seed_elem} yss zss")
    inst.rule(
        f"{zo} cs n yss zss",
        f"{ifb} ({bitset} cs n yss zss) false "
        f"({ifb} {zero_elem('n')} true ({zo} cs {pred_elem('n')} yss zss))",
    )
    copy = inst.fun(
        inst.aux("copy"), [LIST, elem_ty, elem_ty, elem_ty, BOOL], elem_ty
    )
    addif = inst.fun(inst.aux("addif"), [BOOL, elem_ty, elem_ty], elem_ty)
    inst.rule(
        f"{copy} cs n yss zss false",
        f"{addif} ({bitset} cs n yss zss) n "
        f"({copy} cs {pred_elem('n')} yss zss {zero_elem('n')})",
    )
    inst.rule(f"{copy} cs n yss zss true", bot)
    inst.rule(f"{addif} true n xss", f"{either} n xss")
    inst.rule(f"{addif} false n xss", "xss")
    pred1 = inst.fun(inst.pred(1), [LIST, elem_ty, elem_ty], elem_ty)
    pred2 = inst.fun(inst.pred(2), [LIST, elem_ty, elem_ty], elem_ty)
    pr1 = inst.fun(inst.aux("pr1"), [LIST, elem_ty, elem_ty, elem_ty], elem_ty)
    pr2 = inst.fun(inst.aux("pr2"), [LIST, elem_ty, elem_ty, elem_ty], elem_ty)
    inst.rule(
        f"{pred1} cs yss zss",
        f"{ife} ({zero} cs yss zss) yss ({pr1} cs {seed_elem} yss zss)",
    )
    inst.rule(
        f"{pred2} cs yss zss",
        f"{ife} ({zero} cs yss zss) zss ({pr2} cs {seed_elem} yss zss)",
    )
    inst.rule(
        f"{pr1} cs n yss zss",
        f"{ife} ({bitset} cs n yss zss) "
        f"({copy} cs {pred_elem('n')} yss zss {zero_elem('n')}) "
        f"({either} n ({pr1} cs {pred_elem('n')} yss zss))",
    )
    inst.rule(
        f"{pr2} cs n yss zss",
        f"{ife} ({bitset} cs n yss zss) "
        f"({either} n ({copy} cs {pred_elem('n')} zss yss {zero_elem('n')})) "
        f"({pr2} cs {pred_elem('n')} yss zss)",
    )


def _gen_e(expr, path: str) -> ModuleInstance:
    """Counts to 2^(n+1) by maintaining the set bits and clear bits of a
    binary number as nondeterministic collections of list suffixes."""
    child = _gen_lin(("lin",), f"{path}.1")
    inst = ModuleInstance(
        expr, path, [LIST, LIST], bound=lambda n: 2 ** (n + 1)
    )
    inst.decls += child.decls
    inst.rules += child.rules
    _add_ifelse(inst)
    eqlen = inst.fun(inst.aux("eqlen"), [LIST, LIST], BOOL)
    inst.rule(f"{eqlen} [] []", "true")
    inst.rule(f"{eqlen} [] (y ; ys)", "false")
    inst.rule(f"{eqlen} (x ; xs) (y ; ys)", f"{eqlen} xs ys")
    inst.rule(f"{eqlen} (x ; xs) []", "false")
    _add_subset_machinery(
        inst,
        LIST,
        seed_elem=f"({child.seed(1)} cs)",
        pred_elem=lambda n: f"({child.pred(1)} cs {n})",
        zero_elem=lambda n: f"({child.zero} cs {n})",
        is_elem=lambda n, s: f"({eqlen} {n} {s})",
    )
    _add_counting_api(inst)
    return inst


def _gen_exp(expr, path: str) -> ModuleInstance:
    """Counts to 2^(child bound) by representing numbers as bit-valued
    functions over the child's values."""
    child = gen_module(expr[1], f"{path}.1")
    a = child.width
    fn_ty: SimpleType = BOOL
    for ty in reversed(child.types):
        fn_ty = Arrow(ty, fn_ty)
    inst = ModuleInstance(
        expr,
        path,
        [fn_ty],
        bound=lambda n: 2 ** child.bound(n),
        pairing=child.pairing,
    )
    inst.decls += child.decls
    inst.rules += child.rules
    _add_ifelse(inst)
    k = _vec("k", a)
    n = _vec("n", a)
    ks = " ".join(k)
    ns = " ".join(n)
    seeds = " ".join(child.seed_calls())
    preds_k = " ".join(child.pred_calls(k))
    ifb = inst.ifelse(BOOL)
    not_ = inst.fun(inst.aux("not"), [BOOL], BOOL)
    inst.rule(f"{not_} true", "false")
    inst.rule(f"{not_} false", "true")
    seed = inst.fun(inst.seed(1), [LIST] + child.types, BOOL)
    inst.rule(f"{seed} cs {ks}", "true")
    zero = inst.fun(inst.zero, [LIST, fn_ty], BOOL)
    zeroh = inst.fun(inst.aux("zeroscan"), [LIST] + child.types + [fn_ty], BOOL)
    inst.rule(f"{zero} cs F", f"{zeroh} cs {seeds} F")
    inst.rule(
        f"{zeroh} cs {ks} F",
        f"{ifb} (F {ks}) false "
        f"({ifb} ({child.zero} cs {ks}) true ({zeroh} cs {preds_k} F))",
    )
    pred = inst.fun(inst.pred(1), [LIST, fn_ty], fn_ty)
    predtest = inst.fun(inst.aux("predtest"), [LIST, BOOL, fn_ty], fn_ty)
    predhelp = inst.fun(inst.aux("predhelp"), [LIST, fn_ty] + child.types, fn_ty)
    checkbit = inst.fun(
        inst.aux("checkbit"), [LIST, BOOL, fn_ty] + child.types, fn_ty
    )
    flip = inst.fun(
        inst.aux("flip"), [LIST, fn_ty] + child.types + child.types, BOOL
    )
    inst.rule(f"{pred} cs F", f"{predtest} cs ({zero} cs F) F")
    inst.rule(f"{predtest} cs true F", "F")
    inst.rule(f"{predtest} cs false F", f"{predhelp} cs F {seeds}")
    inst.rule(
        f"{predhelp} cs F {ks}",
        f"{checkbit} cs (F {ks}) ({flip} cs F {ks}) {ks}",
    )
    inst.rule(f"{checkbit} cs true F {ks}", "F")
    inst.rule(f"{checkbit} cs false F {ks}", f"{predhelp} cs F {preds_k}")
    inst.rule(
        f"{flip} cs F {ks} {ns}",
        f"{ifb} ({child.equal} cs {ks} {ns}) ({not_} (F {ns})) (F {ns})",
    )
    _add_counting_api(inst)
    return inst


def _gen_pipi(expr, path: str) -> ModuleInstance:
    """Counts to 2^(child bound - 1) by collecting the child's value pairs
    into nondeterministic sets; needs pairing."""
    child = gen_module(expr[1], f"{path}.1")
    if child.width != 2 or not all(isinstance(t, Sort) for t in child.types):
        raise ModuleError("pipi needs a width-2 child over base sorts")
    pair_ty = Product(child.types[0], child.types[1])
    inst = ModuleInstance(
        expr,
        path,
        [pair_ty, pair_ty],
        bound=lambda n: 2 ** (child.bound(n) - 1),
        pairing=True,
    )
    inst.decls += child.decls
    inst.rules += child.rules
    _add_ifelse(inst)
    seedw = inst.fun(inst.aux("seedpair"), [LIST], pair_ty)
    predw = inst.fun(inst.aux("predpair"), [LIST, pair_ty], pair_ty)
    zerow = inst.fun(inst.aux("zeropair"), [LIST, pair_ty], BOOL)
    eqw = inst.fun(inst.aux("equalpair"), [LIST, pair_ty, pair_ty], BOOL)
    inst.rule(f"{seedw} cs", f"(({child.seed(1)} cs), ({child.seed(2)} cs))")
    inst.rule(
        f"{predw} cs (s, t)",
        f"(({child.pred(1)} cs s t), ({child.pred(2)} cs s t))",
    )
    inst.rule(f"{zerow} cs (s, t)", f"{child.zero} cs s t")
    inst.rule(f"{eqw} cs (s, t) (u, v)", f"{child.equal} cs s t u v")
    _add_subset_machinery(
        inst,
        pair_ty,
        seed_elem=f"({seedw} cs)",
        pred_elem=lambda n: f"({predw} cs {n})",
        zero_elem=lambda n: f"({zerow} cs {n})",
        is_elem=lambda n, s: f"({eqw} cs {n} {s})",
    )
    _add_counting_api(inst)
    return inst


def _gen_expab(expr, path: str) -> ModuleInstance:
    """Counts to 2^(a(n+1)^b): base values are (b+1)-tuples of lists read as
    mixed-radix digits, collected into bit sets; needs pairing."""
    a = expr[1]
    b = expr[2]
    if a < 1 or b < 1:
        raise ModuleError("expab needs positive arguments")
    base_ty: SimpleType = LIST
    for _ in range(b):
        base_ty = Product(LIST, base_ty)
    inst = ModuleInstance(
        expr,
        path,
        [base_ty, base_ty],
        bound=lambda n: 2 ** (a * (n + 1) ** b),
        pairing=True,
    )
    _add_ifelse(inst)

    def tup(parts: List[str]) -> str:
        return "(" + ", ".join(parts) + ")"

    digits = "[]"
    for _ in range(a - 1):
        digits = f"0 ; {digits}"
    seedb = inst.fun(inst.aux("seedbase"), [LIST], base_ty)
    inst.rule(
        f"{seedb} (c ; zs)", tup([f"({digits})"] + ["c ; zs"] * b)
    )
    zerob = inst.fun(inst.aux("zerobase"), [LIST, base_ty], BOOL)
    inst.rule(f"{zerob} cs {tup(['[]'] * (b + 1))}", "true")
    for i in range(b + 1):
        pattern = [f"xs{j}" for j in range(i)] + ["y ; ys"] + ["[]"] * (b - i)
        inst.rule(f"{zerob} cs {tup(pattern)}", "false")
    predb = inst.fun(inst.aux("predbase"), [LIST, base_ty], base_ty)
    inst.rule(
        f"{predb} cs {tup(['[]'] * (b + 1))}", tup(["[]"] * (b + 1))
    )
    for i in range(b + 1):
        pattern = [f"xs{j}" for j in range(i)] + ["y ; ys"] + ["[]"] * (b - i)
        result = [f"xs{j}" for j in range(i)] + ["ys"] + ["c ; zs"] * (b - i)
        inst.rule(f"{predb} (c ; zs) {tup(pattern)}", tup(result))
    eqb = inst.fun(inst.aux("eqbase"), [base_ty, base_ty], BOOL)
    inst.rule(
        f"{eqb} {tup(['[]'] * (b + 1))} {tup(['[]'] * (b + 1))}", "true"
    )
    for i in range(b + 1):
        nonempty = [f"xs{j}" for j in range(i)] + ["y ; ys"] + ["[]"] * (b - i)
        empty = [f"zs{j}" for j in range(i)] + ["[]"] + ["[]"] * (b - i)
        inst.rule(f"{eqb} {tup(nonempty)} {tup(empty)}", "false")
        inst.rule(f"{eqb} {tup(empty)} {tup(nonempty)}", "false")
        left = [f"xs{j}" for j in range(i)] + ["y ; ys"] + ["[]"] * (b - i)
        right = [f"zs{j}" for j in range(i)] + ["n ; ns"] + ["[]"] * (b - i)
        left_r = [f"xs{j}" for j in range(i)] + ["ys"] + ["[]"] * (b - i)
        right_r = [f"zs{j}" for j in range(i)] + ["ns"] + ["[]"] * (b - i)
        inst.rule(
            f"{eqb} {tup(left)} {tup(right)}",
            f"{eqb} {tup(left_r)} {tup(right_r)}",
        )
    _add_subset_machinery(
        inst,
        base_ty,
        seed_elem=f"({seedb} cs)",
        pred_elem=lambda n: f"({predb} cs {n})",
        zero_elem=lambda n: f"({zerob} cs {n})",
        is_elem=lambda n, s: f"({eqb} {n} {s})",
    )
    _add_counting_api(inst)
    return inst


# Per kind, the readers of its parameters and its generator. The parser takes
# the first kind whose name begins the text, so a name that begins another
# name (exp, e) comes after it.
KINDS = {
    "prod": ((_parse_expr, _parse_expr), _gen_prod),
    "expab": ((_parse_int, _parse_int), _gen_expab),
    "exp": ((_parse_expr,), _gen_exp),
    "pipi": ((_parse_expr,), _gen_pipi),
    "lin": ((), _gen_lin),
    "e": ((), _gen_e),
}


def signature_preamble(
    pairing: bool, symbols: Sequence[str], extra_sorts: Sequence[str] = ()
) -> List[str]:
    """The opening lines of a generated system: its sorts, the pairing
    directive if the module needs it, a constructor per symbol, and the list
    and boolean constructors."""
    lines = ["sort " + " ".join(["symb", "list", "bool", *extra_sorts]) + " ;"]
    if pairing:
        lines.append("pairing ;")
    lines += [f"cons {name} : symb ;" for name in symbols]
    lines += [
        "cons [] : list ;",
        "cons cons : symb => list => list ;",
        "cons true : bool ;",
        "cons false : bool ;",
    ]
    return lines


def module_source(inst: ModuleInstance, input_symbols: str = "01") -> str:
    """A complete system: base signature plus the module's rules."""
    lines = signature_preamble(inst.pairing, input_symbols)
    lines += inst.decls
    lines += inst.rules
    return "\n".join(lines) + "\n"


def module_atrs(expr) -> Tuple[ModuleInstance, Atrs]:
    inst = gen_module(expr)
    return inst, parse_atrs(module_source(inst))


@dataclass
class SelfTestReport:
    """Observed behavior of a counting module on one input length."""

    expr: str
    n: int
    bound: int
    decrements: int
    checks: Dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def module_selftest(expr, n: int, space_budget: int = 2 ** 20) -> SelfTestReport:
    """Check a module's counting behavior on input length n, evaluating its
    symbols over representation spaces (immune to rewriting loops)."""
    from .solver import Solver, solvable

    if n < 1:
        raise ModuleError("self-test needs an input of length at least 1")
    inst, atrs = module_atrs(expr)
    cs = encode_input("1" * n, atrs)
    B = data_universe([cs], atrs)
    solver = Solver(solvable(atrs), B, space_budget)
    a = inst.width
    xs = [Variable(f"x{i}", inst.types[i - 1]) for i in range(1, a + 1)]
    xterms = [sym_term(x) for x in xs]
    true_t = sym_term(atrs.symbols["true"])
    false_t = sym_term(atrs.symbols["false"])

    def call(name: str, *args: Term) -> Term:
        return sym_term(atrs.symbols[name], *args)

    def eta_for(reprs) -> Dict:
        return {x.name: r for x, r in zip(xs, reprs)}

    def eval_with(terms: List[Term], reprs) -> List:
        eta = eta_for(reprs)
        return solver.evaluate([(t, eta) for t in terms])

    def bool_of(value, context: str) -> bool:
        names = set()
        if true_t in value:
            names.add(True)
        if false_t in value:
            names.add(False)
        if len(value) != 1 or len(names) != 1:
            raise SelfTestFailure(
                f"{context}: expected one boolean outcome, got "
                f"{sorted(str(v) for v in value)}"
            )
        return names.pop()

    checks: Dict[str, bool] = {}
    seed_terms = [call(inst.seed(i), cs) for i in range(1, a + 1)]
    current = solver.evaluate([(t, {}) for t in seed_terms])
    pred_terms = [call(inst.pred(i), cs, *xterms) for i in range(1, a + 1)]
    zero_term = call(inst.zero, cs, *xterms)
    bound = inst.bound(n)
    decrements = 0
    while True:
        is_zero = bool_of(eval_with([zero_term], current)[0], "zero test")
        if is_zero:
            break
        if decrements > bound + 1:
            raise SelfTestFailure(
                f"still not zero after {decrements} decrements (bound {bound})"
            )
        current = eval_with(pred_terms, current)
        decrements += 1
    checks["seed counts down in bound-1 steps"] = decrements == bound - 1
    at_zero = eval_with(pred_terms, current)
    checks["pred at zero stays zero"] = bool_of(
        eval_with([zero_term], at_zero)[0], "zero after pred at zero"
    )
    seed_reprs = solver.evaluate([(t, {}) for t in seed_terms])
    succ_at_max = call(
        inst.equal,
        cs,
        *[call(inst.succ(i), cs, *xterms) for i in range(1, a + 1)],
        *xterms,
    )
    checks["succ at maximum stays maximum"] = bool_of(
        eval_with([succ_at_max], seed_reprs)[0], "succ at maximum"
    )
    if bound >= 2:
        succ_of_pred = call(
            inst.equal,
            cs,
            *[
                call(
                    inst.succ(i),
                    cs,
                    *[call(inst.pred(j), cs, *xterms) for j in range(1, a + 1)],
                )
                for i in range(1, a + 1)
            ],
            *xterms,
        )
        checks["succ undoes pred below the maximum"] = bool_of(
            eval_with([succ_of_pred], seed_reprs)[0], "succ of pred"
        )
    report = SelfTestReport(expr_text(inst.expr), n, bound, decrements, checks)
    if not report.ok:
        failed = [name for name, good in checks.items() if not good]
        raise SelfTestFailure(
            f"{report.expr} at n={n}: failed {', '.join(failed)} "
            f"(decrements={decrements}, bound={bound})"
        )
    return report
