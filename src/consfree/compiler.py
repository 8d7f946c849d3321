"""Compile a Turing machine to a cons-free system: time and tape position are
numbers of a counting module, and the whole run is computed backwards from
queries about the final configuration."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List

from .modules import (
    LIST,
    BOOL,
    SYMB,
    ModuleError,
    ModuleInstance,
    emit_fun,
    emit_rule,
    gen_module,
    signature_preamble,
    _vec,
)
from .syntax import is_identifier, parse_atrs
from .terms import Atrs, Sort
from .tm import BLANK, ACCEPT, REJECT, TMachine

STATE = Sort("state")
DIRECTION = Sort("direction")
TRANS = Sort("trans")

BLANK_SYMBOL = "B"
_RESERVED_NAMES = {
    "true",
    "false",
    "fail",
    "L",
    "R",
    "NA",
    "end",
    "action",
    "cons",
    "[]",
    BLANK_SYMBOL,
}


@dataclass
class CompiledSystem:
    """A Turing machine compiled against a counting module."""

    tm: TMachine
    module: ModuleInstance
    text: str
    atrs: Atrs


def _symbol_name(sym: str) -> str:
    return BLANK_SYMBOL if sym == BLANK else sym


def _check_name(name: str, what: str) -> str:
    if not is_identifier(name):
        raise ModuleError(f"{what} {name!r} is not a valid identifier")
    if name in _RESERVED_NAMES:
        raise ModuleError(f"{what} {name!r} collides with a generated symbol")
    return name


def compile_tm(tm: TMachine, expr) -> CompiledSystem:
    """Emit a system whose decide symbol computes the machine's verdict,
    provided the module's bound exceeds the machine's runtime."""
    inst = gen_module(expr)
    a = inst.width
    types = inst.types
    n = _vec("n", a)
    p = _vec("p", a)
    i = _vec("i", a)
    ns = " ".join(n)
    ps = " ".join(p)
    js = " ".join(i)
    seeds = " ".join(inst.seed_calls())
    pred_n = " ".join(inst.pred_calls(n))
    pred_p = " ".join(inst.pred_calls(p))
    succ_p = " ".join(inst.succ_calls(p))
    pred_i = " ".join(inst.pred_calls(i))

    lines: List[str] = ["// Compiled Turing machine: " + ", ".join(
        f"{t.state} {t.read} -> {t.write} {t.direction} {t.target}"
        for t in tm.transitions
    )]
    lines.append(f"// counting module: {inst.path}")
    for sym in tm.tape_alphabet:
        if sym != BLANK:
            _check_name(sym, "tape symbol")
    if BLANK_SYMBOL in tm.tape_alphabet:
        raise ModuleError(
            f"tape symbol {BLANK_SYMBOL!r} is reserved for the blank"
        )
    lines += signature_preamble(
        inst.pairing,
        [_symbol_name(s) for s in tm.tape_alphabet],
        [STATE.name, DIRECTION.name, TRANS.name],
    )
    lines += [
        "cons L : direction ;",
        "cons R : direction ;",
        "cons NA : trans ;",
        "cons action : symb => direction => state => trans ;",
        "cons end : state => trans ;",
        "cons fail : state ;",
    ]
    states = {s: f"st_{_check_name(s, 'state')}" for s in tm.states}
    for name in sorted(states.values()):
        lines.append(f"cons {name} : state ;")
    lines += inst.decls
    vec2 = types + types
    fun = partial(emit_fun, lines)
    rule = partial(emit_rule, lines)
    ifelse_state = fun("ifelse_state", [BOOL, STATE, STATE], STATE)
    ifelse_symb = fun("ifelse_symb", [BOOL, SYMB, SYMB], SYMB)
    ifelse_trans = fun("ifelse_trans", [BOOL, TRANS, TRANS], TRANS)
    transition = fun("transition", [LIST] + vec2, TRANS)
    transitionhelp = fun("transitionhelp", [STATE, SYMB], TRANS)
    state = fun("state", [LIST] + vec2, STATE)
    state0 = fun("state0", [LIST] + types, STATE)
    statex = fun("statex", [LIST] + vec2, STATE)
    statez = fun("statez", [LIST] + vec2 + [TRANS], STATE)
    statey = fun("statey", [TRANS, TRANS, TRANS], STATE)
    tape = fun("tape", [LIST] + vec2, SYMB)
    tapex = fun("tapex", [LIST] + vec2, SYMB)
    tapey = fun("tapey", [LIST] + vec2 + [TRANS], SYMB)
    inputtape = fun("inputtape", [LIST] + types, SYMB)
    get = fun("get", [LIST, LIST] + types, SYMB)
    decide = fun("decide", [LIST], BOOL)
    findanswer = fun("findanswer", [LIST, STATE] + vec2, BOOL)

    lines += inst.rules
    lines.append("// conditionals over the extra sorts")
    for name in (ifelse_state, ifelse_symb, ifelse_trans):
        rule(f"{name} true y z", "y")
        rule(f"{name} false y z", "z")
    lines.append("// the transition fired at time n with the head at position p")
    rule(
        f"{transition} cs {ns} {ps}",
        f"{transitionhelp} ({state} cs {ns} {ps}) ({tape} cs {ns} {ps})",
    )
    rule(f"{transitionhelp} fail x", "NA")
    for t in tm.transitions:
        rule(
            f"{transitionhelp} {states[t.state]} {_symbol_name(t.read)}",
            f"action {_symbol_name(t.write)} {t.direction} {states[t.target]}",
        )
    for halting in (ACCEPT, REJECT):
        rule(f"{transitionhelp} {states[halting]} x", f"end {states[halting]}")
    lines.append("// the state at time n if the head is at position p, else fail")
    rule(
        f"{state} cs {ns} {ps}",
        f"{ifelse_state} {inst.zero_call(n)} ({state0} cs {ps}) "
        f"({statex} cs {pred_n} {ps})",
    )
    rule(
        f"{state0} cs {ps}",
        f"{ifelse_state} {inst.zero_call(p)} {states[tm.start]} fail",
    )
    # At position 0 the saturating pred would make the cell its own left
    # neighbor, so the left-neighbor query is cut off by a zero test.
    rule(
        f"{statex} cs {ns} {ps}",
        f"{statez} cs {ns} {ps} ({ifelse_trans} {inst.zero_call(p)} NA "
        f"({transition} cs {ns} {pred_p}))",
    )
    rule(
        f"{statez} cs {ns} {ps} l",
        f"{statey} l ({transition} cs {ns} {ps}) "
        f"({transition} cs {ns} {succ_p})",
    )
    rule(f"{statey} (action x R q) a e", "q")
    rule(f"{statey} (action x L q) a e", "fail")
    rule(f"{statey} (end q) a e", "fail")
    rule(f"{statey} NA (action x d q) e", "fail")
    rule(f"{statey} NA (end q) e", "q")
    rule(f"{statey} NA NA (action x L q)", "q")
    rule(f"{statey} NA NA (action x R q)", "fail")
    rule(f"{statey} NA NA (end q)", "fail")
    rule(f"{statey} NA NA NA", "fail")
    lines.append("// the tape symbol at position p after n steps")
    rule(
        f"{tape} cs {ns} {ps}",
        f"{ifelse_symb} {inst.zero_call(n)} ({inputtape} cs {ps}) "
        f"({tapex} cs {pred_n} {ps})",
    )
    rule(f"{tapex} cs {ns} {ps}", f"{tapey} cs {ns} {ps} ({transition} cs {ns} {ps})")
    rule(f"{tapey} cs {ns} {ps} (action x d q)", "x")
    rule(f"{tapey} cs {ns} {ps} NA", f"{tape} cs {ns} {ps}")
    rule(f"{tapey} cs {ns} {ps} (end q)", f"{tape} cs {ns} {ps}")
    lines.append("// the initial tape: blank at position 0, then the input")
    rule(
        f"{inputtape} cs {ps}",
        f"{ifelse_symb} {inst.zero_call(p)} {BLANK_SYMBOL} ({get} cs cs {pred_p})",
    )
    rule(f"{get} cs [] {js}", BLANK_SYMBOL)
    rule(
        f"{get} cs (x ; xs) {js}",
        f"{ifelse_symb} {inst.zero_call(i)} x ({get} cs xs {pred_i})",
    )
    lines.append("// scan the final configuration for the halting state")
    rule(f"{decide} cs", f"{findanswer} cs fail {seeds} {seeds}")
    rule(
        f"{findanswer} cs fail {ns} {ps}",
        f"{findanswer} cs ({state} cs {ns} {ps}) {ns} {pred_p}",
    )
    rule(f"{findanswer} cs {states[ACCEPT]} {ns} {ps}", "true")
    rule(f"{findanswer} cs {states[REJECT]} {ns} {ps}", "false")
    text = "\n".join(lines) + "\n"
    return CompiledSystem(tm, inst, text, parse_atrs(text))
