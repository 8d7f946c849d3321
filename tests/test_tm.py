"""Turing machine model: parsing, determinism, simulation."""

import pytest

from consfree.syntax import parse_tm
from consfree.tm import NonDeterministicTM, TMError, TMFormatError, simulate_tm

from conftest import corpus_text


def contains1():
    return parse_tm(corpus_text("contains1.tm"))


def parity():
    return parse_tm(corpus_text("parity.tm"))


def test_contains1_semantics():
    tm = contains1()
    for x in ["1", "01", "10", "111", "010"]:
        assert simulate_tm(tm, x).accepted
    for x in ["0", "00", "000"]:
        assert not simulate_tm(tm, x).accepted


def test_parity_semantics():
    tm = parity()
    for x in ["0", "1", "01", "10", "11", "111", "110"]:
        assert simulate_tm(tm, x).accepted == (x.count("1") % 2 == 1)


def test_runtime_is_recorded():
    run = simulate_tm(contains1(), "001")
    assert run.accepted
    assert 0 < run.steps <= 5


def test_duplicate_transitions_are_rejected():
    text = corpus_text("contains1.tm") + "trans scan 1 1 R reject ;\n"
    with pytest.raises(NonDeterministicTM):
        parse_tm(text)


def test_missing_transitions_are_rejected():
    text = corpus_text("contains1.tm").replace("trans scan 0 0 R scan ;\n", "")
    with pytest.raises(TMError):
        parse_tm(text)


def test_blank_cannot_be_an_input_symbol():
    with pytest.raises(TMFormatError):
        parse_tm("input 0 _ ;\ntape 0 _ ;\nstates a accept reject ;\nstart a ;\n")


def test_print_round_trip():
    for tm in (contains1(), parity()):
        assert parse_tm(str(tm)) == tm
