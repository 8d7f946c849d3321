"""Shared fixtures: corpus loading and small signatures for property tests."""

import pathlib

import pytest

from consfree.syntax import parse_atrs, parse_term

TESTS = pathlib.Path(__file__).resolve().parent
CORPUS = TESTS.parent / "src" / "consfree" / "corpus"
ATRS_NAMES = sorted(p.name for p in CORPUS.glob("*.atrs"))


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text()


def load(name: str):
    return parse_atrs(corpus_text(name))


def term(text: str, atrs):
    return parse_term(text, atrs, {})


def long_pattern_system(length):
    """A system whose one rule matches a list of `length` bits."""
    bits = " ; ".join("01"[i % 2] for i in range(length))
    return (
        "sort symb list ;\ncons 0 : symb ;\ncons 1 : symb ;\ncons [] : list ;\n"
        "cons cons : symb => list => list ;\nfun f : list => list ;\n"
        f"rule f ({bits} ; xs) -> f xs ;\n"
    )


# a pairing system with nested pair patterns
NESTED_PRODUCTS = (
    "pairing ;\nsort symb list ;\ncons 0 : symb ;\ncons 1 : symb ;\n"
    "cons [] : list ;\ncons cons : symb => list => list ;\n"
    "fun g : list => symb * (symb * symb) ;\n"
    "fun f : symb * (symb * symb) => symb ;\nfun start : list => symb ;\n"
    "rule g (c ; cs) -> (c , (0 , c)) ;\n"
    "rule f (x , (y , z)) -> y ;\nrule f (x , p) -> x ;\n"
    "rule start cs -> f (g cs) ;\n"
)


@pytest.fixture(scope="session")
def majority():
    return load("majority.atrs")


@pytest.fixture(scope="session")
def sat():
    return load("sat.atrs")


@pytest.fixture(scope="session")
def succ_system():
    return load("succ.atrs")


@pytest.fixture(scope="session")
def hocount():
    return load("hocount.atrs")


@pytest.fixture(scope="session")
def nonlinear_tm():
    return load("nonlinear_tm.atrs")
