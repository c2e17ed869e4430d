"""The tokenizer and parsers against the plain reference copy in
parser_reference.py: the same value, or the same ParseError message,
line and column, on every input."""

import pytest
from hypothesis import given, settings, strategies as st

import parser_reference as ref
from conftest import DATA
from slatkit.terms import MAX_NESTING, ParseError, _TermParser, parse_atom, parse_term, tokenize, words

ROLES = {"r"}
PIECES = ["a", "f", "(", ")", "&", "<=", "=", "!", ".", ",", "<", "ex", "r", "#", " ", "\t"]
FILES = sorted(p.name for p in DATA.iterdir() if p.is_file())


def outcome(parse, *args):
    try:
        return "value", parse(*args)
    except ParseError as e:
        return "error", e.message, e.line, e.column


def parse_inclusion(text, roles, line):
    p = _TermParser(words(text, line), line, text, roles)
    lhs = p.term()
    p.expect("<=")
    rhs = p.term()
    p.done()
    return lhs, rhs


def assert_same(text: str, line: int = 1) -> None:
    assert outcome(tokenize, text, line) == outcome(ref.tokenize, text, line)
    assert outcome(parse_term, text, line) == outcome(ref.parse_term, text, line)
    assert outcome(parse_atom, text, line) == outcome(ref.parse_atom, text, line)
    assert outcome(parse_inclusion, text, ROLES, line) == outcome(ref.parse_inclusion, text, ROLES, line)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=24).map("".join), st.integers(1, 500))
def test_random_token_strings(text, line):
    assert_same(text, line)


# one mutation: (position as a fraction of the text, deleted length, inserted text)
mutation = st.tuples(st.floats(0, 1), st.integers(0, 3),
                     st.lists(st.sampled_from(PIECES + ["\n"]), max_size=3).map("".join))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FILES), st.lists(mutation, min_size=1, max_size=3))
def test_every_line_of_mutated_data_files(name, mutations):
    text = (DATA / name).read_text(encoding="utf-8")
    for where, cut, insert in mutations:
        i = int(where * len(text))
        text = text[:i] + insert + text[i + cut:]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        assert_same(raw.split("#", 1)[0], lineno)


@pytest.mark.parametrize("depth", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize("opening,closing", [("(", ")"), ("f(", ")"), ("ex r . ", "")])
def test_nesting_at_the_bound(depth, opening, closing):
    text = opening * depth + "a" + closing * depth
    assert_same(text)
    assert_same(f"b <= {text} & c")
