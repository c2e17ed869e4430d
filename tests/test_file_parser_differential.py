"""The file parsers against the copies in parser_reference.py of the file
parsers that split every line into (token, column) pairs: on every text,
parse_slp, parse_cbox and parse_model each give the same value, with the
same repr, or raise the same ParseError message, line and column.

Files are mutated by characters, as the line-level test mutates them, and
by tokens and lines, which reach the errors of the file layouts: a line
dropped, repeated elsewhere or cut short, a token replaced, inserted or
dropped. The edited line's tokens are joined by single spaces."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import parser_reference as ref
from conftest import DATA, onto_text, rand_slo_problem, slp_text
from slatkit.el import parse_cbox
from slatkit.inputs import parse_model, parse_slp
from slatkit.terms import ParseError
from test_parser_differential import FILES, PIECES, mutation
from test_saturate import ladder

WORDS = PIECES + ["functions", "axiom", "inclusion", "composition", "side", "A", "B", "goal", "sigma",
                  "target", "roles", "ri", "o", "s", "carrier", "meet", "fun", "const", "atom", "b", "g"]
REPLACEMENTS = ["x", "(", "<=", "ex", "A"]
_TOKENS = re.compile(r"<=|[&().=!,<]|[^\s&().=!,<]+").findall

# (what, line, token position, word): positions are taken modulo the lengths
edit = st.tuples(st.sampled_from(["drop line", "repeat line", "cut", "replace", "insert", "drop"]),
                 st.integers(-40, 40), st.integers(0, 40), st.sampled_from(WORDS))
edits = st.lists(st.one_of(mutation, edit), max_size=4)


def edited(text: str, changes) -> str:
    for change in changes:
        if len(change) == 3:
            where, cut, insert = change
            i = int(where * len(text))
            text = text[:i] + insert + text[i + cut:]
            continue
        what, i, j, word = change
        lines = text.splitlines()
        if not lines:
            continue
        i %= len(lines)
        toks = _TOKENS(lines[i])
        if what == "drop line":
            del lines[i]
        elif what == "repeat line":
            lines.insert(j % (len(lines) + 1), lines[i])
        elif what == "cut":
            lines[i] = " ".join(toks[:j])
        elif what == "insert":
            lines[i] = " ".join([*toks[:j], word, *toks[j:]])
        elif toks:
            j %= len(toks)
            lines[i] = " ".join([*toks[:j], *([word] if what == "replace" else []), *toks[j + 1:]])
        text = "\n".join(lines) + "\n"
    return text


PARSERS = [(parse_slp, ref.parse_slp), (parse_cbox, ref.parse_cbox), (parse_model, ref.parse_model)]


def outcome(parse, text):
    try:
        value = parse(text)
    except ParseError as e:
        return "error", e.message, e.line, e.column
    return "value", value, repr(value)


def assert_same(text: str) -> None:
    for parse, reference in PARSERS:
        assert outcome(parse, text) == outcome(reference, text)


def generated(kind: str, seed: int) -> str:
    """A seeded ladder, onto_text or rand_slo_problem file."""
    rng = random.Random(seed)
    if kind == "ladder":
        n = rng.randint(1, 20)
        return slp_text(*ladder(n, rng.choice([None, rng.randrange(n)])))
    if kind == "onto":
        return onto_text(rng, rng.randint(3, 12), rng.randint(0, 20))
    return slp_text(*rand_slo_problem(rng))


@pytest.mark.parametrize("name", [*FILES, "ladder 1", "onto 1", "slo 16"])
def test_files_and_their_one_edit_neighbours(name):
    """A data file or a seeded generated one (slo 16 has both axiom
    kinds), and each text one edit away: a line dropped, a line cut
    after each of its tokens, a token replaced by one of REPLACEMENTS."""
    kind, _, seed = name.partition(" ")
    text = generated(kind, int(seed)) if seed else (DATA / name).read_text(encoding="utf-8")
    lines = text.splitlines()
    assert_same("\n".join(lines) + "\n")
    for i, line in enumerate(lines):
        toks = _TOKENS(line)
        variants = [None, *(" ".join(toks[:j]) for j in range(len(toks))),
                    *(" ".join([*toks[:j], word, *toks[j + 1:]]) for j in range(len(toks)) for word in REPLACEMENTS)]
        for variant in variants:
            assert_same("\n".join([*lines[:i], *([] if variant is None else [variant]), *lines[i + 1:]]) + "\n")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FILES), edits)
def test_edited_data_files(name, changes):
    assert_same(edited((DATA / name).read_text(encoding="utf-8"), changes))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["ladder", "onto", "slo"]), st.integers(0, 2**32), edits)
def test_edited_generated_files(kind, seed, changes):
    assert_same(edited(generated(kind, seed), changes))
