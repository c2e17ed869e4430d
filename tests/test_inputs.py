"""The .slp and .model file formats."""

import os
import subprocess
import sys

import pytest

from conftest import read_data
from slatkit.el import parse_cbox
from slatkit.inputs import parse_model, parse_slp
from slatkit.locality import Composition, Inclusion
from slatkit.terms import ParseError, parse_atom


# ---------------------------------------------------------------------------
# .slp


def test_parse_slo_file():
    p = parse_slp(read_data("slo.slp"))
    assert p.functions == ("f", "g")
    assert p.axioms.axioms == (Composition("f", "g", "g"),)
    assert p.a_pos == tuple(parse_atom(s) for s in
                            ("d <= g(a)", "a <= c", "g(c) <= a"))
    assert p.b_pos == tuple(parse_atom(s) for s in ("b <= d", "b <= f(b)"))
    assert p.a_neg == () and p.b_neg == ()
    assert p.goal == parse_atom("b <= a")
    assert p.sigma is None and p.target is None


def test_parse_slp_negative_literals_and_comments():
    p = parse_slp(
        "functions f\n"
        "# two-sided with a negative literal\n"
        "side A\n"
        "a <= f(a)   # trailing comment\n"
        "! a <= b\n"
        "side B\n"
        "c = b\n"
        "goal a <= c\n"
    )
    assert p.a_pos == (parse_atom("a <= f(a)"),)
    assert p.a_neg == (parse_atom("a <= b"),)
    assert p.b_pos == (parse_atom("c = b"),)


def test_parse_slp_definability_file():
    p = parse_slp(read_data("beth_fe.slp"))
    assert p.goal is None
    assert p.sigma == ("g", "e")
    assert p.target == "a"


@pytest.mark.parametrize("text,what,line", [
    ("side A\nf(a) <= b\ngoal a <= b", "undeclared function", 2),
    ("side A\na <= goal\ngoal a <= b", "used as a constant", 2),
    ("functions f\nside A\nfunctions g\ngoal a <= a", "before the sides", 3),
    ("functions f\nf(a) <= b\ngoal a <= b", "inside 'side", 2),
    ("side A\n! a = b\ngoal a <= b", "negated equality", 2),
    ("side A\na <= b\ngoal a = b", "must be a <= atom", 3),
    ("goal a <= b\nside A", "follow the goal", 2),
    ("functions f f\ngoal a <= a", "declared twice", 1),
    ("axiom inclusion f\ngoal a <= a", "takes two", 1),
    ("axiom widening f g\ngoal a <= a", "unknown axiom kind", 1),
    ("side A\na <= b", "missing goal", 3),
    ("sigma q\ntarget a\nside A\na <= b", "occurs nowhere", 1),
    ("sigma b\ntarget q\nside A\na <= b", "occurs in no atom", 2),
])
def test_parse_slp_errors(text, what, line):
    with pytest.raises(ParseError) as e:
        parse_slp(text)
    assert what in str(e.value)
    assert e.value.line == line


def test_parse_slp_undeclared_axiom_function():
    with pytest.raises(ValueError):
        parse_slp("functions f\naxiom inclusion f g\ngoal a <= a")


@pytest.mark.parametrize("text,message,line,column", [
    ("functions f\naxiom inclusion f g\ngoal a <= a",
     "axiom uses undeclared function g", 2, 19),
    ("functions f\nside A\nf <= b\ngoal a <= b",
     "used as both constant and function: f", 3, 1),
    ("functions f\nside A\na <= f(f)\ngoal a <= b",
     "used as both constant and function: f", 3, 8),
    ("functions f\ngoal a <= f", "used as both constant and function: f", 2, 11),
])
def test_parse_slp_signature_error_positions(text, message, line, column):
    with pytest.raises(ParseError) as e:
        parse_slp(text)
    assert (e.value.message, e.value.line, e.value.column) == (message, line, column)


# semantic errors name the first offending token in line order, at its
# own column, whatever the hash seed (the symbol sets of an atom are
# frozensets, whose order follows PYTHONHASHSEED)
SEMANTIC_ERRORS = [
    (parse_slp, "functions f\nside A\na <= g(b) & h(c) & k(d)\ngoal a <= b",
     "undeclared function g", 3, 6),
    (parse_slp, "functions f\ngoal a <= k(b) & h(c) & g(d)", "undeclared function k", 2, 11),
    (parse_slp, "side A\na <= goal & sigma & target\ngoal a <= b",
     "reserved word 'goal' used as a constant", 2, 6),
    (parse_slp, "side A\n! target <= side\ngoal a <= b",
     "reserved word 'target' used as a constant", 2, 3),
    (parse_slp, "functions f g\nside B\ng(a) & f <= g\ngoal a <= b",
     "used as both constant and function: f", 3, 8),
    (parse_slp, "functions f\nsigma b q r\nside A\na <= b\ngoal a <= b",
     "sigma symbol q occurs nowhere", 2, 9),
    (parse_model, "carrier x\nmeet x x\nconst c = x\natom p <= q & r & s",
     "unbound constant p", 4, 6),
    (parse_model, "carrier x\nmeet x x\nfun f x\nconst c = x\natom f(c) <= k(h(c)) & g(c)",
     "uninterpreted function k", 5, 14),
    (parse_slp, "side A\na <= b\ntarget q", "target q occurs in no atom", 3, 8),
    (parse_model, "carrier x y\nmeet x x y\nmeet y y z", "not a carrier element: z", 3, 10),
    (parse_model, "carrier x y\nmeet x x y\nmeet y y y\nfun f x q", "not a carrier element: q", 4, 9),
    (parse_model, "carrier x\nmeet x x\nfun f x\naxiom composition f g f", "uninterpreted function g", 4, 21),
    (parse_cbox, "roles r\nri r o s <= r\ngoal X <= X", "undeclared role s", 2, 8),
    (parse_cbox, "roles r\nri t <= s\ngoal X <= X", "undeclared role t", 2, 4),
]


@pytest.mark.parametrize("parse,text,message,line,column", SEMANTIC_ERRORS)
def test_semantic_errors_name_the_first_offending_token(parse, text, message, line, column):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.message, e.value.line, e.value.column) == (message, line, column)


def test_semantic_errors_do_not_depend_on_the_hash_seed():
    script = (
        "import sys\n"
        "from slatkit.el import parse_cbox\n"
        "from slatkit.inputs import parse_model, parse_slp\n"
        "from slatkit.terms import ParseError\n"
        "for name, text in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    try:\n"
        "        {'parse_slp': parse_slp, 'parse_model': parse_model, 'parse_cbox': parse_cbox}[name](text)\n"
        "    except ParseError as e:\n"
        "        print(e)\n"
    )
    args = [x for parse, text, *_ in SEMANTIC_ERRORS for x in (parse.__name__, text)]
    want = "".join(f"{line}:{column}: {message}\n" for _, _, message, line, column in SEMANTIC_ERRORS)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    for seed in range(5):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == want, f"PYTHONHASHSEED={seed}"


def test_parse_slp_axiom_may_precede_its_functions():
    p = parse_slp("axiom inclusion f g\nfunctions f g\ngoal a <= a")
    assert p.axioms.axioms == (Inclusion("f", "g"),)


def test_parse_slp_literal_position():
    with pytest.raises(ParseError) as e:
        parse_slp("side A\na <= (b\ngoal a <= b")
    assert (e.value.line, e.value.column) == (2, 8)


@pytest.mark.parametrize("parse,text,message,line,column", [
    (parse_slp, "goal a <= (b", "expected ')', got None", 1, 13),
    (parse_model, "carrier a\nmeet a a\nconst a = a\natom a <= (a", "expected ')', got None", 4, 13),
    # nothing after the head word: the column just past it
    (parse_slp, "goal", "expected a term, got end of line", 1, 5),
    (parse_slp, "side A\n  !\ngoal a <= a", "expected a term, got end of line", 2, 4),
    (parse_model, "carrier a\nmeet a a\nconst a = a\natom", "expected a term, got end of line", 4, 5),
])
def test_goal_and_atom_line_positions(parse, text, message, line, column):
    # columns count from the start of the line, head word included
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.message, e.value.line, e.value.column) == (message, line, column)


# ---------------------------------------------------------------------------
# the side/goal layout .slp and .elp share

PARSERS = {"slp": parse_slp, "elp": parse_cbox}


@pytest.mark.parametrize("fmt,text,message,line,column", [
    ("slp", "functions f\nside C\ngoal a <= a", "expected 'side A' or 'side B'", 2, 1),
    ("elp", "roles r\nside A B\ngoal X <= X", "expected 'side A' or 'side B'", 2, 1),
    ("slp", "goal a <= a\n  b <= c", "nothing may follow the goal", 2, 3),
    ("elp", "goal X <= X\n  ri r <= r", "nothing may follow the goal", 2, 3),
    ("slp", "side A\na <= b\n axiom inclusion f f\ngoal a <= b",
     "axioms must precede the sides", 3, 2),
    ("elp", "roles r\nside B\nroles s\ngoal X <= X",
     "roles must be declared before the sides", 3, 1),
    ("slp", "functions f\n  f(a) <= b\ngoal a <= b",
     "literals must appear inside 'side A' or 'side B'", 2, 3),
    ("elp", "roles r\nex r . X <= Y\ngoal X <= Y",
     "concept inclusions must appear inside 'side A' or 'side B'", 2, 1),
])
def test_problem_layout_errors(fmt, text, message, line, column):
    with pytest.raises(ParseError) as e:
        PARSERS[fmt](text)
    assert (e.value.message, e.value.line, e.value.column) == (message, line, column)


# ---------------------------------------------------------------------------
# .model


def test_parse_four_point_model_file():
    spec = parse_model(read_data("four_point.model"))
    m = spec.model
    assert m.carrier == ("a", "e", "b", "d")
    assert m.meet[("a", "e")] == "e"
    assert m.funcs["f"]["e"] == "a"
    assert m.consts == {"a": "a", "e": "e", "b": "b"}
    assert spec.compositions == (("f", "g", "g"),)
    assert spec.inclusions == ()
    assert spec.atoms == tuple(
        parse_atom(s) for s in ("a <= f(e)", "e <= g(b)", "g(b) <= a")
    )


def test_parse_model_minimal():
    spec = parse_model("carrier x\nmeet x x\n")
    assert spec.model.carrier == ("x",)
    assert spec.model.meet == {("x", "x"): "x"}
    assert spec.atoms == ()


@pytest.mark.parametrize("text,what", [
    ("meet x x", "carrier must be declared first"),
    ("carrier x\nmeet x y", "not a carrier element"),
    ("carrier x\nmeet x\n", "meet row needs"),
    ("carrier x\nmeet x x\nmeet x x", "given twice"),
    ("carrier x y\nmeet x x x\nmeet y x x\nfun f x", "fun row needs"),
    ("carrier x\nmeet x x\nconst c = y", "not a carrier element"),
    ("carrier x\nmeet x x\nconst c = x\nconst c = x", "bound twice"),
    ("carrier x\nmeet x x\naxiom inclusion f g", "uninterpreted function"),
    ("carrier x\nmeet x x\natom c <= c", "unbound constant"),
    ("carrier x\nmeet x x\nfrobnicate", "unknown directive"),
    ("carrier x y\nmeet x x x", "missing meet row for y"),
    ("", "missing carrier"),
])
def test_parse_model_errors(text, what):
    with pytest.raises(ParseError) as e:
        parse_model(text)
    assert what in str(e.value)


@pytest.mark.parametrize("text,message,line,column", [
    # a long row: the first surplus token; a short one: just past its last token
    ("carrier x y\nmeet x x x\nmeet y x y z", "meet row needs 1 + 2 elements", 3, 12),
    ("carrier x y\nmeet x  x", "meet row needs 1 + 2 elements", 2, 10),
    ("carrier x\nmeet", "meet row needs 1 + 1 elements", 2, 5),
    ("carrier x\nmeet x x\nfun f x x # note", "fun row needs a name and 1 values", 3, 9),
    ("carrier x y\nmeet x x x\nmeet y x y\nfun f x", "fun row needs a name and 2 values", 4, 8),
    ("carrier x\nmeet x x\nfun", "fun row needs a name and 1 values", 3, 4),
])
def test_parse_model_row_length_positions(text, message, line, column):
    with pytest.raises(ParseError) as e:
        parse_model(text)
    assert (e.value.message, e.value.line, e.value.column) == (message, line, column)


def test_parse_model_atom_with_function():
    spec = parse_model(
        "carrier x\nmeet x x\nfun f x\nconst c = x\natom f(c) <= c\n"
    )
    assert spec.atoms == (parse_atom("f(c) <= c"),)
