"""Term algebra: interning, normal forms, ordering, parsing; the coloring
of term symbols that interpolation builds on."""

import copy
import pickle
import random
from dataclasses import dataclass
from functools import cmp_to_key

import pytest
from hypothesis import given, strategies as st

from slatkit.inputs import parse_slp
from slatkit.interp import Color, ColorClash, color_problem, combine_colors
from slatkit.locality import AxiomSet, entails
from slatkit.slat import encode
from slatkit.terms import (
    App,
    Const,
    Eq,
    GroundHornClause,
    Leq,
    Meet,
    ParseError,
    _compare_terms,
    expand_eqs,
    format_atom,
    format_term,
    mk_meet,
    parse_atom,
    parse_term,
    term_constants,
    term_functions,
    term_key,
)

names = st.sampled_from("abcde")
consts = names.map(Const)
terms = st.recursive(
    consts,
    lambda sub: st.one_of(
        st.builds(App, st.sampled_from("fg"), sub),
        st.lists(sub, min_size=1, max_size=3).map(mk_meet),
    ),
    max_leaves=8,
)
# also meets built from arguments not in normal form: unsorted, nested,
# repeated
raw_terms = st.recursive(
    consts,
    lambda sub: st.one_of(
        st.builds(App, st.sampled_from("fg"), sub),
        st.lists(sub, min_size=1, max_size=3).map(tuple).map(Meet),
    ),
    max_leaves=8,
)


# ---------------------------------------------------------------------------
# interning: one object per structure


@dataclass(frozen=True)
class DConst:
    name: str


@dataclass(frozen=True)
class DApp:
    fn: str
    arg: object


@dataclass(frozen=True)
class DMeet:
    args: tuple


def as_dataclass(t):
    """The term as the frozen dataclasses terms were before interning."""
    if isinstance(t, Const):
        return DConst(t.name)
    if isinstance(t, App):
        return DApp(t.fn, as_dataclass(t.arg))
    return DMeet(tuple(as_dataclass(a) for a in t.args))


def rebuilt(t):
    """The same structure, built again bottom-up through the constructors."""
    if isinstance(t, Const):
        return Const(t.name)
    if isinstance(t, App):
        return App(t.fn, rebuilt(t.arg))
    return Meet(tuple(rebuilt(a) for a in t.args))


def ref_key(t):
    if isinstance(t, Const):
        return (0, t.name, ())
    if isinstance(t, App):
        return (1, t.fn, (ref_key(t.arg),))
    return (2, "", tuple(ref_key(a) for a in t.args))


def ref_symbols(t, functions):
    if isinstance(t, Const):
        return set() if functions else {t.name}
    if isinstance(t, App):
        return ref_symbols(t.arg, functions) | ({t.fn} if functions else set())
    return set().union(*(ref_symbols(a, functions) for a in t.args))


@given(raw_terms)
def test_same_structure_same_object(t):
    assert rebuilt(t) is t


@given(terms, st.randoms())
def test_parsed_and_permuted_terms_are_the_built_object(t, rng):
    assert parse_term(format_term(t)) is t
    if isinstance(t, Meet):
        args = list(t.args)
        rng.shuffle(args)
        assert mk_meet(args) is t


@given(raw_terms)
def test_cached_key_hash_and_symbols_match_the_walks(t):
    assert term_key(t) == ref_key(t)
    assert hash(t) == hash(as_dataclass(t))
    assert term_constants(t) == ref_symbols(t, False)
    assert term_functions(t) == ref_symbols(t, True)


@given(raw_terms)
def test_terms_are_immutable(t):
    for name in type(t).__slots__:
        with pytest.raises(AttributeError):
            setattr(t, name, Const("z"))


@given(raw_terms)
def test_copies_and_pickles_are_the_same_object(t):
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t


def test_meet_is_born_in_normal_form():
    a, b = Const("a"), Const("b")
    raw = Meet((b, a, b))
    assert Meet((b, a)) is raw is mk_meet([a, b])
    assert repr(Meet((b, a))) == "Meet(args=(Const(name='a'), Const(name='b')))"
    for x in (copy.copy(raw), copy.deepcopy(raw), pickle.loads(pickle.dumps(raw))):
        assert x is mk_meet([a, b])


@given(raw_terms)
def test_every_built_meet_is_normal(t):
    todo = [t]
    while todo:
        x = todo.pop()
        if isinstance(x, App):
            todo.append(x.arg)
        elif isinstance(x, Meet):
            assert len(x.args) >= 2
            assert not any(isinstance(a, Meet) for a in x.args)
            assert list(x.args) == sorted(set(x.args), key=term_key)
            assert mk_meet(x.args) is x
            todo += x.args


def test_singleton_and_empty_meets():
    a = Const("a")
    assert Meet((a,)) is a
    assert Meet((a, a)) is a
    with pytest.raises(ValueError):
        Meet(())


def test_deep_terms_hash_and_key_without_recursion():
    t = Const("a")
    for _ in range(10_000):
        t = App("f", t)
    assert hash(t) == hash(("f", t.arg))
    assert term_key(t)[:2] == (1, "f")
    assert term_functions(t) == {"f"} and term_constants(t) == {"a"}
    assert {t: 1}[t] == 1


def test_deep_meet_builds_in_term_key_order_and_is_decided():
    # comparing the keys of two chains this deep recurses past the limit
    # in C on every supported Python; mk_meet then orders them in a loop
    fa, fb = Const("a"), Const("b")
    for _ in range(5000):
        fa, fb = App("f", fa), App("f", fb)
    m = Meet((App("g", fb), fb, fa))
    assert m.args == (fa, fb, App("g", fb))
    assert mk_meet([fb, fa]) is Meet((fa, fb))
    c = Const("c")
    assert entails([Leq(c, Meet((fa, fb)))], [], Leq(c, fb), AxiomSet(("f",)))
    assert not entails([Leq(c, fa)], [], Leq(c, Meet((fa, fb))), AxiomSet(("f",)))


def _nested(rng: random.Random, depth: int):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return Const(rng.choice("abc"))
    if r < 0.7:
        return App(rng.choice("fg"), _nested(rng, depth - 1))
    return mk_meet(_nested(rng, depth - 1) for _ in range(rng.randint(2, 3)))


def test_the_loop_order_is_term_key_order():
    rng, order = random.Random(7), cmp_to_key(_compare_terms)
    for _ in range(500):
        xs = list({_nested(rng, 4) for _ in range(rng.randint(2, 8))})
        rng.shuffle(xs)
        assert sorted(xs, key=order) == sorted(xs, key=term_key)
        s, t = xs[0], xs[-1]
        assert _compare_terms(s, t) == (term_key(s) > term_key(t)) - (term_key(s) < term_key(t))


# ---------------------------------------------------------------------------
# normal form


def test_mk_meet_flattens_and_sorts():
    t = mk_meet([Const("b"), mk_meet([Const("a"), Const("c")]), Const("a")])
    assert t == Meet((Const("a"), Const("b"), Const("c")))


def test_mk_meet_singleton_collapses():
    assert mk_meet([Const("a")]) == Const("a")
    assert mk_meet([Const("a"), Const("a")]) == Const("a")


def test_mk_meet_empty_rejected():
    with pytest.raises(ValueError):
        mk_meet([])


@given(st.lists(terms, min_size=1, max_size=4), st.randoms())
def test_mk_meet_permutation_invariant(args, rng):
    shuffled = list(args)
    rng.shuffle(shuffled)
    assert mk_meet(args) == mk_meet(shuffled)


@given(st.lists(terms, min_size=1, max_size=4))
def test_mk_meet_idempotent(args):
    assert mk_meet(args + args) == mk_meet(args)


@given(raw_terms)
def test_normalize_fixpoint(t):
    # rebuilding a term through the constructors gives it back
    n = rebuilt(t)
    assert rebuilt(n) == n


def test_normalize_reaches_inside_applications():
    raw = App("f", Meet((Const("b"), Meet((Const("a"), Const("b"))))))
    assert raw == App("f", Meet((Const("a"), Const("b"))))


def test_term_key_orders_kinds():
    ts = [Meet((Const("a"), Const("b"))), App("f", Const("a")), Const("z")]
    assert sorted(ts, key=term_key) == [ts[2], ts[1], ts[0]]


def subterms(t):
    """The terms registering t gives variables: its subterms, left-fold
    meet prefixes included."""
    return set(encode((), [t]).index)


@given(terms)
def test_subterms_contains_self_and_embeds(t):
    sub = subterms(t)
    assert t in sub
    children = ()
    if isinstance(t, App):
        children = (t.arg,)
    elif isinstance(t, Meet):
        children = t.args
    for c in children:
        assert subterms(c) <= sub


def test_subterms_meet_left_fold_chain():
    t = mk_meet([Const("a"), Const("b"), Const("c")])
    assert Meet((Const("a"), Const("b"))) in subterms(t)
    # but not the other pairs: the chain is over the sorted prefix
    assert Meet((Const("b"), Const("c"))) not in subterms(t)


def test_symbol_collectors():
    t = App("f", mk_meet([Const("a"), App("g", Const("b"))]))
    assert term_constants(t) == {"a", "b"}
    assert term_functions(t) == {"f", "g"}


# ---------------------------------------------------------------------------
# atoms


def test_expand_eqs_keeps_order():
    out = expand_eqs([Leq(Const("a"), Const("b")), Eq(Const("c"), Const("d"))])
    assert out == (
        Leq(Const("a"), Const("b")),
        Leq(Const("c"), Const("d")),
        Leq(Const("d"), Const("c")),
    )


def test_ground_horn_clause_is_immutable():
    cl = GroundHornClause((Leq(Const("a"), Const("b")),),
                          Leq(Const("c"), Const("d")), ("mon", "f"))
    with pytest.raises(AttributeError):
        cl.conclusion = Leq(Const("a"), Const("a"))


# ---------------------------------------------------------------------------
# parsing


@pytest.mark.parametrize("text,term", [
    ("a", Const("a")),
    ("f(a)", App("f", Const("a"))),
    ("a & b", Meet((Const("a"), Const("b")))),
    ("b & a & b", Meet((Const("a"), Const("b")))),
    ("f(a & g(b))", App("f", Meet((Const("a"), App("g", Const("b")))))),
    ("(a & b) & c", Meet((Const("a"), Const("b"), Const("c")))),
])
def test_parse_term(text, term):
    assert parse_term(text) == term


def test_parse_atom_kinds():
    assert parse_atom("a <= b & c") == Leq(Const("a"), Meet((Const("b"), Const("c"))))
    assert parse_atom("f(a) = b") == Eq(App("f", Const("a")), Const("b"))


def test_parse_literal_negation():
    # a leading '!' puts the literal among the negative ones of its side
    p = parse_slp("side A\n! a <= b\na <= b\ngoal a <= b")
    assert p.a_neg == (Leq(Const("a"), Const("b")),)
    assert p.a_pos == (Leq(Const("a"), Const("b")),)


@given(terms)
def test_format_parse_round_trip(t):
    assert parse_term(format_term(t)) == t


def test_format_atom():
    assert format_atom(Leq(Const("a"), Meet((Const("b"), Const("c"))))) == "a <= b & c"
    assert format_atom(Eq(Const("a"), Const("b"))) == "a = b"


@pytest.mark.parametrize("text,column", [
    ("a &", 4),       # dangling operator
    ("f(a", 4),       # unclosed application
    ("a b", 3),       # juxtaposition
    ("& a", 1),       # leading operator
])
def test_parse_term_error_columns(text, column):
    with pytest.raises(ParseError) as e:
        parse_term(text)
    assert e.value.column == column


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_atom("a <= ", line=7)
    err = e.value
    assert (err.line, err.column) == (7, 5)
    assert str(err).startswith("7:5: ")
    assert "end of line" in err.message


def test_parse_atom_requires_relation():
    with pytest.raises(ParseError):
        parse_atom("a & b")


# ---------------------------------------------------------------------------
# coloring of symbols (slatkit.interp, the one module that colors)


def test_combine_colors():
    assert combine_colors(Color.SHARED, Color.A) is Color.A
    assert combine_colors(Color.B, Color.SHARED) is Color.B
    assert combine_colors(Color.A, Color.A) is Color.A
    with pytest.raises(ColorClash):
        combine_colors(Color.A, Color.B)


def test_color_problem_by_occurrence():
    a = [Leq(Const("a"), Const("s"))]
    b = [Leq(Const("s"), Const("b"))]
    colors = color_problem(a, b, Leq(Const("a"), Const("b")))
    assert colors == {"a": Color.A, "s": Color.SHARED, "b": Color.B}


def test_color_problem_goal_only_constants():
    colors = color_problem([], [], Leq(Const("x"), Const("y")))
    assert colors["x"] is Color.A
    assert colors["y"] is Color.B
