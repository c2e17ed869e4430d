"""Definability via signature doubling, and the bounded refutation
machinery."""

import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, rand_slo_problem, rand_term
from slatkit import beth, cli, locality
from slatkit.beth import (
    Failure,
    double,
    enumerate_terms,
    explicit_definition,
    is_implicitly_defined,
)
from slatkit.locality import AxiomSet, Composition
from slatkit.slat import eval_term
from slatkit.terms import (
    App,
    Const,
    Leq,
    Term,
    atom_constants,
    atom_functions,
    mk_meet,
    parse_atom,
    parse_term,
    term_key,
)
from test_slat import model4


def atoms_of(*texts):
    return tuple(parse_atom(s) for s in texts)


def fe_problem():
    atoms = atoms_of("a <= f(e)", "e <= g(b)", "g(b) <= a")
    axioms = AxiomSet(("f", "g"), (Composition("f", "g", "g"),))
    return atoms, axioms


# ---------------------------------------------------------------------------
# doubling


def test_double_renames_everything_outside_sigma():
    atoms, axioms = fe_problem()
    d = double(atoms, axioms, {"g", "e"}, "a")
    assert d.rename == {"a": "a'", "b": "b'", "e": "e", "f": "f'", "g": "g"}
    assert d.target_prime == "a'"
    assert parse_atom("a' <= f'(e)") in d.renamed_atoms
    assert parse_atom("e <= g(b')") in d.renamed_atoms
    # the axiom set gains the primed copy
    assert Composition("f", "g", "g") in d.axioms.axioms
    assert Composition("f'", "g", "g") in d.axioms.axioms
    assert set(d.axioms.functions) == {"f", "g", "f'"}


def test_double_avoids_prime_collisions():
    atoms = atoms_of("a <= b", "a' <= b")
    d = double(atoms, AxiomSet(()), {"b"}, "a")
    primes = {d.rename["a"], d.rename["a'"]}
    assert len(primes) == 2 and "a" not in primes and "a'" not in primes


def test_double_renames_a_10000_level_term_without_recursion():
    t = Const("a")
    for _ in range(10000):
        t = App("f", t)
    d = double([Leq(t, Const("b")), Leq(Const("b"), Const("a"))], AxiomSet(("f",)), {"b"}, "a")
    renamed = d.renamed_atoms[0].lhs
    for _ in range(10000):
        assert renamed.fn == "f'"
        renamed = renamed.arg
    assert renamed == Const("a'") and d.renamed_atoms[1] == Leq(Const("b"), Const("a'"))


def test_double_renames_a_shared_term_once_per_subterm(monkeypatch):
    # t(k+1) = f(t(k)) & g(t(k)) has 3 * 60 + 1 distinct subterms and 2^61 tree nodes
    def shared(a, f):
        t = Const(a)
        for _ in range(60):
            t = mk_meet([App(f, t), App("g", t)])
        return t
    meets = []

    def counted(args, mk_meet=beth.mk_meet):
        meets.append(args)
        assert len(meets) <= 60, "a meet renamed twice"   # fails fast where a tree walk would run for ages
        return mk_meet(args)
    monkeypatch.setattr(beth, "mk_meet", counted)
    start = time.perf_counter()
    d = double([Leq(shared("a", "f"), Const("b"))], AxiomSet(("f", "g")), {"g", "b"}, "a")
    assert time.perf_counter() - start < 1
    assert d.renamed_atoms == (Leq(shared("a'", "f'"), Const("b")),)


def test_double_requires_occurring_target():
    with pytest.raises(ValueError):
        double(atoms_of("a <= b"), AxiomSet(()), {"b"}, "missing")


def test_renamed_problem_mirrors_the_original():
    atoms, axioms = fe_problem()
    d = double(atoms, axioms, {"g", "e"}, "a")
    pairs = [
        (parse_atom("a <= f(e)"), parse_atom("a' <= f'(e)")),
        (parse_atom("b <= g(b)"), parse_atom("b' <= g(b')")),
        (parse_atom("e <= a"), parse_atom("e <= a'")),
    ]
    for goal, renamed_goal in pairs:
        orig = locality.entails(d.atoms, (), goal, d.axioms)
        mirrored = locality.entails(d.renamed_atoms, (), renamed_goal, d.axioms)
        assert orig == mirrored


# ---------------------------------------------------------------------------
# implicit definability


def test_target_is_implicitly_defined():
    atoms, axioms = fe_problem()
    assert is_implicitly_defined(atoms, axioms, {"g", "e"}, "a")


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_implicit_definability_is_symmetric(rng):
    # swapping every symbol with its primed copy maps the doubled premises
    # onto themselves, so target <= target' and target' <= target agree,
    # and is_implicitly_defined decides the first alone
    a, b, _, axioms = rand_slo_problem(rng)
    atoms = (*a, *b)
    consts = sorted(set().union(*map(atom_constants, atoms)))
    symbols = sorted({*axioms.functions, *consts}.union(*map(atom_functions, atoms)))
    neg = tuple(Leq(rand_term(rng, consts, list(axioms.functions)), Const(rng.choice(consts)))
                for _ in range(rng.randint(0, 1)))
    target = rng.choice(consts)
    sigma = {x for x in symbols if x != target and rng.random() < 0.5}
    d = double(atoms, axioms, sigma, target, neg=neg)
    t, t2 = Const(d.target), Const(d.target_prime)
    fwd = locality.entails(d.atoms, d.renamed_atoms, Leq(t, t2), d.axioms, neg_a=d.neg, neg_b=d.renamed_neg)
    assert fwd == locality.entails(d.atoms, d.renamed_atoms, Leq(t2, t), d.axioms,
                                   neg_a=d.neg, neg_b=d.renamed_neg)
    assert fwd == is_implicitly_defined(atoms, axioms, sigma, d.target, neg=neg)


def test_definability_prepares_once_per_entailment_it_needs(monkeypatch):
    calls, prepare = [], locality.prepare_problem

    def counted(*args, **kwargs):
        calls.append(args)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(locality, "prepare_problem", counted)
    atoms, axioms = fe_problem()
    assert is_implicitly_defined(atoms, axioms, {"g", "e"}, "a")
    assert len(calls) == 1
    calls.clear()
    # the one implicit check, then the interpolation, whose certificates the kernel checks;
    # under intersection sharing the depth-2 search then prepares one problem holding all
    # 4 generators g (e and g(m) for the 3 {g, e}-terms m of depth 1) and reads a <= g off it
    assert isinstance(explicit_definition(atoms, axioms, {"g", "e"}, "a"), Term)
    assert len(calls) == 2
    for argv, want in ((["beth", str(DATA / "beth_fe.slp")], 2),
                       (["beth", str(DATA / "beth_fe.slp"), "--sharing", "intersection", "--depth", "2"], 3)):
        calls.clear()
        cli.main(argv)
        assert len(calls) == want, argv


def test_unconstrained_target_is_not_defined():
    assert not is_implicitly_defined(atoms_of("a <= b"), AxiomSet(()),
                                     {"b"}, "a")


def test_sigma_target_is_trivially_defined():
    atoms, axioms = fe_problem()
    assert is_implicitly_defined(atoms, axioms, {"a", "g", "e"}, "a")
    assert explicit_definition(atoms, axioms, {"a", "g", "e"}, "a") == Const("a")


# ---------------------------------------------------------------------------
# explicit definitions


def test_definition_under_theta_sharing():
    atoms, axioms = fe_problem()
    t = explicit_definition(atoms, axioms, {"g", "e"}, "a")
    assert t == parse_term("f(e)")
    # the definition holds in the single, undoubled theory
    assert locality.entails(atoms, (), Leq(Const("a"), t), axioms)
    assert locality.entails(atoms, (), Leq(t, Const("a")), axioms)


def test_paper_definition_fails_under_intersection_sharing():
    atoms, axioms = fe_problem()
    out = explicit_definition(atoms, axioms, {"g", "e"}, "a",
                              sharing="intersection")
    assert isinstance(out, Failure)
    assert not out
    assert out.reason


def test_undefined_target_reports_failure():
    out = explicit_definition(atoms_of("a <= b"), AxiomSet(()), {"b"}, "a")
    assert isinstance(out, Failure)
    assert "not implicitly defined" in out.reason


def test_unknown_sharing_mode_rejected():
    atoms, axioms = fe_problem()
    with pytest.raises(ValueError):
        explicit_definition(atoms, axioms, {"g", "e"}, "a", sharing="union")


# ---------------------------------------------------------------------------
# bounded enumeration and model refutation


def test_enumeration_counts_single_function():
    assert len(enumerate_terms({"g"}, {"e"}, 0)) == 1
    assert len(enumerate_terms({"g"}, {"e"}, 1)) == 3
    assert len(enumerate_terms({"g"}, {"e"}, 2)) == 15
    assert len(enumerate_terms({"g"}, {"e"}, 3)) == 65535


def _enumerate_terms_by_mk_meet(functions, constants, depth):
    """The original enumeration: every combination through mk_meet, then
    one sort of the deduplicated last level by term_key."""
    functions = sorted(functions)
    consts = [Const(c) for c in sorted(set(constants))]
    pool = list(consts)
    level = []
    for k in range(depth + 1):
        level = []
        for r in range(1, len(pool) + 1):
            for combo in combinations(pool, r):
                level.append(mk_meet(combo))
        if k < depth:
            pool = consts + [App(f, t) for f in functions for t in level]
    return sorted(set(level), key=term_key)


@pytest.mark.parametrize("functions,constants,depth", [
    ((), ("a",), 0),
    ((), ("c", "a", "b"), 2),
    (("f",), ("a",), 2),
    (("f",), ("b", "a"), 1),
    (("f",), ("a", "b", "c"), 1),
    (("g", "f"), ("a",), 1),
    (("g", "f"), ("a", "b", "c"), 0),
    (("g", "f"), ("b", "a"), 0),
    (("g",), ("e",), 3),
])
def test_enumeration_matches_the_mk_meet_reference(functions, constants, depth):
    assert enumerate_terms(functions, constants, depth) == \
        _enumerate_terms_by_mk_meet(functions, constants, depth)


def test_enumeration_respects_limit():
    with pytest.raises(ValueError):
        enumerate_terms({"g"}, {"e"}, 3, limit=1000)
    with pytest.raises(ValueError):
        enumerate_terms({"g"}, {"e"}, -1)


def test_enumeration_is_aci_deduplicated():
    ts = enumerate_terms({"f"}, {"x", "y"}, 1)
    assert parse_term("x & y") in ts
    assert len(ts) == len(set(ts))
    # x & y and y & x are one term
    assert sum(1 for t in ts if t == parse_term("x & y")) == 1


def test_no_sigma_term_reaches_the_target_value():
    """No {g, e}-term can equal a in the witness model: the values stay
    inside {e, d}, which certifies that the intersection failure above
    is semantic, not a search gap."""
    m = model4()
    hits = [t for t in enumerate_terms({"g"}, {"e"}, 3)
            if eval_term(m, t) == "a"]
    assert hits == []
