"""Definability via signature doubling, and the bounded refutation
machinery."""

from itertools import combinations

import pytest

from slatkit import locality
from slatkit.beth import (
    Failure,
    double,
    enumerate_terms,
    explicit_definition,
    is_implicitly_defined,
)
from slatkit.locality import AxiomSet, Composition
from slatkit.slat import eval_term
from slatkit.terms import App, Const, Leq, mk_meet, parse_atom, parse_term, term_key
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


def test_implicit_definability_is_symmetric():
    atoms, axioms = fe_problem()
    d = double(atoms, axioms, {"g", "e"}, "a")
    swapped_axioms = d.axioms
    rename = d.rename
    # run the same two entailments with the primed copy playing side A
    a, a2 = Const(d.target), Const(d.target_prime)
    fwd = locality.entails(d.atoms, d.renamed_atoms, Leq(a, a2), swapped_axioms)
    bwd = locality.entails(d.renamed_atoms, d.atoms, Leq(a2, a), swapped_axioms)
    assert fwd and bwd
    assert rename["a"] == "a'"


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
