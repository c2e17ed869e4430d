"""Ground Horn entailment, the brute force oracle, intermediate terms,
finite models."""

import random

import pytest
from hypothesis import given, strategies as st

from conftest import brute_force_entails, rand_flat_problem
from slatkit.slat import (
    Entailer,
    FiniteModel,
    NoSharedWitness,
    check_finite_model,
    entails_atom,
    eval_term,
    intermediate_term,
)
from slatkit.terms import App, Const, Eq, Leq, mk_meet, parse_atom, parse_term

names = st.sampled_from("uvwxyz")
consts = names.map(Const)
terms = st.recursive(
    consts,
    lambda sub: st.one_of(
        st.builds(App, st.sampled_from("fg"), sub),
        st.lists(sub, min_size=1, max_size=3).map(mk_meet),
    ),
    max_leaves=6,
)


def atoms_of(*texts):
    return tuple(parse_atom(s) for s in texts)


# ---------------------------------------------------------------------------
# entailment laws


@given(terms)
def test_reflexivity(t):
    assert entails_atom((), Leq(t, t))


@given(terms, terms, terms)
def test_transitivity(s, t, u):
    assert entails_atom((Leq(s, t), Leq(t, u)), Leq(s, u))


@given(terms, terms)
def test_meet_is_lower_bound(s, t):
    assert entails_atom((), Leq(mk_meet([s, t]), s))


@given(terms, terms, terms)
def test_meet_is_greatest_lower_bound(u, s, t):
    assert entails_atom((Leq(u, s), Leq(u, t)), Leq(u, mk_meet([s, t])))


def test_meet_entails_every_sub_meet():
    big = parse_term("a & b & c")
    assert entails_atom((), Leq(big, parse_term("a & b")))
    assert entails_atom((), Leq(big, parse_term("b & c")))
    assert not entails_atom((), Leq(parse_term("a & b"), big))


def test_eq_atoms_work_both_ways():
    atoms = (Eq(Const("a"), Const("b")),)
    assert entails_atom(atoms, Leq(Const("a"), Const("b")))
    assert entails_atom(atoms, Leq(Const("b"), Const("a")))
    assert entails_atom(atoms, Eq(Const("b"), Const("a")))


def test_applications_are_opaque():
    # no congruence without explicit monotonicity instances
    atoms = atoms_of("a = b")
    assert not entails_atom(atoms, parse_atom("f(a) <= f(b)"))


def test_terms_ten_thousand_deep_from_the_api_are_registered_without_recursion():
    # the parsers stop at MAX_NESTING; register numbers a deeper term's
    # subterms in one walk from a stack, with no recursion and no sort
    fa, fb = Const("a"), Const("b")
    for _ in range(10000):
        fa, fb = App("f", fa), App("f", fb)
    atoms = (Leq(fa, fb), Leq(fb, Const("c")))
    assert entails_atom(atoms, Leq(fa, Const("c")))
    assert not entails_atom(atoms, Leq(fb, fa))


def test_entailer_reuse_across_queries():
    ent = Entailer(atoms_of("a <= b", "b <= c"))
    assert ent.holds(parse_atom("a <= c"))
    assert not ent.holds(parse_atom("c <= a"))


def proof(ent, lhs, rhs):
    """Positions of the atoms one derivation of lhs <= rhs uses, or None.

    Follows the reasons in the cached closure of lhs back from rhs; meet
    clauses need no atom.
    """
    reason = ent.reasons(lhs)
    if rhs not in reason:
        return None
    clauses, origin = ent.problem.clauses, ent.problem.origin
    used, todo, seen = set(), [rhs], {rhs}
    while todo:
        cid = reason[todo.pop()]
        if cid is None:
            continue
        if origin[cid] >= 0:
            used.add(origin[cid])
        for p in clauses[cid][0]:
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return sorted(used)


def test_proof_names_the_atoms_of_one_derivation():
    atoms = atoms_of("a <= b", "x <= y", "b <= c & d", "c <= e", "a <= e")
    ent = Entailer(atoms, [Const("a"), Const("c")])
    a, c = ent.var(Const("a")), ent.var(Const("c"))
    assert proof(ent, a, c) == [0, 2]
    assert proof(ent, a, a) == []
    assert proof(ent, c, a) is None


def test_proof_uses_the_first_of_equal_atoms():
    atoms = atoms_of("a = b", "b <= c", "a <= b", "b = a")
    ent = Entailer(atoms, [Const("a"), Const("c")])
    assert proof(ent, ent.var(Const("a")), ent.var(Const("c"))) == [0, 1]
    assert proof(ent, ent.var(Const("b")), ent.var(Const("a"))) == [0]


def test_proof_after_growth_uses_added_atoms():
    ent = Entailer(atoms_of("a <= b"), [Const("a"), Const("c")])
    ent.add(parse_atom("b <= c & d"))
    assert proof(ent, ent.var(Const("a")), ent.var(Const("c"))) == [0, 1]


def test_proof_keeps_the_reason_from_before_growth():
    # a <= c was derivable from atoms 0 and 1 before atom 2 arrived
    ent = Entailer(atoms_of("a <= b", "b <= c"))
    assert ent.holds(parse_atom("a <= c"))
    assert ent.add(parse_atom("a <= c")) == []
    assert proof(ent, ent.var(Const("a")), ent.var(Const("c"))) == [0, 1]


@given(st.randoms(use_true_random=False))
def test_proof_atoms_alone_entail_the_pair(rng):
    atoms, goal = rand_flat_problem(rng)
    goal = Leq(goal.lhs, goal.rhs)
    ent = Entailer(atoms, [goal.lhs, goal.rhs])
    used = proof(ent, ent.var(goal.lhs), ent.var(goal.rhs))
    assert (used is not None) == ent.holds(goal)
    if used is not None:
        assert entails_atom([atoms[i] for i in used], goal)


def test_is_consistent():
    # atoms plus the negated literal !n are consistent iff n is not entailed
    atoms = atoms_of("a <= b")
    assert not entails_atom(atoms, parse_atom("b <= a"))
    assert entails_atom(atoms, parse_atom("a <= b"))
    assert entails_atom(atoms_of("a <= b", "b <= c"), parse_atom("a <= c"))


@given(st.randoms(use_true_random=False))
def test_entailment_invariant_under_atom_order(rng):
    atoms, goal = rand_flat_problem(rng)
    expected = entails_atom(atoms, goal)
    shuffled = list(atoms)
    rng.shuffle(shuffled)
    assert entails_atom(shuffled, goal) == expected


# ---------------------------------------------------------------------------
# oracle equivalence


def test_matches_brute_force_on_random_instances():
    rng = random.Random(20250817)
    disagreements = []
    for _ in range(300):
        atoms, goal = rand_flat_problem(rng)
        if entails_atom(atoms, goal) != brute_force_entails(atoms, goal):
            disagreements.append((atoms, goal))
    assert disagreements == []


def test_brute_force_rejects_applications():
    with pytest.raises(ValueError):
        brute_force_entails(atoms_of("f(a) <= b"), parse_atom("a <= b"))


# ---------------------------------------------------------------------------
# intermediate terms


def test_intermediate_term_two_sided_chain():
    a_side = atoms_of("a1 <= c1", "c2 <= a2", "a2 <= c3")
    b_side = atoms_of("c1 <= b1", "b1 <= c2", "c3 <= b2")
    t = intermediate_term(Entailer(a_side), Entailer(a_side + b_side),
                          Const("a1"), Const("b2"),
                          [Const("c1"), Const("c2"), Const("c3")])
    assert t == Const("c1")


def test_intermediate_term_meets_all_entailed_candidates():
    a_side = atoms_of("a <= c1", "a <= c2")
    ab = a_side + atoms_of("c1 <= b", "c2 <= b")
    t = intermediate_term(Entailer(a_side), Entailer(ab), Const("a"), Const("b"),
                          [Const("c1"), Const("c2")])
    assert t == mk_meet([Const("c1"), Const("c2")])


def test_intermediate_term_requires_entailed_premise():
    with pytest.raises(ValueError):
        intermediate_term(Entailer(()), Entailer(()), Const("a"), Const("b"), [Const("c")])


def test_intermediate_term_no_shared_witness():
    a_side = atoms_of("a <= b")
    with pytest.raises(NoSharedWitness):
        intermediate_term(Entailer(a_side), Entailer(a_side), Const("a"), Const("b"), [Const("c")])


def test_intermediate_term_with_no_shared_term_below_the_rhs():
    # a is A-only: the least shared meet above it, b, is not below a
    a_side = atoms_of("a <= b")
    ab = a_side + atoms_of("b <= c")
    with pytest.raises(NoSharedWitness, match="no shared term lies between a and a"):
        intermediate_term(Entailer(a_side), Entailer(ab), Const("a"), Const("a"), [Const("b")])


def test_intermediate_term_claims_hold():
    rng = random.Random(7)
    # random chains a <= s <= b with clutter; the claims are re-checked
    # inside the call, so reaching the assert means they held
    for _ in range(50):
        atoms, _ = rand_flat_problem(rng)
        a_side = atoms + atoms_of("a <= s")
        ab = a_side + atoms_of("s <= b")
        t = intermediate_term(Entailer(a_side), Entailer(ab), Const("a"), Const("b"),
                              [Const("s"), Const("c0"), Const("c1")])
        assert entails_atom(a_side, Leq(Const("a"), t))
        assert entails_atom(ab, Leq(t, Const("b")))


# ---------------------------------------------------------------------------
# finite models


def model4() -> FiniteModel:
    """Four-element semilattice with two monotone unary operations."""
    meet = {}
    rows = {
        "a": {"a": "a", "e": "e", "b": "d", "d": "d"},
        "e": {"a": "e", "e": "e", "b": "d", "d": "d"},
        "b": {"a": "d", "e": "d", "b": "b", "d": "d"},
        "d": {"a": "d", "e": "d", "b": "d", "d": "d"},
    }
    for x, row in rows.items():
        for y, v in row.items():
            meet[(x, y)] = v
    funcs = {
        "f": {"a": "a", "e": "a", "b": "d", "d": "d"},
        "g": {"a": "d", "e": "d", "b": "a", "d": "d"},
    }
    consts = {"a": "a", "e": "e", "b": "b"}
    return FiniteModel(("a", "e", "b", "d"), meet, funcs, consts)


def test_model4_satisfies_everything():
    checks = check_finite_model(
        model4(),
        compositions=[("f", "g", "g")],
        atoms=atoms_of("a <= f(e)", "e <= g(b)", "g(b) <= a"),
    )
    assert all(c.passed for c in checks)
    laws = [c.law for c in checks]
    assert laws[:4] == ["meet-closed", "meet-idempotent", "meet-commutative",
                        "meet-associative"]
    assert "mon(f)" in laws and "mon(g)" in laws
    assert laws[-3:] == ["atom(a <= f(e))", "atom(e <= g(b))", "atom(g(b) <= a)"]


def test_model_leq_and_eval():
    m = model4()
    assert m.leq("e", "a")
    assert not m.leq("a", "e")
    assert eval_term(m, parse_term("f(e)")) == "a"
    assert eval_term(m, parse_term("g(b) & e")) == "e"
    assert eval_term(m, parse_term("a & b")) == "d"


def test_model_check_evaluates_a_10000_level_atom_without_recursion():
    t = Const("e")
    for _ in range(10000):
        t = App("f", t)
    # f(e) = f(a) = a in model4
    checks = check_finite_model(model4(), atoms=[Leq(t, Const("a")), Leq(t, Const("e"))])
    assert [(c.passed, c.detail) for c in checks[-2:]] == [(True, ""), (False, "lhs = a, rhs = e")]
    assert eval_term(model4(), mk_meet([t, App("g", t)])) == "d"


def test_eval_names_the_first_unbound_symbol_in_written_order():
    m = model4()
    for text, message in [("h(f(x))", "uninterpreted function h"), ("f(h(x))", "uninterpreted function h"),
                          ("f(x) & g(y)", "unbound constant x"), ("a & g(h(y)) & x", "unbound constant x"),
                          ("f(a & y) & h(a)", "unbound constant y")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            eval_term(m, parse_term(text))


def test_model_check_reports_broken_laws():
    m = model4()
    bad_meet = dict(m.meet)
    bad_meet[("a", "e")] = "a"          # breaks commutativity
    broken = FiniteModel(m.carrier, bad_meet, m.funcs, m.consts)
    checks = {c.law: c for c in check_finite_model(broken)}
    assert not checks["meet-commutative"].passed
    assert checks["meet-commutative"].detail


def test_model_check_reports_non_monotone_function():
    m = model4()
    funcs = dict(m.funcs)
    funcs["f"] = {"a": "a", "e": "b", "b": "d", "d": "d"}   # e <= a but f(e) !<= f(a)
    broken = FiniteModel(m.carrier, m.meet, funcs, m.consts)
    checks = {c.law: c for c in check_finite_model(broken)}
    assert not checks["mon(f)"].passed


def test_model_check_failed_inclusion():
    checks = {c.law: c
              for c in check_finite_model(model4(), inclusions=[("f", "g")])}
    assert not checks["inclusion(f,g)"].passed
