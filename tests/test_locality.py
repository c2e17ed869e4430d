"""Purification, psi-closure, instantiation, forward chaining,
minimization."""

import random

import pytest

from conftest import rand_slo_problem
from slatkit.interp import Color, color_names, color_problem, unfold
from slatkit.locality import (
    AxiomSet,
    Composition,
    Inclusion,
    Justification,
    NotEntailed,
    decide,
    entails,
    flatten_purify,
    instantiate,
    minimize_axioms,
    prepare_problem,
    psi_closure,
)
from slatkit.slat import entails_atom
from slatkit.terms import App, Const, Leq, Meet, parse_atom, parse_term
from test_saturate import _decide_by_passes


def atoms_of(*texts):
    return tuple(parse_atom(s) for s in texts)


def slo_axioms() -> AxiomSet:
    return AxiomSet(("f", "g"), (Composition("f", "g", "g"),))


def slo_sides():
    a = atoms_of("d <= g(a)", "a <= c", "g(c) <= a")
    b = atoms_of("b <= d", "b <= f(b)")
    return a, b


def has_app(t) -> bool:
    if isinstance(t, App):
        return True
    if isinstance(t, Meet):
        return any(has_app(x) for x in t.args)
    return False


# ---------------------------------------------------------------------------
# axiom sets


def test_axiom_set_validates_symbols():
    AxiomSet(("f", "g"), (Inclusion("f", "g"),))
    with pytest.raises(ValueError):
        AxiomSet(("f",), (Inclusion("f", "g"),))
    with pytest.raises(ValueError):
        AxiomSet(("f", "g"), (Composition("f", "g", "h"),))


# ---------------------------------------------------------------------------
# purification


def test_flatten_names_inside_out():
    problem, est = flatten_purify(
        atoms_of("f(g(a)) <= b"), (), parse_atom("a <= b"),
        axioms=AxiomSet(("f", "g")),
    )
    assert ("g", Const("a")) in est
    inner = problem.defs[("g", Const("a"))]
    assert ("f", Const(inner)) in est
    for at in (*problem.a0, *problem.b0, problem.goal):
        assert not has_app(at.lhs) and not has_app(at.rhs)


def test_flatten_binds_meet_arguments():
    problem, est = flatten_purify(
        atoms_of("f(a & c) <= b"), (), parse_atom("a <= b"),
        axioms=AxiomSet(("f",)),
    )
    (name, bound), = problem.binders.items()
    assert bound == parse_term("a & c")
    # the binder's defining atoms sit on the side that introduced it
    assert Leq(Const(name), bound) in problem.a0
    assert Leq(bound, Const(name)) in problem.a0
    assert ("f", Const(name)) in est


def test_unfold_map_covers_names_and_binders():
    problem, _ = flatten_purify(
        atoms_of("f(a & c) <= b"), (), parse_atom("a <= b"),
        axioms=AxiomSet(("f",)),
    )
    unfold = problem.unfold_map()
    (binder, bound), = problem.binders.items()
    assert unfold[binder] == bound
    name = problem.defs[("f", Const(binder))]
    assert unfold[name] == App("f", Const(binder))


def test_flatten_goal_sides_stay_terms():
    problem, _ = flatten_purify(
        atoms_of("a <= c"), atoms_of("c <= b"),
        parse_atom("a & c <= b"),
        axioms=AxiomSet(()),
    )
    assert problem.goal == parse_atom("a & c <= b")
    assert problem.binders == {}


def test_terms_ten_thousand_deep_from_the_api_are_decided_and_minimized():
    # the parsers stop at MAX_NESTING, but a term built through the API
    # may be deeper; purification walks it from a stack, not by recursion
    deep = Const("a")
    for _ in range(10000):
        deep = App("f", deep)
    a, b, axioms = (Leq(deep, Const("c")),), atoms_of("c <= b"), AxiomSet(("f",))
    goal = Leq(deep, Const("b"))
    assert entails(a, b, goal, axioms)
    assert minimize_axioms(a, b, goal, axioms) == Justification((0,), (0,), (), (), ())


def test_purified_names_come_in_the_order_of_a_left_to_right_walk():
    problem, _ = flatten_purify(atoms_of("f(g(a) & h(b)) & g(a) <= k(c & g(a))"), (),
                                parse_atom("a <= b"), axioms=AxiomSet(("f", "g", "h", "k")))
    assert problem.purifier.made == ["g_a", "h_b", "m1", "f_m1", "m2", "k_m2"]


def test_flatten_rejects_undeclared_function():
    with pytest.raises(ValueError):
        flatten_purify(atoms_of("f(a) <= b"), (), parse_atom("a <= b"),
                       axioms=AxiomSet(()))


def test_the_first_undeclared_function_in_term_order_is_named():
    # the set {f, g, h} iterates in an order that follows PYTHONHASHSEED
    a, b = Const("a"), Const("b")
    with pytest.raises(ValueError, match="^undeclared function f$"):
        entails([Leq(App("f", App("g", App("h", a))), b)], [], Leq(a, b), AxiomSet(()))
    with pytest.raises(ValueError, match="^undeclared function k$"):
        entails(atoms_of("a <= b", "k(h(a)) & g(b) <= f(a)"), (), Leq(a, b), AxiomSet(("f", "g")))


def colored(a, b, goal, axioms):
    """The purified problem and interp's colors of its symbols, fresh
    names included, each function colored by its occurrences."""
    problem, est = flatten_purify(a, b, goal, axioms=axioms)
    colors = color_problem(a, b, goal)
    color_names(problem, colors, colors, problem.purifier.made)
    return problem, est, colors


def test_name_colors_follow_constituents():
    problem, _, colors = colored(
        atoms_of("f(a) <= s", "f(s) <= s"),
        atoms_of("s <= b", "f(s) <= b"),
        parse_atom("a <= b"),
        AxiomSet(("f",)),
    )
    by_term = {ft: colors[n] for ft, n in problem.defs.items()}
    assert by_term[("f", Const("a"))] is Color.A
    assert by_term[("f", Const("s"))] is Color.SHARED


def test_every_name_is_colored():
    rng = random.Random(11)
    for _ in range(20):
        a, b, goal, axioms = rand_slo_problem(rng)
        problem, est, colors = colored(a, b, goal, axioms)
        for name in problem.names:
            assert name in colors
        assert set(problem.defs) == set(est)


# ---------------------------------------------------------------------------
# psi closure


def test_psi_pairs_inclusion_both_ways():
    axioms = AxiomSet(("f", "g"), (Inclusion("f", "g"),))
    closed = psi_closure([("f", Const("a"))], axioms)
    assert set(closed) == {("f", Const("a")), ("g", Const("a"))}
    closed = psi_closure([("g", Const("a"))], axioms)
    assert set(closed) == {("f", Const("a")), ("g", Const("a"))}


def test_psi_composition_pairs_inner_with_conclusion_only():
    axioms = AxiomSet(("f", "g", "h"), (Composition("f", "g", "h"),))
    closed = psi_closure([("g", Const("a")), ("f", Const("b"))], axioms)
    # g(a) demands h(a); the outer f is never paired
    assert set(closed) == {("g", Const("a")), ("h", Const("a")),
                           ("f", Const("b"))}


def test_psi_closure_operator_laws():
    rng = random.Random(23)
    fns = ["f", "g", "h"]
    consts = ["a", "b", "c"]
    for _ in range(250):
        n_ax = rng.randint(0, 3)
        axs = []
        for _ in range(n_ax):
            if rng.random() < 0.5:
                axs.append(Inclusion(rng.choice(fns), rng.choice(fns)))
            else:
                axs.append(Composition(rng.choice(fns), rng.choice(fns),
                                       rng.choice(fns)))
        axioms = AxiomSet(tuple(fns), tuple(axs))
        small = {(rng.choice(fns), Const(rng.choice(consts)))
                 for _ in range(rng.randint(0, 4))}
        big = small | {(rng.choice(fns), Const(rng.choice(consts)))
                       for _ in range(rng.randint(0, 3))}
        c_small = set(psi_closure(small, axioms))
        c_big = set(psi_closure(big, axioms))
        assert small <= c_small                              # extensive
        assert c_small <= c_big                              # monotone
        assert set(psi_closure(c_small, axioms)) == c_small  # idempotent


# ---------------------------------------------------------------------------
# instantiation


def test_instantiate_requires_closed_named_set():
    axioms = AxiomSet(("f", "g"), (Inclusion("f", "g"),))
    ft = ("f", Const("a"))
    with pytest.raises(ValueError):
        instantiate(axioms, [ft], {ft: "f_a"})


def test_instantiate_shapes_and_counts():
    axioms = AxiomSet(("f", "g"), (Composition("f", "g", "g"),))
    flats = [("g", Const("a")), ("g", Const("c")), ("f", Const("b"))]
    defs = {("g", Const("a")): "g_a", ("g", Const("c")): "g_c",
            ("f", Const("b")): "f_b"}
    instances = instantiate(axioms, flats, defs)
    mon = [i for i in instances if i.provenance[0] == "mon"]
    comp = [i for i in instances if i.provenance[0] == "comp"]
    # mon: ordered distinct pairs per function; comp: f-args x shared g/h args
    assert len(mon) == 2 and len(comp) == 2
    assert parse_atom("a <= c") in [m.premises[0] for m in mon]
    want = (Leq(Const("b"), Const("g_a")),), parse_atom("f_b <= g_a")
    assert (comp[0].premises, comp[0].conclusion) == want


def test_instantiate_skips_reflexive_conclusions():
    axioms = AxiomSet(("f", "g"), (Inclusion("f", "f"), Inclusion("f", "g")))
    flats = psi_closure([("f", Const("a"))], axioms)
    defs = {ft: f"{ft[0]}_{ft[1].name}" for ft in flats}
    instances = instantiate(axioms, flats, defs)
    concls = {i.conclusion for i in instances}
    assert parse_atom("f_a <= f_a") not in concls
    assert parse_atom("f_a <= g_a") in concls


# ---------------------------------------------------------------------------
# forward chaining


def test_decide_slo_example():
    a, b = slo_sides()
    problem = prepare_problem(a, b, parse_atom("b <= a"), slo_axioms())
    ok, trace = decide(problem)
    assert ok
    assert trace.result is True
    assert trace.passes >= 1
    assert trace.fired


def test_decide_respects_missing_bridge():
    a, _ = slo_sides()
    problem = prepare_problem(a, atoms_of("b <= f(b)"),
                              parse_atom("b <= a"), slo_axioms())
    ok, trace = decide(problem)
    assert not ok and trace.result is False


def test_entails_wrapper():
    a, b = slo_sides()
    assert entails(a, b, parse_atom("b <= a"), slo_axioms())
    assert not entails(a, (), parse_atom("b <= a"), slo_axioms())


def test_negative_literal_forces_entailment():
    # B says ! b <= d while A derives it: any goal follows
    ok = entails(atoms_of("b <= d"), (), parse_atom("x <= y"),
                 AxiomSet(()), neg_b=atoms_of("b <= d"))
    assert ok
    problem = prepare_problem(atoms_of("b <= d"), (), parse_atom("x <= y"),
                              AxiomSet(()), neg_b=atoms_of("b <= d"))
    _, trace = decide(problem)
    assert trace.inconsistent == parse_atom("b <= d")


def test_fired_conclusions_hold_in_the_extension():
    rng = random.Random(31)
    problems = [(*slo_sides(), parse_atom("b <= a"), slo_axioms())]
    while len(problems) < 6:
        a, b, goal, axioms = rand_slo_problem(rng)
        if entails(a, b, goal, axioms):
            problems.append((a, b, goal, axioms))
    for a, b, goal, axioms in problems:
        problem = prepare_problem(a, b, goal, axioms)
        _, trace = decide(problem)
        umap = problem.unfold_map()
        for clause in trace.fired:
            concl = Leq(unfold(clause.conclusion.lhs, umap),
                        unfold(clause.conclusion.rhs, umap))
            assert entails(a, b, concl, axioms)


def test_decide_invariant_under_instance_permutations():
    rng = random.Random(47)
    cases = [(*slo_sides(), parse_atom("b <= a"), slo_axioms())]
    for _ in range(10):
        cases.append(rand_slo_problem(rng))
    for a, b, goal, axioms in cases:
        problem = prepare_problem(a, b, goal, axioms)
        expected = decide(problem)[0]
        instances = list(instantiate(problem.axioms, problem.flat, problem.defs))
        for _ in range(20):
            rng.shuffle(instances)
            assert _decide_by_passes(problem, instances)[0] == expected


def test_decide_stable_under_larger_closed_term_set():
    rng = random.Random(59)
    for _ in range(15):
        a, b, goal, axioms = rand_slo_problem(rng)
        base = prepare_problem(a, b, goal, axioms)
        expected = decide(base)[0]
        if not axioms.functions:
            continue
        problem, est = flatten_purify(a, b, goal, axioms=axioms)
        fn = sorted(axioms.functions)[0]
        flats = set(est)
        fresh_arg = next(
            (Const(c) for c in sorted(color_problem(a, b, goal))
             if c not in axioms.functions and c not in problem.names
             and c not in problem.binders and (fn, Const(c)) not in flats),
            None,
        )
        if fresh_arg is None:
            continue
        closed = psi_closure((*est, (fn, fresh_arg)), axioms)
        for f, arg in closed:
            problem.purifier.name_for(f, arg)
        problem.flat = closed
        assert decide(problem)[0] == expected


# ---------------------------------------------------------------------------
# minimization


def test_minimize_slo_core():
    a, b = slo_sides()
    just = minimize_axioms(a, b, parse_atom("b <= a"), slo_axioms())
    # monotonicity of g alone carries the proof: the composition axiom
    # and b <= f(b) both drop out
    assert just.kept_a == (0, 1, 2)
    assert just.kept_b == (0,)
    assert just.kept_axioms == ()


def test_minimize_requires_entailment():
    with pytest.raises(NotEntailed):
        minimize_axioms(atoms_of("a <= c"), (), parse_atom("a <= b"),
                        AxiomSet(()))


def test_minimize_prefers_earlier_atoms():
    a = atoms_of("a <= s", "a <= t")
    b = atoms_of("s <= b", "t <= b")
    just = minimize_axioms(a, b, parse_atom("a <= b"), AxiomSet(()))
    assert just.kept_a == (0,)
    assert just.kept_b == (0,)


def test_minimize_result_is_minimal():
    rng = random.Random(73)
    found = 0
    while found < 8:
        a, b, goal, axioms = rand_slo_problem(rng)
        if not entails(a, b, goal, axioms):
            continue
        found += 1
        just = minimize_axioms(a, b, goal, axioms)
        ka = [a[i] for i in just.kept_a]
        kb = [b[i] for i in just.kept_b]
        kax = AxiomSet(axioms.functions,
                       tuple(axioms.axioms[i] for i in just.kept_axioms))
        assert entails(ka, kb, goal, kax)
        for i in range(len(ka)):
            assert not entails(ka[:i] + ka[i + 1:], kb, goal, kax)
        for i in range(len(kb)):
            assert not entails(ka, kb[:i] + kb[i + 1:], goal, kax)
        for i in range(len(kax.axioms)):
            smaller = AxiomSet(axioms.functions,
                               kax.axioms[:i] + kax.axioms[i + 1:])
            assert not entails(ka, kb, goal, smaller)
