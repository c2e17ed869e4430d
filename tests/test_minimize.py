"""Proof-guided minimization against the deletion-by-decision reference.

`_minimize_by_deletion` is the original loop: it prepares and decides
the kept set again for every candidate. `locality.minimize_axioms`
drops the inputs outside the goal's reachability module, prepares the
others once, saturates them once to the fixpoint, keeps
the vital inputs (those every derivation uses) without a decision,
decides each other kept set by one propagation over the selector
program compiled from that fixpoint, skips the decision for candidates
outside the current derivation's support, and reads the final proof off
the program; it must return an equal Justification on every input.
"""

import random

import pytest

from conftest import entails_with_support, onto_text, rand_slo_problem, rand_term, read_data
from slatkit import el, locality, slat
from slatkit.interp import NoSharedWitness, interpolate
from slatkit.locality import (
    AxiomSet,
    Composition,
    Inclusion,
    Justification,
    NotEntailed,
    entails,
    minimize_axioms,
)
from slatkit.terms import App, Const, Eq, Leq, atom_constants, format_atom, mk_meet, parse_atom
from test_saturate import ladder


def _minimize_by_deletion(a_atoms, b_atoms, goal, axioms, *, neg_a=(), neg_b=()):
    a_atoms = tuple(a_atoms)
    b_atoms = tuple(b_atoms)
    neg_a, neg_b = tuple(neg_a), tuple(neg_b)
    keep = {
        "a": set(range(len(a_atoms))),
        "b": set(range(len(b_atoms))),
        "na": set(range(len(neg_a))),
        "nb": set(range(len(neg_b))),
        "ax": set(range(len(axioms.axioms))),
    }

    def entailed() -> bool:
        reduced = AxiomSet(
            axioms.functions,
            tuple(ax for i, ax in enumerate(axioms.axioms) if i in keep["ax"]),
        )
        return entails(
            tuple(x for i, x in enumerate(a_atoms) if i in keep["a"]),
            tuple(x for i, x in enumerate(b_atoms) if i in keep["b"]),
            goal, reduced,
            neg_a=tuple(x for i, x in enumerate(neg_a) if i in keep["na"]),
            neg_b=tuple(x for i, x in enumerate(neg_b) if i in keep["nb"]),
        )

    if not entailed():
        raise NotEntailed(f"goal not entailed: {format_atom(goal)}")
    candidates = [
        *(("a", i) for i in range(len(a_atoms))),
        *(("na", i) for i in range(len(neg_a))),
        *(("b", i) for i in range(len(b_atoms))),
        *(("nb", i) for i in range(len(neg_b))),
        *(("ax", i) for i in range(len(axioms.axioms))),
    ]
    for kind, i in reversed(candidates):
        keep[kind].discard(i)
        if not entailed():
            keep[kind].add(i)
    return Justification(
        kept_a=tuple(sorted(keep["a"])),
        kept_b=tuple(sorted(keep["b"])),
        kept_neg_a=tuple(sorted(keep["na"])),
        kept_neg_b=tuple(sorted(keep["nb"])),
        kept_axioms=tuple(sorted(keep["ax"])),
    )


def _outcome(minimize, *args, **kwargs):
    try:
        return minimize(*args, **kwargs)
    except NotEntailed:
        return None


def assert_same_justification(*args, **kwargs):
    """Both loops agree; returns whether the goal was entailed."""
    got = _outcome(minimize_axioms, *args, **kwargs)
    assert got == _outcome(_minimize_by_deletion, *args, **kwargs)
    return got is not None


def with_negatives(rng):
    """A rand_slo_problem draw plus negative literals on both sides."""
    a, b, goal, axioms = rand_slo_problem(rng)
    fns = list(axioms.functions)
    a_vocab = sorted({goal.lhs.name}.union(*map(atom_constants, a)))
    b_vocab = sorted({goal.rhs.name}.union(*map(atom_constants, b)))
    neg_a = tuple(Leq(rand_term(rng, a_vocab, fns), rand_term(rng, a_vocab, fns))
                  for _ in range(rng.randint(1, 2)))
    neg_b = tuple(Leq(rand_term(rng, b_vocab, fns), rand_term(rng, b_vocab, fns))
                  for _ in range(rng.randint(1, 2)))
    return a, b, goal, axioms, neg_a, neg_b


def with_equations(rng):
    """A rand_slo_problem draw with about a third of its atoms made = atoms."""
    a, b, goal, axioms = rand_slo_problem(rng)

    def eqs(atoms):
        return tuple(Eq(x.lhs, x.rhs) if rng.random() < 0.35 else x for x in atoms)

    return eqs(a), eqs(b), goal, axioms


def minimize_el(text, minimize):
    t = el.translate(el.parse_cbox(text))
    return _outcome(minimize, t.a_atoms, t.b_atoms, t.goal, t.axioms)


# ---------------------------------------------------------------------------
# equal justifications


def test_random_draws_match_the_deletion_loop():
    rng = random.Random(2718)
    entailed = sum(assert_same_justification(*rand_slo_problem(rng)) for _ in range(1000))
    assert entailed > 500


def test_negative_literals_on_both_sides_match_the_deletion_loop():
    rng = random.Random(3141)
    for _ in range(300):
        a, b, goal, axioms, neg_a, neg_b = with_negatives(rng)
        assert_same_justification(a, b, goal, axioms, neg_a=neg_a, neg_b=neg_b)


def test_equation_atoms_match_the_deletion_loop():
    rng = random.Random(1618)
    for _ in range(300):
        assert_same_justification(*with_equations(rng))


def test_ladders_match_the_deletion_loop():
    for n in range(1, 9):
        assert assert_same_justification(*ladder(n))
        assert not assert_same_justification(*ladder(n, gap=n // 2))


def test_chain_with_distractors_matches_the_deletion_loop():
    rng = random.Random(577)
    for n, nd in ((3, 4), (4, 8), (6, 12), (6, 20)):
        text = onto_text(rng, n, nd)
        got = minimize_el(text, minimize_axioms)
        assert got is not None
        assert got == minimize_el(text, _minimize_by_deletion)


@pytest.mark.parametrize("name", ["med.elp", "med_A.elp", "med_B.elp"])
def test_medical_ontology_matches_the_deletion_loop(name):
    text = read_data(name)
    assert minimize_el(text, minimize_axioms) == minimize_el(text, _minimize_by_deletion)


def _interpolant(run):
    try:
        return run()
    except (NotEntailed, NoSharedWitness) as e:
        return type(e)


def test_el_compound_goals_match_the_deletion_loop():
    # a goal side that is not a name is bound by a pair of atoms; the
    # deletion loop keeps the one every derivation needs and drops its
    # reverse, and so do justify and the minimisation before EL interpolate
    goals = ("C0 <= ex r . C{n}", "ex r . C0 <= ex r . C{n}", "C0 & D0 <= ex r . C{n}",
             "ex s . C0 <= ex s . ex r . C1", "ex r . C{n} <= C0")
    rng, checked = random.Random(1009), 0
    for n, nd in ((3, 4), (4, 8), (6, 12)):
        text = onto_text(rng, n, nd)
        for goal in goals:
            p = el.parse_cbox(text.replace(f"goal C0 <= ex r . C{n}", "goal " + goal.format(n=n)))
            t = el.translate(p)
            want = _outcome(_minimize_by_deletion, t.a_atoms, t.b_atoms, t.goal, t.axioms)
            assert _outcome(minimize_axioms, t.a_atoms, t.b_atoms, t.goal, t.axioms) == want
            assert el.justify(p) == (None if want is None else el._kept_labels(t, want))
            if want is None:
                assert _interpolant(lambda: el.el_interpolate(p)) is NotEntailed
                continue
            checked += 1
            kept = AxiomSet(t.axioms.functions, tuple(t.axioms.axioms[i] for i in want.kept_axioms))
            assert _interpolant(lambda: el.el_interpolate(p)) == _interpolant(lambda: interpolate(
                [t.a_atoms[i] for i in want.kept_a], [t.b_atoms[i] for i in want.kept_b],
                t.goal, kept).term)
    assert checked == 12


# ---------------------------------------------------------------------------
# one prepared problem: what a decision leaves out of it


def atoms(*texts):
    return tuple(parse_atom(t) for t in texts)


def with_shared_binders(rng):
    """Nested terms reused across inputs of one side, = atoms, nested negatives.

    Every application here has a meet or an application as its argument,
    so purification binds the argument to a name once per side, and
    inputs reusing a term share that binder atom. Inclusions pull new
    flat terms into the psi-closure, so dropping one shrinks the closure
    a fresh preparation would build.
    """
    fns = ["f", "g", "h"]
    axioms = AxiomSet(tuple(fns), tuple(rng.sample(
        [Inclusion("f", "g"), Inclusion("g", "h"), Inclusion("h", "f"),
         Composition("f", "g", "h"), Composition("g", "g", "g")], rng.randint(1, 3))))

    def side(priv):
        vocab = [Const(c) for c in (*priv, "s0")]
        pool = [App(rng.choice(fns), mk_meet(rng.sample(vocab, 2))) for _ in range(2)]
        pool.append(App(rng.choice(fns), mk_meet([pool[0], rng.choice(vocab)])))
        terms = pool + vocab
        out = []
        for _ in range(rng.randint(3, 5)):
            lhs, rhs = rng.choice(terms), rng.choice(terms)
            out.append(Eq(lhs, rhs) if rng.random() < 0.3 else Leq(lhs, rhs))
        return out, [Leq(rng.choice(pool), rng.choice(vocab))]

    a, neg_a = side(["a0", "a1"])
    b, neg_b = side(["b0", "b1"])
    goal = Leq(Const("a0"), Const("b0"))
    if rng.random() < 0.7:
        a.append(Leq(Const("a0"), Const("s0")))
        b.append(Leq(Const("s0"), Const("b0")))
    rng.shuffle(a)
    rng.shuffle(b)
    return tuple(a), tuple(b), goal, axioms, tuple(neg_a), tuple(neg_b)


def test_shared_binders_equations_and_nested_negatives_match_the_deletion_loop():
    rng = random.Random(8128)
    entailed = contradicted = 0
    for k in range(300):
        a, b, goal, axioms, neg_a, neg_b = with_shared_binders(rng)
        if k % 2:
            neg_a = neg_b = ()
        got = _outcome(minimize_axioms, a, b, goal, axioms, neg_a=neg_a, neg_b=neg_b)
        assert got == _outcome(_minimize_by_deletion, a, b, goal, axioms,
                               neg_a=neg_a, neg_b=neg_b)
        entailed += got is not None
        contradicted += got is not None and bool(got.kept_neg_a or got.kept_neg_b)
    assert entailed > 100
    assert contradicted > 10


def test_dropped_input_sharing_a_binder_with_a_kept_one():
    # all three share the binder of a & b on side A; the last is dropped
    a = atoms("c <= f(a & b)", "f(a & b) <= d", "f(a & b) <= e")
    args = (a, (), parse_atom("c <= d"), AxiomSet(("f",)))
    assert minimize_axioms(*args) == Justification((0, 1), (), (), (), ())
    assert assert_same_justification(*args)


def test_equation_input_is_dropped_as_a_whole():
    a = atoms("c = f(a & b)", "c <= e")
    b = atoms("f(a & b) <= d", "e <= d")
    args = (a, b, parse_atom("c <= d"), AxiomSet(("f",)))
    assert minimize_axioms(*args) == Justification((0,), (0,), (), (), ())
    assert assert_same_justification(*args)


def test_negative_literal_over_nested_terms():
    # the binders of the negatives sit in a0 whichever negative is kept
    a = atoms("f(a & b) <= c", "c <= e")
    neg_a = atoms("f(a & b) <= e", "g(f(a & b)) <= e")
    args = (a, (), parse_atom("x <= y"), AxiomSet(("f", "g")))
    kwargs = {"neg_a": neg_a}
    assert minimize_axioms(*args, **kwargs) == Justification((0, 1), (), (0,), (), ())
    assert assert_same_justification(*args, **kwargs)


def test_axiom_drop_that_shrinks_the_psi_closure():
    # Inclusion(f, h) puts h(a) into the closure; once dropped, a fresh
    # preparation of the kept inputs has no h(a) at all
    a = atoms("c <= f(a)")
    b = atoms("g(a) <= d", "h(a) <= d")
    axioms = AxiomSet(("f", "g", "h"), (Inclusion("f", "g"), Inclusion("f", "h")))
    args = (a, b, parse_atom("c <= d"), axioms)
    assert minimize_axioms(*args) == Justification((0,), (0,), (), (), (0,))
    assert assert_same_justification(*args)


def test_pass_0_route_dropped_first_leaves_a_ladder_route():
    # the goal holds in pass 0 through the last input, the first one
    # dropped; a ladder needing four passes entails it as well. The
    # decisions see the ladder only if the program comes from the run's
    # fixpoint, not from a run stopped at the goal, and takes every clause
    # of a closure, not only the reasons the run recorded.
    a, b, goal, axioms = ladder(4)
    args = (a, (*b, goal), goal, axioms)
    assert minimize_axioms(*args) == Justification(tuple(range(5)), tuple(range(4)), (), (), ())
    assert assert_same_justification(*args)


def test_a_proof_through_a_dropped_input_is_refused(monkeypatch):
    # the proof is read off a derivation over every input but one: the
    # first reaches c <= d through the dropped c <= d itself, the second
    # f(a) <= g(a) through an instance of the dropped axiom instead of the
    # kept atom. The check of the support refuses both before the kernel
    # sees them, and before the premise numbers are looked up.
    real = slat.SelectorProgram.reasons
    cases = [
        (atoms("c <= e", "e <= d", "c <= d"), AxiomSet(()), None, Justification((0, 1), (), (), (), ())),
        (atoms("c <= f(a)", "g(a) <= d", "f(a) <= g(a)"), AxiomSet(("f", "g"), (Inclusion("f", "g"),)), 2,
         Justification((0, 1, 2), (), (), (), ())),
    ]
    for a, axioms, skip, kept in cases:
        args = (a, (), parse_atom("c <= d"), axioms)
        monkeypatch.setattr(slat.SelectorProgram, "reasons", lambda self, reason, skip=skip: real(
            self, self.decide([k for k in range(self.nodes) if k != skip])))
        with pytest.raises(RuntimeError, match="uses a dropped input"):
            minimize_axioms(*args)
        monkeypatch.undo()
        assert minimize_axioms(*args) == kept


# ---------------------------------------------------------------------------
# the support itself


def _subset(support, a, b, axioms, neg_a=(), neg_b=()):
    def pick(kind, xs):
        return tuple(x for i, x in enumerate(xs) if i in support[kind])

    return (pick("a", a), pick("b", b), AxiomSet(axioms.functions, pick("ax", axioms.axioms)),
            pick("na", neg_a), pick("nb", neg_b))


def test_support_alone_entails_the_goal():
    rng = random.Random(99)
    checked = contradicted = 0
    for k in range(600):
        neg_a = neg_b = ()
        if k % 3 == 0:
            a, b, goal, axioms = rand_slo_problem(rng)
        elif k % 3 == 1:
            a, b, goal, axioms = with_equations(rng)
        else:
            a, b, goal, axioms, neg_a, neg_b = with_negatives(rng)
        ok, support = entails_with_support(a, b, goal, axioms, neg_a=neg_a, neg_b=neg_b)
        if not ok:
            assert support == {}
            continue
        sa, sb, sax, sna, snb = _subset(support, a, b, axioms, neg_a, neg_b)
        assert entails(sa, sb, goal, sax, neg_a=sna, neg_b=snb)
        checked += 1
        contradicted += bool(sna or snb)
    assert checked > 300
    assert contradicted > 20


def test_support_of_a_fired_premise_is_well_founded():
    # c <= d fires f(c) <= f(d); over the final atoms, c <= f(c) <= f(d)
    # <= d would "prove" that premise from its own conclusion
    a = (parse_atom("c <= e"), parse_atom("c <= f(c)"))
    b = (parse_atom("e <= d"), parse_atom("f(d) <= d"))
    goal, axioms = parse_atom("f(c) <= d"), AxiomSet(("f",))
    ok, support = entails_with_support(a, b, goal, axioms)
    assert ok
    assert support == {"a": {0}, "b": {0, 1}, "na": set(), "nb": set(), "ax": set()}
    assert minimize_axioms(a, b, goal, axioms) == Justification((0,), (0, 1), (), (), ())


def test_support_of_a_ladder_is_every_premise():
    a, b, goal, axioms = ladder(6)
    ok, support = entails_with_support(a, b, goal, axioms)
    assert ok
    assert support == {"a": set(range(len(a))), "b": set(range(len(b))),
                       "na": set(), "nb": set(), "ax": set()}


def test_support_skips_distractors():
    text = onto_text(random.Random(5), 6, 12, dup=0)
    t = el.translate(el.parse_cbox(text))
    ok, support = entails_with_support(t.a_atoms, t.b_atoms, t.goal, t.axioms)
    assert ok
    # the goal-binding atoms sit past the labelled inclusions
    used = [*(t.a_atoms[i] for i in support["a"] if i < len(t.a_labels)),
            *(t.b_atoms[i] for i in support["b"] if i < len(t.b_labels))]
    assert len(used) == 6
    assert all(format_atom(x).startswith("C") for x in used)
    assert support["ax"] == {0}


# ---------------------------------------------------------------------------
# decision count


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_justify_keeps_vital_inputs_without_deciding(monkeypatch):
    # every kept label here is vital, and the one propagation from all
    # inputs finds a derivation through them alone: no decision is left
    calls = _count_calls(monkeypatch, slat.SelectorProgram, "decide")
    saturated = _count_calls(monkeypatch, locality, "saturate")
    labels = el.justify(el.parse_cbox(onto_text(random.Random(11), 6, 12, dup=0)))
    assert len(labels) == 7
    # the deletion loop makes one decision per candidate plus the first: 21 here
    assert len(calls) == 0
    # the full run to the fixpoint; the proof is read off the program
    assert len(saturated) == 1


def test_minimize_prepares_and_encodes_once(monkeypatch):
    purified = _count_calls(monkeypatch, locality, "flatten_purify")
    encoded = _count_calls(monkeypatch, slat, "encode")
    decided = _count_calls(monkeypatch, slat.SelectorProgram, "decide")
    saturated = _count_calls(monkeypatch, locality, "saturate")
    a, b, goal, axioms = ladder(20)
    assert minimize_axioms(a, b, goal, axioms) == Justification(
        tuple(range(21)), tuple(range(20)), (), (), ())
    # every premise of a ladder is in its proof and vital: 41 candidates,
    # none decided (the deletion loop decides all 41, and the first check)
    assert len(decided) == 0
    assert len(saturated) == 1
    assert len(purified) == 1
    assert len(encoded) == 1


def test_vital_inputs_are_the_ones_every_derivation_uses(monkeypatch):
    # SelectorProgram.vital against its definition: a true node is vital
    # exactly when the program does not derive done from the others
    checked = []
    real = slat.SelectorProgram.vital

    def vital(self, true):
        reason, found = real(self, true)
        checked.append(found == {x for x in true if self.decide([y for y in true if y != x]) is None})
        return reason, found

    monkeypatch.setattr(slat.SelectorProgram, "vital", vital)
    rng = random.Random(6174)
    for k in range(300):
        a, b, goal, axioms, neg_a, neg_b = with_negatives(rng) if k % 2 else (*with_equations(rng), (), ())
        _outcome(minimize_axioms, a, b, goal, axioms, neg_a=neg_a, neg_b=neg_b)
    for n, nd in ((4, 8), (6, 12)):
        minimize_el(onto_text(rng, n, nd), minimize_axioms)
    assert len(checked) > 150
    assert all(checked)


# ---------------------------------------------------------------------------
# the goal's module: inputs no derivation can reach are dropped unprepared


def module_of(a, b, goal, axioms, *, neg_a=(), neg_b=()):
    inputs = {"a": tuple(a), "b": tuple(b), "na": tuple(neg_a), "nb": tuple(neg_b), "ax": axioms.axioms}
    return locality.reachability_module(inputs, goal)


def positions(a=(), b=(), na=(), nb=(), ax=()):
    return {"a": list(a), "b": list(b), "na": list(na), "nb": list(nb), "ax": list(ax)}


def with_distractors(rng):
    """A draw with negatives or equations, plus inputs over fresh names.

    u0 and u1 are new constants, p and q new functions. Most planted
    inputs have a left side over the fresh names only, or are an
    inclusion or composition that p or q triggers, and lie outside the
    goal's module; some pull the fresh names in (an = atom with a
    reachable right side, an atom with a fresh right side), so that
    inputs behind them join. They go in at random positions.
    """
    if rng.random() < 0.5:
        a, b, goal, axioms, neg_a, neg_b = with_negatives(rng)
    else:
        (a, b, goal, axioms), neg_a, neg_b = with_equations(rng), (), ()
    fns, fresh = list(axioms.functions), ["p", "q"]
    ax = list(axioms.axioms)
    for _ in range(rng.randint(1, 3)):
        f, g = rng.choice(fresh), rng.choice(fns + fresh)
        planted = [Inclusion(f, g), Composition(f, g, rng.choice(fns + fresh))]
        if fns:
            planted.append(Composition(rng.choice(fns), f, rng.choice(fns + fresh)))
        ax.insert(rng.randint(0, len(ax)), rng.choice(planted))
    sides = []
    for atoms_, vocab in ((a, ["a0", "a1", "s0", "s1"]), (b, ["b0", "b1", "s0", "s1"])):
        atoms_ = list(atoms_)
        for _ in range(rng.randint(1, 4)):
            outside = rand_term(rng, ["u0", "u1"], fresh)
            anywhere = rand_term(rng, vocab + ["u0", "u1"], fns + fresh)
            roll = rng.random()
            x = (Leq(outside, anywhere) if roll < 0.6 else
                 Eq(outside, rand_term(rng, vocab, fns)) if roll < 0.8 else
                 Leq(rand_term(rng, vocab, fns), outside))
            atoms_.insert(rng.randint(0, len(atoms_)), x)
        sides.append(tuple(atoms_))
    return (*sides, goal, AxiomSet((*fns, *fresh), tuple(ax)), neg_a, neg_b)


def test_the_module_keeps_the_justification_of_every_input():
    rng = random.Random(4242)
    shrunk = entailed = 0
    for _ in range(300):
        a, b, goal, axioms, neg_a, neg_b = with_distractors(rng)
        module = module_of(a, b, goal, axioms, neg_a=neg_a, neg_b=neg_b)
        entailed += assert_same_justification(a, b, goal, axioms, neg_a=neg_a, neg_b=neg_b)
        shrunk += sum(map(len, module.values())) < len(a) + len(b) + len(neg_a) + len(neg_b) + len(axioms.axioms)
    # of these 300 draws, the module drops inputs on 238 and the goal
    # follows on 246; at least 70% must shrink
    assert shrunk >= 210, shrunk
    assert entailed > 150, entailed


def test_an_atom_joins_by_its_left_side():
    # a <= b & x joins through a and pulls x in, so x <= a joins too;
    # y <= x never does, though its right side is reachable
    a = atoms("a <= b & x", "x <= a", "y <= x")
    goal = parse_atom("a <= b")
    assert module_of(a, (), goal, AxiomSet(())) == positions(a=[0, 1])
    # a right-side trigger would need b and x first, and lose the goal
    assert minimize_axioms(a[:1], (), goal, AxiomSet(())) == Justification((0,), (), (), (), ())
    assert assert_same_justification(a, (), goal, AxiomSet(()))


def test_an_equation_joins_by_either_side():
    # x = a joins through its right side, b & x = v then through its left
    a = atoms("x = a", "x <= b", "b & x = v", "y = w")
    goal = parse_atom("a <= b")
    assert module_of(a, (), goal, AxiomSet(())) == positions(a=[0, 1, 2])
    assert minimize_axioms(a, (), goal, AxiomSet(())) == Justification((0, 1), (), (), (), ())
    assert assert_same_justification(a, (), goal, AxiomSet(()))


def test_an_inclusion_joins_by_its_first_function():
    # f is reached, so Inclusion(f, p) joins and brings p(c) <= b along;
    # Inclusion(q, f) and q(c) <= b wait for q, which never comes
    a = atoms("a <= f(c)", "p(c) <= b", "q(c) <= b")
    axioms = AxiomSet(("f", "p", "q"), (Inclusion("f", "p"), Inclusion("q", "f")))
    goal = parse_atom("a <= b")
    assert module_of(a, (), goal, axioms) == positions(a=[0, 1], ax=[0])
    assert minimize_axioms(a, (), goal, axioms) == Justification((0, 1), (), (), (), (0,))
    assert assert_same_justification(a, (), goal, axioms)


def test_a_composition_joins_by_its_first_two_functions():
    # f and g are reached, so Composition(f, g, h) joins and brings h in;
    # the two that need q stay out, though one of them has f and the
    # other g
    a = atoms("a <= f(c)", "c <= g(d)")
    b = atoms("h(d) <= b")
    axioms = AxiomSet(("f", "g", "h", "q"), (
        Composition("f", "g", "h"), Composition("f", "q", "h"), Composition("q", "g", "h")))
    goal = parse_atom("a <= b")
    assert module_of(a, b, goal, axioms) == positions(a=[0, 1], b=[0], ax=[0])
    assert minimize_axioms(a, b, goal, axioms) == Justification((0, 1), (0,), (), (), (0,))
    assert assert_same_justification(a, b, goal, axioms)


def test_negatives_are_always_in():
    # the negative x <= y brings x in, and x <= z, z <= y contradict it
    a = atoms("x <= z", "z <= y", "w <= y")
    goal, neg_a = parse_atom("a <= b"), atoms("x <= y")
    assert module_of(a, (), goal, AxiomSet(()), neg_a=neg_a) == positions(a=[0, 1], na=[0])
    assert minimize_axioms(a, (), goal, AxiomSet(()), neg_a=neg_a) == Justification((0, 1), (), (0,), (), ())
    assert assert_same_justification(a, (), goal, AxiomSet(()), neg_a=neg_a)


def test_input_errors_outside_the_module_are_raised():
    # y <= k(x) and f(y) <= f are outside the module, and still refused as
    # preparing every input refuses them
    goal = parse_atom("a <= b")
    with pytest.raises(ValueError, match="undeclared function k"):
        minimize_axioms(atoms("a <= b", "y <= k(x)"), (), goal, AxiomSet(("f",)))
    with pytest.raises(ValueError, match="used as both constant and function: f"):
        minimize_axioms(atoms("a <= b"), atoms("f(y) <= f"), goal, AxiomSet(("f",)))
