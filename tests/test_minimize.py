"""Proof-guided minimization against the deletion-by-decision reference.

`_minimize_by_deletion` is the original loop: it decides the kept set
again for every candidate. `locality.minimize_axioms` skips the decision
for candidates outside the current proof's support and must return an
equal Justification on every input.
"""

import random

import pytest

from conftest import onto_text, rand_slo_problem, rand_term, read_data
from slatkit import el, locality
from slatkit.locality import AxiomSet, Justification, NotEntailed, entails, minimize_axioms
from slatkit.terms import Eq, Leq, atom_constants, format_atom, parse_atom
from test_saturate import ladder


def _minimize_by_deletion(a_atoms, b_atoms, goal, axioms, *,
                          neg_a=(), neg_b=(), pinned_a=(), pinned_b=()):
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
        *(("a", i) for i in range(len(a_atoms)) if i not in set(pinned_a)),
        *(("na", i) for i in range(len(neg_a))),
        *(("b", i) for i in range(len(b_atoms)) if i not in set(pinned_b)),
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
    return _outcome(minimize, t.a_atoms, t.b_atoms, t.goal, t.axioms,
                    pinned_a=t.pinned_a, pinned_b=t.pinned_b)


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
        support = {}
        if not entails(a, b, goal, axioms, neg_a=neg_a, neg_b=neg_b, support=support):
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
    support = {}
    assert entails(a, b, goal, axioms, support=support)
    assert support == {"a": {0}, "b": {0, 1}, "na": set(), "nb": set(), "ax": set()}
    assert minimize_axioms(a, b, goal, axioms) == Justification((0,), (0, 1), (), (), ())


def test_support_of_a_ladder_is_every_premise():
    a, b, goal, axioms = ladder(6)
    support = {}
    assert entails(a, b, goal, axioms, support=support)
    assert support == {"a": set(range(len(a))), "b": set(range(len(b))),
                       "na": set(), "nb": set(), "ax": set()}


def test_support_skips_distractors():
    text = onto_text(random.Random(5), 6, 12, dup=0)
    t = el.translate(el.parse_cbox(text))
    support = {}
    assert entails(t.a_atoms, t.b_atoms, t.goal, t.axioms, support=support)
    used = [*(t.a_atoms[i] for i in support["a"] - set(t.pinned_a)),
            *(t.b_atoms[i] for i in support["b"] - set(t.pinned_b))]
    assert len(used) == 6
    assert all(format_atom(x).startswith("C") for x in used)
    assert support["ax"] == {0}


# ---------------------------------------------------------------------------
# decision count


def test_justify_decides_once_per_kept_premise(monkeypatch):
    calls = []
    real = locality.entails

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(locality, "entails", counted)
    labels = el.justify(el.parse_cbox(onto_text(random.Random(11), 6, 12, dup=0)))
    assert len(labels) == 7
    # the deletion loop makes one decision per candidate plus the first: 21 here
    assert len(calls) in (len(labels) + 1, len(labels) + 2)
