"""explicit_definition against its reference (beth_reference.py), which
decided definability apart and re-decided both directions of the term it
found: seeded draws, negative literals included, give the same term, the
same Failure or the same exception under both sharings. The re-decision
survives as an oracle, and a term the kernel rejects is never returned."""

import random
from collections import Counter

import pytest

import beth_reference
from conftest import DATA, rand_slo_problem, rand_term
from slatkit import beth, cli, interp, locality
from slatkit.inputs import parse_slp
from slatkit.terms import Const, Leq, Term, atom_constants, atom_functions, parse_atom, parse_term
from test_beth import fe_problem

SEEDS, DRAWS = (1, 3, 7), 200


def beth_draw(rng):
    """Atoms, axioms, sigma, target and negatives, drawn as in
    test_beth.test_implicit_definability_is_symmetric."""
    a, b, _, axioms = rand_slo_problem(rng)
    atoms = (*a, *b)
    consts = sorted(set().union(*map(atom_constants, atoms)))
    symbols = sorted({*axioms.functions, *consts}.union(*map(atom_functions, atoms)))
    neg = tuple(Leq(rand_term(rng, consts, list(axioms.functions)), Const(rng.choice(consts)))
                for _ in range(rng.randint(0, 1)))
    target = rng.choice(consts)
    sigma = {x for x in symbols if x != target and rng.random() < 0.5}
    return atoms, axioms, sigma, target, neg


def outcome(define, atoms, axioms, sigma, target, neg, sharing):
    try:
        return define(atoms, axioms, sigma, target, neg=neg, sharing=sharing)
    except Exception as e:    # both must fail alike
        return type(e).__name__, str(e)


def cases():
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(DRAWS):
            yield beth_draw(rng)
    p = parse_slp((DATA / "beth_fe.slp").read_text(encoding="utf-8"))
    for sigma in (p.sigma, {"g", "e", "f"}, {"e"}, {"a", "g"}):
        yield p.a_pos, p.axioms, sigma, p.target, p.a_neg


@pytest.mark.parametrize("sharing", ["theta", "intersection"])
def test_the_same_definitions_failures_and_errors_as_the_reference(sharing, monkeypatch):
    seen, entails, decided = Counter(), locality.entails, []

    def counted(*args, **kwargs):
        decided.append(args)
        return entails(*args, **kwargs)

    made, interpolate = [], interp.interpolate
    monkeypatch.setattr(locality, "entails", counted)
    monkeypatch.setattr(interp, "interpolate", lambda *a, **k: made.append(interpolate(*a, **k)) or made[-1])
    for atoms, axioms, sigma, target, neg in cases():
        made.clear()
        got = outcome(beth.explicit_definition, atoms, axioms, sigma, target, neg, sharing)
        # the one definability decision; the kernel checks the term, so no entails re-decides it
        assert len(decided) == (got != Const(target)), (atoms, sigma, target, neg)
        seen["split"] += isinstance(got, Term) and bool(made and made[-1].splits)
        want = outcome(beth_reference.explicit_definition, atoms, axioms, sigma, target, neg, sharing)
        assert got == want, (atoms, sigma, target, neg)
        if isinstance(got, Term):
            # the reference's own check, kept as the oracle
            assert entails(atoms, (), Leq(Const(target), got), axioms, neg_a=neg)
            assert entails(atoms, (), Leq(got, Const(target)), axioms, neg_a=neg)
        seen[kind(got)] += 1
        decided.clear()
    # every outcome of the reference is met, so none is compared vacuously
    assert seen["undefined"] > 300 and seen["term"] > 50 and seen["error"] > 50
    assert seen["split"] > 0    # the kernel also accepts unprimed split pieces
    assert (seen["no shared term"] > 20) == (sharing == "intersection")


def kind(out) -> str:
    if isinstance(out, Term):
        return "term"
    if isinstance(out, tuple):
        return "error"
    if out == beth.UNDEFINED:
        return "undefined"
    return "no shared term" if out.reason.startswith("no shared defining term found") else out.reason


def test_the_kernel_checks_the_unprimed_certificates(monkeypatch):
    checked, check = [], interp.check_certificates

    def spy(res, a_atoms, b_atoms, axioms, **kwargs):
        checked.append((res.term, [statement for statement, _ in res.certificates],
                        a_atoms, b_atoms, axioms, kwargs))
        return check(res, a_atoms, b_atoms, axioms, **kwargs)

    monkeypatch.setattr(interp, "check_certificates", spy)
    atoms, axioms = fe_problem()
    neg = (parse_atom("e <= f(b)"),)
    assert beth.explicit_definition(atoms, axioms, {"g", "e"}, "a", neg=neg) == parse_term("f(e)")
    # the doubled check inside interpolate, then the single theory's
    t = parse_term("f(e)")
    assert checked[-1] == (t, [Leq(Const("a"), t), Leq(t, Const("a"))], atoms, atoms, axioms,
                           {"neg_a": neg, "neg_b": neg})
    assert len(checked) == 2


def test_an_undefined_target_is_answered_by_the_decision_alone(monkeypatch):
    # the splitting run would reach NotEntailed only after splitting every mixed instance
    def refused(*args, **kwargs):
        raise AssertionError("interpolated an undefined target")

    monkeypatch.setattr(interp, "interpolate", refused)
    atoms, axioms = fe_problem()
    for sharing in ("theta", "intersection"):
        assert beth.explicit_definition(atoms, axioms, {"g"}, "a", sharing=sharing) == beth.UNDEFINED


def swapped_interpolant(monkeypatch, term):
    interpolate = interp.interpolate

    def swapped(*args, **kwargs):
        res = interpolate(*args, **kwargs)
        res.term = term
        return res

    monkeypatch.setattr(interp, "interpolate", swapped)


def test_a_term_whose_certificates_do_not_prove_it_is_rejected(monkeypatch):
    # e is a {g, e}-term that does not define a; the proofs are f(e)'s
    swapped_interpolant(monkeypatch, Const("e"))
    atoms, axioms = fe_problem()
    out = beth.explicit_definition(atoms, axioms, {"g", "e"}, "a")
    assert isinstance(out, beth.Failure)
    assert out.reason == ("interpolant e failed left certificate: "
                          "the proof does not conclude its statement")


def test_the_cli_does_not_print_a_rejected_term(monkeypatch, capsys):
    swapped_interpolant(monkeypatch, Const("e"))
    code = cli.main(["beth", str(DATA / "beth_fe.slp"), "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == ("implicitly defined: yes\n"
                   "definition: none (interpolant e failed left certificate: the proof does "
                   "not conclude its statement; no defining term up to depth 2)\n")
