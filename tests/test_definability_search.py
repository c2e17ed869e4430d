"""beth's search fallback, cli._search_definition, against a brute-force
reference: every meet of beth.enumerate_terms at the depth, in its order,
under the same 500-term limit, deciding target <= t and then t <= target.
The search decides over the last level's generators instead, so on seeded
draws whose intersection extraction fails it must give the reference's
verdict and term wherever the reference runs, and it also runs where the
reference is skipped."""

import random
from collections import Counter
from types import SimpleNamespace

from conftest import DATA
from slatkit import beth, cli, locality
from slatkit.inputs import parse_slp
from slatkit.locality import AxiomSet
from slatkit.terms import Const, Leq, parse_atom, parse_term
from test_beth_differential import beth_draw

SKIPPED = "skipped"


def reference(p, depth):
    """The first sigma-term of the depth that defines the target, None
    when there is none, SKIPPED over the limit; and the decisions made."""
    fns = sorted(set(p.sigma) & set(p.functions))
    consts = sorted(set(p.sigma) - set(p.functions))
    try:
        terms = beth.enumerate_terms(fns, consts, depth, limit=cli._SEARCH_LIMIT)
    except ValueError:
        return SKIPPED, 0
    target, decided = Const(p.target), 0
    for t in terms:
        decided += 1
        if locality.entails(p.a_pos, (), Leq(target, t), p.axioms, neg_a=p.a_neg):
            decided += 1
            if locality.entails(p.a_pos, (), Leq(t, target), p.axioms, neg_a=p.a_neg):
                return t, decided
    return None, decided


def searched(p, depth, monkeypatch):
    """_search_definition's term (None for none) and the decisions it made."""
    calls, entails = [], locality.entails
    with monkeypatch.context() as m:
        m.setattr(locality, "entails", lambda *a, **k: calls.append(a) or entails(*a, **k))
        found, _ = cli._search_definition(p, depth)
    return found, len(calls)


def failed_extractions():
    """Problems of seeded draws with an implicitly defined target whose
    extraction under intersection sharing fails."""
    for seed in (1, 3, 7):
        rng = random.Random(seed)
        for _ in range(300):
            atoms, axioms, sigma, target, neg = beth_draw(rng)
            try:
                got = beth.explicit_definition(atoms, axioms, sigma, target, neg=neg, sharing="intersection")
            except ValueError:   # inconsistent premises
                continue
            if isinstance(got, beth.Failure) and got != beth.UNDEFINED:
                yield SimpleNamespace(sigma=tuple(sorted(sigma)), functions=axioms.functions,
                                      target=target, a_pos=atoms, a_neg=neg, axioms=axioms)


def test_the_reference_verdicts_and_terms_from_the_generators(monkeypatch):
    seen = Counter()
    for p in failed_extractions():
        for depth in range(4):
            want, decided = reference(p, depth)
            got, decisions = searched(p, depth, monkeypatch)
            if want is SKIPPED:
                seen["answered where skipped" if got is not None else "none where skipped"] += 1
                continue
            assert got == want, (p, depth)
            assert decisions <= decided, (p, depth)
            seen["found" if got is not None else "none"] += 1
    # both verdicts are compared, and a skipped search now answers
    assert seen["found"] > 10 and seen["none"] > 10, seen
    assert seen["answered where skipped"] > 0, seen


def test_a_meet_of_generators_defines_the_target(monkeypatch):
    # no single generator is below a, so t*, the meet of those above a, is decided
    p = SimpleNamespace(sigma=("b", "c"), functions=(), target="a", a_neg=(), axioms=AxiomSet(()),
                        a_pos=tuple(map(parse_atom, ("a <= b", "a <= c", "b & c <= a"))))
    assert reference(p, 0) == (parse_term("b & c"), 6)
    assert searched(p, 0, monkeypatch) == (parse_term("b & c"), 5)


def test_the_paper_example_is_searched_at_the_default_depth(monkeypatch, capsys):
    p = parse_slp((DATA / "beth_fe.slp").read_text(encoding="utf-8"))
    # e and g(m) for the 3 {g, e}-terms m of depth 1, then e and g(m) for the 15 of depth 2;
    # none lies above a
    assert searched(p, 2, monkeypatch) == (None, 4)
    assert searched(p, 3, monkeypatch) == (None, 16)
    assert reference(p, 2) == (None, 15)
    assert reference(p, 3) == (SKIPPED, 0)
    assert cli.main(["beth", str(DATA / "beth_fe.slp"), "--sharing", "intersection"]) == cli.EXIT_NEGATIVE
    assert capsys.readouterr().out.endswith("; no defining term up to depth 3)\n")
