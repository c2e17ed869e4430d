"""beth's search fallback, cli._search_definition, against a brute-force
reference: every meet of beth.enumerate_terms at the depth, in its order,
under the same 500-term limit, deciding target <= t and then t <= target.
The search reads the last level's generators off one saturation instead,
so on seeded draws whose intersection extraction fails it must give the
reference's verdict and term wherever the reference runs, with never more
locality.saturate runs, and it also runs where the reference is skipped."""

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
    when there is none, SKIPPED over the limit."""
    fns = sorted(set(p.sigma) & set(p.functions))
    consts = sorted(set(p.sigma) - set(p.functions))
    try:
        terms = beth.enumerate_terms(fns, consts, depth, limit=cli._SEARCH_LIMIT)
    except ValueError:
        return SKIPPED
    target = Const(p.target)
    for t in terms:
        if locality.entails(p.a_pos, (), Leq(target, t), p.axioms, neg_a=p.a_neg):
            if locality.entails(p.a_pos, (), Leq(t, target), p.axioms, neg_a=p.a_neg):
                return t
    return None


def runs(monkeypatch, call):
    """call()'s value and the locality.saturate runs it made: one per
    decision of the reference, one in all for the search."""
    calls, saturate = [], locality.saturate
    with monkeypatch.context() as m:
        m.setattr(locality, "saturate", lambda *a, **k: calls.append(a) or saturate(*a, **k))
        return call(), len(calls)


def searched(p, depth, monkeypatch):
    """_search_definition's term (None for none) and the runs it made."""
    return runs(monkeypatch, lambda: cli._search_definition(p, depth)[0])


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
            want, want_runs = runs(monkeypatch, lambda: reference(p, depth))
            got, got_runs = searched(p, depth, monkeypatch)
            if want is SKIPPED:
                seen["answered where skipped" if got is not None else "none where skipped"] += 1
                continue
            assert got == want, (p, depth)
            assert got_runs <= want_runs, (p, depth)
            seen["found" if got is not None else "none"] += 1
    # both verdicts are compared, and a skipped search now answers
    assert seen["found"] > 10 and seen["none"] > 10, seen
    assert seen["answered where skipped"] > 0, seen


def test_a_meet_of_generators_defines_the_target(monkeypatch):
    # no single generator is below a, so t*, the meet of those above a, is decided
    p = SimpleNamespace(sigma=("b", "c"), functions=(), target="a", a_neg=(), axioms=AxiomSet(()),
                        a_pos=tuple(map(parse_atom, ("a <= b", "a <= c", "b & c <= a"))))
    assert runs(monkeypatch, lambda: reference(p, 0)) == (parse_term("b & c"), 6)
    assert searched(p, 0, monkeypatch) == (parse_term("b & c"), 1)


def test_the_paper_example_is_searched_at_the_default_depth(monkeypatch, capsys):
    p = parse_slp((DATA / "beth_fe.slp").read_text(encoding="utf-8"))
    # e and g(m) for the 3 {g, e}-terms m of depth 1, then e and g(m) for the 15 of depth 2,
    # all registered in one run; none lies above a
    assert searched(p, 2, monkeypatch) == (None, 1)
    assert searched(p, 3, monkeypatch) == (None, 1)
    assert runs(monkeypatch, lambda: reference(p, 2)) == (None, 15)
    assert runs(monkeypatch, lambda: reference(p, 3)) == (SKIPPED, 0)
    assert cli.main(["beth", str(DATA / "beth_fe.slp"), "--sharing", "intersection"]) == cli.EXIT_NEGATIVE
    assert capsys.readouterr().out.endswith("; no defining term up to depth 3)\n")
