"""Complexity gates: work counters, not clocks, must grow near-linearly.

Each gate counts calls of a unit of work over inputs of size n, 2n and
4n and bounds the growth per doubling. A quadratic step shows as about
4x per doubling, a linear one as about 2x.
"""

import random

from conftest import onto_text, read_data
from slatkit import el, slat
from slatkit.interp import interpolate
from slatkit.locality import minimize_axioms, proof_kernel
from slatkit.terms import App, Const, expand_eqs
from test_saturate import ladder


def counted_calls(monkeypatch, names, run):
    """Calls of the named Entailer methods while run() runs."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(slat.Entailer, name)

        def wrapped(self, *args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(slat.Entailer, name, wrapped)
    run()
    monkeypatch.undo()
    return calls


def test_interpolate_queries_grow_linearly_on_ladders(monkeypatch):
    # each split asks its Entailers a fixed number of questions: the
    # chosen candidates come off the closure of the split's left side
    sizes = (40, 80, 160)
    counts = [counted_calls(monkeypatch, ("derives", "var"), lambda: interpolate(*ladder(n)))
              for n in sizes]
    for name in ("derives", "var"):
        for small, large in zip(counts, counts[1:]):
            assert large[name] <= 2.3 * small[name], (name, [c[name] for c in counts])


def test_justify_closure_builds_grow_linearly_on_ladders(monkeypatch):
    # decisions propagate over the one selector program: seed closures
    # are built by the one saturation to the fixpoint alone, not once per
    # decision or for the final proof
    counts = []
    for n in (20, 40, 80):
        counts.append(0)
        real = slat.propagate

        def counted(*args):
            counts[-1] += 1
            return real(*args)

        monkeypatch.setattr(slat, "propagate", counted)
        minimize_axioms(*ladder(n))
        monkeypatch.undo()
    for small, large in zip(counts, counts[1:]):
        assert large <= 2.3 * small, counts


def test_justify_decisions_do_not_grow(monkeypatch):
    # a vital input, one without which the goal does not follow, is kept
    # without a decision: a ladder's premises are all vital, and a role
    # chain's only other members are its 3 duplicated GCIs, so the
    # decisions per justification stay bounded as n doubles
    def decisions(run) -> int:
        calls = []
        real = slat.SelectorProgram.decide
        monkeypatch.setattr(slat.SelectorProgram, "decide",
                            lambda self, true: calls.append(1) or real(self, true))
        run()
        monkeypatch.undo()
        return len(calls)

    ladders = [decisions(lambda n=n: minimize_axioms(*ladder(n))) for n in (20, 40, 80)]
    chains = [decisions(lambda n=n: el.justify(el.parse_cbox(onto_text(random.Random(1), n, 0))))
              for n in (10, 20, 40)]
    # one decision per duplicated pair; deciding every support member
    # would take 2n + 2
    assert max(ladders) == 0, ladders
    assert max(chains) <= 3, chains


def test_justify_work_does_not_grow_with_distractors(monkeypatch):
    # inputs outside the goal's module are dropped before preparing, so
    # distractor GCIs over a second role add no closure to the one
    # saturation, however many there are
    def propagations(text) -> tuple[int, list[str]]:
        calls = []
        real = slat.propagate
        monkeypatch.setattr(slat, "propagate", lambda *args: calls.append(1) or real(*args))
        labels = el.justify(el.parse_cbox(text))
        monkeypatch.undo()
        return len(calls), labels

    counts = [propagations(onto_text(random.Random(1), 10, nd))[0] for nd in (0, 40, 160)]
    assert len(set(counts)) == 1, counts
    med = read_data("med.elp")
    unrelated = med.replace("roles part-of has-location acts-on", "roles part-of has-location acts-on drains")
    unrelated = unrelated.replace("side A\n", "ri drains o drains <= drains\nside A\n")
    unrelated = unrelated.replace("side B\n", "Kidney <= ex drains . Bladder\nBladder & Organ <= Kidney\nside B\n")
    unrelated = unrelated.replace("goal ", "ex drains . Kidney <= Organ\nOrgan <= ex drains . Ureter\ngoal ")
    assert unrelated.count("drains") == 7
    assert propagations(unrelated) == propagations(med)


class CountingMemo(dict):
    """An id memo that counts its writes: one per miss."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


def interned_objects(premises, definitions, certificates) -> int:
    """The distinct term objects a check of the certificates interns: the
    sides of its statements, of its steps' atoms and of the premises its
    input steps name, the terms its rules name, each with its subterms and
    a name with its definition's."""
    defs, roots = dict(definitions), []
    for statement, steps in certificates:
        roots += (statement.lhs, statement.rhs)
        for rule, atom, _, detail in steps:
            roots += (atom.lhs, atom.rhs)
            if rule == "input":
                roots += (premises[detail[0]].lhs, premises[detail[0]].rhs)
            roots += {"meet_l": detail[:1], "meet_r": detail[:1], "mon": detail[1:],
                      "incl": detail[2:], "comp": detail[3:]}.get(rule, ())
    seen: set[int] = set()
    while roots:
        t = roots.pop()
        if id(t) not in seen:
            seen.add(id(t))
            roots += ((defs[t.name],) if t.name in defs else ()) if isinstance(t, Const) else \
                (t.arg,) if isinstance(t, App) else t.args
    return len(seen)


def test_certificate_checks_intern_each_term_object_once_on_ladders():
    # the kernel keeps one id memo for the terms of steps and premises
    # alike, so it misses once per distinct term object it interns, and
    # those grow linearly with the ladder
    misses = []
    for n in (40, 80, 160):
        a, b, goal, axioms = ladder(n)
        res = interpolate(a, b, goal, axioms)
        k = proof_kernel((*a, *b), (), axioms, res.definitions)
        assert not k.memo    # no negative literal was interned
        k.memo = CountingMemo()
        for statement, steps in res.certificates:
            k.check(steps, statement)
        assert k.memo.writes == interned_objects(expand_eqs((*a, *b)), res.definitions, res.certificates)
        misses.append(k.memo.writes)
    for small, large in zip(misses, misses[1:]):
        assert large <= 2.3 * small, misses
