"""Complexity gates: work counters, not clocks, must grow near-linearly.

Each gate counts calls of a unit of work over inputs of size n, 2n and
4n and bounds the growth per doubling. A quadratic step shows as about
4x per doubling, a linear one as about 2x.
"""

import random

from conftest import onto_text, read_data
from slatkit import el, slat
from slatkit.interp import interpolate
from slatkit.locality import minimize_axioms
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
