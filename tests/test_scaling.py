"""Complexity gates: work counters, not clocks, must grow near-linearly.

Each gate counts calls of a unit of work over inputs of size n, 2n and
4n and bounds the growth per doubling. A quadratic step shows as about
4x per doubling, a linear one as about 2x.
"""

from slatkit import slat
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
    # every premise of a ladder is decided, and a decision propagates over
    # the one selector program: seed closures are built by the full run
    # and the final check alone, not once per decision
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
