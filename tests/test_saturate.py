"""The incremental chaining engine against the pass-by-pass reference.

`_decide_by_passes` is the original decision loop: it rebuilds the
Entailer from all atoms on every pass and re-tests every unfired
instance. `locality.decide` must give an equal Trace on every input.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_flat_atom, rand_slo_problem, read_data
from slatkit import el, locality, slat
from slatkit.locality import AxiomSet, Trace, decide, prepare_problem
from slatkit.terms import App, Const, Leq, parse_atom


def _decide_by_passes(problem) -> tuple[bool, Trace]:
    atoms = [*problem.a0, *problem.b0]
    negs = [*problem.neg_a, *problem.neg_b]
    extra = [problem.goal.lhs, problem.goal.rhs]
    for n in negs:
        extra.extend((n.lhs, n.rhs))
    for cl in problem.instances:
        for p in cl.premises:
            extra.extend((p.lhs, p.rhs))
        extra.extend((cl.conclusion.lhs, cl.conclusion.rhs))
    unfired = list(range(len(problem.instances)))
    trace = Trace()
    while True:
        ent = slat.Entailer(atoms, extra)
        if ent.holds(problem.goal):
            trace.result = True
            return True, trace
        for n in negs:
            if ent.holds(n):
                trace.inconsistent = n
                trace.result = True
                return True, trace
        applicable = [i for i in unfired
                      if all(ent.holds(p) for p in problem.instances[i].premises)]
        if not applicable:
            trace.result = False
            return False, trace
        trace.passes += 1
        for i in applicable:
            atoms.append(problem.instances[i].conclusion)
            trace.fired.append(problem.instances[i])
        fired = set(applicable)
        unfired = [i for i in unfired if i not in fired]


def ladder(n: int, gap: int | None = None):
    """c0 <= d0 and c{i+1} <= f(c{i}) on A, f(d{i}) <= d{i+1} on B."""
    c = [Const(f"c{i}") for i in range(n + 1)]
    d = [Const(f"d{i}") for i in range(n + 1)]
    a = [Leq(c[0], d[0]), *(Leq(c[i + 1], App("f", c[i])) for i in range(n))]
    b = [Leq(App("f", d[i]), d[i + 1]) for i in range(n) if i != gap]
    return a, b, Leq(c[n], d[n]), AxiomSet(("f",))


def assert_same_trace(problem):
    got, want = decide(problem), _decide_by_passes(problem)
    assert got[0] == want[0]
    assert got[1] == want[1]


def test_random_draws_match_the_pass_loop():
    rng = random.Random(4242)
    for _ in range(300):
        a, b, goal, axioms = rand_slo_problem(rng)
        assert_same_trace(prepare_problem(a, b, goal, axioms))


def test_ladders_match_the_pass_loop():
    for n in range(1, 13):
        problem = prepare_problem(*ladder(n))
        assert_same_trace(problem)
        assert decide(problem)[1].passes == n
    gap = prepare_problem(*ladder(12, gap=6))
    assert_same_trace(gap)
    assert decide(gap)[0] is False


def test_derived_negative_literal_matches_the_pass_loop():
    axioms = AxiomSet(("f",))
    problem = prepare_problem(
        [parse_atom("c <= d")], [], parse_atom("c <= e"), axioms,
        neg_a=[parse_atom("f(c) <= f(d)")],
    )
    assert_same_trace(problem)
    ok, trace = decide(problem)
    assert ok and trace.passes == 1
    assert trace.inconsistent == problem.neg_a[0]


def test_med_translation_matches_the_pass_loop():
    for name in ("med.elp", "med_A.elp", "med_B.elp"):
        t = el.translate(el.parse_cbox(read_data(name)))
        assert_same_trace(prepare_problem(t.a_atoms, t.b_atoms, t.goal, t.axioms))


def test_decide_encodes_once(monkeypatch):
    calls = []
    encode = slat.encode

    def counted(*args, **kwargs):
        calls.append(1)
        return encode(*args, **kwargs)

    problem = prepare_problem(*ladder(20))
    monkeypatch.setattr(slat, "encode", counted)
    ok, trace = locality.decide(problem)
    assert ok and trace.passes == 20
    assert len(calls) == 1


consts = ["a", "b", "c", "d"]


def _true_vars(closure) -> set[int]:
    return {v for v, true in enumerate(closure) if true}


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3))
def test_entailer_add_matches_a_fresh_build(rng, known):
    atoms = [rand_flat_atom(rng, consts) for _ in range(rng.randint(1, 8))]
    extra = [Const(c) for c in consts[:known]]
    ent = slat.Entailer([], extra)
    queries = [rand_flat_atom(rng, consts) for _ in range(4)]
    for q in queries[:2]:
        try:
            ent.holds(q)   # cache some closures before the atoms arrive
        except ValueError:
            pass
    for k, atom in enumerate(atoms, start=1):
        before = {seed: _true_vars(c) for seed, c in ent._closures.items()}
        made = ent.add(atom)
        # add() reports exactly what became derivable in cached closures
        assert sorted(made) == sorted(
            (seed, v) for seed, old in before.items()
            for v in _true_vars(ent._closures[seed]) - old)
        fresh = slat.Entailer(atoms[:k], extra)
        assert fresh.problem.index.keys() == ent.problem.index.keys()
        for q in (*atoms[:k], *queries):
            try:
                want = fresh.holds(q)
            except ValueError:
                want = None
            try:
                got = ent.holds(q)
            except ValueError:
                got = None
            assert got == want, (atoms[:k], q)
