"""The incremental chaining engine against the pass-by-pass reference.

`_decide_by_passes` is the original decision loop: it takes the eager
instance list (`locality.instantiate`), rebuilds the Entailer from all
atoms on every pass and re-tests every unfired instance.
`locality.decide`, which generates instances lazily, must give an equal
Trace on every input.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    entails_with_support,
    onto_text,
    proof_support,
    rand_flat_atom,
    rand_slo_problem,
    rand_term,
    read_data,
)
from slatkit import el, locality, slat
from slatkit.locality import AxiomSet, Composition, Trace, decide, instantiate, prepare_problem
from slatkit.terms import App, Const, Leq, parse_atom


def _decide_by_passes(problem, instances=None) -> tuple[bool, Trace]:
    if instances is None:
        instances = instantiate(problem.axioms, problem.flat, problem.defs)
    atoms = [*problem.a0, *problem.b0]
    negs = [*problem.neg_a, *problem.neg_b]
    extra = [problem.goal.lhs, problem.goal.rhs]
    for n in negs:
        extra.extend((n.lhs, n.rhs))
    for cl in instances:
        for p in cl.premises:
            extra.extend((p.lhs, p.rhs))
        extra.extend((cl.conclusion.lhs, cl.conclusion.rhs))
    unfired = list(range(len(instances)))
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
                      if all(ent.holds(p) for p in instances[i].premises)]
        if not applicable:
            trace.result = False
            return False, trace
        trace.passes += 1
        for i in applicable:
            atoms.append(instances[i].conclusion)
            trace.fired.append(instances[i])
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


def test_entails_with_support_encodes_once(monkeypatch):
    # the proof support reads the saturation's own Entailer
    calls = []
    encode = slat.encode

    def counted(*args, **kwargs):
        calls.append(1)
        return encode(*args, **kwargs)

    monkeypatch.setattr(slat, "encode", counted)
    ok, support = entails_with_support(*ladder(20))
    assert ok
    assert support["a"] and support["b"]
    assert len(calls) == 1


def test_proof_support_rejects_a_trace_of_another_fire():
    # positions past a0 and b0 name fired clauses only when each fired one conclusion
    a_atoms, b_atoms, goal, axioms = ladder(3)
    problem = prepare_problem(a_atoms, b_atoms, goal, axioms)
    trace = locality.saturate(problem, lambda clause, ent: (clause.conclusion, clause.conclusion))
    assert trace.result
    with pytest.raises(ValueError):
        proof_support(problem, trace, a_atoms, b_atoms)
    trace = locality.saturate(problem)
    assert proof_support(problem, trace, a_atoms, b_atoms)["a"]


def test_role_chains_with_distractors_match_the_pass_loop():
    rng = random.Random(6007)
    for n, nd in ((3, 4), (4, 8), (6, 12), (6, 20), (8, 30)):
        t = el.translate(el.parse_cbox(onto_text(rng, n, nd)))
        problem = prepare_problem(t.a_atoms, t.b_atoms, t.goal, t.axioms)
        assert_same_trace(problem)
        ok, trace = decide(problem)
        assert ok and any(cl.provenance[0] == "comp" for cl in trace.fired)


def test_reflexive_composition_instances_are_skipped():
    # Composition(f, g, f) concludes f(d) <= f(c); with d == c that is
    # reflexive, so c <= g(c) wakes no instance of its own
    axioms = AxiomSet(("f", "g"), (Composition("f", "g", "f"),))
    problem = prepare_problem([parse_atom("c <= g(c)")], [], parse_atom("f(c) <= e"), axioms)
    ok, trace = decide(problem)
    assert not ok and trace.fired == [] and trace.passes == 0
    assert_same_trace(problem)
    rng = random.Random(6011)
    fns, names = ["f", "g"], ["a", "b", "c"]
    for _ in range(300):
        a = [Leq(rand_term(rng, names, fns), rand_term(rng, names, fns))
             for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            c = Const(rng.choice(names))
            a.append(Leq(c, App("g", c)))
        goal = Leq(rand_term(rng, names, fns), rand_term(rng, names, fns))
        problem = prepare_problem(a, [], goal, axioms)
        assert_same_trace(problem)
        for cl in decide(problem)[1].fired:
            assert cl.conclusion.lhs != cl.conclusion.rhs


def test_decide_builds_only_the_clauses_it_fires(monkeypatch):
    built = []
    clause = locality.GroundHornClause

    def counted(*args, **kwargs):
        built.append(1)
        return clause(*args, **kwargs)

    monkeypatch.setattr(locality, "GroundHornClause", counted)
    ok, trace = decide(prepare_problem(*ladder(40)))
    assert ok and trace.passes == 40
    # 40 of the 6,320 mon instances over the 80 arguments of f fire
    assert len(built) <= len(trace.fired) + 2


def test_decide_spreads_only_the_closures_that_grow(monkeypatch):
    calls = []
    spread = slat._spread

    def counted(*args):
        calls.append(1)
        return spread(*args)

    problem = prepare_problem(*ladder(80))
    monkeypatch.setattr(slat, "_spread", counted)
    ok, trace = decide(problem)
    assert ok and trace.passes == 80
    # 13,041 when every add() spread every cached closure
    assert len(calls) <= 320


consts = ["a", "b", "c", "d"]


def _true_vars(closure) -> set[int]:
    return set(closure)


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


def _sync_all(ent) -> list[tuple[int, int]]:
    """The walk over every cached closure that the holders index filters."""
    clauses, first = ent.problem.clauses, ent._synced
    ent._synced = len(clauses)
    made = []
    for seed, closure in ent._closures.items():
        queue = []
        for cid in range(first, len(clauses)):
            premises, conclusion = clauses[cid]
            if conclusion not in closure and all(p in closure for p in premises):
                closure[conclusion] = cid
                queue.append(conclusion)
        made.extend((seed, v) for v in slat._spread(ent.problem, closure, queue))
    return made


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_holders_index_matches_a_walk_over_every_closure(rng):
    names = ["a", "b", "c", "d", "e"]
    ent, ref = slat.Entailer([]), slat.Entailer([])
    made = {}
    for e, sync in ((ent, ent._sync), (ref, lambda: _sync_all(ref))):
        def recorded(e=e, sync=sync):
            made[e] = sync()
            return made[e]
        e._sync = recorded

    def closures(e):
        return [(seed, list(closure.items())) for seed, closure in e._closures.items()]

    for e in (ent, ref):   # several closures before the atoms arrive
        for c in names[:3]:
            e.above(e.var(Const(c)))
    for _ in range(30):
        made.clear()
        roll = rng.random()
        if roll < 0.4:   # query: cache the closure of a term
            t = rand_flat_atom(rng, names).lhs
            assert ent.above(ent.var(t)) == ref.above(ref.var(t))
        elif roll < 0.7:
            atom = rand_flat_atom(rng, names)
            assert ent.add(atom) == ref.add(atom) == made[ent] == made[ref]
        else:   # register a meet, new or not
            t = rand_flat_atom(rng, names).rhs
            assert ent.var(t) == ref.var(t)
            assert made.get(ent) == made.get(ref)
        assert closures(ent) == closures(ref)
    assert len(ent._closures) >= 3
