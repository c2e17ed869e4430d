"""Purification and chaining against the plain reference copy in
chaining_reference.py.

On seeded rand_slo_problem draws, ladders with and without a gap and EL
role chains with distractors, decided, saturated to the fixpoint and
interpolated (with splits), both must give the same purified problem
(a0, b0, the order of defs and of the names made, the flat term set),
the same fired clauses, pass counts and results, the same Horn encoding,
every cached closure as the same ordered list of (variable, reason)
items, the same holders, and the same pairs from each Entailer.add.
"""

import random

import pytest

import chaining_reference as ref
from conftest import DATA, onto_text, rand_axioms, rand_flat_atom, rand_slo_problem, read_data, split_problem
from slatkit import el, inputs, interp, locality, slat
from slatkit.locality import NotEntailed
from slatkit.slat import NoSharedWitness
from slatkit.terms import App, Const, Eq, Leq, mk_meet
from test_saturate import ladder


def purified(problem):
    return (problem.a0, problem.b0, problem.neg_a, problem.neg_b, problem.goal,
            list(problem.defs.items()), list(problem.names.items()),
            list(problem.binders.items()), problem.purifier.made, problem.flat)


def chaining(ent):
    """The encoding and the closure upkeep of a run's Entailer."""
    return (ent.atoms, ent.problem.terms, ent.problem.clauses, ent.problem.origin,
            [(seed, list(closure.items())) for seed, closure in ent._closures.items()],
            ent._seeds, ent.holders)


@pytest.fixture
def adds(monkeypatch):
    """The atom and the reported pairs of every add, per Entailer class."""
    log = {slat.Entailer: [], ref.Entailer: []}
    for cls, entries in log.items():
        def recorded(self, atom, add=cls.add, entries=entries):
            made = add(self, atom)
            entries.append((atom, list(made)))
            return made
        monkeypatch.setattr(cls, "add", recorded)
    return log


def assert_same_runs(adds, a, b, goal, axioms, **kw):
    mine = locality.prepare_problem(a, b, goal, axioms, **kw)
    theirs = ref.prepare_problem(a, b, goal, axioms, **kw)
    assert purified(mine) == purified(theirs)
    for to_fixpoint in (False, True):
        got = locality.saturate(mine, to_fixpoint=to_fixpoint)
        want = ref.saturate(theirs, to_fixpoint=to_fixpoint)
        assert got == want
        assert chaining(got.entailer) == chaining(want.entailer)
    assert adds[slat.Entailer] == adds[ref.Entailer]


def outcome(run):
    try:
        return "value", run()
    except (NotEntailed, NoSharedWitness, ValueError) as e:
        return type(e).__name__, str(e)


def assert_same_interpolation(monkeypatch, adds, a, b, goal, axioms, **kw):
    runs = {}
    for impl in (locality, ref):
        traces = []
        with monkeypatch.context() as m:
            def saturate(problem, fire, run=impl.saturate, traces=traces):
                traces.append(run(problem, fire))
                return traces[-1]
            m.setattr(locality, "prepare_problem", impl.prepare_problem)
            m.setattr(locality, "saturate", saturate)
            result = outcome(lambda: interp.interpolate(a, b, goal, axioms, **kw))
        runs[impl] = result, [(t, chaining(t.entailer)) for t in traces]
    assert runs[locality] == runs[ref]
    assert adds[slat.Entailer] == adds[ref.Entailer]
    return runs[locality][0]


def test_seeded_draws(monkeypatch, adds):
    rng = random.Random(2029)
    for _ in range(120):
        a, b, goal, axioms = rand_slo_problem(rng)
        assert_same_runs(adds, a, b, goal, axioms)
        for intersection in (False, True):
            assert_same_interpolation(monkeypatch, adds, a, b, goal, axioms, intersection=intersection)


def test_split_draws(monkeypatch, adds):
    # two-sided ladders whose interpolations mostly split, some of them a comp instance
    rng = random.Random(2031)
    kinds = {}
    for _ in range(60):
        a, b, goal, axioms = split_problem(rng)
        assert_same_runs(adds, a, b, goal, axioms)
        for intersection in (False, True):
            kind, res = assert_same_interpolation(monkeypatch, adds, a, b, goal, axioms, intersection=intersection)
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind == "value" and res.splits:
                kinds["split"] = kinds.get("split", 0) + 1
    assert kinds["split"] > 30 and kinds["NotEntailed"] > 10, kinds


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_ladders_with_and_without_a_gap(monkeypatch, adds, n):
    for gap in (None, n // 2):
        args = ladder(n, gap)
        assert_same_runs(adds, *args)
        kind, res = assert_same_interpolation(monkeypatch, adds, *args)
        if gap is None:
            assert kind == "value" and len(res.splits) == n - 1
        else:
            assert kind == "NotEntailed"


@pytest.mark.parametrize("seed", range(8))
def test_role_chains_with_distractors(monkeypatch, adds, seed):
    rng = random.Random(seed)
    t = el.translate(el.parse_cbox(onto_text(rng, rng.randint(3, 9), rng.randint(4, 24))))
    assert_same_runs(adds, t.a_atoms, t.b_atoms, t.goal, t.axioms)
    kind, _ = assert_same_interpolation(monkeypatch, adds, t.a_atoms, t.b_atoms, t.goal, t.axioms)
    assert kind == "value"


def test_negative_literals_and_reserved_names(monkeypatch, adds):
    rng = random.Random(5)
    for _ in range(30):
        a, b, goal, axioms = rand_slo_problem(rng)
        kw = {"neg_a": a[-1:], "neg_b": b[:1]}
        assert_same_runs(adds, a[:-1], b[1:], goal, axioms, **kw)
        assert_same_interpolation(monkeypatch, adds, a[:-1], b[1:], goal, axioms,
                                  reserved=("f_s0", "m1"), **kw)


def nested_term(rng, consts, fns, depth=3):
    """A term whose meets may hold applications and meets of them."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return Const(rng.choice(consts))
    if fns and roll < 0.6:
        return App(rng.choice(fns), nested_term(rng, consts, fns, depth - 1))
    return mk_meet([nested_term(rng, consts, fns, depth - 1) for _ in range(rng.randint(2, 3))])


def test_nested_terms_and_equations(monkeypatch, adds):
    rng = random.Random(17)
    for _ in range(60):
        fns = ["f", "g", "h"][:rng.randint(1, 3)]
        axioms = rand_axioms(rng, fns)

        def atoms(consts):
            return [(Eq if rng.random() < 0.2 else Leq)(nested_term(rng, consts, fns), nested_term(rng, consts, fns))
                    for _ in range(rng.randint(1, 4))]
        a, b = atoms(["a", "s"]), atoms(["b", "s"])
        goal = Leq(nested_term(rng, ["a", "s"], fns), nested_term(rng, ["b", "s"], fns))
        assert_same_runs(adds, a, b, goal, axioms)
        assert_same_interpolation(monkeypatch, adds, a, b, goal, axioms)


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.iterdir() if p.suffix in (".slp", ".elp")))
def test_shipped_examples(monkeypatch, adds, name):
    if name.endswith(".elp"):
        t = el.translate(el.parse_cbox(read_data(name)))
        args, kw = (t.a_atoms, t.b_atoms, t.goal, t.axioms), {}
    else:
        p = inputs.parse_slp(read_data(name))
        if p.goal is None:
            return
        args, kw = (p.a_pos, p.b_pos, p.goal, p.axioms), {"neg_a": p.a_neg, "neg_b": p.b_neg}
    assert_same_runs(adds, *args, **kw)
    assert_same_interpolation(monkeypatch, adds, *args, **kw)


def test_closures_grow_alike_under_batches_of_atoms():
    # Entailer.add brings one atom; a batch of atoms whose meets are new
    # makes clauses whose conclusions are premises of later ones
    rng = random.Random(23)
    names = ["a", "b", "c", "d"]
    for _ in range(200):
        ents = [slat.Entailer([]), ref.Entailer([])]
        queries = [rand_flat_atom(rng, names).lhs for _ in range(3)]
        for _ in range(4):
            batch = [rand_flat_atom(rng, names) for _ in range(rng.randint(1, 4))]
            made = []
            for ent in ents:
                for t in queries:
                    ent.above(ent.var(t))
                ent.problem.add_atoms(batch, len(ent.atoms))
                ent.atoms += batch
                made.append(ent._sync())
            assert made[0] == made[1]
            assert chaining(ents[0]) == chaining(ents[1])
