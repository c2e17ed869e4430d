"""Acceptance gate: one test per criterion, each with its stated bound.

The terminal summary hook in conftest prints one pass/fail line per
criterion at the end of the run.
"""

import random
import time

from conftest import DATA, rand_flat_problem, rand_slo_problem, read_data
from golden_cases import CASES, run_cli
from slatkit import beth, el, interp, locality, slat
from slatkit.el import Exists, Name, mk_and
from slatkit.inputs import parse_model, parse_slp
from slatkit.locality import AxiomSet, Composition, Inclusion
from slatkit.terms import (
    App,
    Const,
    Leq,
    mk_meet,
    parse_atom,
    term_constants,
    term_functions,
)
from test_saturate import _decide_by_passes


def atoms_of(*texts):
    return tuple(parse_atom(s) for s in texts)


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_criterion_1_intermediate_term_on_the_chain_example():
    a_atoms = atoms_of("a1 <= c1", "c2 <= a2", "a2 <= c3")
    b_atoms = atoms_of("c1 <= b1", "b1 <= c2", "c3 <= b2")
    candidates = [Const("c1"), Const("c2"), Const("c3")]

    def run():
        return slat.intermediate_term(
            slat.Entailer(a_atoms), slat.Entailer(a_atoms + b_atoms),
            Const("a1"), Const("b2"), candidates,
        )

    run()  # warm caches before timing
    term, elapsed = min((timed(run) for _ in range(5)), key=lambda p: p[1])
    assert term == Const("c1")
    assert elapsed < 0.010, f"intermediate_term took {elapsed * 1000:.2f} ms"


def test_criterion_2_two_operator_interpolation_with_split():
    a_atoms = atoms_of("d <= g(a)", "a <= c", "g(c) <= a")
    b_atoms = atoms_of("b <= d", "b <= f(b)")
    goal = parse_atom("b <= a")
    axioms = AxiomSet(("f", "g"), (Composition("f", "g", "g"),))

    def run():
        entailed, _ = locality.decide(
            locality.prepare_problem(a_atoms, b_atoms, goal, axioms))
        res = interp.interpolate(a_atoms, b_atoms, goal, axioms, verify=True)
        ok_a = locality.entails(a_atoms, b_atoms, Leq(goal.lhs, res.term), axioms)
        ok_b = locality.entails(a_atoms, b_atoms, Leq(res.term, goal.rhs), axioms)
        return entailed, res, ok_a, ok_b

    run()  # warm caches before timing
    (entailed, res, ok_a, ok_b), elapsed = timed(run)
    assert entailed is True
    assert res.term == mk_meet([Const("d"), App("f", Const("d"))])
    split, = res.splits
    assert split.t == Const("d")
    assert split.c_a.premises == (parse_atom("b <= d"),)
    assert split.c_a.conclusion == Leq(Const("f_b"), Const(split.name))
    assert split.c_b.premises == (parse_atom("d <= g_a"),)
    assert split.c_b.conclusion == Leq(Const(split.name), Const("g_a"))
    assert res.certificates is not None
    assert ok_a and ok_b
    assert elapsed < 0.100, f"decide+interpolate took {elapsed * 1000:.1f} ms"


def test_criterion_3_medical_ontology_end_to_end():
    both = el.parse_cbox(read_data("med.elp"))
    only_a = el.parse_cbox(read_data("med_A.elp"))
    only_b = el.parse_cbox(read_data("med_B.elp"))

    def run():
        subsumed = el.el_subsumes(both)
        a_alone = el.el_subsumes(only_a)
        b_alone = el.el_subsumes(only_b)
        labels = el.justify(both)
        concept = el.el_interpolate(both)
        return subsumed, a_alone, b_alone, labels, concept

    (subsumed, a_alone, b_alone, labels, concept), elapsed = timed(run)
    assert subsumed is True
    assert a_alone is False and b_alone is False
    assert set(labels) == {"A2", "A4", "A6", "A8", "A9", "A11",
                           "B1", "B4", "R2"}
    assert len(labels) == 9
    assert concept == mk_and([Name("Disease"),
                              Exists("has-location", Name("Ventricle"))])

    # the closed term set behind that interpolant: two location roles
    # over the four anatomy names
    tr = el.translate(both)
    j = locality.minimize_axioms(tr.a_atoms, tr.b_atoms, tr.goal, tr.axioms,
                                 pinned_a=tr.pinned_a, pinned_b=tr.pinned_b)
    ax_min = AxiomSet(tr.axioms.functions,
                      tuple(tr.axioms.axioms[i] for i in j.kept_axioms))
    _, est = locality.flatten_purify(
        [tr.a_atoms[i] for i in j.kept_a],
        [tr.b_atoms[i] for i in j.kept_b],
        tr.goal, axioms=ax_min)
    closed = locality.psi_closure(est, ax_min)
    assert set(closed) == {
        (r, Const(c))
        for r in ("part-of", "has-location")
        for c in ("Endocardium", "HeartWall", "LeftVentricle", "Heart")
    }
    assert elapsed < 1.0, f"ontology pipeline took {elapsed:.2f} s"


def test_criterion_4_countermodel_and_definability():
    spec = parse_model(read_data("four_point.model"))
    checks = slat.check_finite_model(
        spec.model, inclusions=spec.inclusions,
        compositions=spec.compositions, atoms=spec.atoms)
    assert all(c.passed for c in checks)

    p = parse_slp(read_data("beth_fe.slp"))
    assert beth.is_implicitly_defined(p.a_pos, p.axioms, p.sigma, p.target)

    definition = beth.explicit_definition(
        p.a_pos, p.axioms, p.sigma, p.target, sharing="theta")
    assert definition == App("f", Const("e"))
    target = Const(p.target)
    assert locality.entails(p.a_pos, (), Leq(target, definition), p.axioms)
    assert locality.entails(p.a_pos, (), Leq(definition, target), p.axioms)

    narrow = beth.explicit_definition(
        p.a_pos, p.axioms, p.sigma, p.target, sharing="intersection")
    assert isinstance(narrow, beth.Failure)

    # and rightly so: no term over the subsignature can reach the
    # target's value in this model
    a_val = spec.model.consts["a"]
    for t in beth.enumerate_terms(["g"], ["e"], 3):
        assert slat.eval_term(spec.model, t) != a_val


def test_criterion_5_oracle_equivalence():
    rng = random.Random(726)

    def run():
        mismatches = 0
        for _ in range(200):
            atoms, goal = rand_flat_problem(rng)
            if slat.entails_atom(atoms, goal) != slat.brute_force_entails(atoms, goal):
                mismatches += 1
        return mismatches

    mismatches, elapsed = timed(run)
    assert mismatches == 0
    assert elapsed < 5.0, f"200 oracle comparisons took {elapsed:.2f} s"


def test_criterion_6_property_suite():
    rng = random.Random(1009)

    # interpolation on entailed problems: certificates and signature
    drawn = []
    entailed_seen = 0
    while entailed_seen < 100:
        a, b, goal, axioms = rand_slo_problem(rng)
        problem = locality.prepare_problem(a, b, goal, axioms)
        verdict = locality.decide(problem)[0]
        drawn.append((problem, verdict))
        if not verdict:
            continue
        entailed_seen += 1
        res = interp.interpolate(a, b, goal, axioms, verify=True)
        # the kernel accepts both certificate proofs, and a fresh decision
        # of each certificate agrees with it
        interp.check_certificates(res, a, b, axioms)
        for statement, _ in res.certificates:
            assert locality.entails(a, b, statement, axioms)
        assert term_functions(res.term) <= res.sharing.shared_functions
        assert term_constants(res.term) <= res.sharing.shared_constants

    # closure laws on random term sets
    fns = ["f", "g", "h"]
    for _ in range(200):
        axs = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                axs.append(Inclusion(rng.choice(fns), rng.choice(fns)))
            else:
                axs.append(Composition(rng.choice(fns), rng.choice(fns),
                                       rng.choice(fns)))
        axioms = AxiomSet(tuple(fns), tuple(axs))
        universe = [(f, Const(c)) for f in fns for c in "abc"]
        small = rng.sample(universe, rng.randint(0, 4))
        larger = small + rng.sample(universe, rng.randint(0, 4))
        closed = set(locality.psi_closure(small, axioms))
        assert set(small) <= closed
        assert set(locality.psi_closure(closed, axioms)) == closed
        assert closed <= set(locality.psi_closure(larger, axioms))

    # the verdict does not depend on the order of the instance list
    for problem, verdict in drawn:
        instances = list(locality.instantiate(problem.axioms, problem.flat, problem.defs))
        for _ in range(20):
            rng.shuffle(instances)
            assert _decide_by_passes(problem, instances)[0] == verdict


def test_criterion_7_golden_determinism():
    for name, argv, code in CASES:
        golden = (DATA / "golden" / name).read_bytes()
        proc = run_cli(argv)
        assert proc.returncode == code, (name, proc.stderr.decode())
        assert proc.stdout == golden, name
