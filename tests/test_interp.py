"""Interpolation: sharing maps, mixed-instance splitting, end-to-end
separation."""

import random
import sys

import pytest

from conftest import DATA, onto_text, rand_slo_problem, read_data, slp_text, split_problem
from slatkit import cli, el, locality
from slatkit.interp import (
    Color,
    NoSharedWitness,
    VerificationFailed,
    check_certificates,
    intersection_sharing,
    interpolate,
    theta_sharing,
    unfold,
)
from slatkit.locality import AxiomSet, Composition, Inclusion, NotEntailed
from slatkit.terms import (
    App,
    Const,
    Leq,
    Meet,
    format_atom,
    parse_atom,
    parse_term,
    term_constants,
    term_functions,
)


def atoms_of(*texts):
    return tuple(parse_atom(s) for s in texts)


def slo_axioms() -> AxiomSet:
    return AxiomSet(("f", "g"), (Composition("f", "g", "g"),))


def slo_sides():
    a = atoms_of("d <= g(a)", "a <= c", "g(c) <= a")
    b = atoms_of("b <= d", "b <= f(b)")
    return a, b


# ---------------------------------------------------------------------------
# sharing maps


def test_theta_sharing_links_axiom_cooccurrence():
    smap = theta_sharing(slo_axioms(), {"g"}, {"f"})
    assert smap.shared_functions == {"f", "g"}
    assert frozenset({"f", "g"}) in smap.classes
    assert not smap.intersection


def test_theta_sharing_is_transitive():
    axioms = AxiomSet(("f", "g", "h"),
                      (Inclusion("f", "g"), Inclusion("g", "h")))
    smap = theta_sharing(axioms, {"f"}, {"h"})
    assert smap.shared_functions == {"f", "g", "h"}


def test_theta_sharing_keeps_unrelated_apart():
    axioms = AxiomSet(("f", "g"))
    smap = theta_sharing(axioms, {"f"}, {"g"})
    assert smap.shared_functions == frozenset()


def test_intersection_sharing():
    smap = intersection_sharing(slo_axioms(), {"g"}, {"f"})
    assert smap.shared_functions == frozenset()
    assert smap.intersection
    both = intersection_sharing(slo_axioms(), {"f", "g"}, {"f"})
    assert both.shared_functions == {"f"}


# ---------------------------------------------------------------------------
# unfolding


def test_unfold_is_recursive():
    names = {"g_a": parse_term("g(a)"), "f_t": App("f", Const("g_a"))}
    assert unfold(Const("f_t"), names) == parse_term("f(g(a))")


def test_unfold_leaves_real_constants_alone():
    assert unfold(parse_term("a & b"), {}) == parse_term("a & b")


def test_unfold_rejects_a_cyclic_definition():
    names = {"u": App("f", Const("v")), "v": parse_term("a & u")}
    with pytest.raises(RuntimeError, match="cyclic definition through u"):
        unfold(parse_term("b & u"), names)


def test_unfold_follows_a_long_chain_of_names():
    # each name defined by f of the one before: 3000 levels, no recursion
    names = {f"n{i}": App("f", Const(f"n{i - 1}" if i else "a")) for i in range(3000)}
    t, depth = unfold(Const("n2999"), names), 0
    while isinstance(t, App):
        t, depth = t.arg, depth + 1
    assert (t, depth) == (Const("a"), 3000)


def unfolded_names(res):
    """Every fresh name of an interpolation run, unfolded to the input
    signature with one memo over all of them."""
    names, memo = dict(res.definitions), {}
    return {n: unfold(Const(n), names, memo) for n in names}


def _names_match_unfolding_one_at_a_time(run):
    """run() interpolates; unfolding its names with one shared memo must
    equal unfolding each name alone, and the interpolant must be its
    purified term unfolded."""
    res = run()
    names = dict(res.definitions)
    assert unfolded_names(res) == {n: unfold(Const(n), names) for n in names}
    assert res.term == unfold(res.purified_term, names)
    return res


def test_names_are_unfolded_like_one_name_at_a_time_on_ladders():
    from test_saturate import ladder
    for n in range(1, 13):
        res = _names_match_unfolding_one_at_a_time(lambda: interpolate(*ladder(n)))
        assert len(res.splits) == n - 1


def test_names_are_unfolded_like_one_name_at_a_time_on_el_translations():
    # med.elp is the one shipped ontology with an entailed goal (med_A and
    # med_B are its parts); seeded role chains add longer split chains
    texts = [read_data("med.elp"), *(onto_text(random.Random(k), 6, 12) for k in range(4))]
    for text in texts:
        p = el.parse_cbox(text)
        for minimize in (True, False):
            _names_match_unfolding_one_at_a_time(
                lambda: el.el_interpolation(p, minimize=minimize, verify=False).result)


# ---------------------------------------------------------------------------
# worked examples


def test_interpolate_pure_semilattice_chain():
    a = atoms_of("a1 <= c1", "c2 <= a2", "a2 <= c3")
    b = atoms_of("c1 <= b1", "b1 <= c2", "c3 <= b2")
    res = interpolate(a, b, parse_atom("a1 <= b2"), AxiomSet(()))
    assert res.term == Const("c1")
    assert res.splits == ()
    (left, tl), (right, tr) = res.certificates
    assert left == parse_atom("a1 <= c1") and tl[-1][1] == left
    assert right == parse_atom("c1 <= b2") and tr[-1][1] == right
    check_certificates(res, a, b, AxiomSet(()))     # the kernel accepts both


def test_interpolate_slo_example():
    a, b = slo_sides()
    res = interpolate(a, b, parse_atom("b <= a"), slo_axioms())
    assert res.term == parse_term("d & f(d)")
    assert res.purified_term == parse_term("d & f_d")

    split, = res.splits
    assert split.t == Const("d")
    assert split.name == "f_d"
    assert split.owner is Color.B
    assert split.premise == parse_atom("b <= g_a")
    # the two halves replace the mixed instance b <= g(a) -> f(b) <= g(a)
    assert split.c_a.premises == (parse_atom("b <= d"),)
    assert split.c_a.conclusion == parse_atom("f_b <= f_d")
    assert split.c_b.premises == (parse_atom("d <= g_a"),)
    assert split.c_b.conclusion == parse_atom("f_d <= g_a")

    (left, _), (right, _) = res.certificates
    assert left == Leq(Const("b"), parse_term("d & f(d)"))
    assert right == Leq(parse_term("d & f(d)"), Const("a"))


def test_interpolate_slo_under_intersection_sharing():
    a, b = slo_sides()
    with pytest.raises(NoSharedWitness):
        interpolate(a, b, parse_atom("b <= a"), slo_axioms(),
                    intersection=True)


def test_interpolate_not_entailed():
    a, _ = slo_sides()
    with pytest.raises(NotEntailed):
        interpolate(a, atoms_of("b <= f(b)"), parse_atom("b <= a"),
                    slo_axioms())


def test_interpolate_inconsistent_premises():
    with pytest.raises(ValueError):
        interpolate(atoms_of("a <= s"), atoms_of("s <= b"),
                    parse_atom("x <= y"), AxiomSet(()),
                    neg_b=atoms_of("a <= b"))


def test_interpolate_no_shared_constant():
    # entailment holds inside B alone; nothing shared can witness it
    with pytest.raises(NoSharedWitness):
        interpolate((), atoms_of("a <= b"), parse_atom("a <= b"),
                    AxiomSet(()))


def test_interpolate_deterministic():
    a, b = slo_sides()
    r1 = interpolate(a, b, parse_atom("b <= a"), slo_axioms())
    r2 = interpolate(a, b, parse_atom("b <= a"), slo_axioms())
    assert r1.term == r2.term
    assert [s.name for s in r1.splits] == [s.name for s in r2.splits]
    assert r1.fired == r2.fired


# ---------------------------------------------------------------------------
# random round trips


def entailed_problems(seed, count):
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < count * 60, "generator yields too few entailed cases"
        a, b, goal, axioms = rand_slo_problem(rng)
        try:
            res = interpolate(a, b, goal, axioms)
        except NotEntailed:
            continue
        except ValueError:
            continue        # inconsistent draw
        out.append((a, b, goal, axioms, res))
    return out


def test_random_interpolants_verify_and_stay_shared():
    from slatkit import locality

    cases = entailed_problems(20250817, 120)
    for a, b, goal, axioms, res in cases:
        (left, tl), (right, tr) = res.certificates
        check_certificates(res, a, b, axioms)      # the kernel accepts both
        # cross-check: a fresh decision agrees with the kernel
        assert locality.entails(a, b, left, axioms) and locality.entails(a, b, right, axioms)
        assert term_functions(res.term) <= res.sharing.shared_functions
        assert term_constants(res.term) <= res.sharing.shared_constants


def test_random_interpolants_certify_against_fresh_runs():
    from slatkit import locality

    for a, b, goal, axioms, res in entailed_problems(99, 40):
        left = Leq(goal.lhs, res.term)
        right = Leq(res.term, goal.rhs)
        assert locality.entails(a, b, left, axioms)
        assert locality.entails(a, b, right, axioms)


def test_interpolate_builds_as_many_entailers_at_any_ladder_length(monkeypatch):
    from slatkit import slat
    from test_saturate import ladder

    builds = []
    init = slat.Entailer.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(slat.Entailer, "__init__", counted)
    counts = []
    for n in (4, 8, 16):
        builds.clear()
        res = interpolate(*ladder(n))
        assert len(res.splits) == n - 1
        counts.append(len(builds))
    # the saturation's alone: the split steps and the interpolant read
    # their side closures off its encoding; the certificates are proofs
    # read off the saturation, checked by the kernel, not decided
    assert counts[0] == counts[1] == counts[2] == 1


def _outcome(a, b, goal, axioms):
    try:
        res = interpolate(a, b, goal, axioms, verify=False)
    except (NotEntailed, NoSharedWitness, ValueError) as e:
        return type(e), str(e)
    return res.term, res.purified_term, res.splits, res.fired, unfolded_names(res)


def test_split_steps_match_fresh_entailers(monkeypatch):
    # the reference: the candidates above a read off a fresh Entailer
    # over the atoms of that side alone, as each side's Entailer did
    from slatkit import slat
    from test_saturate import ladder

    rng = random.Random(9001)
    orig, calls = slat.intermediate_term, []

    def compared(ent, ab, a, b, candidates, sides, side):
        closure = slat.propagate(ent.problem, [ent.var(a)], sides, side)
        fresh = slat.Entailer([x for x, s in zip(ent.atoms, sides, strict=True) if s == side])
        chosen = {e for v in closure if (e := ent.problem.terms[v]) in candidates}
        want = {e for v in fresh.above(fresh.var(a)) if (e := fresh.problem.terms[v]) in candidates}
        assert chosen == want
        calls.append(sys._getframe(1).f_code.co_name)    # _fire_split or interpolate
        t = orig(ent, ab, a, b, candidates, sides, side)
        assert term_constants(t) == {c.name for c in want}    # the meet of the chosen ones
        return t

    monkeypatch.setattr(slat, "intermediate_term", compared)
    for n in range(1, 13):
        calls.clear()
        splits = _outcome(*ladder(n))[2]
        assert len(calls) == len(splits) + 1 == n
    t = el.translate(el.parse_cbox(read_data("med.elp")))
    calls.clear()
    splits = _outcome(t.a_atoms, t.b_atoms, t.goal, t.axioms)[2]
    assert len(calls) == len(splits) + 1 == 5
    draws = split_steps = 0
    while draws < 300:
        calls.clear()
        _outcome(*rand_slo_problem(rng))
        draws += bool(calls)    # a split step or the final step was compared
        split_steps += calls.count("_fire_split")
    assert split_steps >= 50


def _raw(t):
    """t rebuilt with every meet written unsorted, nested and repeated."""
    if isinstance(t, Const):
        return Const(t.name)
    if isinstance(t, App):
        return App(t.fn, _raw(t.arg))
    args = tuple(_raw(a) for a in reversed(t.args))
    return Meet((Meet(args), args[0]))


def _rebuilt(problem, atom_of):
    a, b, goal, axioms = problem
    return tuple(map(atom_of, a)), tuple(map(atom_of, b)), atom_of(goal), axioms


def _engine_outcomes(a, b, goal, axioms):
    try:
        justification = locality.minimize_axioms(a, b, goal, axioms)
    except NotEntailed as e:
        justification = str(e)
    return locality.entails(a, b, goal, axioms), _outcome(a, b, goal, axioms), justification


def test_raw_meet_inputs_give_the_results_of_parsed_ones():
    rng = random.Random(4242)
    problems = [(atoms_of("a & a1 <= s & t", "a1 <= f(a & t)"), atoms_of("t & s <= b", "g(t) <= b"),
                 parse_atom("a1 & a <= b & t"), slo_axioms())]
    problems += [rand_slo_problem(rng) for _ in range(40)]
    for problem in problems:
        parsed = _rebuilt(problem, lambda x: parse_atom(format_atom(x)))
        raw = _rebuilt(problem, lambda x: type(x)(_raw(x.lhs), _raw(x.rhs)))
        assert _engine_outcomes(*raw) == _engine_outcomes(*parsed)


def test_intersection_sharing_answers_not_entailed_as_theta_does():
    # a goal that does not follow is NotEntailed under either sharing, even
    # where coloring under intersection sharing would clash: both sharings
    # have one failure rule, a decision once separation fails
    seen = {False: set(), True: set()}
    for draw, seeds in ((rand_slo_problem, (1, 3)), (split_problem, (1, 2, 3))):
        for seed in seeds:
            rng = random.Random(seed)
            for _ in range(300):
                a, b, goal, axioms = draw(rng)
                entailed = locality.entails(a, b, goal, axioms)
                for intersection in (False, True):
                    try:
                        interpolate(a, b, goal, axioms, intersection=intersection)
                        got = "interpolant"
                    except (NotEntailed, NoSharedWitness) as e:
                        got = type(e).__name__
                    assert (got == "NotEntailed") == (not entailed), (a, b, goal, intersection)
                    seen[intersection].add(got)
    assert seen == {False: {"interpolant", "NotEntailed"},
                    True: {"interpolant", "NotEntailed", "NoSharedWitness"}}


def test_one_run_per_question(monkeypatch):
    # (locality.saturate runs, locality.prepare_problem calls): beth decides the doubled
    # goal once and interpolates; under intersection sharing the failed extraction is
    # decided once more and the search reads every generator off one run of its own
    made = []
    for name in ("saturate", "prepare_problem"):
        def counted(*args, run=getattr(locality, name), name=name, **kwargs):
            made.append(name)
            return run(*args, **kwargs)
        monkeypatch.setattr(locality, name, counted)

    def runs(call):
        made.clear()
        call()
        return made.count("saturate"), made.count("prepare_problem")

    beth = ["beth", str(DATA / "beth_fe.slp")]
    assert runs(lambda: cli.main(beth)) == (2, 2)
    for depth in ("3", "2"):
        assert runs(lambda: cli.main([*beth, "--sharing", "intersection", "--depth", depth])) == (4, 3)
    # a successful intersection interpolation is its splitting run alone
    a, b, goal, axioms = rand_slo_problem(random.Random(1))
    assert runs(lambda: interpolate(a, b, goal, axioms, intersection=True)) == (1, 1)


def test_the_cli_prints_not_entailed_under_intersection_sharing(tmp_path, capsys):
    # draw 2 of rand_slo_problem(random.Random(1)): coloring its psi-closure clashes
    rng = random.Random(1)
    for _ in range(3):
        problem = rand_slo_problem(rng)
    path = tmp_path / "draw2.slp"
    path.write_text(slp_text(*problem), encoding="utf-8")
    for sharing in ("theta", "intersection"):
        assert cli.main(["interpolate", str(path), "--sharing", sharing]) == cli.EXIT_NEGATIVE
        assert capsys.readouterr().out == "NOT-ENTAILED\n"
