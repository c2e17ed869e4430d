"""Interpolation: sharing maps, mixed-instance splitting, end-to-end
separation."""

import random

import pytest

from conftest import onto_text, rand_slo_problem, read_data
from slatkit import el, interp, locality
from slatkit.interp import (
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
    Color,
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


def _names_match_unfolding_one_at_a_time(monkeypatch, run):
    """run() interpolates; its names map must equal unfolding each name alone."""
    maps = []

    def recorded(term, names, memo=None):
        maps.append(names)
        return unfold(term, names, memo)

    monkeypatch.setattr(interp, "unfold", recorded)
    res = run()
    raw = maps[-1]
    assert res.names == {n: unfold(Const(n), raw) for n in raw}
    return res


def test_names_are_unfolded_like_one_name_at_a_time_on_ladders(monkeypatch):
    from test_saturate import ladder
    for n in range(1, 13):
        res = _names_match_unfolding_one_at_a_time(monkeypatch, lambda: interpolate(*ladder(n)))
        assert len(res.splits) == n - 1


def test_names_are_unfolded_like_one_name_at_a_time_on_el_translations(monkeypatch):
    # med.elp is the one shipped ontology with an entailed goal (med_A and
    # med_B are its parts); seeded role chains add longer split chains
    texts = [read_data("med.elp"), *(onto_text(random.Random(k), 6, 12) for k in range(4))]
    for text in texts:
        p = el.parse_cbox(text)
        for minimize in (True, False):
            _names_match_unfolding_one_at_a_time(
                monkeypatch, lambda: el.el_interpolation(p, minimize=minimize, verify=False).result)


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
    # the saturation and one growing Entailer per side the split steps
    # and the interpolant need (here B's alone); the certificates are
    # proofs read off the saturation, checked by the kernel, not decided
    assert counts[0] == counts[1] == counts[2] == 2


def _outcome(a, b, goal, axioms):
    try:
        res = interpolate(a, b, goal, axioms, verify=False)
    except (NotEntailed, NoSharedWitness, ValueError) as e:
        return type(e), str(e)
    return res.term, res.purified_term, res.splits, res.fired, res.names


def test_split_steps_match_fresh_entailers(monkeypatch):
    # the reference: intermediate_term on fresh Entailers built from the
    # atoms each growing Entailer holds
    from slatkit import el, slat
    from test_saturate import ladder

    rng = random.Random(9001)
    problems = [ladder(n) for n in range(1, 13)]
    for name in ("med.elp", "med_A.elp", "med_B.elp"):
        t = el.translate(el.parse_cbox(read_data(name)))
        problems.append((t.a_atoms, t.b_atoms, t.goal, t.axioms))
    entailed = 0
    while entailed < 300:
        problem = rand_slo_problem(rng)
        if _outcome(*problem)[0] is not NotEntailed:
            problems.append(problem)
            entailed += 1
    want = [_outcome(*p) for p in problems]
    orig = slat.intermediate_term

    def fresh(ent, ab, *args):
        return orig(slat.Entailer(ent.atoms), slat.Entailer(ab.atoms), *args)

    monkeypatch.setattr(slat, "intermediate_term", fresh)
    assert [_outcome(*p) for p in problems] == want


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
