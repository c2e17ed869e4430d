"""EL concept layer: parsing, translation, subsumption, justification,
concept interpolation."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import DATA, read_data
from slatkit import cli, el, locality
from slatkit.el import (
    And,
    CBox,
    ELProblem,
    Exists,
    GCI,
    Name,
    RoleComp,
    RoleIncl,
    el_interpolate,
    el_interpolation,
    el_subsumes,
    format_concept,
    justify,
    mk_and,
    parse_cbox,
    translate,
    untranslate,
)
from slatkit.interp import VerificationFailed, check_certificates, unfold
from slatkit.locality import AxiomSet, Composition
from slatkit.terms import App, Const, Leq, ParseError, parse_term

concepts = st.recursive(
    st.sampled_from("XYZ").map(Name),
    lambda sub: st.one_of(
        st.builds(Exists, st.sampled_from(["r", "s"]), sub),
        st.lists(sub, min_size=1, max_size=3).map(mk_and),
    ),
    max_leaves=8,
)


def med() -> ELProblem:
    return parse_cbox(read_data("med.elp"))


SLO_ELP = """\
roles f g
ri f o g <= g
side A
d <= ex g . a
a <= c
ex g . c <= a
side B
b <= d
b <= ex f . b
goal b <= a
"""


# ---------------------------------------------------------------------------
# concepts and terms


@given(concepts)
def test_concept_term_round_trip(c):
    assert untranslate(c, ["r", "s"]) == c
    text = f"roles r s\ngoal {format_concept(c)} <= X"
    assert parse_cbox(text).goal_c == c


def test_term_concept_shapes():
    assert Name("X") == Const("X")
    assert Exists("r", Name("X")) == App("r", Const("X"))
    assert untranslate(parse_term("r(r(X))"), ["r"]) == Exists("r", Exists("r", Name("X")))
    got = untranslate(parse_term("X & r(Y)"), ["r"])
    assert got == mk_and([Name("X"), Exists("r", Name("Y"))])


def test_untranslate_rejects_non_role_functions():
    with pytest.raises(ValueError):
        untranslate(parse_term("f(X)"), ["r"])


def test_untranslate_names_the_first_non_role_in_term_order():
    # the set {f, g, h} iterates in an order that follows PYTHONHASHSEED
    with pytest.raises(ValueError, match="^not a role: f$"):
        untranslate(parse_term("f(g(h(X)))"), ["r"])
    with pytest.raises(ValueError, match="^not a role: k$"):
        untranslate(parse_term("r(X) & k(h(Y)) & g(X)"), ["r", "g"])


def test_format_concept():
    c = mk_and([Exists("r", mk_and([Name("A"), Name("B")])), Name("C")])
    assert format_concept(c) == "C & ex r . (A & B)"
    assert format_concept(Exists("r", Exists("s", Name("A")))) == "ex r . ex s . A"


def test_format_concept_of_a_1000_deep_concept():
    # past the recursion limit for a formatter that recurses per level
    c = Name("D0")
    for _ in range(1000):
        c = Exists("r", c)
    assert format_concept(c) == "ex r . " * 1000 + "D0"


def test_cbox_validates_roles():
    with pytest.raises(ValueError):
        CBox(("r",), (), (RoleIncl("r", "q"),))
    with pytest.raises(ValueError):
        CBox(("r",), (), (RoleComp("r", "r", "q"),))


def test_cbox_names_the_first_undeclared_role_whatever_the_hash_seed():
    # GCI order, then term order: lhs before rhs, depth first, left to
    # right over the normal form r(A) & t(C) & u(s(B)); a union of the
    # role frozensets names q, s, t or u as PYTHONHASHSEED has it
    script = (
        "from slatkit.el import CBox, GCI\n"
        "from slatkit.terms import parse_term\n"
        "gcis = (GCI(parse_term('A'), parse_term('r(B)')),\n"
        "        GCI(parse_term('r(A) & u(s(B)) & t(C)'), parse_term('q(C)')))\n"
        "try:\n"
        "    CBox(('r',), gcis)\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    for seed in range(5):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "undeclared role t\n", f"PYTHONHASHSEED={seed}"


# ---------------------------------------------------------------------------
# parsing


def test_parse_med_shape():
    p = med()
    assert p.cbox_a.roles == ("part-of", "has-location", "acts-on")
    assert len(p.cbox_a.gcis) == 12
    assert len(p.cbox_b.gcis) == 4
    assert len(p.cbox_a.ris) == 2
    assert [g.label for g in p.cbox_a.gcis] == [f"A{i}" for i in range(1, 13)]
    assert [g.label for g in p.cbox_b.gcis] == [f"B{i}" for i in range(1, 5)]
    assert [r.label for r in p.cbox_a.ris] == ["R1", "R2"]
    assert p.goal_c == Name("Endocarditis")
    assert p.goal_d == Name("HeartDisease")


def test_parse_goal_only_problem():
    p = parse_cbox("goal X <= X")
    assert p.cbox_a.gcis == () and p.cbox_b.gcis == ()
    assert el_subsumes(p)
    assert el_interpolate(p) == Name("X")


@pytest.mark.parametrize("text,what", [
    ("side A\nex r . X <= Y\ngoal X <= Y", "undeclared role"),
    ("roles r\nside A\nX & ri <= Y\ngoal X <= Y", "reserved word"),
    ("roles r\nX <= Y\ngoal X <= Y", "inside 'side"),
    ("roles r\nside A\nside C\ngoal X <= Y", "side A"),
    ("roles r\nside A\nri r <= r\ngoal X <= Y", "precede"),
    ("roles r\ngoal X <= Y\nside A", "follow the goal"),
    ("roles r\nroles r\ngoal X <= Y", "declared twice"),
    ("side A\nX <= Y", "missing goal"),
])
def test_parse_errors(text, what):
    with pytest.raises(ParseError) as e:
        parse_cbox(text)
    assert what in str(e.value)


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_cbox("roles r\nside A\nX <= ex q . Y\ngoal X <= Y")
    assert (e.value.line, e.value.column) == (3, 9)


@pytest.mark.parametrize("text,role,column", [
    ("roles r\nri r o s <= r\ngoal X <= X", "s", 8),
    ("roles r\nri r o r <= t\ngoal X <= X", "t", 13),
    ("roles r s\nri q o u <= s\ngoal X <= X", "q", 4),
])
def test_ri_undeclared_role_position(text, role, column):
    # the first undeclared role in line order, at its own column
    with pytest.raises(ParseError) as e:
        parse_cbox(text)
    assert (e.value.message, e.value.line, e.value.column) == (f"undeclared role {role}", 2, column)


def test_role_concept_namespace_collision():
    with pytest.raises(ValueError):
        parse_cbox("roles r\nside A\nr <= X\ngoal X <= X")
    with pytest.raises(ValueError):
        parse_cbox("roles r\ngoal r <= r")


@pytest.mark.parametrize("text,line,column", [
    ("roles r\nside A\nr <= X\ngoal X <= X", 3, 1),
    ("roles r\ngoal r <= r", 2, 6),
    ("roles r\nside A\nX <= ex r . (Y & r)\ngoal X <= X", 3, 18),
])
def test_role_concept_collision_position(text, line, column):
    with pytest.raises(ParseError) as e:
        parse_cbox(text)
    assert e.value.message == "r used as both role and concept name"
    assert (e.value.line, e.value.column) == (line, column)


# ---------------------------------------------------------------------------
# translation


def test_translate_med():
    tr = translate(med())
    assert tr.roles == ("part-of", "has-location", "acts-on")
    assert tr.a_labels == tuple(f"A{i}" for i in range(1, 13))
    assert tr.axiom_labels == ("R1", "R2")
    assert tr.axioms.axioms == (
        Composition("part-of", "part-of", "part-of"),
        Composition("has-location", "part-of", "has-location"),
    )
    assert tr.a_atoms[1] == Leq(Const("Endocardium"),
                                App("part-of", Const("HeartWall")))
    assert tr.goal == Leq(Const("Endocarditis"), Const("HeartDisease"))
    # both goal sides are names: no binding atoms past the labelled ones
    assert len(tr.a_atoms) == len(tr.a_labels) and len(tr.b_atoms) == len(tr.b_labels)


def test_translate_binds_complex_goal_sides():
    p = parse_cbox(
        "roles r\n"
        "side A\nA1c <= ex r . Shared\n"
        "side B\nex r . Shared <= B1c\n"
        "goal ex r . Shared <= B1c\n"
    )
    tr = translate(p)
    assert isinstance(tr.goal.lhs, Const)
    bound = tr.goal.lhs.name
    assert bound.startswith("goalA")
    # the binding pair sits past A's labelled inclusion
    assert tr.a_atoms[len(tr.a_labels):] == (Leq(Const(bound), p.goal_c), Leq(p.goal_c, Const(bound)))
    assert tr.goal.rhs == Const("B1c")


def test_translate_dedupes_role_axioms():
    # both cboxes carry the shared RIs; the axiom list keeps one copy
    tr = translate(med())
    assert len(tr.axioms.axioms) == 2


# ---------------------------------------------------------------------------
# subsumption and justification


def test_med_subsumption():
    p = med()
    assert el_subsumes(p)
    a_only = ELProblem(p.cbox_a, CBox(p.cbox_b.roles, (), p.cbox_b.ris),
                       p.goal_c, p.goal_d)
    b_only = ELProblem(CBox(p.cbox_a.roles, (), p.cbox_a.ris), p.cbox_b,
                       p.goal_c, p.goal_d)
    assert not el_subsumes(a_only)
    assert not el_subsumes(b_only)


def test_med_justification():
    assert justify(med()) == ["A2", "A4", "A6", "A8", "A9", "A11",
                               "B1", "B4", "R2"]


def test_justify_not_entailed_returns_none():
    p = parse_cbox("roles r\nside A\nX <= Y\ngoal Y <= X")
    assert justify(p) is None


def test_justify_singleton():
    p = parse_cbox("side A\nX <= Y\nY <= X\ngoal X <= Y")
    assert justify(p) == ["A1"]


# ---------------------------------------------------------------------------
# concept interpolation


def test_med_interpolant():
    want = mk_and([Name("Disease"),
                   Exists("has-location", Name("Ventricle"))])
    assert el_interpolate(med()) == want
    assert format_concept(want) == "Disease & ex has-location . Ventricle"


def test_med_interpolant_same_without_prepass():
    p = med()
    assert el_interpolate(p, minimize=True) == el_interpolate(p, minimize=False)


def test_med_interpolation_evidence():
    r = el_interpolation(med())
    assert r.justification == ("A2", "A4", "A6", "A8", "A9", "A11",
                               "B1", "B4", "R2")
    split, = r.result.splits
    assert split.t == Const("Ventricle")
    assert split.owner.value == "A"
    # verification checked the run's own proofs, and they hold against
    # the full, unminimized translated premises
    tr = translate(med())
    (left, _), (right, _) = r.result.certificates
    assert left == Leq(tr.goal.lhs, r.concept) and right == Leq(r.concept, tr.goal.rhs)
    check_certificates(r.result, tr.a_atoms, tr.b_atoms, tr.axioms)


def test_med_certificate_inputs_are_numbered_for_every_check(monkeypatch):
    """Each input step names its premise's position in the premises of
    the kernel that checks it: the minimised lists inside interpolate, the
    full translated lists in the returned result."""
    from slatkit import kernel

    hits: dict[int, list[bool]] = {}
    is_input = kernel.Kernel._is_input

    def counting(self, concl, k):
        hits.setdefault(id(self), []).append(0 <= k < len(self.atoms) and self.pair(self.atoms[k], True) == concl)
        return is_input(self, concl, k)

    monkeypatch.setattr(kernel.Kernel, "_is_input", counting)
    r = el_interpolation(med())
    # interpolate's check of both certificates against the kept premises
    assert len(hits) == 1 and all(h and all(h) for h in hits.values())
    tr, names = translate(med()), dict(r.result.definitions)
    full, memo = (*tr.a_atoms, *tr.b_atoms), {}
    for _, steps in r.result.certificates:
        for rule, x, _, (k, *_) in (s for s in steps if s[0] == "input"):
            assert full[k] == Leq(unfold(x.lhs, names, memo), unfold(x.rhs, names, memo))


@pytest.mark.parametrize("verify", [True, False])
def test_med_interpolation_builds_one_proof_and_one_kernel(monkeypatch, verify):
    """Verified, the certificates are the one checked evidence: the
    justification builds no proof of its own. Unverified, minimize_axioms
    still builds and checks it. justify always does."""
    from slatkit import kernel

    built: list[str] = []

    def counted(name, method):
        def wrapper(self, *args, **kwargs):
            built.append(name)
            return method(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(locality.ProofBuilder, "__init__", counted("proofs", locality.ProofBuilder.__init__))
    monkeypatch.setattr(kernel.Kernel, "__init__", counted("kernel", kernel.Kernel.__init__))
    monkeypatch.setattr(kernel.Kernel, "check", counted("check", kernel.Kernel.check))
    r = el_interpolation(med(), verify=verify)
    assert r.justification == ("A2", "A4", "A6", "A8", "A9", "A11", "B1", "B4", "R2")
    assert built == (["proofs", "kernel", "check", "check"] if verify else ["proofs", "kernel", "check"])
    built.clear()
    assert justify(med()) == list(r.justification)
    assert built == ["proofs", "kernel", "check"]


@pytest.mark.parametrize("verify", [True, False])
def test_a_deletion_that_drops_a_needed_input_is_an_engine_error(monkeypatch, verify):
    """Kept inputs that do not entail the goal raise RuntimeError (exit 3),
    never NotEntailed: the ontology entails the goal."""
    minimize = locality._minimize

    def faulty(*args):
        j, check_proof = minimize(*args)
        return locality.Justification(j.kept_a[1:], j.kept_b, j.kept_neg_a, j.kept_neg_b, j.kept_axioms), check_proof

    monkeypatch.setattr(locality, "_minimize", faulty)
    with pytest.raises(RuntimeError, match="kept inputs do not entail the goal"):
        el_interpolation(med(), verify=verify)
    monkeypatch.chdir(DATA)
    argv = ["interpolate", "med.elp"] + ([] if verify else ["--no-verify"])
    assert cli.main(argv) == cli.EXIT_ENGINE


def test_med_psi_closure_shape():
    """With the justification core, the closure is exactly the two
    location roles over the four anatomy names."""
    tr = translate(med())
    j = locality.minimize_axioms(tr.a_atoms, tr.b_atoms, tr.goal, tr.axioms)
    a_min = [tr.a_atoms[i] for i in j.kept_a]
    b_min = [tr.b_atoms[i] for i in j.kept_b]
    ax_min = AxiomSet(tr.axioms.functions,
                      tuple(tr.axioms.axioms[i] for i in j.kept_axioms))
    _, est = locality.flatten_purify(a_min, b_min, tr.goal, axioms=ax_min)
    closed = locality.psi_closure(est, ax_min)
    anatomy = ("Endocardium", "HeartWall", "LeftVentricle", "Heart")
    assert set(closed) == {(r, Const(c))
                          for r in ("part-of", "has-location")
                          for c in anatomy}


def test_slo_as_el_without_prepass_matches_term_pipeline():
    p = parse_cbox(SLO_ELP)
    got = el_interpolate(p, minimize=False)
    assert got == mk_and([Name("d"), Exists("f", Name("d"))])


def test_slo_as_el_prepass_still_verifies():
    # the pre-pass may shrink the interpolant (here the f-atom drops
    # out), but the result must still pass both certificates
    p = parse_cbox(SLO_ELP)
    got = el_interpolate(p, minimize=True)
    assert got == Name("d")
    r = el_interpolation(p, minimize=True, verify=True)
    assert r.concept == got


def test_prepass_never_changes_the_boolean():
    cases = [med(), parse_cbox(SLO_ELP), parse_cbox("goal X <= X"),
             parse_cbox("roles r\nside A\nX <= ex r . S\n"
                        "side B\nex r . S <= Y\ngoal X <= Y")]
    for p in cases:
        assert el_subsumes(p)
        r_direct = el_interpolation(p, minimize=False)
        r_mini = el_interpolation(p, minimize=True)
        assert r_direct.concept is not None and r_mini.concept is not None


def test_interpolate_uses_only_shared_vocabulary():
    p = parse_cbox("roles r\nside A\nX <= ex r . S\n"
                   "side B\nex r . S <= Y\ngoal X <= Y")
    got = el_interpolate(p)
    assert got == Exists("r", Name("S"))


def test_interpolation_verification_can_be_disabled():
    r = el_interpolation(med(), verify=False)
    assert r.result.certificates is None


def test_not_entailed_raises():
    p = parse_cbox("roles r\nside A\nX <= Y\ngoal Y <= X")
    with pytest.raises(locality.NotEntailed):
        el_interpolate(p)
