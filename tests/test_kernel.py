"""The proof kernel: it accepts the proofs the engine reads off its runs
and rejects every one-step mutant of them."""

import ast
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from conftest import onto_text, rand_slo_problem, read_data
from slatkit import el, interp, kernel, locality
from slatkit.inputs import parse_slp
from slatkit.interp import interpolate, unfold
from slatkit.kernel import Rejected
from slatkit.locality import AxiomSet, Inclusion, NotEntailed
from slatkit.slat import NoSharedWitness
from slatkit.terms import Leq, Meet, expand_eqs, parse_atom, term_constants
from test_saturate import ladder


@dataclass
class Case:
    """One proof with what the kernel checks it against."""

    label: str
    atoms: tuple
    negatives: tuple
    axioms: AxiomSet
    definitions: tuple
    steps: list
    statement: Leq

    def check(self, steps=None, definitions=None):
        k = locality.proof_kernel(self.atoms, self.negatives, self.axioms,
                                  self.definitions if definitions is None else definitions)
        k.check(self.steps if steps is None else steps, self.statement)


def interpolation_cases(label, a, b, goal, axioms, neg_a=(), neg_b=()):
    res = interpolate(a, b, goal, axioms, neg_a=neg_a, neg_b=neg_b)
    return [Case(f"{label} {side}", (*a, *b), (*neg_a, *neg_b), axioms, res.definitions, steps, statement)
            for side, (statement, steps) in zip(("left", "right"), res.certificates)]


def decision_case(label, a, b, goal, axioms, neg_a=(), neg_b=()):
    problem = locality.prepare_problem(a, b, goal, axioms, neg_a=neg_a, neg_b=neg_b)
    ok, trace = locality.decide(problem)
    assert ok
    proofs = locality.ProofBuilder(problem, trace.entailer, trace.fired,
                                   locality.input_owners(problem, a, b))
    return Case(label, (*a, *b), (*neg_a, *neg_b), axioms, tuple(problem.unfold_map().items()),
                proofs.proof(proofs.conclude(trace)), goal)


def el_cases(label, text):
    """Both certificates of an EL interpolation, against the full translated premises."""
    t, r = el.translate(el.parse_cbox(text)), el.el_interpolation(el.parse_cbox(text))
    return t, [Case(f"{label} {side}", (*t.a_atoms, *t.b_atoms), (), t.axioms, r.result.definitions,
                    steps, statement)
               for side, (statement, steps) in zip(("left", "right"), r.result.certificates)]


def corpus() -> list[Case]:
    cases = []
    p = parse_slp(read_data("slo.slp"))
    cases += interpolation_cases("slo.slp", p.a_pos, p.b_pos, p.goal, p.axioms, p.a_neg, p.b_neg)
    cases.append(decision_case("slo.slp check", p.a_pos, p.b_pos, p.goal, p.axioms, p.a_neg, p.b_neg))
    t, med = el_cases("med.elp", read_data("med.elp"))
    cases += med
    cases.append(decision_case("med.elp check", t.a_atoms, t.b_atoms, t.goal, t.axioms))
    # role chains split across A and B, with distractors: comp steps over EL roles
    rng = random.Random(3)
    for k in range(6):
        cases += el_cases(f"onto {k}", onto_text(rng, rng.randint(3, 8), rng.randint(0, 12)))[1]
    for n in range(1, 13):
        cases += interpolation_cases(f"ladder({n})", *ladder(n))
    incl = AxiomSet(("f", "g"), (Inclusion("g", "f"),))
    cases.append(decision_case("inclusion", [parse_atom("a <= b")], [parse_atom("f(b) <= c")],
                               parse_atom("g(a) <= c"), incl))
    # a contradicted negative literal, with an = premise and literal
    cases.append(decision_case(
        "inconsistent", [parse_atom("a = f(s)")], [parse_atom("f(s) <= b")], parse_atom("x <= y"),
        AxiomSet(("f",)), neg_b=[parse_atom("a <= b"), parse_atom("x = a")]))
    rng, drawn = random.Random(5), 0
    while drawn < 30:
        a, b, goal, axioms = rand_slo_problem(rng)
        try:
            cases += interpolation_cases(f"draw {drawn}", a, b, goal, axioms)
        except (NotEntailed, NoSharedWitness, ValueError):
            continue
        cases.append(decision_case(f"draw {drawn} check", a, b, goal, axioms))
        drawn += 1
    return cases


CORPUS = corpus()


def meaning(case: Case):
    """A term with names unfolded: independent of the kernel."""
    names, memo = dict(case.definitions), {}
    return lambda t: unfold(t, names, memo)


def renumbered(steps, drop):
    """steps without step drop; references to it vanish, later ones shift."""
    out = []
    for k, (rule, atom, premises, detail) in enumerate(steps):
        if k != drop:
            out.append((rule, atom, tuple(p - (p > drop) for p in premises if p != drop), detail))
    return out


OTHER_ARITY = {0: "trans", 1: "meet_i", 2: "refl"}


def left_of(m):
    return m.args[0] if len(m.args) == 2 else Meet(m.args[:-1])


def mutants(case: Case):
    """(kind, steps, definitions) for one-step changes that break the proof."""
    steps, term = case.steps, meaning(case)

    def sense(atom):
        return term(atom.lhs), term(atom.rhs)

    inputs = {sense(x) for x in expand_eqs(case.atoms)}
    last = len(steps) - 1
    for k, (rule, atom, premises, detail) in enumerate(steps):
        def at(new):
            return [*steps[:k], new, *steps[k + 1:]]
        if rule != "contra":    # another negative literal may fit just as well
            for slot, p in enumerate(premises):
                q = next((q for q in range(k) if sense(steps[q][1]) != sense(steps[p][1])), None)
                if q is not None:
                    yield "wrong premise", at((rule, atom, premises[:slot] + (q,) + premises[slot + 1:], detail)), None
        yield "wrong rule", at((OTHER_ARITY[min(len(premises), 2)], atom, premises, detail)), None
        swap = {"mon": "comp", "comp": "mon", "meet_l": "meet_r", "meet_r": "meet_l"}.get(rule)
        if swap and not (rule.startswith("meet") and term(left_of(detail[0])) == term(detail[0].args[-1])):
            yield "wrong rule", at((swap, atom, premises, detail)), None
        if k < last:
            yield "dropped step", renumbered(steps, k), None
        flipped = Leq(atom.rhs, atom.lhs)
        if sense(flipped) != sense(atom) and not (rule == "input" and sense(flipped) in inputs):
            yield "swapped sides", at((rule, flipped, premises, detail)), None
        if premises:
            yield "forward reference", at((rule, atom, (k,) + premises[1:], detail)), None
    # a name that is a constant of the statement, one defined twice, one
    # defined after a definition that uses it
    outside = min(term_constants(case.statement.lhs) | term_constants(case.statement.rhs))
    defs = case.definitions
    for i, (name, body) in enumerate(defs):
        yield "non-fresh name", None, tuple((outside if n == name else n, b) for n, b in defs)
        yield "redefined name", None, (*defs, (name, body))
        j = next((j for j in range(i) if defs[j][0] in term_constants(body)), None)
        if j is not None:
            yield "name used before its definition", None, (*defs[:j], defs[i], *defs[j + 1:i], defs[j], *defs[i + 1:])


def test_the_kernel_accepts_every_proof_of_the_corpus():
    assert len(CORPUS) > 80
    rules = set()
    for case in CORPUS:
        case.check()
        rules |= {step[0] for step in case.steps}
    assert rules == {"input", "refl", "trans", "meet_l", "meet_r", "meet_i",
                     "mon", "incl", "comp", "contra"}


def test_the_kernel_rejects_every_mutant():
    kinds = {}
    for case in CORPUS:
        for kind, steps, definitions in mutants(case):
            kinds[kind] = kinds.get(kind, 0) + 1
            with pytest.raises(Rejected):
                case.check(steps, definitions)
    assert set(kinds) == {"wrong premise", "wrong rule", "dropped step", "swapped sides",
                          "forward reference", "non-fresh name", "redefined name",
                          "name used before its definition"}
    assert min(kinds.values()) >= 10, kinds


def test_the_kernel_rejects_a_statement_it_does_not_prove():
    case = next(c for c in CORPUS if c.label == "slo.slp left")
    with pytest.raises(Rejected):
        locality.proof_kernel(case.atoms, case.negatives, case.axioms, case.definitions).check(
            case.steps, Leq(case.statement.rhs, case.statement.lhs))
    # the premises matter: without them the same steps prove nothing
    with pytest.raises(Rejected):
        locality.proof_kernel((), case.negatives, case.axioms, case.definitions).check(
            case.steps, case.statement)


def test_the_kernel_checks_a_1000_level_proof_without_recursion():
    a, b, goal, axioms = ladder(1000)
    res = interpolate(a, b, goal, axioms)
    (_, steps), _ = res.certificates
    assert len(steps) > 1000
    interp.check_certificates(res, a, b, axioms)


def test_kernel_imports_only_terms_and_stays_short():
    path = Path(kernel.__file__)
    source = path.read_text(encoding="utf-8")
    assert len(source.splitlines()) <= 150
    imports = [node for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and all(
        isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "terms"
        for node in imports)
