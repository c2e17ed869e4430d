"""The proof kernel against its reference (kernel_reference.py): every
proof of the kernel corpus, every one-step mutant of it and every misuse
below gets the same verdict and, when rejected, the same message."""

import random

import kernel_reference
from conftest import split_problem
from slatkit import kernel
from slatkit.locality import NotEntailed, axiom_key
from slatkit.slat import NoSharedWitness
from slatkit.terms import App, Const, Leq, Meet
from test_kernel import CORPUS, interpolation_cases, mutants


def verdict(module, case, steps=None, definitions=None, atoms=None, negatives=None, statement=None):
    """("accepted", None), or the name and message of what the kernel of module raised."""
    try:
        k = module.Kernel(case.atoms if atoms is None else atoms,
                          case.negatives if negatives is None else negatives, case.axioms.functions,
                          {axiom_key(ax) for ax in case.axioms.axioms},
                          case.definitions if definitions is None else definitions)
        k.check(case.steps if steps is None else steps, case.statement if statement is None else statement)
    except module.Rejected as e:
        return "Rejected", str(e)
    except Exception as e:    # an input no rule expects: both kernels must fail alike
        return type(e).__name__, str(e)
    return "accepted", None


def same(case, **change):
    got, want = verdict(kernel, case, **change), verdict(kernel_reference, case, **change)
    assert got == want, (case.label, change.keys(), got, want)
    return got


def test_the_same_verdicts_on_the_corpus_and_every_mutant():
    accepted = rejected = 0
    for case in CORPUS:
        assert same(case) == ("accepted", None)
        accepted += 1
        for _, steps, definitions in mutants(case):
            assert same(case, steps=steps, definitions=definitions)[0] == "Rejected"
            rejected += 1
    assert accepted > 90 and rejected > 2000


def test_the_same_verdicts_on_split_draws_and_their_mutants():
    # certificates whose proofs introduce split pieces, comp pieces among them
    rng, cases = random.Random(41), []
    while len(cases) < 8:
        a, b, goal, axioms = split_problem(rng)
        try:
            cases += interpolation_cases(f"split draw {len(cases) // 2}", a, b, goal, axioms)
        except (NotEntailed, NoSharedWitness):
            continue
    rejected = 0
    for case in cases:
        assert same(case) == ("accepted", None)
        for _, steps, definitions in mutants(case):
            assert same(case, steps=steps, definitions=definitions)[0] == "Rejected"
            rejected += 1
    assert rejected > 1000 and any(step[0] == "comp" for case in cases for step in case.steps)


def misuses(case):
    """Changes to a proof's inputs that no engine run makes."""
    names = [Const(name) for name, _ in case.definitions]
    f = min(case.axioms.functions, default="f")
    other = next(iter(case.statement.rhs._consts))
    # names in premises, found by the premise fallback once the first input
    # step's number points past the shifted premises; two or three names, so
    # the message names the first one the walk of the sides meets
    for shape in (lambda x, y, z: Meet((x, App(f, y), App(f, App(f, z)))),
                  lambda x, y, z: Meet((App(f, x), App(f, App(f, Meet((y, z)))))),
                  lambda x, y, z: App(f, Meet((Const(other), x, App(f, y))))):
        for i in range(len(names) - 2):
            bad = Leq(Const(other), shape(*names[i:i + 3]))
            yield {"atoms": (*case.atoms, bad)}
            yield {"atoms": (bad, *case.atoms)}
    # a side that is no term, before or after a name, in each place a walk meets it
    for side in (5, "t"):
        yield {"atoms": (Leq(Const(other), side), *case.atoms)}
        yield {"statement": Leq(side, case.statement.rhs)}
        yield {"statement": Leq(case.statement.lhs, side)}
        yield {"negatives": (*case.negatives, Leq(side, Const(other)))}
        for x in names[:2]:
            yield {"statement": Leq(x, side)}
            yield {"statement": Leq(side, x)}
    for x in names[:3]:
        yield {"statement": Leq(x, case.statement.rhs)}
        yield {"statement": Leq(case.statement.lhs, Meet((Const(other), x)))}
        yield {"negatives": (*case.negatives, Leq(Const(other), App(f, x)))}
    # steps with a detail, a rule or premises no rule expects
    for k, (rule, atom, premises, detail) in enumerate(case.steps):
        def at(*new):
            return {"steps": [*case.steps[:k], new, *case.steps[k + 1:]]}
        yield at("mon", atom, premises, (f, 3, atom.rhs))
        yield at("mon", atom, premises, (f,))
        yield at("comp", atom, premises, (f, f, f, atom.lhs, "c"))
        yield at("incl", atom, premises, (f, f, atom.lhs))
        yield at("meet_l", atom, premises, (atom.lhs,))
        yield at("meet_r", atom, premises, ())
        yield at("cut", atom, premises, detail)
        yield at(rule, atom, (-1,) + tuple(premises), detail)
        yield at("input", atom, (), ("k",))
        yield at("input", atom, (), (k, 0))
    # definitions that are not an application or meet, or that name a function
    if names:
        yield {"definitions": ((names[0].name, Const(other)), *case.definitions[1:])}
        yield {"definitions": ((f, case.definitions[0][1]), *case.definitions[1:])}


def test_the_same_messages_on_inputs_no_engine_run_makes():
    kinds = {}
    for case in CORPUS[::7]:
        for change in misuses(case):
            name, message = same(case, **change)
            kinds[name] = kinds.get(name, 0) + 1
    assert kinds.keys() >= {"Rejected"} and kinds["Rejected"] > 500, kinds
