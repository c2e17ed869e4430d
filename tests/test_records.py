"""Records: the classes built on terms.Record and terms.Frozen keep the
constructors, ==, hash, repr, frozenness and pickling of the frozen and
plain dataclasses they replace, without generating code for any of it
but __init__."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import slatkit
from slatkit import beth, cli, el, inputs, interp, kernel, locality, slat, terms
from slatkit.locality import AxiomSet, Composition, Inclusion
from slatkit.terms import App, Const, Eq, GroundHornClause, Leq

a, b, c = Const("a"), Const("b"), Const("c")
CLAUSE = GroundHornClause((Leq(a, b),), Leq(App("f", a), App("f", b)), ("mon", "f", a, b))

# one of each kind of frozen record, with its fields in order: slotted
# atoms and clauses, records with defaults, one field, a __post_init__
FROZEN = [
    (Leq(a, b), {"lhs": a, "rhs": b}),
    (Eq(a, b), {"lhs": a, "rhs": b}),
    (CLAUSE, {"premises": (Leq(a, b),), "conclusion": Leq(App("f", a), App("f", b)),
              "provenance": ("mon", "f", a, b)}),
    (el.GCI(a, b, "A1"), {"lhs": a, "rhs": b, "label": "A1"}),
    (beth.Failure("why"), {"reason": "why"}),
    (AxiomSet(("f", "g"), (Inclusion("f", "g"),)), {"functions": ("f", "g"), "axioms": (Inclusion("f", "g"),)}),
    (interp.SharingMap((frozenset("f"),), frozenset("f")),
     {"classes": (frozenset("f"),), "shared_functions": frozenset("f"),
      "shared_constants": frozenset(), "intersection": False}),
]


def test_positional_keyword_and_default_construction():
    assert el.GCI(a, b) == el.GCI(lhs=a, rhs=b, label="") == el.GCI(a, rhs=b)
    assert Leq(rhs=b, lhs=a) == Leq(a, b)
    assert GroundHornClause((), Leq(a, b)).provenance == ("input",)
    by_keyword = GroundHornClause(conclusion=Leq(a, b), premises=(), provenance=("x",))
    assert by_keyword == GroundHornClause((), Leq(a, b), ("x",))
    assert AxiomSet(("f",)).axioms == ()
    assert interp.SharingMap((), frozenset()).intersection is False
    t = locality.Trace(passes=2)
    assert (t.fired, t.passes, t.inconsistent, t.result, t.entailer) == ([], 2, None, None, None)
    assert slat.ModelCheck("law", True) == slat.ModelCheck(law="law", passed=True, detail="")
    for build in (lambda: el.GCI(a), lambda: Leq(a, b, c), lambda: el.GCI(a, b, "", "x"),
                  lambda: locality.Trace(bogus=1), lambda: Leq(a, lhs=b)):
        with pytest.raises(TypeError):
            build()


def test_default_factories_are_never_shared():
    p, q = slat.PropHornProblem(), slat.PropHornProblem()
    for name in ("index", "clauses", "origin", "watch", "terms"):
        assert getattr(p, name) == getattr(q, name) and getattr(p, name) is not getattr(q, name)
    assert locality.Trace().fired is not locality.Trace().fired
    given: list = []
    assert locality.Trace(given).fired is given and slat.PropHornProblem(terms=given).terms is given


def test_equality_is_same_class_and_equal_compared_fields():
    assert Leq(a, b) == Leq(a, b) and Leq(a, b) != Eq(a, b) and Leq(a, b) != Leq(b, a)
    assert Leq(a, b) != (a, b) and Leq(a, b).__eq__((a, b)) is NotImplemented
    assert Inclusion("f", "g") != Composition("f", "g", "g")
    assert beth.Failure("x") == beth.Failure("x") != beth.Failure("y")
    # Trace.entailer is compare=False
    assert locality.Trace(passes=1, entailer=object()) == locality.Trace(passes=1) != locality.Trace(passes=2)
    assert slat.PropHornProblem() == slat.PropHornProblem()
    for mutable in (locality.Trace(), slat.PropHornProblem()):
        with pytest.raises(TypeError):
            hash(mutable)
    assert a == Const("a") and a != b and App("f", a) != App("g", a)


@pytest.mark.parametrize("x,fields", FROZEN, ids=lambda x: type(x).__name__)
def test_frozen_records_hash_as_frozen_dataclasses_and_refuse_changes(x, fields):
    assert hash(x) == hash(tuple(fields.values()))
    assert {f: getattr(x, f) for f in fields} == fields
    assert type(x)(**fields) == x and type(x)(*fields.values()) == x
    for name in (*fields, "fresh"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)


def test_terms_refuse_changes():
    for t in (a, App("f", a), terms.mk_meet([a, b])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.fresh = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del t._hash


def test_repr_text():
    leq = "Leq(lhs=Const(name='a'), rhs=App(fn='f', arg=Const(name='b')))"
    assert repr(Leq(a, App("f", b))) == leq
    assert repr(Eq(a, b)) == "Eq(lhs=Const(name='a'), rhs=Const(name='b'))"
    assert repr(GroundHornClause((Leq(a, App("f", b)),), Leq(a, b))) == (
        f"GroundHornClause(premises=({leq},), conclusion=Leq(lhs=Const(name='a'), rhs=Const(name='b')), "
        "provenance=('input',))")
    assert repr(beth.Failure("x")) == "Failure(reason='x')"
    assert repr(el.GCI(a, b)) == "GCI(lhs=Const(name='a'), rhs=Const(name='b'), label='')"
    assert repr(terms.mk_meet([b, a])) == "Meet(args=(Const(name='a'), Const(name='b')))"
    # repr=False fields are hidden: Trace.entailer and PurifiedProblem.purifier
    trace = locality.Trace(passes=3, entailer=object())
    assert repr(trace) == "Trace(fired=[], passes=3, inconsistent=None, result=None)"
    problem = locality.prepare_problem([Leq(a, App("f", b))], [Leq(App("f", b), c)], Leq(a, c), AxiomSet(("f",)))
    assert problem.purifier is not None and "purifier" not in repr(problem)
    assert repr(problem).startswith("PurifiedProblem(a0=(Leq(lhs=Const(name='a'), rhs=Const(name='f_b')),)")


def test_post_init_checks():
    with pytest.raises(ValueError, match="^function f declared twice$"):
        AxiomSet(("f", "f"))
    with pytest.raises(ValueError, match="^axiom uses undeclared function g$"):
        AxiomSet(("f",), (Composition("f", "f", "g"),))
    with pytest.raises(ValueError, match="^role declared twice$"):
        el.CBox(("r", "r"))
    with pytest.raises(ValueError, match="^undeclared role q$"):
        el.CBox(("r",), (el.GCI(a, App("q", b)),))
    with pytest.raises(ValueError, match="^undeclared role s$"):
        el.CBox(("r",), (), (el.RoleComp("r", "s", "r"),))


@pytest.mark.parametrize("x", [Leq(a, App("f", b)), Eq(a, b), CLAUSE, AxiomSet(("f",)), locality.Trace(passes=4)],
                         ids=lambda x: type(x).__name__)
def test_copy_deepcopy_and_pickle_round_trips(x):
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is type(x) and y == x and repr(y) == repr(x)
        if type(x).__hash__ is not None:
            assert hash(y) == hash(x)


MODULES = (terms, slat, kernel, locality, interp, beth, inputs, el, cli)


def test_no_class_in_slatkit_is_a_dataclass():
    classes = [v for m in MODULES for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__]
    assert len(classes) > 30
    assert [cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)] == []


def test_import_runs_at_most_one_exec_per_record_class():
    """A fresh `import slatkit` compiles one __init__ per record class and
    nothing else: every exec that slatkit's own code makes is counted."""
    script = (
        "import builtins, os, sys\n"
        "calls, real = [], builtins.exec\n"
        "def counting(*args, **kwargs):\n"
        "    calls.append(sys._getframe(1).f_code.co_filename)\n"
        "    return real(*args, **kwargs)\n"
        "builtins.exec = counting\n"
        "import slatkit\n"
        "from slatkit import terms\n"
        "root = os.path.dirname(slatkit.__file__)\n"
        "mods = [m for n, m in sys.modules.items() if n.startswith('slatkit')]\n"
        "records = {v for m in mods for v in vars(m).values() if isinstance(v, type)\n"
        "           and issubclass(v, terms.Record) and '__slots__' not in vars(v)}\n"
        "print(sum(f.startswith(root) for f in calls), len(records))\n"
    )
    src = os.path.dirname(os.path.dirname(slatkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    execs, records = map(int, out.split())
    assert records >= 20 and 0 < execs <= records


def test_cli_import_leaves_dataclasses_and_inspect_out():
    """The records need no dataclasses at start-up: a refused change to a
    frozen record imports it, to raise its FrozenInstanceError."""
    script = ("import sys\n"
              "import slatkit.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n"
              "try:\n"
              "    slatkit.terms.Const('a').name = 'b'\n"
              "except AttributeError as e:\n"
              "    print(type(e).__module__, type(e).__name__)\n")
    src = os.path.dirname(os.path.dirname(slatkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "dataclasses FrozenInstanceError"]
