"""Kernel.pair refuses a name in a statement or a negative literal by
going down only the subterms whose constant sets show a name: a shared
side without names costs no walk, however many paths it has, and the
name refused is the one the reference kernel refuses."""

import time

import pytest

import kernel_reference
from slatkit import kernel
from slatkit.terms import App, Const, Leq, mk_meet

FUNCTIONS, DEFINITIONS = ("f", "g", "h", "k"), [("d0", App("h", Const("x")))]


def shared_side(n: int):
    """x, then D' = f(D) & g(D) n times: 2n + 1 subterms, 2^n paths, no name."""
    d = Const("x")
    for _ in range(n):
        d = mk_meet([App("f", d), App("g", d)])
    return d


def refusal(module, statement):
    with pytest.raises(module.Rejected) as e:
        module.Kernel([], [], FUNCTIONS, (), DEFINITIONS).check([], statement)
    return str(e.value)


def test_a_name_beside_a_shared_side_is_refused_at_once():
    statement = Leq(mk_meet([App("h", Const("d0")), App("k", shared_side(20))]), Const("y"))
    start = time.perf_counter()
    message = refusal(kernel, statement)
    assert time.perf_counter() - start < 0.5
    assert message == refusal(kernel_reference, statement) == "name d0 is not fresh"


def test_a_negative_literal_is_refused_at_once_too():
    negative = Leq(App("k", shared_side(20)), mk_meet([Const("y"), App("f", Const("d0"))]))
    start = time.perf_counter()
    with pytest.raises(kernel.Rejected, match="^name d0 is not fresh$"):
        kernel.Kernel([], [negative], FUNCTIONS, (), DEFINITIONS)
    assert time.perf_counter() - start < 0.5


def test_the_first_name_met_is_the_one_refused():
    # the constants of a node are read before its subterms, the last subterm first
    d1 = ("d1", App("f", Const("x")))
    for statement in (
        Leq(App("f", Const("d0")), App("g", Const("d1"))),
        Leq(mk_meet([App("f", Const("d0")), Const("d1")]), Const("y")),
        Leq(mk_meet([App("f", Const("d0")), App("g", Const("d1"))]), Const("y")),
        Leq(App("k", shared_side(6)), App("f", mk_meet([Const("d1"), App("g", Const("d0"))]))),
    ):
        got = []
        for module in (kernel, kernel_reference):
            with pytest.raises(module.Rejected) as e:
                module.Kernel([], [], FUNCTIONS, (), [*DEFINITIONS, d1]).check([], statement)
            got.append(str(e.value))
        assert got[0] == got[1]
