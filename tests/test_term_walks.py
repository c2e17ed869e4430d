"""Shared terms are walked once per distinct subterm.

shared("a") below is a 60-level shared term, t' = f(t) & g(t): 181
distinct subterms, but a tree of about 2^62 nodes. Every command that
evaluates, decides, checks or unfolds such a term must cost its distinct
subterms, so each case runs under a 0.5 s interval timer, which fails it
instead of letting a walk of the tree run for ages.
"""

import random
import signal
from contextlib import contextmanager

import pytest

from slatkit import el, locality, terms
from slatkit.interp import unfold
from slatkit.locality import AxiomSet
from slatkit.slat import FiniteModel, check_finite_model, eval_term
from slatkit.terms import App, Const, Leq, Meet, mk_meet

BOUND = 0.5   # seconds per case


@contextmanager
def within(seconds=BOUND):
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def shared(base: str, levels: int = 60):
    t = Const(base)
    for _ in range(levels):
        t = mk_meet([App("f", t), App("g", t)])
    return t


def chain(t, n: int, fn: str = "f"):
    for _ in range(n):
        t = App(fn, t)
    return t


def two_point(a: str) -> FiniteModel:
    """0 < 1, f the identity, g constantly 1."""
    return FiniteModel(("0", "1"), {(x, y): min(x, y) for x in "01" for y in "01"},
                       {"f": {"0": "0", "1": "1"}, "g": {"0": "1", "1": "1"}}, {"a": a})


F_AND_G = AxiomSet(("f", "g"))


def test_eval_term_of_a_shared_term_and_its_first_unbound_symbol():
    t = shared("a")
    with within():
        assert eval_term(two_point("0"), t) == "0"
        assert eval_term(two_point("1"), t) == "1"
        # k(a) sorts after f(...) and g(...): the walk to it passes both
        with pytest.raises(ValueError, match="uninterpreted function k"):
            eval_term(two_point("0"), mk_meet([t, App("k", Const("a"))]))
        with pytest.raises(ValueError, match="unbound constant z"):
            eval_term(two_point("0"), mk_meet([t, App("f", App("g", Const("z")))]))


def test_check_finite_model_evaluates_an_atom_over_a_shared_term():
    # the right side names an unbound constant, met after the left side
    with within(), pytest.raises(ValueError, match="unbound constant z"):
        check_finite_model(two_point("0"), atoms=[Leq(shared("a"), Const("z"))])


def test_entails_over_a_shared_term():
    ta, tb = shared("a"), shared("b")
    with within():
        # each side's pure term unfolds back to it, through a few names per level
        problem, _ = locality.flatten_purify([Leq(ta, Const("c"))], [Leq(tb, Const("c"))],
                                             Leq(tb, ta), axioms=F_AND_G)
        names = problem.unfold_map()
        assert len(names) <= 12 * 61
        assert [unfold(s, names) for s in (problem.a0[0].lhs, problem.b0[0].lhs)] == [ta, tb]
        assert [unfold(s, names) for s in (problem.goal.lhs, problem.goal.rhs)] == [tb, ta]
        assert locality.entails([Leq(ta, Const("c"))], [Leq(Const("b"), Const("a"))],
                                Leq(tb, Const("c")), F_AND_G)
        assert not locality.entails([Leq(ta, Const("c"))], [Leq(Const("a"), Const("b"))],
                                    Leq(tb, Const("c")), F_AND_G)


def test_entails_names_an_undeclared_function_below_a_shared_term():
    t = mk_meet([shared("a"), App("k", Const("a"))])
    with within(), pytest.raises(ValueError, match="undeclared function k"):
        locality.entails([Leq(t, Const("c"))], [], Leq(t, Const("c")), F_AND_G)


def test_untranslate_names_a_non_role_below_a_shared_term():
    t = mk_meet([shared("a"), App("k", Const("a"))])
    with within(), pytest.raises(ValueError, match="not a role: k"):
        el.untranslate(t, ("f", "g"))


def test_unfold_of_a_3000_level_chain():
    deep = chain(Const("a"), 3000)
    names = {f"n{i}": App("f", Const(f"n{i - 1}" if i else "a")) for i in range(3000)}
    with within():
        assert unfold(deep, {}) is deep
        # through the names, then 3000 more levels above the last one
        assert unfold(chain(Const("n2999"), 3000), names) is chain(Const("a"), 6000)
        memo = {}
        assert unfold(Const("n1499"), names, memo) is chain(Const("a"), 1500)
        assert unfold(chain(Const("n2999"), 1), names, memo) is chain(Const("a"), 3001)


# ---------------------------------------------------------------------------
# the walks against recursive definitions


def random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Const(rng.choice("abcz"))
    if rng.random() < 0.5:
        return App(rng.choice("fgk"), random_term(rng, depth - 1))
    return mk_meet([random_term(rng, depth - 1) for _ in range(rng.randint(2, 3))])


def tree(t):
    """Every node of t's tree, parents first, left to right, by recursion."""
    yield t
    for x in (t.arg,) if isinstance(t, App) else t.args if isinstance(t, Meet) else ():
        yield from tree(x)


def children_first(t, seen):
    """Every distinct subterm not in seen, children first, left to right."""
    if t not in seen:
        for x in (t.arg,) if isinstance(t, App) else t.args if isinstance(t, Meet) else ():
            yield from children_first(x, seen)
        seen.add(t)
        yield t


def value(model, t):
    if isinstance(t, Const):
        return model.consts[t.name]
    if isinstance(t, App):
        return model.funcs[t.fn][value(model, t.arg)]
    vals = [value(model, x) for x in t.args]
    for w in vals[1:]:
        vals[0] = model.meet[(vals[0], w)]
    return vals[0]


def test_walks_match_their_recursive_definitions():
    rng = random.Random(7)
    model = FiniteModel(("0", "1"), two_point("0").meet, two_point("0").funcs, {"a": "0", "b": "1", "c": "1"})
    for _ in range(500):
        ts = [random_term(rng, 5) for _ in range(rng.randint(1, 3))]
        first = list(dict.fromkeys(x for t in ts for x in tree(t)))
        assert list(terms.pre_order(*ts)) == first
        assert list(terms.functions_in_order(*ts)) == [x.fn for x in first if isinstance(x, App)]
        # a memo that holds some subterms already: they and their parts are skipped
        held = {x: None for x in first if rng.random() < 0.2}
        seen, got = set(held), []
        want = [x for t in ts for x in children_first(t, seen)]
        for t in ts:
            for x in terms.post_order(t, held):
                held[x] = None
                got.append(x)
        assert got == want
        t = ts[0]
        bad = [x for x in dict.fromkeys(tree(t)) if isinstance(x, Const) and x.name not in model.consts
               or isinstance(x, App) and x.fn not in model.funcs]
        if bad:
            what = (f"unbound constant {bad[0].name}" if isinstance(bad[0], Const)
                    else f"uninterpreted function {bad[0].fn}")
            with pytest.raises(ValueError, match=f"^{what}$"):
                eval_term(model, t)
        else:
            assert eval_term(model, t) == value(model, t)
