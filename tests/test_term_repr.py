"""Term repr: the dataclass text, written from a stack, cut at REPR_LIMIT
characters, so deep and shared terms print at once."""

import random
import time

from slatkit import terms
from slatkit.terms import App, Const, Leq, mk_meet


def dataclass_repr(t) -> str:
    """The repr the records would give, written recursively."""
    if isinstance(t, Const):
        return f"Const(name={t.name!r})"
    if isinstance(t, App):
        return f"App(fn={t.fn!r}, arg={dataclass_repr(t.arg)})"
    return f"Meet(args=({', '.join(dataclass_repr(a) for a in t.args)}))"


def random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Const(rng.choice(["a", "b", "c'", 'd"', "é"]))
    if rng.random() < 0.5:
        return App(rng.choice(["f", "g"]), random_term(rng, depth - 1))
    return mk_meet([random_term(rng, depth - 1) for _ in range(rng.randint(2, 3))])


def test_repr_is_the_dataclass_text_under_the_limit():
    rng = random.Random(5)
    for _ in range(500):
        t = random_term(rng, 5)
        assert repr(t) == dataclass_repr(t)
        assert repr(Leq(t, Const("z"))) == f"Leq(lhs={dataclass_repr(t)}, rhs=Const(name='z'))"
    n = 2000
    chain = Const("a")
    for _ in range(n):
        chain = App("f", chain)
    assert repr(chain) == "App(fn='f', arg=" * n + "Const(name='a')" + ")" * n


def test_a_shared_term_and_a_deep_chain_print_at_once():
    s = Const("a")
    for _ in range(60):
        s = mk_meet([App("f", s), App("g", s)])
    start = time.perf_counter()
    text = repr(s)
    assert time.perf_counter() - start < 0.1
    assert len(text) == terms.REPR_LIMIT + 3 and text.endswith("...")
    assert text.startswith("Meet(args=(App(fn='f', arg=Meet(args=(App(fn='f', arg=")
    chain = Const("a")
    for _ in range(10_000):
        chain = App("f", chain)
    assert repr(chain) == ("App(fn='f', arg=" * 10_000)[:terms.REPR_LIMIT] + "..."
