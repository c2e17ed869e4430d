"""The split_problem generator: two-sided ladders whose interpolations
separate mixed instances at shared terms, the paper's core step. The
draws must keep splitting, comp instances among them, and the kernel
must accept every certificate they lead to under both sharings."""

import random

from conftest import split_problem
from slatkit import interp
from slatkit.locality import NotEntailed
from slatkit.slat import NoSharedWitness


def test_split_draws_split_and_the_kernel_accepts_their_certificates():
    rng = random.Random(7)
    entailed = split = comp = checked = 0
    for _ in range(150):
        a, b, goal, axioms = split_problem(rng)
        try:
            res = interp.interpolate(a, b, goal, axioms)
        except NotEntailed:
            continue
        entailed += 1
        split += bool(res.splits)
        comp += any(s.clause.provenance[0] == "comp" for s in res.splits)
        for r in (res, *_intersection(a, b, goal, axioms)):
            interp.check_certificates(r, a, b, axioms)
            checked += 1
    assert entailed >= 60 and split >= entailed / 2 and comp > 0, (entailed, split, comp)
    assert checked > entailed


def _intersection(a, b, goal, axioms):
    """The intersection-sharing interpolation, when it exists."""
    try:
        return [interp.interpolate(a, b, goal, axioms, intersection=True)]
    except NoSharedWitness:
        return []
