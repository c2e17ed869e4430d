"""check_finite_model's associativity law: the quadratic bitset test on
tables whose earlier laws pass, the cubic witness search otherwise, with
the same checks as a brute-force loop."""

import itertools
import random
import time

from slatkit.inputs import parse_model
from slatkit.slat import FiniteModel, check_finite_model
from test_inputs import chain_model


def brute_force_associativity(elems, m):
    """(passed, detail) of the meet-associative law, from every triple in order."""
    for x, y, z in itertools.product(elems, repeat=3):
        if m[(m[(x, y)], z)] != m[(x, m[(y, z)])]:
            return False, f"({x} & {y}) & {z} != {x} & ({y} & {z})"
    return True, ""


def random_table(rng):
    """A closed meet table on up to five elements: the meet of a random
    intersection-closed set family, that meet with one pair changed, a
    random commutative and idempotent table, or a random table."""
    kind = rng.randrange(4)
    if kind < 2:
        sets = {frozenset(rng.sample(range(4), rng.randint(0, 4))) for _ in range(rng.randint(1, 5))}
        while any(a & b not in sets for a in sets for b in sets):
            sets |= {a & b for a in sets for b in sets}
        if len(sets) > 5:
            return random_table(rng)
        sets = sorted(sets, key=sorted)
        names = [f"e{i}" for i in range(len(sets))]
        rng.shuffle(names)
        name = dict(zip(sets, names))
        m = {(name[a], name[b]): name[a & b] for a in sets for b in sets}
        if kind == 1 and len(names) > 2:
            x, y = rng.sample(names, 2)
            m[(x, y)] = m[(y, x)] = rng.choice(names)
        return names, m
    names = [f"e{i}" for i in range(rng.randint(1, 5))]
    m = {}
    for x, y in itertools.product(names, repeat=2):
        m[(x, y)] = x if (kind == 2 and x == y) else rng.choice(names)
    if kind == 2:
        for x, y in itertools.combinations(names, 2):
            m[(y, x)] = m[(x, y)]
    return names, m


def test_associativity_matches_the_brute_force_loop():
    rng = random.Random(17)
    fast = witnessed = 0
    for _ in range(3000):
        names, m = random_table(rng)
        checks = check_finite_model(FiniteModel(tuple(names), m, {}, {}))
        assert [c.law for c in checks] == ["meet-closed", "meet-idempotent", "meet-commutative", "meet-associative"]
        got = checks[3]
        assert (got.passed, got.detail) == brute_force_associativity(names, m), (names, m)
        earlier = all(c.passed for c in checks[:3])
        fast += earlier and got.passed
        witnessed += earlier and not got.passed
    assert fast > 500 and witnessed > 200, (fast, witnessed)


def test_a_200_element_chain_is_checked_in_quadratic_time():
    model = parse_model("\n".join(chain_model(200)) + "\n").model
    start = time.perf_counter()
    checks = check_finite_model(model)
    elapsed = time.perf_counter() - start
    assert all(c.passed for c in checks) and checks[3].law == "meet-associative"
    assert elapsed < 0.5, elapsed
