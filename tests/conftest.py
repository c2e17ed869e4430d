"""Shared test data paths, the brute force oracle and random problem generators."""

import itertools
import random
from pathlib import Path

from slatkit import locality
from slatkit.locality import AxiomSet, Composition, Inclusion
from slatkit.terms import App, Const, Eq, Leq, Meet, expand_eqs, format_atom, format_term, mk_meet, term_constants

DATA = Path(__file__).parent / "data"


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion."""
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid or "criterion" not in nodeid:
                continue
            if getattr(rep, "when", "call") == "call" or outcome == "error":
                name = nodeid.split("::")[-1]
                rows[name] = rows.get(name, True) and outcome == "passed"
    if rows:
        terminalreporter.section("acceptance criteria")
        for name in sorted(rows):
            terminalreporter.write_line(
                f"{name}: {'PASS' if rows[name] else 'FAIL'}")


def read_data(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def proof_support(problem, trace, a_atoms, b_atoms) -> dict[str, set[int]]:
    """Input positions one proof found by a successful saturate() uses.

    The positions, per argument ("a", "b", "na", "nb", "ax"), are the
    leaves of the trace's proof (locality.ProofBuilder): the inputs its
    input steps stand for (an = input for two atoms), the negative
    literal found contradicted, and for each incl or comp step every
    axiom with its schema and functions. Binder atoms are definitions and
    mon needs no axiom. The trace must come from decide(), whose fire
    adds just each conclusion; else ValueError.
    """
    owners = locality.input_owners(problem, a_atoms, b_atoms)
    proofs = locality.ProofBuilder(problem, trace.entailer, trace.fired, owners)
    return proofs.support(proofs.conclude(trace))


def entails_with_support(a_atoms, b_atoms, goal, axioms, *, neg_a=(), neg_b=()):
    """The verdict of locality.entails, and the proof_support of the
    decision when it is entailed ({} when not)."""
    problem = locality.prepare_problem(a_atoms, b_atoms, goal, axioms, neg_a=neg_a, neg_b=neg_b)
    result, trace = locality.decide(problem)
    return result, proof_support(problem, trace, a_atoms, b_atoms) if result else {}


def brute_force_entails(atoms, goal) -> bool:
    """Entailment by enumerating all {0, 1} valuations of the constants.

    Only constants and meets are allowed; function applications must have
    been purified away. Limited to 20 constants.
    """
    leqs = expand_eqs(atoms)
    names: set[str] = set()
    for a in (*leqs, goal):
        for side in (a.lhs, a.rhs):
            _check_flat(side)
            names |= term_constants(side)
    consts = sorted(names)
    if len(consts) > 20:
        raise ValueError(f"too many constants for brute force: {len(consts)} > 20")
    goals = expand_eqs([goal])
    for values in itertools.product((0, 1), repeat=len(consts)):
        env = dict(zip(consts, values))
        if all(_eval01(a.lhs, env) <= _eval01(a.rhs, env) for a in leqs):
            if not all(_eval01(g.lhs, env) <= _eval01(g.rhs, env) for g in goals):
                return False
    return True


def _check_flat(t) -> None:
    if isinstance(t, App):
        raise ValueError(f"function application in brute force input: {format_term(t)}")
    if isinstance(t, Meet):
        for a in t.args:
            _check_flat(a)


def _eval01(t, env: dict[str, int]) -> int:
    if isinstance(t, Const):
        return env[t.name]
    return min(_eval01(a, env) for a in t.args)


def rand_flat_term(rng: random.Random, consts, max_width: int = 3):
    width = rng.randint(1, max_width)
    return mk_meet(Const(rng.choice(consts)) for _ in range(width))


def rand_flat_atom(rng: random.Random, consts):
    lhs = rand_flat_term(rng, consts)
    rhs = rand_flat_term(rng, consts)
    if rng.random() < 0.15:
        return Eq(lhs, rhs)
    return Leq(lhs, rhs)


def rand_flat_problem(rng: random.Random):
    """Constant-only atom set plus goal, within the brute force budget."""
    consts = [f"c{i}" for i in range(rng.randint(2, 8))]
    atoms = tuple(rand_flat_atom(rng, consts) for _ in range(rng.randint(1, 12)))
    return atoms, rand_flat_atom(rng, consts)


def rand_term(rng: random.Random, consts, fns, depth: int = 2):
    if depth == 0 or not fns or rng.random() < 0.55:
        return rand_flat_term(rng, consts, 2)
    return App(rng.choice(fns), rand_term(rng, consts, fns, depth - 1))


def rand_axioms(rng: random.Random, fns) -> AxiomSet:
    axioms = []
    for _ in range(rng.randint(0, 3)):
        if len(fns) >= 2 and rng.random() < 0.5:
            f, g = rng.sample(fns, 2)
            axioms.append(Inclusion(f, g))
        elif fns:
            axioms.append(Composition(rng.choice(fns), rng.choice(fns),
                                      rng.choice(fns)))
    return AxiomSet(tuple(fns), tuple(axioms))


def rand_slo_problem(rng: random.Random):
    """Two-sided problem over a small mixed signature.

    Constants are partitioned up front (a* only on side A, b* only on
    side B, s* anywhere) so coloring never clashes. Most draws also
    plant a bridge from the goal endpoints through a shared constant,
    which keeps the entailed fraction high enough to exercise the
    interpolation path.
    """
    shared = [f"s{i}" for i in range(rng.randint(1, 2))]
    a_priv = [f"a{i}" for i in range(rng.randint(1, 2))]
    b_priv = [f"b{i}" for i in range(rng.randint(1, 2))]
    fns = ["f", "g", "h"][: rng.randint(0, 3)]
    axioms = rand_axioms(rng, fns)
    a_vocab = a_priv + shared
    b_vocab = b_priv + shared
    a_atoms = [Leq(rand_term(rng, a_vocab, fns), rand_term(rng, a_vocab, fns))
               for _ in range(rng.randint(2, 4))]
    b_atoms = [Leq(rand_term(rng, b_vocab, fns), rand_term(rng, b_vocab, fns))
               for _ in range(rng.randint(2, 4))]
    goal = Leq(Const(rng.choice(a_priv)), Const(rng.choice(b_priv)))
    if rng.random() < 0.7:
        s = Const(rng.choice(shared))
        a_atoms.append(Leq(goal.lhs, s))
        b_atoms.append(Leq(s, goal.rhs))
    return tuple(a_atoms), tuple(b_atoms), goal, axioms


def split_problem(rng: random.Random):
    """A two-sided ladder whose interpolation splits mixed instances.

    A climbs a{i+1} <= f(a{i}) and B climbs g(b{i}) <= b{i+1} to the goal
    a{n} <= b{n}, where g is f or f's inclusion partner (f(x) <= g(x)).
    The bottom rungs meet through b0 (a0 <= b0 on A) or through a shared
    s0 (a0 <= s0 on A, s0 <= b0 on B). About 15% of the B rungs are
    dropped, which mostly leaves the goal not entailed; random axioms
    over the functions and 0-3 noise atoms vary the instances.
    """
    n = rng.randint(1, 6)
    fns = ["f", "g", "h"][: rng.randint(1, 3)]
    axioms = list(rand_axioms(rng, fns).axioms)
    g = rng.choice(fns[:2])
    if g == "g" and Inclusion("f", "g") not in axioms:
        axioms.append(Inclusion("f", "g"))
    a = [Const(f"a{i}") for i in range(n + 1)]
    b = [Const(f"b{i}") for i in range(n + 1)]
    a_atoms = [Leq(a[i + 1], App("f", a[i])) for i in range(n)]
    b_atoms = [Leq(App(g, b[i]), b[i + 1]) for i in range(n) if rng.random() >= 0.15]
    if rng.random() < 0.5:
        a_atoms.append(Leq(a[0], b[0]))
        shared = ["b0"]
    else:
        a_atoms.append(Leq(a[0], Const("s0")))
        b_atoms.append(Leq(Const("s0"), b[0]))
        shared = ["s0"]
    for _ in range(rng.randint(0, 3)):
        side, names = (a_atoms, [x.name for x in a]) if rng.random() < 0.5 else (b_atoms, [x.name for x in b])
        vocab = names + shared
        side.append(Leq(rand_term(rng, vocab, fns), rand_term(rng, vocab, fns)))
    rng.shuffle(a_atoms)
    rng.shuffle(b_atoms)
    return tuple(a_atoms), tuple(b_atoms), Leq(a[n], b[n]), AxiomSet(tuple(fns), tuple(axioms))


def split_onto(rng: random.Random) -> str:
    """split_problem's ladder as an .elp file.

    A climbs C{i+1} <= ex r . C{i} and B climbs ex g . D{i} <= D{i+1} to
    the goal C{n} <= D{n}, where g is r or r's partner in ri r <= s. The
    bottom rungs meet through D0 (C0 <= D0 on A) or through a shared S0
    (C0 <= S0 on A, S0 <= D0 on B). About 15% of the B rungs are
    dropped; an optional ri r o r <= r and 0-3 noise GCIs vary the
    instances.
    """
    n = rng.randint(1, 6)
    g = rng.choice("rs")
    ris = ["ri r <= s"] if g == "s" else []
    if rng.random() < 0.5:
        ris.append("ri r o r <= r")
    side_a = [f"C{i + 1} <= ex r . C{i}" for i in range(n)]
    side_b = [f"ex {g} . D{i} <= D{i + 1}" for i in range(n) if rng.random() >= 0.15]
    if rng.random() < 0.5:
        side_a.append("C0 <= D0")
        shared = ["D0"]
    else:
        side_a.append("C0 <= S0")
        side_b.append("S0 <= D0")
        shared = ["S0"]
    for _ in range(rng.randint(0, 3)):
        side, prefix = (side_a, "C") if rng.random() < 0.5 else (side_b, "D")
        x, y, z = (rng.choice([f"{prefix}{i}" for i in range(n + 1)] + shared) for _ in range(3))
        role = rng.choice("rs")
        side.append(rng.choice([f"{x} <= ex {role} . {y}", f"ex {role} . {x} <= {y}", f"{x} & {y} <= {z}"]))
    rng.shuffle(side_a)
    rng.shuffle(side_b)
    return "\n".join(["roles r s", *ris, "side A", *side_a, "side B", *side_b,
                      f"goal C{n} <= D{n}"]) + "\n"


def slp_text(a_atoms, b_atoms, goal, axioms) -> str:
    """The problem as an .slp file."""
    lines = [f"functions {' '.join(axioms.functions)}"] if axioms.functions else []
    for ax in axioms.axioms:
        if isinstance(ax, Inclusion):
            lines.append(f"axiom inclusion {ax.f} {ax.g}")
        else:
            lines.append(f"axiom composition {ax.f} {ax.g} {ax.h}")
    lines += ["side A", *map(format_atom, a_atoms), "side B", *map(format_atom, b_atoms),
              f"goal {format_atom(goal)}"]
    return "\n".join(lines) + "\n"


def onto_text(rng, n, nd, dup=3):
    """An .elp role chain C0 .. Cn split across A and B, plus distractors.

    The distractors chain a second role over a small pool of names, so
    some GCIs come twice; dup more chain GCIs are duplicated outright.
    """
    m = rng.randint(1, n - 1)
    chain = [f"C{i} <= ex r . C{i + 1}" for i in range(n)]
    chain += rng.sample(chain, dup)
    pool = max(4, nd // 3)
    perm = list(range(pool))
    rng.shuffle(perm)
    distract = []
    for i in range(nd):
        j, k, l = i % pool, perm[i % pool], perm[(i + 1) % pool]
        if i % 20 < 14:
            distract.append(f"D{j} <= ex s . D{k}")
        elif i % 20 < 17:
            distract.append(f"D{j} & D{k} <= D{l}")
        else:
            distract.append(f"ex s . D{j} <= D{k}")
    side_a = [g for g in chain if int(g.split()[0][1:]) < m]
    side_b = [g for g in chain if int(g.split()[0][1:]) >= m]
    for g in distract:
        (side_a if rng.random() < 0.5 else side_b).append(g)
    rng.shuffle(side_a)
    rng.shuffle(side_b)
    return "\n".join(["roles r s", "ri r o r <= r", "ri s o s <= s",
                      "side A", *side_a, "side B", *side_b,
                      f"goal C0 <= ex r . C{n}"]) + "\n"
