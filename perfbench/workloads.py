"""Seeded inputs and command mixes for the three workloads.

Every input is generated from the seed and carries its answer by
construction; the answer travels with the command as an `Expect`, so the
checker never asks the program under test what the right answer is.
The shipped examples are replayed against their goldens in
tests/data/golden.

Terms are built and printed here in slatkit's normal form (meets
flattened, deduplicated and sorted constants first, then applications),
so the lines a command echoes back can be predicted exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

KINDS = ("check", "interpolate", "justify", "beth")


@dataclass(frozen=True)
class Expect:
    """What a correct run of one command prints; unset fields are not checked."""

    code: int
    text: str | None = None                 # exact stdout
    golden: str | None = None               # golden file holding the exact stdout
    entailed: bool | None = None            # verdict of a --json run
    shared: tuple | None = None             # (goal lhs, goal rhs, constants, functions)
    kept_from: tuple[str, ...] | None = None  # justify lines: an ordered subset of these
    sigma: frozenset[str] | None = None     # constants a definition may use
    prefix: str | None = None               # stdout starts with this
    suffix: str | None = None               # stdout ends with this


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    expect: Expect

    @property
    def json(self) -> bool:
        return "--json" in self.argv


@dataclass
class Workload:
    files: dict[str, str] = field(default_factory=dict)   # name -> text
    copies: list[str] = field(default_factory=list)       # shipped examples used
    commands: list[Command] = field(default_factory=list)
    warmup: list[Command] = field(default_factory=list)


# ---------------------------------------------------------------------------
# terms in normal form: ("c", name) | ("a", fn, arg) | ("m", args)


def const(name):
    return ("c", name)


def app(fn, arg):
    return ("a", fn, arg)


def _key(t):
    if t[0] == "c":
        return (0, t[1], ())
    if t[0] == "a":
        return (1, t[1], (_key(t[2]),))
    return (2, "", tuple(_key(a) for a in t[1]))


def meet(args):
    flat = []
    for a in args:
        flat.extend(a[1] if a[0] == "m" else [a])
    uniq = sorted(set(flat), key=_key)
    return uniq[0] if len(uniq) == 1 else ("m", tuple(uniq))


def fmt(t) -> str:
    if t[0] == "c":
        return t[1]
    if t[0] == "a":
        return f"{t[1]}({fmt(t[2])})"
    return " & ".join(fmt(a) for a in t[1])


def leq(lhs, rhs) -> str:
    return f"{fmt(lhs)} <= {fmt(rhs)}"


def symbols(t, consts: set, fns: set) -> None:
    if t[0] == "c":
        consts.add(t[1])
    elif t[0] == "a":
        fns.add(t[1])
        symbols(t[2], consts, fns)
    else:
        for a in t[1]:
            symbols(a, consts, fns)


_RESERVED = {"functions", "axiom", "side", "goal", "sigma", "target",
             "roles", "ri", "ex", "o"}


def _fresh_names(rng: random.Random, k: int) -> list[str]:
    """k distinct three-letter names, none of them a keyword."""
    out: list[str] = []
    while len(out) < k:
        name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))
        if name not in _RESERVED and name not in out:
            out.append(name)
    return out


# ---------------------------------------------------------------------------
# shipped examples: (golden file, argv, exit code), argv relative to the input


GOLDEN_SLP = [
    ("check_slo.txt", ("check", "slo.slp"), 0),
    ("check_slo_trace.txt", ("check", "slo.slp", "--trace"), 0),
    ("check_chain.txt", ("check", "chain.slp"), 0),
    ("interpolate_slo.txt", ("interpolate", "slo.slp"), 0),
    ("interpolate_slo_trace.txt", ("interpolate", "slo.slp", "--trace"), 0),
    ("interpolate_slo.json", ("interpolate", "slo.slp", "--json"), 0),
    ("interpolate_chain.txt", ("interpolate", "chain.slp"), 0),
    ("justify_slo.txt", ("justify", "slo.slp"), 0),
    ("beth_fe.txt", ("beth", "beth_fe.slp"), 0),
    ("beth_fe.json", ("beth", "beth_fe.slp", "--json"), 0),
    ("beth_fe_intersection.txt", ("beth", "beth_fe.slp", "--sharing", "intersection"), 1),
]
GOLDEN_ELP = [
    ("check_med.txt", ("check", "med.elp"), 0),
    ("check_med_A.txt", ("check", "med_A.elp"), 1),
    ("check_med_B.txt", ("check", "med_B.elp"), 1),
    ("interpolate_med.txt", ("interpolate", "med.elp"), 0),
    ("interpolate_med.json", ("interpolate", "med.elp", "--json"), 0),
    ("justify_med.txt", ("justify", "med.elp"), 0),
    ("justify_med.json", ("justify", "med.elp", "--json"), 0),
]


def golden_commands(cases) -> list[Command]:
    return [Command(argv[0], argv, Expect(code, golden=name)) for name, argv, code in cases]


def golden_inputs(cases) -> list[str]:
    return sorted({argv[1] for _, argv, _ in cases})


# ---------------------------------------------------------------------------
# ladder: chaining needs n passes; every premise is in the proof

# check takes tens to hundreds of ms over these sizes; interpolate and
# justify cost 5 to 20 checks each, so they use smaller ladders and a pass
# stays short enough for a run to hold ten or more of them
LADDER_CHECK = (10, 12, 14, 16, 18)
LADDER_DROP = (12, 16)        # NOT-ENTAILED variants, middle rung removed
LADDER_INTERPOLATE = (6, 8, 10)
LADDER_JUSTIFY = (4, 6, 8)


def _ladder_text(rng, n, c, d, f, drop=None):
    side_a = [leq(const(f"{c}0"), const(f"{d}0"))]
    side_a += [leq(const(f"{c}{i + 1}"), app(f, const(f"{c}{i}"))) for i in range(n)]
    side_b = [leq(app(f, const(f"{d}{i}")), const(f"{d}{i + 1}")) for i in range(n) if i != drop]
    rng.shuffle(side_a)
    rng.shuffle(side_b)
    lines = [f"functions {f}", "side A", *side_a, "side B", *side_b,
             f"goal {c}{n} <= {d}{n}"]
    return "\n".join(lines) + "\n", side_a, side_b


def ladder(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload()
    sizes = sorted({*LADDER_CHECK, *LADDER_INTERPOLATE, *LADDER_JUSTIFY, 2})
    c, d, f = _fresh_names(rng, 3)
    for n in sizes:
        text, side_a, side_b = _ladder_text(rng, n, c, d, f)
        w.files[f"ladder{n}.slp"] = text
        goal_l, goal_r = const(f"{c}{n}"), const(f"{d}{n}")
        term = const(f"{d}0")
        for _ in range(n):
            term = app(f, term)
        shown = fmt(term)
        interp_text = (f"interpolant: {shown}\ncertificate A: {fmt(goal_l)} <= {shown}\n"
                       f"certificate B: {shown} <= {fmt(goal_r)}\nverified\n")
        justify_text = "".join(f"side A: {x}\n" for x in side_a)
        justify_text += "".join(f"side B: {x}\n" for x in side_b)
        file = f"ladder{n}.slp"
        cmds = {
            "check": Command("check", ("check", file), Expect(0, text="ENTAILED\n")),
            "interpolate": Command("interpolate", ("interpolate", file),
                                   Expect(0, text=interp_text)),
            "justify": Command("justify", ("justify", file), Expect(0, text=justify_text)),
        }
        if n == 2:
            w.warmup = list(cmds.values())
            continue
        for kind, ns in (("check", LADDER_CHECK), ("interpolate", LADDER_INTERPOLATE),
                         ("justify", LADDER_JUSTIFY)):
            if n in ns:
                w.commands.append(cmds[kind])
    for n in LADDER_DROP:
        name = f"ladder{n}_gap.slp"
        w.files[name], _, _ = _ladder_text(rng, n, c, d, f, drop=n // 2)
        w.commands.append(Command("check", ("check", name, "--json"),
                                  Expect(1, entailed=False)))
    return w


# ---------------------------------------------------------------------------
# ontology: EL role chain split across A and B, plus distractors

ONTOLOGY_SIZES = ((6, 12), (8, 20), (10, 30))   # (chain length, distractor GCIs)


def _ontology_text(rng, n, nd, names, gap=None):
    C, D, r, s = names
    m = rng.randint(1, n - 1)                      # first link owned by B
    chain = [(i, f"{C}{i} <= ex {r} . {C}{i + 1}") for i in range(n) if i != gap]
    # every name of the pool is an s-successor, so the closed term set and
    # the instance count depend on nd alone; the seed picks the edges
    pool = max(4, nd // 3)
    perm = list(range(pool))
    rng.shuffle(perm)
    distract = []
    for i in range(nd):
        j, k, l = i % pool, perm[i % pool], perm[(i + 1) % pool]
        if i % 20 < 14:
            distract.append(f"{D}{j} <= ex {s} . {D}{k}")
        elif i % 20 < 17:
            distract.append(f"{fmt(meet([const(f'{D}{j}'), const(f'{D}{k}')]))} <= {D}{l}")
        else:
            distract.append(f"ex {s} . {D}{j} <= {D}{k}")
    side_a = [(True, g) for i, g in chain if i < m]
    side_b = [(True, g) for i, g in chain if i >= m]
    for g in distract:
        (side_a if rng.random() < 0.5 else side_b).append((False, g))
    rng.shuffle(side_a)
    rng.shuffle(side_b)
    lines = [f"roles {r} {s}", f"ri {r} o {r} <= {r}", f"ri {s} o {s} <= {s}",
             "side A", *(g for _, g in side_a), "side B", *(g for _, g in side_b),
             f"goal {C}0 <= ex {r} . {C}{n}"]
    labels = [f"A{i + 1}" for i, (on_chain, _) in enumerate(side_a) if on_chain]
    labels += [f"B{i + 1}" for i, (on_chain, _) in enumerate(side_b) if on_chain]
    return "\n".join(lines) + "\n", m, labels + ["R1"]


def ontology(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload()
    stems = _fresh_names(rng, 4)
    names = (stems[0].capitalize(), stems[1].capitalize(), stems[2], stems[3])
    C, r = names[0], names[2]
    for n, nd in ONTOLOGY_SIZES:
        file = f"onto{n}.elp"
        w.files[file], m, labels = _ontology_text(rng, n, nd, names)
        shown = f"ex {r} . {C}{m}"
        interp_text = (f"interpolant: {shown}\ncertificate A: {C}0 <= {shown}\n"
                       f"certificate B: {shown} <= ex {r} . {C}{n}\nverified\n")
        w.commands += [
            Command("check", ("check", file), Expect(0, text="ENTAILED\n")),
            Command("justify", ("justify", file), Expect(0, text="".join(x + "\n" for x in labels))),
            Command("interpolate", ("interpolate", file), Expect(0, text=interp_text)),
        ]
    n, nd = ONTOLOGY_SIZES[1]
    w.files["onto_gap.elp"], _, _ = _ontology_text(rng, n, nd, names, gap=n // 2)
    w.commands.append(Command("check", ("check", "onto_gap.elp", "--json"),
                              Expect(1, entailed=False)))
    w.commands += golden_commands(GOLDEN_ELP)
    w.copies = golden_inputs(GOLDEN_ELP)
    w.warmup = [c for c in golden_commands(GOLDEN_ELP) if not c.json]
    return w


# ---------------------------------------------------------------------------
# mixed: many small two-sided problems, definability draws, shipped examples

MIXED_PROBLEMS = 432    # one full cycle of the stratified shapes in _slo_problem
MIXED_BETH = 24      # planted definitions and non-definitions, alternating
MIXED_SEARCH = 3     # renamed beth_fe under --sharing intersection --depth 2


def _flat_term(rng, consts, max_width=3):
    return meet(const(rng.choice(consts)) for _ in range(rng.randint(1, max_width)))


def _term(rng, consts, fns, depth=2):
    if depth == 0 or not fns or rng.random() < 0.55:
        return _flat_term(rng, consts, 2)
    return app(rng.choice(fns), _term(rng, consts, fns, depth - 1))


def _axioms(rng, fns, count: int) -> list[tuple]:
    out = []
    for _ in range(count):
        if len(fns) >= 2 and rng.random() < 0.5:
            out.append(("inclusion", *rng.sample(fns, 2)))
        elif fns:
            out.append(("composition", rng.choice(fns), rng.choice(fns), rng.choice(fns)))
    return out


def _header(fns, axioms) -> list[str]:
    lines = [f"functions {' '.join(fns)}"] if fns else []
    return lines + [f"axiom {' '.join(ax)}" for ax in axioms]


def _theta_shared(fns, axioms, used_a: set, used_b: set) -> set:
    """Functions whose axiom co-occurrence class meets both sides."""
    parent = {f: f for f in fns}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for ax in axioms:
        for other in ax[2:]:
            parent[find(other)] = find(ax[1])
    classes: dict[str, set] = {}
    for f in fns:
        classes.setdefault(find(f), set()).add(f)
    return {f for cls in classes.values() if cls & used_a and cls & used_b for f in cls}


def _slo_problem(rng, idx: int) -> tuple[str, list[Command]]:
    """One draw from the rand_slo_problem distribution with a known verdict.

    The draws are stratified by index: operator count (4 values), verdict
    (3), axiom count (4) and the atom counts of the two sides (3 each)
    run through all 432 combinations, so every seed gives the same mix of
    problem shapes and only the symbols and terms vary.

    Two thirds plant a bridge a <= s, s <= b through a shared constant,
    so the goal a <= b is entailed. The rest ask a <= z for a constant z
    that occurs nowhere else: adjoining a new bottom element for z (every
    operator maps it to itself) keeps every premise and axiom true and
    falsifies the goal, so it is not entailed.
    """
    shared = [f"s{i}" for i in range(rng.randint(1, 2))]
    a_priv = [f"a{i}" for i in range(rng.randint(1, 2))]
    b_priv = [f"b{i}" for i in range(rng.randint(1, 2))]
    fns = ["f", "g", "h"][: idx % 4]
    entailed = idx // 4 % 3 != 2
    axioms = _axioms(rng, fns, idx // 12 % 4)
    side_a = [(_term(rng, a_priv + shared, fns), _term(rng, a_priv + shared, fns))
              for _ in range(2 + idx // 48 % 3)]
    side_b = [(_term(rng, b_priv + shared, fns), _term(rng, b_priv + shared, fns))
              for _ in range(2 + idx // 144 % 3)]
    lhs = const(rng.choice(a_priv))
    if entailed:
        rhs, s = const(rng.choice(b_priv)), const(rng.choice(shared))
        side_a.append((lhs, s))
        side_b.append((s, rhs))
    else:
        rhs = const("z")
    text = "\n".join([*_header(fns, axioms),
                      "side A", *(leq(x, y) for x, y in side_a),
                      "side B", *(leq(x, y) for x, y in side_b),
                      f"goal {leq(lhs, rhs)}"]) + "\n"
    file = f"mixed{idx:03d}.slp"
    json = idx % 5 == 4
    verdict = Expect(0 if entailed else 1, entailed=entailed) if json else \
        Expect(0 if entailed else 1, text="ENTAILED\n" if entailed else "NOT-ENTAILED\n")
    cmds = [Command("check", ("check", file, *(("--json",) if json else ())), verdict)]
    if entailed:
        used = []
        for atoms, goal_side in ((side_a, lhs), (side_b, rhs)):
            consts, fn_used = set(), set()
            for x, y in atoms:
                symbols(x, consts, fn_used)
                symbols(y, consts, fn_used)
            symbols(goal_side, consts, fn_used)
            used.append((consts, fn_used))
        (ca, fa), (cb, fb) = used
        shared_syms = (fmt(lhs), fmt(rhs), frozenset(ca & cb),
                       frozenset(_theta_shared(fns, axioms, fa, fb)))
        kept = tuple([f"side A: {leq(x, y)}" for x, y in side_a]
                     + [f"side B: {leq(x, y)}" for x, y in side_b])
        cmds += [
            Command("interpolate", ("interpolate", file), Expect(0, shared=shared_syms)),
            Command("justify", ("justify", file), Expect(0, kept_from=kept)),
        ]
    return text, cmds


def _beth_problem(rng, idx: int, definable: bool) -> tuple[str, Command]:
    """Definability draw with a planted answer.

    Definable: t <= e and e <= t with e in sigma force t = e in every
    model. Not definable: t occurs only in t <= e, so in the doubled
    problem t' can sit at an adjoined bottom element while t = e.
    """
    fns = ["f", "g", "h"][: rng.randint(0, 3)]
    axioms = _axioms(rng, fns, rng.randint(0, 3))
    vocab = ["e0", "e1", "x0", "x1"]
    atoms = [(_term(rng, vocab, fns), _term(rng, vocab, fns)) for _ in range(rng.randint(2, 4))]
    e = const(rng.choice(["e0", "e1"]))
    atoms.append((const("t"), e))
    if definable:
        atoms.append((e, const("t")))
    consts, fn_used = set(), set()
    for x, y in atoms:
        symbols(x, consts, fn_used)
        symbols(y, consts, fn_used)
    sigma = sorted(c for c in consts if c.startswith("e"))
    sigma += [f for f in sorted(fn_used) if rng.random() < 0.5]
    text = "\n".join([*_header(fns, axioms), "side A", *(leq(x, y) for x, y in atoms),
                      f"sigma {' '.join(sigma)}", "target t"]) + "\n"
    file = f"beth{idx:03d}.slp"
    if definable:
        expect = Expect(0, prefix="implicitly defined: yes\ndefinition: ",
                        sigma=frozenset(c for c in sigma if c.startswith("e")))
    else:
        expect = Expect(1, text="implicitly defined: no\n")
    return text, Command("beth", ("beth", file), expect)


def _search_problem(rng, idx: int) -> tuple[str, Command]:
    """beth_fe.slp renamed: implicitly defined, but under intersection
    sharing no definition is extracted and the depth-2 search over the
    15 {g, e}-terms finds none, as the shipped example shows."""
    f, g, e, a, b = _fresh_names(rng, 5)
    text = "\n".join([f"functions {f} {g}", f"axiom composition {f} {g} {g}", "side A",
                      f"{a} <= {f}({e})", f"{e} <= {g}({b})", f"{g}({b}) <= {a}",
                      f"sigma {g} {e}", f"target {a}"]) + "\n"
    file = f"search{idx}.slp"
    expect = Expect(1, prefix="implicitly defined: yes\ndefinition: none (",
                    suffix="; no defining term up to depth 2)\n")
    return text, Command("beth", ("beth", file, "--sharing", "intersection", "--depth", "2"),
                         expect)


def mixed(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload()
    for i in range(MIXED_PROBLEMS):
        text, cmds = _slo_problem(rng, i)
        w.files[cmds[0].argv[1]] = text
        w.commands += cmds
    for i in range(MIXED_BETH):
        text, cmd = _beth_problem(rng, i, definable=i % 2 == 0)
        w.files[cmd.argv[1]] = text
        w.commands.append(cmd)
    for i in range(MIXED_SEARCH):
        text, cmd = _search_problem(rng, i)
        w.files[cmd.argv[1]] = text
        w.commands.append(cmd)
    w.commands += golden_commands(GOLDEN_SLP)
    w.copies = golden_inputs(GOLDEN_SLP)
    w.warmup = [c for c in golden_commands(GOLDEN_SLP) if c.argv[1] == "slo.slp" and not c.json]
    return w


WORKLOADS = {"ladder": ladder, "ontology": ontology, "mixed": mixed}


def traced_mix(w: Workload) -> list[Command]:
    """The workload's commands plus every shipped example it lacks, so that
    a traced run reaches every layer, whichever workload it measures."""
    have = {c.argv for c in w.commands}
    extra = [c for c in golden_commands(GOLDEN_SLP + GOLDEN_ELP) if c.argv not in have]
    return w.commands + extra


def all_copies() -> list[str]:
    return golden_inputs(GOLDEN_SLP + GOLDEN_ELP)
