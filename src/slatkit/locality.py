"""Semilattices extended by monotone unary operators with extra Horn laws.

The extension is local: an entailment over ground literals holds exactly
when it holds after replacing every operator application by a fresh
constant and adding finitely many instances of the axioms, taken over a
closed set of application terms. The closure, the instances and the
forward chaining loop that decides entailment live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import slat
from .kernel import Kernel, Rejected
from .terms import (
    App,
    Atom,
    Color,
    ColorClash,
    Const,
    GroundHornClause,
    Leq,
    Meet,
    Term,
    color_problem,
    combine_colors,
    expand_eqs,
    format_atom,
    mk_meet,
    term_constants,
    term_functions,
    term_key,
)


class NotEntailed(Exception):
    """The requested consequence does not follow from the premises."""


# ---------------------------------------------------------------------------
# axioms


@dataclass(frozen=True)
class Inclusion:
    """forall x: f(x) <= g(x)"""

    f: str
    g: str


@dataclass(frozen=True)
class Composition:
    """forall x, y: y <= g(x) implies f(y) <= h(x)"""

    f: str
    g: str
    h: str


@dataclass(frozen=True)
class AxiomSet:
    """Extension signature and axioms; every function is monotone."""

    functions: tuple[str, ...]
    axioms: tuple = ()

    def __post_init__(self):
        seen = set()
        for f in self.functions:
            if f in seen:
                raise ValueError(f"function {f} declared twice")
            seen.add(f)
        for ax in self.axioms:
            names = (ax.f, ax.g) if isinstance(ax, Inclusion) else (ax.f, ax.g, ax.h)
            for f in names:
                if f not in seen:
                    raise ValueError(f"axiom uses undeclared function {f}")


# flat application term: function symbol paired with its pure argument
FlatTerm = tuple[str, Term]


@dataclass
class PurifiedProblem:
    """Ground problem with applications replaced by fresh constants.

    flat is the psi-closed flat term set the instances range over, every
    member named in defs; saturate() generates the instances from it.
    """

    a0: tuple[Leq, ...]
    b0: tuple[Leq, ...]
    neg_a: tuple[Atom, ...]
    neg_b: tuple[Atom, ...]
    goal: Leq
    defs: dict[FlatTerm, str]
    names: dict[str, FlatTerm]
    binders: dict[str, Term]
    colors: dict[str, Color]
    axioms: AxiomSet
    flat: tuple[FlatTerm, ...] = ()
    purifier: "_Purifier | None" = field(default=None, repr=False)

    def unfold_map(self) -> dict[str, Term]:
        """Every fresh name mapped to the term it stands for, in the order
        the names were made: a term uses only names made before it."""
        return {name: App(*self.names[name]) if name in self.names else self.binders[name]
                for name in self.purifier.made}


class _Purifier:
    def __init__(self, used: set[str], colors: dict[str, Color],
                 fn_colors: dict[str, Color] | None):
        self.used = set(used)
        self.colors = colors
        # without a sharing map the colors are not consulted downstream,
        # so a name straddling both sides is tolerated instead of raising
        self.fn_colors = fn_colors
        self.defs: dict[FlatTerm, str] = {}
        self.names: dict[str, FlatTerm] = {}
        self.binders: dict[str, Term] = {}
        self._binder_keys: dict[tuple[str, Term], str] = {}
        self.made: list[str] = []
        self.pending: list[Leq] = []
        self.side = "a"

    def fresh(self, base: str) -> str:
        name, k = base, 1
        while name in self.used:
            k += 1
            name = f"{base}{k}"
        self.used.add(name)
        return name

    def _combined(self, start: Color, parts) -> Color:
        color = start
        try:
            for c in parts:
                color = combine_colors(color, self.colors[c])
        except ColorClash:
            if self.fn_colors is not None:
                raise
            color = Color.SHARED
        return color

    def name_for(self, fn: str, arg: Term) -> str:
        key = (fn, arg)
        name = self.defs.get(key)
        if name is None:
            base = f"{fn}_{arg.name}" if isinstance(arg, Const) else f"{fn}_t{len(self.defs) + 1}"
            name = self.fresh(base)
            self.defs[key] = name
            self.names[name] = key
            self.made.append(name)
            fn_colors = self.fn_colors if self.fn_colors is not None else self.colors
            self.colors[name] = self._combined(
                fn_colors.get(fn, Color.SHARED), term_constants(arg)
            )
        return name

    def bind(self, t: Term) -> Const:
        # one binder per side: its defining atoms live on that side only
        key = (self.side, t)
        name = self._binder_keys.get(key)
        if name is None:
            name = self.fresh(f"m{len(self.binders) + 1}")
            self._binder_keys[key] = name
            self.binders[name] = t
            self.made.append(name)
            self.colors[name] = self._combined(Color.SHARED, term_constants(t))
            self.pending.append(Leq(Const(name), t))
            self.pending.append(Leq(t, Const(name)))
        return Const(name)

    def pure(self, t: Term) -> Term:
        if isinstance(t, Const):
            return t
        if isinstance(t, App):
            arg = self.pure(t.arg)
            if not isinstance(arg, Const):
                arg = self.bind(arg)
            return Const(self.name_for(t.fn, arg))
        return mk_meet(self.pure(a) for a in t.args)

    def pure_atom(self, a: Atom) -> Atom:
        return type(a)(self.pure(a.lhs), self.pure(a.rhs))

    def drain(self) -> list[Leq]:
        out, self.pending = self.pending, []
        return out


def flatten_purify(a_atoms, b_atoms, goal: Leq, *, neg_a=(), neg_b=(), fn_colors=None,
                   axioms: AxiomSet | None = None,
                   reserved=()) -> tuple[PurifiedProblem, tuple[FlatTerm, ...]]:
    """Replace applications by fresh constants, bottom up.

    Nested applications are named inside out, so f(g(a)) contributes the
    flat terms (g, a) and (f, g_a). Fresh names inherit a color from the
    named term: the function's sharing color combined with the colors of
    the argument constants. Fresh names avoid every symbol of the input
    and the reserved ones. Returns the purified problem (its flat term
    set not yet closed) and the set of flat terms that occurred.
    """
    a_atoms, b_atoms = expand_eqs(a_atoms), expand_eqs(b_atoms)
    neg_a, neg_b = tuple(neg_a), tuple(neg_b)
    if not isinstance(goal, Leq):
        raise ValueError("goal must be a <= atom")
    colors = color_problem((*a_atoms, *neg_a), (*b_atoms, *neg_b), goal)
    symbols = set(colors)
    if axioms is not None:
        for a in (*a_atoms, *b_atoms, *neg_a, *neg_b, goal):
            for f in term_functions(a.lhs) | term_functions(a.rhs):
                if f not in axioms.functions:
                    raise ValueError(f"undeclared function {f}")
        overlap = {c for a in (*a_atoms, *b_atoms, *neg_a, *neg_b, goal)
                   for c in term_constants(a.lhs) | term_constants(a.rhs)} & set(axioms.functions)
        if overlap:
            raise ValueError(f"used as both constant and function: {sorted(overlap)[0]}")
        symbols |= set(axioms.functions)
    purifier = _Purifier(symbols | set(reserved), colors, fn_colors)

    def do_side(side: str, atoms, out_pos: list):
        purifier.side = side
        out = []
        for x in atoms:
            px = purifier.pure_atom(x)
            out.append(px)
            out_pos.extend(purifier.drain())
        return tuple(out)

    a0: list[Leq] = []
    b0: list[Leq] = []
    pos_a = do_side("a", a_atoms, a0)
    na = do_side("a", neg_a, a0)
    pos_b = do_side("b", b_atoms, b0)
    nb = do_side("b", neg_b, b0)
    purifier.side = "a"
    goal_lhs = purifier.pure(goal.lhs)
    a0.extend(purifier.drain())
    purifier.side = "b"
    goal_rhs = purifier.pure(goal.rhs)
    b0.extend(purifier.drain())
    problem = PurifiedProblem(
        a0=(*pos_a, *a0),
        b0=(*pos_b, *b0),
        neg_a=na,
        neg_b=nb,
        goal=Leq(goal_lhs, goal_rhs),
        defs=purifier.defs,
        names=purifier.names,
        binders=purifier.binders,
        colors=purifier.colors,
        axioms=axioms if axioms is not None else AxiomSet(()),
        purifier=purifier,
    )
    return problem, _sorted_flat(purifier.defs)


def _sorted_flat(terms) -> tuple[FlatTerm, ...]:
    return tuple(sorted(terms, key=lambda ft: (ft[0], term_key(ft[1]))))


def psi_closure(flat_terms, axioms: AxiomSet) -> tuple[FlatTerm, ...]:
    """Close a flat term set under the argument pairing of the axioms.

    An inclusion between f and g pairs f(c) with g(c) in both directions;
    a composition with inner g and conclusion h pairs g(c) with h(c). The
    outer function of a composition is not paired. The result is the
    least closed superset, sorted.
    """
    pairs = []
    for ax in axioms.axioms:
        if isinstance(ax, Inclusion):
            pairs.append((ax.f, ax.g))
        else:
            pairs.append((ax.g, ax.h))
    linked: dict[str, set[str]] = {}
    for f1, f2 in pairs:
        if f1 != f2:
            linked.setdefault(f1, set()).add(f2)
            linked.setdefault(f2, set()).add(f1)
    closed = set(flat_terms)
    todo = list(closed)
    while todo:
        fn, arg = todo.pop()
        for other in linked.get(fn, ()):
            if (other, arg) not in closed:
                closed.add((other, arg))
                todo.append((other, arg))
    return _sorted_flat(closed)


class InstanceSpace:
    """The ground instances of Mon and of the axioms over a flat term set.

    Every instance has an order key, and the key order is the clause
    order: mon (0, function, c, d) for each function over ordered pairs
    of distinct arguments, incl (1, axiom, c), comp (2, axiom, d, c),
    with functions and axioms in declaration order and arguments by
    position in sorted order. Instances whose conclusion is reflexive
    have no key. clause(key) builds an instance; instantiate() lists all
    of them and saturate() builds only those it fires.

    Mon and comp instances have one premise seed <= target, grouped by
    (schema, index): mon over function f has the arguments of f as seeds
    and as targets, comp over an axiom has the arguments of its outer f
    as seeds and the names of g(c) with (h, c) in the set as targets.
    """

    def __init__(self, axioms: AxiomSet, flat_terms, defs: dict[FlatTerm, str]):
        self.axioms, self.defs = axioms, defs
        terms = set(flat_terms)
        self.args_of: dict[str, list[Term]] = {f: [] for f in axioms.functions}
        for fn, arg in _sorted_flat(terms):
            self.args_of.setdefault(fn, []).append(arg)
        self.inner = {i: [c for c in self.args_of[ax.g] if (ax.h, c) in terms]
                      for i, ax in enumerate(axioms.axioms) if isinstance(ax, Composition)}

    def premise_groups(self):
        """(group, seeds, targets) per premise schema, in key order."""
        for i, f in enumerate(self.axioms.functions):
            yield (0, i), self.args_of[f], self.args_of[f]
        for i, inner in self.inner.items():
            ax = self.axioms.axioms[i]
            yield (2, i), self.args_of[ax.f], [Const(self.defs[(ax.g, c)]) for c in inner]

    def incl_keys(self):
        """Keys of the premise-free inclusion instances, in order."""
        for i, ax in enumerate(self.axioms.axioms):
            if isinstance(ax, Inclusion) and ax.f != ax.g:
                yield from ((1, i, c) for c in range(len(self.args_of[ax.f])))

    def proper(self, key: tuple) -> bool:
        """False for a premise pair whose instance concludes x <= x."""
        if key[0] == 0:
            return key[2] != key[3]
        ax = self.axioms.axioms[key[1]]
        return ax.f != ax.h or self.args_of[ax.f][key[2]] != self.inner[key[1]][key[3]]

    def keys(self) -> list[tuple]:
        """Every instance key, in clause order."""
        pairs = [(*group, i, j) for group, seeds, targets in self.premise_groups()
                 for i in range(len(seeds)) for j in range(len(targets))]
        return sorted([*filter(self.proper, pairs), *self.incl_keys()])

    def clause(self, key: tuple) -> GroundHornClause:
        """The instance with this key."""
        defs = self.defs
        if key[0] == 0:
            f = self.axioms.functions[key[1]]
            c, d = self.args_of[f][key[2]], self.args_of[f][key[3]]
            return GroundHornClause(
                (Leq(c, d),), Leq(Const(defs[(f, c)]), Const(defs[(f, d)])), ("mon", f, c, d),
            )
        ax = self.axioms.axioms[key[1]]
        if key[0] == 1:
            c = self.args_of[ax.f][key[2]]
            return GroundHornClause(
                (), Leq(Const(defs[(ax.f, c)]), Const(defs[(ax.g, c)])), ("incl", ax.f, ax.g, c),
            )
        d, c = self.args_of[ax.f][key[2]], self.inner[key[1]][key[3]]
        return GroundHornClause(
            (Leq(d, Const(defs[(ax.g, c)])),),
            Leq(Const(defs[(ax.f, d)]), Const(defs[(ax.h, c)])),
            ("comp", ax.f, ax.g, ax.h, d, c),
        )


def instantiate(axioms: AxiomSet, flat_terms, defs: dict[FlatTerm, str]) -> tuple[GroundHornClause, ...]:
    """Every ground instance over the flat term set, in clause order.

    The set must be psi-closed and every flat term named in defs. This
    is the eager enumeration of InstanceSpace; saturate() generates the
    same instances lazily.
    """
    terms = set(flat_terms)
    if set(psi_closure(terms, axioms)) != terms:
        raise ValueError("flat term set is not psi-closed")
    for ft in terms:
        if ft not in defs:
            raise ValueError(f"unnamed flat term {ft[0]}({ft[1]})")
    space = InstanceSpace(axioms, terms, defs)
    return tuple(space.clause(k) for k in space.keys())


def prepare_problem(a_atoms, b_atoms, goal: Leq, axioms: AxiomSet, *,
                    neg_a=(), neg_b=(), fn_colors=None, reserved=()) -> PurifiedProblem:
    """Purify, close the term set and name the new terms.

    No instance is built here: saturate() generates them from the closed
    set (problem.flat) as their premises become derivable.
    """
    problem, est = flatten_purify(
        a_atoms, b_atoms, goal, neg_a=neg_a, neg_b=neg_b,
        fn_colors=fn_colors, axioms=axioms, reserved=reserved,
    )
    problem.flat = psi_closure(est, axioms)
    for fn, arg in problem.flat:
        problem.purifier.name_for(fn, arg)
    return problem


# ---------------------------------------------------------------------------
# forward chaining


@dataclass
class Trace:
    """Chaining record: instances fired in order, pass count, outcome, the run's Entailer."""

    fired: list[GroundHornClause] = field(default_factory=list)
    passes: int = 0
    inconsistent: Atom | None = None
    result: bool | None = None
    entailer: slat.Entailer | None = field(default=None, compare=False, repr=False)


def saturate(problem: PurifiedProblem, fire=lambda clause, ent: (clause.conclusion,),
             encoding: slat.PropHornProblem | None = None, *, to_fixpoint: bool = False) -> Trace:
    """Forward chaining over the instances, in breadth-first passes.

    Each pass checks the goal and then the negative literals, and fires,
    in clause order, every instance whose premise was entailed at the
    start of the pass. fire(clause, ent) returns the atoms that firing
    adds; ent holds a0, b0 and the atoms added so far, and a hook may
    query it: seeds and targets are constants, so the meets a query
    registers wake nothing.
    The atoms are encoded once, and an instance is built only when it
    fires: once the pass-0 checks fail, the closures of the seeds
    (InstanceSpace) are built and each derivable (seed, target) pair
    wakes its instances; later, the pairs the added atoms make derivable
    wake the instances of the next pass. Inclusion instances have no
    premise and fire in pass 1. Names made while chaining (interpolation
    splits) are not in problem.flat and add no instances. The result is
    true when the goal is entailed or a negative literal is
    contradicted, false at the fixpoint.
    encoding, when given, is the Entailer's encoding of a0 then b0
    (slat.Entailer), used instead of encoding them again. With
    to_fixpoint nothing is checked: the run fires every instance whose
    premise becomes derivable, its result is False, and the caller asks
    its Entailer.
    """
    checked = (problem.goal, *problem.neg_a, *problem.neg_b)
    ent = slat.Entailer([*problem.a0, *problem.b0], [t for a in checked for t in (a.lhs, a.rhs)],
                        encoding=encoding)
    space = InstanceSpace(problem.axioms, problem.flat, problem.defs)
    trace = Trace(entailer=ent)
    seeds: dict[int, dict[tuple, list[int]]] | None = None
    targets: dict[int, list[tuple[tuple, int]]] = {}

    def wake(pairs) -> list[tuple]:
        """Keys of the instances whose premise is one of the variable pairs."""
        out = []
        for s, v in pairs:
            groups = seeds.get(s)
            if groups:
                for group, j in targets.get(v, ()):
                    out.extend(k for i in groups.get(group, ()) if space.proper(k := (*group, i, j)))
        return out

    while True:
        for k, atom in enumerate(() if to_fixpoint else checked):
            if ent.holds(atom):
                trace.inconsistent = atom if k else None
                trace.result = True
                return trace
        if seeds is None:
            # seed closures are built only once the pass-0 checks fail
            seeds = {}
            for group, seed_terms, target_terms in space.premise_groups():
                for i, t in enumerate(seed_terms):
                    seeds.setdefault(ent.var(t), {}).setdefault(group, []).append(i)
                for j, t in enumerate(target_terms):
                    targets.setdefault(ent.var(t), []).append((group, j))
            ready = sorted([*space.incl_keys(), *wake((s, v) for s in seeds for v in ent.above(s))])
        if not ready:
            trace.result = False
            return trace
        trace.passes += 1
        woken = []
        for key in ready:
            clause = space.clause(key)
            trace.fired.append(clause)
            for atom in fire(clause, ent):
                woken += wake(ent.add(atom))
        ready = sorted(woken)


def decide(problem: PurifiedProblem) -> tuple[bool, Trace]:
    """Decide the purified problem by saturate(), firing conclusions."""
    trace = saturate(problem)
    return trace.result, trace


def entails(a_atoms, b_atoms, goal: Leq, axioms: AxiomSet, *, neg_a=(), neg_b=(),
            support: dict[str, set[int]] | None = None) -> bool:
    """Ground entailment in the extended theory.

    When the goal is entailed and support is a dict, it is filled with
    the positions, per argument ("a", "b", "na", "nb", "ax"), of the
    inputs one proof uses: those alone entail the goal.
    """
    problem = prepare_problem(a_atoms, b_atoms, goal, axioms, neg_a=neg_a, neg_b=neg_b)
    result, trace = decide(problem)
    if result and support is not None:
        support.update(proof_support(problem, trace, a_atoms, b_atoms))
    return result


def proof_support(problem: PurifiedProblem, trace: Trace, a_atoms, b_atoms) -> dict[str, set[int]]:
    """Input positions one proof found by a successful saturate() uses.

    The positions, per argument ("a", "b", "na", "nb", "ax"), are the
    leaves of the trace's proof (ProofBuilder): the inputs its input
    steps stand for (an = input for two atoms), the negative literal
    found contradicted, and for each incl or comp step every axiom with
    its schema and functions. Binder atoms are definitions and mon needs
    no axiom. The trace must come from decide(), whose fire adds just
    each conclusion; else ValueError.
    """
    proofs = ProofBuilder(problem, trace.entailer, trace.fired, input_owners(problem, a_atoms, b_atoms))
    return proofs.support(proofs.conclude(trace))


def input_owners(problem: PurifiedProblem, a_atoms, b_atoms) -> list[tuple[str, int] | None]:
    """The input ("a" or "b", position) of each purified atom of a0, then b0.

    An = input owns two atoms; binder atoms, which define fresh names,
    have no owner (None).
    """
    owner: list[tuple[str, int] | None] = []
    for kind, atoms, purified in (("a", a_atoms, problem.a0), ("b", b_atoms, problem.b0)):
        inputs = [(kind, i) for i, x in enumerate(atoms) for _ in expand_eqs([x])]
        owner += inputs + [None] * (len(purified) - len(inputs))
    return owner


def axiom_key(ax) -> tuple:
    """The schema and functions of an axiom, as instance provenance names them."""
    return ("incl", ax.f, ax.g) if isinstance(ax, Inclusion) else ("comp", ax.f, ax.g, ax.h)


def instance_axiom(clause: GroundHornClause) -> tuple:
    """The axiom_key of the axiom an incl or comp instance comes from."""
    return clause.provenance[:3 if clause.provenance[0] == "incl" else 4]


def proof_kernel(atoms, negatives, axioms: AxiomSet, definitions) -> Kernel:
    """A proof kernel over these premises and (name, term) definitions."""
    return Kernel(atoms, negatives, axioms.functions, {axiom_key(ax) for ax in axioms.axioms}, definitions)


class ProofBuilder:
    """Kernel proofs (kernel.py) read off the reasons of one saturate() run.

    ent is the run's Entailer. Its atoms are a0 then b0, whose owners
    (input_owners) are given, then one atom per clause of clauses: the
    conclusion of a fired instance or of a split piece, in order. A pair
    (s, v) of the closure of s is the step its recorded reason gives: refl
    for s itself, trans through the atoms of a chain of atom clauses (the
    atom's own step for a chain of one from s), a meet rule for a meet
    clause. An atom is an input step, a refl step when it is a binder atom
    (its name expands to its term), or its clause's instance over the
    steps of its premises.
    A cached closure grows only through add(), so a reason names only
    atoms added before its pair became derivable, and the walk, an
    iterative depth-first search, ends; every pair and atom becomes one
    step, however many proofs use it.
    """

    def __init__(self, problem: PurifiedProblem, ent: slat.Entailer, clauses, owner):
        if len(ent.atoms) != len(owner) + len(clauses):
            raise ValueError("a proof needs a run that added one atom per clause")
        self.problem, self.ent, self.clauses, self.owner = problem, ent, clauses, owner
        self.steps: list[tuple] = []
        self.leaf: dict[int, tuple] = {}
        self.made: dict[tuple[int, int], int] = {}

    def derive(self, atom: Leq) -> int:
        """Position of a step concluding the atom, over the run's terms."""
        index = self.ent.problem.index
        return self._make((index[atom.lhs], index[atom.rhs]))

    def conclude(self, trace: Trace) -> int:
        """Position of the step concluding a successful run's goal."""
        problem = self.problem
        if trace.inconsistent is None:
            return self.derive(problem.goal)
        premises = tuple(self.derive(x) for x in expand_eqs([trace.inconsistent]))
        k = (*problem.neg_a, *problem.neg_b).index(trace.inconsistent)
        return self._add(("contra", problem.goal, premises, ()),
                         ("na", k) if k < len(problem.neg_a) else ("nb", k - len(problem.neg_a)))

    def _used(self, root: int) -> list[int]:
        keep = {root}
        for k in range(root, -1, -1):
            if k in keep:
                keep.update(self.steps[k][2])
        return sorted(keep)

    def proof(self, root: int) -> list[tuple]:
        """The steps root rests on, renumbered in order, root last.

        Steps are kept in a short form until here: a pair step's atom as
        the pair, an input step's detail as its atom's position, which
        becomes the kernel's premise number, counting owned atoms only.
        """
        used, terms = self._used(root), self.ent.problem.terms
        new = {k: i for i, k in enumerate(used)}
        premise = {v: k for k, v in enumerate(v for v, o in enumerate(self.owner) if o is not None)}
        return [(rule, atom if isinstance(atom, Leq) else Leq(terms[atom[0]], terms[atom[1]]),
                 tuple(new[p] for p in premises), (premise[detail[0]],) if rule == "input" else detail)
                for rule, atom, premises, detail in map(self.steps.__getitem__, used)]

    def support(self, root: int) -> dict[str, set[int]]:
        """The input positions, per argument, the proof of root rests on."""
        support: dict[str, set[int]] = {"a": set(), "b": set(), "na": set(), "nb": set(), "ax": set()}
        for k in self._used(root):
            kind, what = self.leaf.get(k, (None, None))
            if kind == "ax":
                support["ax"] |= {i for i, ax in enumerate(self.problem.axioms.axioms) if axiom_key(ax) == what}
            elif kind is not None:
                support[kind].add(what)
        return support

    def _add(self, step: tuple, leaf: tuple | None = None) -> int:
        if leaf is not None:
            self.leaf[len(self.steps)] = leaf
        self.steps.append(step)
        return len(self.steps) - 1

    def _make(self, root: tuple[int, int]) -> int:
        made, plans, stack = self.made, {}, [root]
        while stack:
            node = stack.pop()
            if node in made:
                continue
            if node in plans:
                rule, atom, deps, detail, leaf = plans[node]
                premises = tuple(map(made.__getitem__, deps))
                made[node] = premises[0] if rule is None else self._add((rule, atom, premises, detail), leaf)
                continue
            plans[node] = plan = self._plan(node)
            stack.append(node)
            for d in plan[2]:
                if d not in made:
                    if d in plans:
                        raise RuntimeError("cyclic derivation")
                    stack.append(d)
        return made[root]

    def _plan(self, node: tuple[int, int]) -> tuple:
        """(rule, atom, nodes, detail, leaf) of the step of node, (-1, i) for
        atom i and (s, v) for v in the closure of s; rule None when the
        step is that of its one node."""
        s, v = node
        problem, n0 = self.ent.problem, len(self.owner)
        if s < 0 and v < n0:
            atom, owner = self.ent.atoms[v], self.owner[v]
            return ("refl", atom, (), (), None) if owner is None else ("input", atom, (), (v,), owner)
        if s < 0:
            clause = self.clauses[v - n0]
            prov, index = clause.provenance, problem.index
            leaf = None if prov[0] == "mon" else ("ax", instance_axiom(clause))
            deps = tuple((index[p.lhs], index[p.rhs]) for p in clause.premises)
            return prov[0], clause.conclusion, deps, prov[1:], leaf
        reasons, terms = self.ent.reasons(s), problem.terms
        cid = reasons.get(v, -1)
        if cid is None:
            return "refl", node, (), (), None
        if cid < 0:
            raise RuntimeError(f"saturation reported {format_atom(Leq(terms[s], terms[v]))} without a proof")
        premises, origin = problem.clauses[cid][0], problem.origin[cid]
        x = premises[0]
        if origin >= 0:
            # follow the chain of atom clauses back to s or to a meet clause
            chain = [(-1, origin)]
            while reasons[x] is not None and problem.origin[reasons[x]] >= 0:
                chain.append((-1, problem.origin[reasons[x]]))
                x = problem.clauses[reasons[x]][0][0]
            if x != s:
                chain.append((s, x))
            return (None if len(chain) == 1 else "trans"), node, tuple(reversed(chain)), (), None
        if len(premises) == 1:
            m = terms[x]
            return "meet_r" if terms[v] == m.args[-1] else "meet_l", node, ((s, x),), (m,), None
        m = terms[v]
        left = m.args[0] if len(m.args) == 2 else Meet(m.args[:-1])
        return "meet_i", node, ((s, problem.index[left]), (s, problem.index[m.args[-1]])), (), None


# ---------------------------------------------------------------------------
# justification


@dataclass
class Justification:
    """Indices of the kept literals and axioms after minimization."""

    kept_a: tuple[int, ...]
    kept_b: tuple[int, ...]
    kept_neg_a: tuple[int, ...]
    kept_neg_b: tuple[int, ...]
    kept_axioms: tuple[int, ...]


def minimize_axioms(a_atoms, b_atoms, goal: Leq, axioms: AxiomSet, *,
                    neg_a=(), neg_b=(), pinned_a=(), pinned_b=()) -> Justification:
    """Deletion based minimization of literals and axioms, guided by proofs.

    Candidates are tried one at a time, later input positions first, so
    axioms listed earlier are kept in preference to later alternatives.
    Every drop is permanent when the goal stays entailed. The result is
    minimal: dropping any kept member breaks the entailment. Pinned
    literal positions are never offered for deletion.

    All inputs are purified, psi-closed and named once, and their terms
    registered once in one meet-clause-only encoding. saturate() runs
    once over all inputs, to the fixpoint, and its Entailer becomes a
    slat.SelectorProgram: a selector node per input gates the atoms the
    input owns, and a node per fired instance, reached from its premise
    pair and for incl and comp its axiom's selector, gates the
    instance's conclusion. A decision is one propagation over that
    program from the kept selectors. Its verdict is the one saturating
    the kept inputs gives: a derivation from them only uses pairs and
    instances true in the full fixpoint (entailment is monotone), so
    each of its steps is an edge of the program, and each edge is a
    sound step once its gate is true. That saturation in turn gives the
    verdict of a fresh preparation of the kept inputs: a larger
    psi-closed term set keeps decide's verdict, a set closed under all
    the axioms is closed under any subset of them, and binder atoms are
    conservative definitions of fresh names.

    A successful decision also gives the support of one derivation: the
    selectors its reasons reach. A candidate outside the current support
    is dropped without a decision, since what is left still holds that
    derivation; a candidate inside it is decided, and a successful drop
    refreshes the support. Whichever derivation a decision finds, each
    drop is one that deciding it would make, so the result is the one
    deciding every candidate gives. The final kept set is saturated once
    more, with the removed inputs masked out of the prepared problem;
    the kernel checks that run's proof against the kept inputs, and the
    proof must use no dropped input.
    """
    inputs = {"a": tuple(a_atoms), "b": tuple(b_atoms), "na": tuple(neg_a),
              "nb": tuple(neg_b), "ax": axioms.axioms}
    keep = {kind: set(range(len(xs))) for kind, xs in inputs.items()}
    problem = prepare_problem(inputs["a"], inputs["b"], goal, axioms, neg_a=neg_a, neg_b=neg_b)
    owner = input_owners(problem, inputs["a"], inputs["b"])
    atoms = (*problem.a0, *problem.b0)
    terms = [t for x in (*atoms, problem.goal, *problem.neg_a, *problem.neg_b) for t in (x.lhs, x.rhs)]
    terms += [t for fn, arg in problem.flat for t in (arg, Const(problem.defs[(fn, arg)]))]
    base = slat.encode((), terms)
    clause_of = [((base.index[x.lhs],), base.index[x.rhs]) for x in atoms]

    def encoding(live) -> slat.PropHornProblem:
        """A copy of the shared encoding with the clauses of the live atoms."""
        out = base.copy()
        for k, p in enumerate(live):
            out.add_clause(*clause_of[p], k)
        return out

    full = saturate(problem, encoding=encoding(range(len(atoms))), to_fixpoint=True)
    ent, fired = full.entailer, full.fired
    if not any(map(ent.holds, (problem.goal, *problem.neg_a, *problem.neg_b))):
        raise NotEntailed(f"goal not entailed: {format_atom(goal)}")
    # one selector node per input, then one node per fired instance
    selectors = [(kind, i) for kind, xs in inputs.items() for i in range(len(xs))]
    node = {key: k for k, key in enumerate(selectors)}
    by_axiom: dict[tuple, list[tuple[int]]] = {}
    for i, ax in enumerate(axioms.axioms):
        by_axiom.setdefault(axiom_key(ax), []).append((node["ax", i],))
    index, n = ent.problem.index, len(selectors)
    rules = [([(index[p.lhs], index[p.rhs]) for p in clause.premises], extra, k)
             for k, clause in enumerate(fired, n)
             for extra in ([()] if clause.provenance[0] == "mon" else by_axiom[instance_axiom(clause)])]
    goals = [([(index[x.lhs], index[x.rhs]) for x in expand_eqs([atom])], extra) for atom, extra in (
        (problem.goal, ()), *((x, (node["na", i],)) for i, x in enumerate(problem.neg_a)),
        *((x, (node["nb", i],)) for i, x in enumerate(problem.neg_b)))]
    gate = [None if o is None else node[o] for o in owner] + list(range(n, n + len(fired)))
    program = slat.SelectorProgram(ent, n + len(fired), gate, rules, goals)

    def decide() -> set[tuple[str, int]] | None:
        """The inputs one derivation from the kept ones uses, or None."""
        used = program.decide([node[kind, i] for kind, ids in keep.items() for i in ids])
        return None if used is None else {selectors[k] for k in used if k < n}

    support = decide()
    candidates = [
        *(("a", i) for i in range(len(a_atoms)) if i not in set(pinned_a)),
        *(("na", i) for i in range(len(neg_a))),
        *(("b", i) for i in range(len(b_atoms)) if i not in set(pinned_b)),
        *(("nb", i) for i in range(len(neg_b))),
        *(("ax", i) for i in range(len(axioms.axioms))),
    ]
    for kind, i in reversed(candidates):
        keep[kind].discard(i)
        if (kind, i) in support:
            found = decide()
            if found is None:
                keep[kind].add(i)
            else:
                support = found
    # the final kept set is saturated with the removed inputs masked out
    live = [p for p, o in enumerate(owner) if o is None or o[1] in keep[o[0]]]
    kept = {kind: sorted(keep[kind]) for kind in ("na", "nb", "ax")}
    masked = replace(
        problem,
        a0=tuple(atoms[p] for p in live if p < len(problem.a0)),
        b0=tuple(atoms[p] for p in live if p >= len(problem.a0)),
        neg_a=tuple(problem.neg_a[i] for i in kept["na"]),
        neg_b=tuple(problem.neg_b[i] for i in kept["nb"]),
        axioms=AxiomSet(axioms.functions, tuple(axioms.axioms[i] for i in kept["ax"])),
    )
    trace = saturate(masked, encoding=encoding(live))
    if not trace.result:
        raise RuntimeError(f"minimized premises do not entail {format_atom(goal)}")
    # the kernel checks the final proof against the kept inputs alone
    proofs = ProofBuilder(masked, trace.entailer, trace.fired, [owner[p] for p in live])
    root = proofs.conclude(trace)
    try:
        kernel = proof_kernel([inputs[kind][i] for kind in ("a", "b") for i in sorted(keep[kind])],
                              [inputs[kind][i] for kind in ("na", "nb") for i in sorted(keep[kind])],
                              masked.axioms, tuple(problem.unfold_map().items()))
        kernel.check(proofs.proof(root), goal)
    except Rejected as e:
        raise RuntimeError(f"proof of {format_atom(goal)} rejected: {e}") from e
    found = proofs.support(root)
    used = {(kind, i) for kind in ("a", "b") for i in found[kind]} | {
        (kind, ids[j]) for kind, ids in kept.items() for j in found[kind]}
    if any(i not in keep[kind] for kind, i in used):
        raise RuntimeError(f"proof of {format_atom(goal)} uses a dropped input")
    return Justification(
        kept_a=tuple(sorted(keep["a"])),
        kept_b=tuple(sorted(keep["b"])),
        kept_neg_a=tuple(sorted(keep["na"])),
        kept_neg_b=tuple(sorted(keep["nb"])),
        kept_axioms=tuple(sorted(keep["ax"])),
    )
