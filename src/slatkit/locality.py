"""Semilattices extended by monotone unary operators with extra Horn laws.

The extension is local: an entailment over ground literals holds exactly
when it holds after replacing every operator application by a fresh
constant and adding finitely many instances of the axioms, taken over a
closed set of application terms. The closure, the instances and the
forward chaining loop that decides entailment live here.
"""

from __future__ import annotations

from operator import attrgetter

from . import slat
from .kernel import Kernel, Rejected
from .terms import (
    App,
    Atom,
    Const,
    Eq,
    Frozen,
    GroundHornClause,
    Leq,
    Record,
    Term,
    expand_eqs,
    field,
    format_atom,
    functions_in_order,
    mk_meet,
    term_key,
)


class NotEntailed(Exception):
    """The requested consequence does not follow from the premises."""


# ---------------------------------------------------------------------------
# axioms


# how many functions an instance's provenance names after its schema
SCHEMA_FUNCTIONS = {"mon": 1, "incl": 2, "comp": 3}


class Inclusion(Frozen):
    """forall x: f(x) <= g(x); schema is its instances' provenance tag,
    keyword its .slp name and fns its functions."""

    schema, keyword = "incl", "inclusion"
    f: str
    g: str
    fns = property(attrgetter("f", "g"))


class Composition(Frozen):
    """forall x, y: y <= g(x) implies f(y) <= h(x)"""

    schema, keyword = "comp", "composition"
    f: str
    g: str
    h: str
    fns = property(attrgetter("f", "g", "h"))


class AxiomSet(Frozen):
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
            for f in ax.fns:
                if f not in seen:
                    raise ValueError(f"axiom uses undeclared function {f}")


# flat application term: function symbol paired with its pure argument
FlatTerm = tuple[str, Term]


class PurifiedProblem(Record):
    """Ground problem with applications replaced by fresh constants.

    flat is the psi-closed flat term set in psi_closure's order, every
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
    axioms: AxiomSet
    flat: tuple[FlatTerm, ...] = ()
    purifier: "_Purifier | None" = field(default=None, repr=False)

    def unfold_map(self) -> dict[str, Term]:
        """Every fresh name mapped to the term it stands for, in the order
        the names were made: a term uses only names made before it."""
        return {name: App(*self.names[name]) if name in self.names else self.binders[name]
                for name in self.purifier.made}


class _Purifier:
    def __init__(self, used: set[str]):
        self.used = set(used)
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

    def name_for(self, fn: str, arg: Term) -> str:
        key = (fn, arg)
        name = self.defs.get(key)
        if name is None:
            base = f"{fn}_{arg.name}" if isinstance(arg, Const) else f"{fn}_t{len(self.defs) + 1}"
            name = self.fresh(base)
            self.defs[key] = name
            self.names[name] = key
            self.made.append(name)
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
            self.pending.append(Leq(Const(name), t))
            self.pending.append(Leq(t, Const(name)))
        return Const(name)

    def pure(self, t: Term) -> Term:
        """t with every application named, bottom up, from a stack: a
        constant, or an application to one, is a base case; any other node
        waits, in a 1-tuple, under its children, so names are made left to
        right, inside out. out holds pure terms; memo, made at the first
        such node, holds each one's pure term, so a shared one is walked
        once. A term with no function symbol comes back as it is, unwalked."""
        if not t._fns:
            return t
        stack, out, memo = [t], [], None
        while stack:
            x = stack.pop()
            if x.__class__ is Const:
                out.append(x)
            elif x.__class__ is App and x.arg.__class__ is Const:
                out.append(Const(self.name_for(x.fn, x.arg)))
            elif x.__class__ is tuple:
                x, = x
                if x.__class__ is App:
                    arg = out.pop()
                    out.append(Const(self.name_for(x.fn, arg if arg.__class__ is Const else self.bind(arg))))
                else:
                    out[-len(x.args):] = [mk_meet(out[-len(x.args):])]
                memo[x] = out[-1]
            elif memo is not None and x in memo:
                out.append(memo[x])
            else:
                memo = {} if memo is None else memo
                stack += ((x,), x.arg) if x.__class__ is App else ((x,), *x.args[::-1])
        return out[0]

    def pure_atom(self, a: Atom) -> Atom:
        """a with both sides pure: a itself when neither side changed."""
        lhs, rhs = self.pure(a.lhs), self.pure(a.rhs)
        return a if lhs is a.lhs and rhs is a.rhs else type(a)(lhs, rhs)

    def drain(self) -> list[Leq]:
        out, self.pending = self.pending, []
        return out


def flatten_purify(a_atoms, b_atoms, goal: Leq, *, neg_a=(), neg_b=(),
                   axioms: AxiomSet | None = None,
                   reserved=()) -> tuple[PurifiedProblem, tuple[FlatTerm, ...]]:
    """Replace applications by fresh constants, bottom up.

    Nested applications are named inside out, so f(g(a)) contributes the
    flat terms (g, a) and (f, g_a). Fresh names avoid every symbol of the
    input and the reserved ones. Returns the purified problem (its flat
    term set not yet closed) and the flat terms that occurred, in the
    order they were named: psi_closure sorts the set once.
    """
    a_atoms, b_atoms = expand_eqs(a_atoms), expand_eqs(b_atoms)
    neg_a, neg_b = tuple(neg_a), tuple(neg_b)
    symbols = check_input((*a_atoms, *b_atoms, *neg_a, *neg_b), goal, axioms)
    purifier = _Purifier(symbols | set(reserved))

    def do_side(side: str, atoms, out_pos: list):
        purifier.side = side
        out = []
        for x in atoms:
            out.append(purifier.pure_atom(x))
            if purifier.pending:
                out_pos += purifier.drain()
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
        axioms=axioms if axioms is not None else AxiomSet(()),
        purifier=purifier,
    )
    return problem, tuple(purifier.defs)


def check_input(atoms, goal: Leq, axioms: AxiomSet | None) -> set[str]:
    """The names of the atoms, the goal and the axioms' functions.

    Raises ValueError for a goal that is not a <= atom and, given axioms,
    for an undeclared function, naming the first in term order (atoms in
    order, each lhs then rhs), then for a function name used as a constant.
    """
    if not isinstance(goal, Leq):
        raise ValueError("goal must be a <= atom")
    atoms, fns, consts = (*atoms, goal), set(), set()
    for a in atoms:
        fns.update(a.lhs._fns, a.rhs._fns)
        consts.update(a.lhs._consts, a.rhs._consts)
    if axioms is None:
        return fns | consts
    declared = set(axioms.functions)
    if not fns <= declared:
        order = functions_in_order(*(t for a in atoms for t in (a.lhs, a.rhs)))
        raise ValueError(f"undeclared function {next(f for f in order if f not in declared)}")
    if consts & declared:
        raise ValueError(f"used as both constant and function: {min(consts & declared)}")
    return declared | consts


def psi_closure(flat_terms, axioms: AxiomSet) -> tuple[FlatTerm, ...]:
    """Close a flat term set under the argument pairing of the axioms.

    An inclusion between f and g pairs f(c) with g(c) in both directions;
    a composition with inner g and conclusion h pairs g(c) with h(c). The
    outer function of a composition is not paired. The result is the
    least closed superset, sorted by function, then by term_key of the
    argument: the one sort of a preparation's flat term set. When no
    axiom links two distinct functions every set is closed, and the set
    is only sorted.
    """
    linked: dict[str, set[str]] = {}
    for ax in axioms.axioms:
        f1, f2 = ax.fns[-2:]
        if f1 != f2:
            linked.setdefault(f1, set()).add(f2)
            linked.setdefault(f2, set()).add(f1)
    closed = set(flat_terms)
    todo = list(closed) if linked else ()
    while todo:
        fn, arg = todo.pop()
        for other in linked.get(fn, ()):
            if (other, arg) not in closed:
                closed.add((other, arg))
                todo.append((other, arg))
    return tuple(sorted(closed, key=lambda ft: (ft[0], term_key(ft[1]))))


class InstanceSpace:
    """The ground instances of Mon and of the axioms over a flat term set.

    Every instance has an order key, and the key order is the clause
    order: mon (0, function, c, d) for each function over ordered pairs
    of distinct arguments, incl (1, axiom, c), comp (2, axiom, d, c),
    with functions and axioms in declaration order and arguments by
    position in sorted order. Instances whose conclusion is reflexive
    have no key. clause(key) builds an instance; instantiate() lists all
    of them and saturate() builds only those it fires.

    The flat terms are psi-closed, named in defs and in psi_closure's
    order, so an inclusion's f and g, and a composition's g and h, have
    one argument list (args_of); names_of holds the names, built once.

    Mon and comp instances have one premise seed <= target, grouped by
    (schema, index): mon over function f has the arguments of f as seeds
    and as targets, comp over an axiom has the arguments of its outer f
    as seeds and the names of g(c) as targets. In a diagonal group (mon,
    comp with f = h) the pairs (i, i), and only they, conclude x <= x.
    """

    def __init__(self, axioms: AxiomSet, flat_terms, defs: dict[FlatTerm, str]):
        self.axioms = axioms
        self.args_of: dict[str, list[Term]] = {f: [] for f in axioms.functions}
        self.names_of: dict[str, list[Const]] = {f: [] for f in axioms.functions}
        for ft in flat_terms:
            self.args_of[ft[0]].append(ft[1])
            self.names_of[ft[0]].append(Const(defs[ft]))

    def premise_groups(self, var):
        """(group, seeds, targets, diagonal) per premise schema, in key
        order, with var(term) for each seed and target term, once."""
        seeds = {f: [var(c) for c in args] for f, args in self.args_of.items()}
        for i, f in enumerate(self.axioms.functions):
            yield (0, i), seeds[f], seeds[f], True
        for i, ax in enumerate(self.axioms.axioms):
            if isinstance(ax, Composition):
                yield (2, i), seeds[ax.f], [var(c) for c in self.names_of[ax.g]], ax.f == ax.h

    def incl_keys(self):
        """Keys of the premise-free inclusion instances, in order."""
        for i, ax in enumerate(self.axioms.axioms):
            if isinstance(ax, Inclusion) and ax.f != ax.g:
                yield from ((1, i, c) for c in range(len(self.args_of[ax.f])))

    def keys(self) -> list[tuple]:
        """Every instance key, in clause order."""
        pairs = [(*group, i, j) for group, seeds, targets, diagonal in self.premise_groups(lambda t: t)
                 for i in range(len(seeds)) for j in range(len(targets)) if i != j or not diagonal]
        return sorted([*pairs, *self.incl_keys()])

    def clause(self, key: tuple) -> GroundHornClause:
        """The instance with this key."""
        args, names = self.args_of, self.names_of
        if key[0] == 0:
            f = self.axioms.functions[key[1]]
            c, d = args[f][key[2]], args[f][key[3]]
            return GroundHornClause((Leq(c, d),), Leq(names[f][key[2]], names[f][key[3]]), ("mon", f, c, d))
        ax = self.axioms.axioms[key[1]]
        if key[0] == 1:
            return GroundHornClause(
                (), Leq(names[ax.f][key[2]], names[ax.g][key[2]]), ("incl", ax.f, ax.g, args[ax.f][key[2]]),
            )
        d, c = args[ax.f][key[2]], args[ax.g][key[3]]
        return GroundHornClause(
            (Leq(d, names[ax.g][key[3]]),),
            Leq(names[ax.f][key[2]], names[ax.h][key[3]]),
            ("comp", ax.f, ax.g, ax.h, d, c),
        )


def instantiate(axioms: AxiomSet, flat_terms, defs: dict[FlatTerm, str]) -> tuple[GroundHornClause, ...]:
    """Every ground instance over the flat term set, in clause order.

    The set must be psi-closed and every flat term named in defs. This
    is the eager enumeration of InstanceSpace; saturate() generates the
    same instances lazily.
    """
    terms = set(flat_terms)
    if set(closed := psi_closure(terms, axioms)) != terms:
        raise ValueError("flat term set is not psi-closed")
    for ft in terms:
        if ft not in defs:
            raise ValueError(f"unnamed flat term {ft[0]}({ft[1]})")
    space = InstanceSpace(axioms, closed, defs)
    return tuple(space.clause(k) for k in space.keys())


def prepare_problem(a_atoms, b_atoms, goal: Leq, axioms: AxiomSet, *,
                    neg_a=(), neg_b=(), reserved=()) -> PurifiedProblem:
    """Purify, close the term set and name the new terms.

    No instance is built here: saturate() generates them from the closed
    set (problem.flat) as their premises become derivable.
    """
    problem, est = flatten_purify(
        a_atoms, b_atoms, goal, neg_a=neg_a, neg_b=neg_b, axioms=axioms, reserved=reserved,
    )
    problem.flat = psi_closure(est, axioms)
    if len(problem.flat) > len(est):   # name the terms the closure added, in flat order
        for fn, arg in problem.flat:
            problem.purifier.name_for(fn, arg)
    return problem


# ---------------------------------------------------------------------------
# forward chaining


class Trace(Record):
    """Chaining record: instances fired in order, pass count, outcome, the run's Entailer."""

    fired: list[GroundHornClause] = field(default_factory=list)
    passes: int = 0
    inconsistent: Atom | None = None
    result: bool | None = None
    entailer: slat.Entailer | None = field(default=None, compare=False, repr=False)


def saturate(problem: PurifiedProblem, fire=lambda clause, ent: (clause.conclusion,), *,
             to_fixpoint: bool = False) -> Trace:
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
    wake the instances of the next pass, once its checks fail, so a
    pass that ends the run wakes nothing. Inclusion instances have no
    premise and fire in pass 1. Names made while chaining (interpolation
    splits) are not in problem.flat and add no instances. The result is
    true when the goal is entailed or a negative literal is
    contradicted, false at the fixpoint. With to_fixpoint nothing is
    checked: the run fires every instance whose premise becomes
    derivable, its result is False, and the caller asks its Entailer.
    """
    checked = (problem.goal, *problem.neg_a, *problem.neg_b)
    ent = slat.Entailer([*problem.a0, *problem.b0], [t for a in checked for t in (a.lhs, a.rhs)])
    space = InstanceSpace(problem.axioms, problem.flat, problem.defs)
    trace = Trace(entailer=ent)
    seeds: dict[int, dict[tuple, int]] | None = None
    targets: dict[int, list[tuple[tuple, int, int]]] = {}
    made: list[tuple[int, int]] = []
    while True:
        for k, atom in enumerate(() if to_fixpoint else checked):
            if ent.holds(atom):
                trace.inconsistent = atom if k else None
                trace.result = True
                return trace
        ready = []
        if seeds is None:
            # seed closures are built only once the pass-0 checks fail
            seeds = {}
            for group, seed_vars, target_vars, diagonal in space.premise_groups(ent.var):
                for i, s in enumerate(seed_vars):   # a group's seeds are distinct terms
                    seeds.setdefault(s, {})[group] = i
                for j, v in enumerate(target_vars):   # with the seed of the pair concluding x <= x
                    targets.setdefault(v, []).append((group, j, j if diagonal else -1))
            ready, made = [*space.incl_keys()], [(s, v) for s in seeds for v in ent.above(s)]
        # the instances whose premise is a pair made derivable since the last checks
        for s, v in made:
            at = seeds.get(s)
            if at:
                for group, j, skip in targets.get(v, ()):
                    i = at.get(group, skip)   # no seed here reads as the one to skip
                    if i != skip:
                        ready.append((*group, i, j))
        if not ready:
            trace.result = False
            return trace
        trace.passes += 1
        made = []
        for key in sorted(ready):
            clause = space.clause(key)
            trace.fired.append(clause)
            for atom in fire(clause, ent):
                made += ent.add(atom)


def decide(problem: PurifiedProblem) -> tuple[bool, Trace]:
    """Decide the purified problem by saturate(), firing conclusions."""
    trace = saturate(problem)
    return trace.result, trace


def entails(a_atoms, b_atoms, goal: Leq, axioms: AxiomSet, *, neg_a=(), neg_b=()) -> bool:
    """Ground entailment in the extended theory."""
    problem = prepare_problem(a_atoms, b_atoms, goal, axioms, neg_a=neg_a, neg_b=neg_b)
    return decide(problem)[0]


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
    return (ax.schema, *ax.fns)


def instance_axiom(clause: GroundHornClause) -> tuple:
    """The axiom_key of the axiom an incl or comp instance comes from."""
    prov = clause.provenance
    return prov[:1 + SCHEMA_FUNCTIONS[prov[0]]]


def proof_kernel(atoms, negatives, axioms: AxiomSet, definitions) -> Kernel:
    """A proof kernel over these premises and (name, term) definitions."""
    return Kernel(atoms, negatives, axioms.functions, {axiom_key(ax) for ax in axioms.axioms}, definitions)


class ProofBuilder:
    """Kernel proofs (kernel.py) read off the reasons of one saturate() run.

    ent is the run's Entailer. Its atoms are a0 then b0, whose owners
    (input_owners) are given, then one atom per clause of clauses: the
    conclusion of a fired instance or of a split piece, in order. A pair
    (s, v) of the closure of s is the step its reason gives: refl for s
    itself, trans through the atoms of a chain of atom clauses (the
    atom's own step for a chain of one from s), a meet rule for a meet
    clause. An atom is an input step, a refl step when it is a binder atom
    (its name expands to its term), or its clause's instance over the
    steps of its premises.
    closures(s) is the closure of s: each v true in it, with the clause
    that made it true (None for s itself): by default the run's cached
    closures (Entailer.reasons), else a derivation's over the same atoms
    (slat.SelectorProgram.reasons). Either names only atoms true before
    its pair, so the walk, an iterative depth-first search, ends; every
    pair and atom becomes one step, however many proofs use it. A proof
    and a support read only the steps their root rests on, found by one
    walk per root.
    kept(kind, i) says which inputs a proof may rest on: premise numbers
    count the atoms of kept inputs only, and an incl or comp step rests
    on the kept axioms of its schema, or on its dropped ones when none
    is kept.
    """

    def __init__(self, problem: PurifiedProblem, ent: slat.Entailer, clauses, owner,
                 closures=None, kept=lambda kind, i: True):
        if len(ent.atoms) != len(owner) + len(clauses):
            raise ValueError("a proof needs a run that added one atom per clause")
        self.problem, self.ent, self.clauses, self.owner = problem, ent, clauses, owner
        self.closures, self.kept = closures or ent.reasons, kept
        self.steps: list[tuple] = []
        self.leaf: dict[int, tuple] = {}
        self.made: dict[tuple[int, int], int | None] = {}
        self.uses: dict[int, list[int]] = {}
        # an owned atom's position: its premise number, counting kept inputs' atoms only
        self.premise = {v: k for k, v in enumerate(v for v, o in enumerate(owner) if o and kept(*o))}

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
        self.leaf[len(self.steps)] = ("na", k) if k < len(problem.neg_a) else ("nb", k - len(problem.neg_a))
        self.steps.append(("contra", problem.goal, premises, ()))
        return len(self.steps) - 1

    def _used(self, root: int) -> list[int]:
        """The steps root rests on, in order: one walk from root, for support and proof alike."""
        if root not in self.uses:
            keep, todo, steps = set(), [root], self.steps
            while todo:
                k = todo.pop()
                if k not in keep:
                    keep.add(k)
                    todo += steps[k][2]
            self.uses[root] = sorted(keep)
        return self.uses[root]

    def proof(self, root: int) -> list[tuple]:
        """The steps root rests on, renumbered in order, root last.

        Steps are kept in a short form until here: a pair step's atom as
        the pair, an input step's detail as its atom's position, which
        becomes the kernel's premise number, counting owned atoms only.
        """
        used, terms, premise = self._used(root), self.ent.problem.terms, self.premise
        new = dict(zip(used, range(len(used)))).__getitem__
        return [(rule, atom if isinstance(atom, Leq) else Leq(terms[atom[0]], terms[atom[1]]),
                 tuple(map(new, premises)), (premise[detail[0]],) if rule == "input" else detail)
                for rule, atom, premises, detail in map(self.steps.__getitem__, used)]

    def support(self, root: int) -> dict[str, set[int]]:
        """The input positions, per argument, the proof of root rests on."""
        support: dict[str, set[int]] = {"a": set(), "b": set(), "na": set(), "nb": set(), "ax": set()}
        for k in self._used(root):
            kind, what = self.leaf.get(k, (None, None))
            if kind == "ax":
                # the kept axioms of the instance's schema, or all of them when none is kept
                match = {i for i, ax in enumerate(self.problem.axioms.axioms) if axiom_key(ax) == what}
                support["ax"] |= {i for i in match if self.kept("ax", i)} or match
            elif kind is not None:
                support[kind].add(what)
        return support

    def _make(self, root: tuple[int, int]) -> int:
        made, steps, stack = self.made, self.steps, [(root, None)]
        while stack:
            node, plan = stack.pop()
            if plan is None:
                if node in made:
                    continue
                plan = self._plan(node)
                if plan[2]:    # the step waits on the stack for its premises'
                    made[node] = None
                    stack.append((node, plan))
                    for d in plan[2]:
                        if d not in made:
                            stack.append((d, None))
                        elif made[d] is None:
                            raise RuntimeError("cyclic derivation")
                    continue
            rule, atom, deps, detail, leaf = plan
            premises = tuple(map(made.__getitem__, deps))
            if rule is None:
                made[node] = premises[0]
                continue
            if leaf is not None:
                self.leaf[len(steps)] = leaf
            made[node] = len(steps)
            steps.append((rule, atom, premises, detail))
        return made[root]

    def _plan(self, node: tuple[int, int]) -> tuple:
        """(rule, atom, nodes, detail, leaf) of the step of node, (-1, i) for
        atom i and (s, v) for v in the closure of s; rule None when the
        step is that of its one node."""
        s, v = node
        if s < 0:
            owners = self.owner
            if v < len(owners):
                atom, owner = self.ent.atoms[v], owners[v]
                return ("refl", atom, (), (), None) if owner is None else ("input", atom, (), (v,), owner)
            clause = self.clauses[v - len(owners)]
            prov, index = clause.provenance, self.ent.problem.index
            leaf = None if prov[0] == "mon" else ("ax", instance_axiom(clause))
            deps = tuple((index[p.lhs], index[p.rhs]) for p in clause.premises)
            return prov[0], clause.conclusion, deps, prov[1:], leaf
        problem, closure = self.ent.problem, self.closures(s)
        terms = problem.terms
        cid = closure.get(v, -1)
        if cid is None:
            return "refl", node, (), (), None
        if cid < 0:
            raise RuntimeError(f"saturation reported {format_atom(Leq(terms[s], terms[v]))} without a proof")
        premises, origin = problem.clauses[cid][0], problem.origin[cid]
        x = premises[0]
        if origin >= 0:
            # follow the chain of atom clauses back to s or to a meet clause
            chain = [(-1, origin)]
            while (r := closure[x]) is not None and problem.origin[r] >= 0:
                chain.append((-1, problem.origin[r]))
                x = problem.clauses[r][0][0]
            if x != s:
                chain.append((s, x))
            return (None if len(chain) == 1 else "trans"), node, tuple(reversed(chain)), (), None
        if len(premises) == 1:
            m = terms[x]
            return "meet_r" if terms[v] == m.args[-1] else "meet_l", node, ((s, x),), (m,), None
        left, last = slat.meet_halves(terms[v])
        return "meet_i", node, ((s, problem.index[left]), (s, problem.index[last])), (), None


# ---------------------------------------------------------------------------
# justification


class Justification(Record):
    """Indices of the kept literals and axioms after minimization."""

    kept_a: tuple[int, ...]
    kept_b: tuple[int, ...]
    kept_neg_a: tuple[int, ...]
    kept_neg_b: tuple[int, ...]
    kept_axioms: tuple[int, ...]


def reachability_module(inputs: dict[str, tuple], goal: Leq) -> dict[str, list]:
    """The positions, per argument of inputs, of the goal's module M.

    Sigma starts as the names (constants and functions alike) of the
    goal and the negative literals ("na", "nb"), which are in M. Another
    input joins M, adding all its names to Sigma, once every name of one
    of its triggers is in Sigma: the left side of s <= t, either side of
    s = t, f of Inclusion(f, g), f and g of Composition(f, g, h). One
    worklist, a count per trigger of its names not yet in Sigma and a
    waiting list per name, makes this linear in the names the inputs
    hold, read off each term's cached name sets (a name that is a
    constant and a function of one side counts twice and wakes twice).
    An EL goal binder's pair of atoms joins by its triggers like any
    other input: goalA <= C through the goal, C <= goalA after it.
    """
    out: dict[str, list[int]] = {kind: [] for kind in inputs}
    waiting: dict[str, list[list]] = {}
    todo: list[str] = [*goal.lhs._consts, *goal.lhs._fns, *goal.rhs._consts, *goal.rhs._fns]
    for kind, xs in inputs.items():
        ids, always = out[kind], kind in ("na", "nb")
        for i, x in enumerate(xs):
            # an entry holds its input until it joins: an atom, or an axiom's names
            if kind == "ax":
                names = x.fns
                trigger = [len(names) - 1, [ids, i, names]]
                for name in names[:-1]:
                    waiting.setdefault(name, []).append(trigger)
            elif always:
                ids.append(i)
                todo += (*x.lhs._consts, *x.lhs._fns, *x.rhs._consts, *x.rhs._fns)
            else:
                entry = [ids, i, x]
                for side in ((x.lhs, x.rhs) if isinstance(x, Eq) else (x.lhs,)):
                    trigger = [len(side._consts) + len(side._fns), entry]
                    for name in side._consts:
                        waiting.setdefault(name, []).append(trigger)
                    for name in side._fns:
                        waiting.setdefault(name, []).append(trigger)
    sigma: set[str] = set()
    while todo:
        name = todo.pop()
        if name in sigma:
            continue
        sigma.add(name)
        for trigger in waiting.get(name, ()):
            trigger[0] -= 1
            if not trigger[0] and (entry := trigger[1])[2] is not None:
                ids, i, x = entry
                ids.append(i)
                entry[2] = None
                todo += x if isinstance(x, tuple) else (*x.lhs._consts, *x.lhs._fns, *x.rhs._consts, *x.rhs._fns)
    for ids in out.values():
        ids.sort()
    return out


def minimize_axioms(a_atoms, b_atoms, goal: Leq, axioms: AxiomSet, *,
                    neg_a=(), neg_b=()) -> Justification:
    """Deletion based minimization of literals and axioms, guided by proofs.

    Candidates are tried one at a time, later input positions first, so
    axioms listed earlier are kept in preference to later alternatives.
    Every drop is permanent when the goal stays entailed. The result is
    minimal: dropping any kept member breaks the entailment.

    Only the goal's module M (reachability_module) is prepared; every
    input outside it is dropped. For any kept set K, K entails the goal
    exactly when the members of K in M do (Suntisrivaraporn, "Module
    Extraction and Incremental Classification: A Pragmatic Approach for
    EL+ Ontologies", ESWC 2008, for EL+). Take a model of those members
    in which the goal fails, adjoin a new least element bottom, send the
    constants outside Sigma to bottom, the functions outside Sigma to
    the constant-bottom map, and let every function in Sigma send bottom
    to bottom. This is still a meet-semilattice with monotone operators,
    and every inclusion and composition still holds (outside M, its f or
    g is the constant-bottom map). An atom outside M has a trigger side
    (both sides of an =) holding a name outside Sigma, so that side is
    worth bottom and the atom holds. Terms over Sigma keep their values,
    so the goal still fails and the negative literals still hold: the
    model refutes K. So each deletion decision on M is the one on all
    inputs, and each input outside M is a drop.

    The inputs of M are purified, psi-closed and named once. saturate()
    runs once over them, to the fixpoint, and its Entailer becomes a
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

    One propagation from every input to the program's fixpoint gives a
    first derivation and the vital inputs, those without any one of
    which the goal does not follow (SelectorProgram.vital). Dropping a
    vital input breaks every subset, so a vital candidate is kept
    without a decision. The first derivation, and each successful
    decision, gives the support of one derivation: the selectors its
    reasons reach. A candidate outside the current support is dropped
    without a decision, since what is left still holds that derivation;
    a candidate inside it is decided, and a successful drop refreshes
    the support. Whichever derivation a decision finds, each drop is
    one that deciding it would make, so the result is the one deciding
    every candidate gives. The kept set holds the support of the last
    successful derivation; the proof read off its reasons must use no
    dropped input, and the kernel checks it against the kept inputs
    alone. That proof check is the last step; _minimize is everything
    before it, for a caller (el.el_interpolation) whose own checked
    certificates already prove the goal from the kept inputs.
    """
    j, check_proof = _minimize(a_atoms, b_atoms, goal, axioms, neg_a, neg_b)
    check_proof()
    return j


def _minimize(a_atoms, b_atoms, goal: Leq, axioms: AxiomSet, neg_a, neg_b):
    """minimize_axioms up to its proof: the Justification, and the check
    that builds the proof of the goal from the kept inputs and has the
    kernel accept it (RuntimeError otherwise)."""
    inputs = {"a": tuple(a_atoms), "b": tuple(b_atoms), "na": tuple(neg_a),
              "nb": tuple(neg_b), "ax": axioms.axioms}
    module = reachability_module(inputs, goal)
    if any(len(ids) < len(inputs[kind]) for kind, ids in module.items()):
        # the input errors that preparing every input raises
        check_input((*inputs["a"], *inputs["b"], *inputs["na"], *inputs["nb"]), goal, axioms)
        inputs = {kind: tuple(map(inputs[kind].__getitem__, ids)) for kind, ids in module.items()}
        axioms = AxiomSet(axioms.functions, inputs["ax"])
    problem = prepare_problem(inputs["a"], inputs["b"], goal, axioms, neg_a=inputs["na"], neg_b=inputs["nb"])
    owner = input_owners(problem, inputs["a"], inputs["b"])
    full = saturate(problem, to_fixpoint=True)
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
    reason, vital = program.vital(range(n))
    support, vital = {selectors[k] for k in program.used(reason)}, {selectors[k] for k in vital}
    keep = {kind: set(range(len(xs))) for kind, xs in inputs.items()}
    candidates = [(kind, i) for kind in ("a", "na", "b", "nb", "ax") for i in range(len(inputs[kind]))]
    for kind, i in reversed(candidates):
        if (kind, i) in vital:
            continue
        keep[kind].discard(i)
        if (kind, i) in support:
            found = program.decide([node[k, j] for k, ids in keep.items() for j in ids])
            if found is None:
                keep[kind].add(i)
            else:
                reason, support = found, {selectors[k] for k in program.used(found)}
    kept = {kind: sorted(ids) for kind, ids in keep.items()}

    def check_proof() -> None:
        # the proof of the last successful derivation, checked against the kept inputs alone
        proofs = ProofBuilder(problem, ent, fired, owner, program.reasons(reason), lambda kind, i: i in keep[kind])
        root = proofs.conclude(Trace(inconsistent=(None, *problem.neg_a, *problem.neg_b)[
            program.goals[reason[program.done]]]))
        if any(i not in keep[kind] for kind, ids in proofs.support(root).items() for i in ids):
            raise RuntimeError(f"proof of {format_atom(goal)} uses a dropped input")
        try:
            kernel = proof_kernel([inputs[kind][i] for kind in ("a", "b") for i in kept[kind]],
                                  [inputs[kind][i] for kind in ("na", "nb") for i in kept[kind]],
                                  AxiomSet(axioms.functions, tuple(inputs["ax"][i] for i in kept["ax"])),
                                  tuple(problem.unfold_map().items()))
            kernel.check(proofs.proof(root), goal)
        except Rejected as e:
            raise RuntimeError(f"proof of {format_atom(goal)} rejected: {e}") from e

    # the kept positions of M, as positions of the inputs
    return Justification(*(tuple(module[kind][i] for i in kept[kind])
                           for kind in ("a", "b", "na", "nb", "ax"))), check_proof
