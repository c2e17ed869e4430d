"""Semilattices extended by monotone unary operators with extra Horn laws.

The extension is local: an entailment over ground literals holds exactly
when it holds after replacing every operator application by a fresh
constant and adding finitely many instances of the axioms, taken over a
closed set of application terms. The closure, the instances and the
forward chaining loop that decides entailment live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import slat
from .terms import (
    App,
    Atom,
    Color,
    ColorClash,
    Const,
    GroundHornClause,
    Leq,
    Term,
    color_problem,
    combine_colors,
    expand_eqs,
    format_atom,
    mk_meet,
    normalize_atom,
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

    @property
    def inclusions(self) -> tuple[Inclusion, ...]:
        return tuple(ax for ax in self.axioms if isinstance(ax, Inclusion))

    @property
    def compositions(self) -> tuple[Composition, ...]:
        return tuple(ax for ax in self.axioms if isinstance(ax, Composition))


# flat application term: function symbol paired with its pure argument
FlatTerm = tuple[str, Term]


@dataclass
class PurifiedProblem:
    """Ground problem with applications replaced by fresh constants."""

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
    instances: tuple[GroundHornClause, ...] = ()
    purifier: "_Purifier | None" = field(default=None, repr=False)

    def unfold_map(self) -> dict[str, Term]:
        """Every fresh name mapped to the term it stands for."""
        out = {name: App(fn, arg) for name, (fn, arg) in self.names.items()}
        out.update(self.binders)
        return out


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
                   axioms: AxiomSet | None = None) -> tuple[PurifiedProblem, tuple[FlatTerm, ...]]:
    """Replace applications by fresh constants, bottom up.

    Nested applications are named inside out, so f(g(a)) contributes the
    flat terms (g, a) and (f, g_a). Fresh names inherit a color from the
    named term: the function's sharing color combined with the colors of
    the argument constants. Returns the purified problem (instances not
    yet filled in) and the set of flat terms that occurred.
    """
    a_atoms = expand_eqs(normalize_atom(x) for x in a_atoms)
    b_atoms = expand_eqs(normalize_atom(x) for x in b_atoms)
    neg_a = tuple(normalize_atom(x) for x in neg_a)
    neg_b = tuple(normalize_atom(x) for x in neg_b)
    if not isinstance(goal, Leq):
        raise ValueError("goal must be a <= atom")
    goal = normalize_atom(goal)
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
    purifier = _Purifier(symbols, colors, fn_colors)

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


def instantiate(axioms: AxiomSet, flat_terms, defs: dict[FlatTerm, str]) -> tuple[GroundHornClause, ...]:
    """Ground instances of Mon and of the axioms over the flat term set.

    The set must be psi-closed and every flat term named in defs.
    Instances come in a fixed order: monotonicity for each function over
    ordered pairs of distinct arguments, then inclusions, then
    compositions, arguments sorted. Instances whose conclusion is
    reflexive are dropped.
    """
    terms = set(flat_terms)
    if set(psi_closure(terms, axioms)) != terms:
        raise ValueError("flat term set is not psi-closed")
    for ft in terms:
        if ft not in defs:
            raise ValueError(f"unnamed flat term {ft[0]}({ft[1]})")
    args_of: dict[str, list[Term]] = {f: [] for f in axioms.functions}
    for fn, arg in _sorted_flat(terms):
        args_of.setdefault(fn, []).append(arg)
    out: list[GroundHornClause] = []
    for f in axioms.functions:
        for c in args_of[f]:
            for d in args_of[f]:
                if c != d:
                    out.append(GroundHornClause(
                        (Leq(c, d),),
                        Leq(Const(defs[(f, c)]), Const(defs[(f, d)])),
                        ("mon", f, c, d),
                    ))
    for ax in axioms.axioms:
        if not isinstance(ax, Inclusion):
            continue
        for c in args_of[ax.f]:
            lhs, rhs = defs[(ax.f, c)], defs[(ax.g, c)]
            if lhs != rhs:
                out.append(GroundHornClause(
                    (), Leq(Const(lhs), Const(rhs)), ("incl", ax.f, ax.g, c),
                ))
    for ax in axioms.axioms:
        if not isinstance(ax, Composition):
            continue
        inner_args = [c for c in args_of[ax.g] if (ax.h, c) in terms]
        for d in args_of[ax.f]:
            for c in inner_args:
                lhs, rhs = defs[(ax.f, d)], defs[(ax.h, c)]
                if lhs != rhs:
                    out.append(GroundHornClause(
                        (Leq(d, Const(defs[(ax.g, c)])),),
                        Leq(Const(lhs), Const(rhs)),
                        ("comp", ax.f, ax.g, ax.h, d, c),
                    ))
    return tuple(out)


def prepare_problem(a_atoms, b_atoms, goal: Leq, axioms: AxiomSet, *,
                    neg_a=(), neg_b=(), fn_colors=None) -> PurifiedProblem:
    """Purify, close the term set, name the new terms, instantiate."""
    problem, est = flatten_purify(
        a_atoms, b_atoms, goal, neg_a=neg_a, neg_b=neg_b,
        fn_colors=fn_colors, axioms=axioms,
    )
    closed = psi_closure(est, axioms)
    purifier = problem.purifier
    for fn, arg in closed:
        purifier.name_for(fn, arg)
    problem.instances = instantiate(axioms, closed, problem.defs)
    return problem


# ---------------------------------------------------------------------------
# forward chaining


@dataclass
class Trace:
    """Chaining record: instances fired in order, pass count, outcome."""

    fired: list[GroundHornClause] = field(default_factory=list)
    passes: int = 0
    inconsistent: Atom | None = None
    result: bool | None = None


def saturate(problem: PurifiedProblem, fire=lambda clause: (clause.conclusion,)) -> Trace:
    """Forward chaining over the instances, in breadth-first passes.

    Each pass checks the goal and then the negative literals, and fires,
    in clause order, every instance whose premises were entailed at the
    start of the pass. fire(clause) returns the atoms that firing adds.
    The atoms are encoded once: every premise waits on its (lhs, rhs)
    variable pair, and the pairs the added atoms make derivable wake the
    instances for the next pass. The result is true when the goal is
    entailed or a negative literal is contradicted, false at the fixpoint.
    """
    checked = (problem.goal, *problem.neg_a, *problem.neg_b)
    ent = slat.Entailer([*problem.a0, *problem.b0], [t for a in checked for t in (a.lhs, a.rhs)])
    trace = Trace()
    waiting: dict[tuple[int, int], list[int]] | None = None
    while True:
        for k, atom in enumerate(checked):
            if ent.holds(atom):
                trace.inconsistent = atom if k else None
                trace.result = True
                return trace
        if waiting is None:
            # premise closures are built only once the pass-0 checks fail
            waiting, missing, ready = {}, [], []
            for i, clause in enumerate(problem.instances):
                premises = {(ent.var(p.lhs), ent.var(p.rhs)) for p in clause.premises}
                pending = [pair for pair in premises if not ent.derives(*pair)]
                missing.append(len(pending))
                for pair in pending:
                    waiting.setdefault(pair, []).append(i)
                if not pending:
                    ready.append(i)
        if not ready:
            trace.result = False
            return trace
        trace.passes += 1
        woken = []
        for i in ready:
            trace.fired.append(problem.instances[i])
            for atom in fire(problem.instances[i]):
                for pair in ent.add(atom):
                    for j in waiting.pop(pair, ()):
                        missing[j] -= 1
                        if not missing[j]:
                            woken.append(j)
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

    Back-chains from the goal, or from the negative literal found
    contradicted, over the atoms the run ended with: a0, b0, then the
    fired conclusions in order. A purified input atom stands for its
    input position (an = input for two atoms); binder atoms are
    definitions. A fired incl or comp instance adds every axiom with its
    schema and functions (mon needs none), and its premises join the
    search, proved only from atoms added before its conclusion so that
    the proof is well founded.
    """
    owner: list[tuple[str, int] | None] = []
    for kind, atoms, purified in (("a", a_atoms, problem.a0), ("b", b_atoms, problem.b0)):
        inputs = [(kind, i) for i, x in enumerate(atoms) for _ in expand_eqs([x])]
        owner += inputs + [None] * (len(purified) - len(inputs))
    axioms_of: dict[tuple, set[int]] = {}
    for i, ax in enumerate(problem.axioms.axioms):
        key = ("incl", ax.f, ax.g) if isinstance(ax, Inclusion) else ("comp", ax.f, ax.g, ax.h)
        axioms_of.setdefault(key, set()).add(i)
    support: dict[str, set[int]] = {"a": set(), "b": set(), "na": set(), "nb": set(), "ax": set()}
    top = problem.goal if trace.inconsistent is None else trace.inconsistent
    if trace.inconsistent is not None:
        k = (*problem.neg_a, *problem.neg_b).index(top)
        if k < len(problem.neg_a):
            support["na"].add(k)
        else:
            support["nb"].add(k - len(problem.neg_a))
    ent = slat.Entailer([*problem.a0, *problem.b0, *(c.conclusion for c in trace.fired)])
    todo: list[tuple[Atom, int | None]] = [(top, None)]
    searched: set[int] = set()
    while todo:
        atom, limit = todo.pop()
        for leq in expand_eqs([atom]):
            used = ent.proof(ent.var(leq.lhs), ent.var(leq.rhs), limit)
            if used is None:
                raise RuntimeError(f"saturation reported {format_atom(leq)} without a proof")
            for j in used:
                if j < len(owner):
                    if owner[j] is not None:
                        support[owner[j][0]].add(owner[j][1])
                elif j not in searched:
                    searched.add(j)
                    clause = trace.fired[j - len(owner)]
                    prov = clause.provenance
                    if prov[0] != "mon":
                        support["ax"] |= axioms_of[prov[:3] if prov[0] == "incl" else prov[:4]]
                    todo.extend((p, j) for p in clause.premises)
    return support


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

    Each successful decision also gives the support of one proof
    (proof_support). Entailment is monotone, so a candidate outside the
    current support is dropped without a decision: what is left still
    holds the support. A candidate inside it is decided, and a
    successful drop refreshes the support from that decision's proof.
    The result is the one deciding every candidate gives. When the final
    kept set is not the last one a decision accepted, it is decided once
    more, so the answer always rests on a real decision.
    """
    inputs = {"a": tuple(a_atoms), "b": tuple(b_atoms), "na": tuple(neg_a),
              "nb": tuple(neg_b), "ax": axioms.axioms}
    keep = {kind: set(range(len(xs))) for kind, xs in inputs.items()}

    def proved() -> set[tuple[str, int]] | None:
        """Support of a proof from the kept set, or None when not entailed."""
        kept = {kind: sorted(ids) for kind, ids in keep.items()}
        part = {kind: tuple(inputs[kind][i] for i in ids) for kind, ids in kept.items()}
        found: dict[str, set[int]] = {}
        if not entails(part["a"], part["b"], goal, AxiomSet(axioms.functions, part["ax"]),
                       neg_a=part["na"], neg_b=part["nb"], support=found):
            return None
        return {(kind, kept[kind][j]) for kind, js in found.items() for j in js}

    support = proved()
    if support is None:
        raise NotEntailed(f"goal not entailed: {format_atom(goal)}")
    candidates = [
        *(("a", i) for i in range(len(a_atoms)) if i not in set(pinned_a)),
        *(("na", i) for i in range(len(neg_a))),
        *(("b", i) for i in range(len(b_atoms)) if i not in set(pinned_b)),
        *(("nb", i) for i in range(len(neg_b))),
        *(("ax", i) for i in range(len(axioms.axioms))),
    ]
    unchecked = False
    for kind, i in reversed(candidates):
        keep[kind].discard(i)
        if (kind, i) not in support:
            unchecked = True
            continue
        found = proved()
        if found is None:
            keep[kind].add(i)
        else:
            support, unchecked = found, False
    if unchecked and proved() is None:
        raise RuntimeError(f"minimized premises do not entail {format_atom(goal)}")
    return Justification(
        kept_a=tuple(sorted(keep["a"])),
        kept_b=tuple(sorted(keep["b"])),
        kept_neg_a=tuple(sorted(keep["na"])),
        kept_neg_b=tuple(sorted(keep["nb"])),
        kept_axioms=tuple(sorted(keep["ax"])),
    )
