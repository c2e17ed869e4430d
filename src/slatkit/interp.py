"""Interpolating terms for entailments in extended semilattices.

Given A and B with A and B together entailing a <= b, find a term t over
the shared signature with a <= t and t <= b. Forward chaining is
locality.saturate, the engine behind locality.decide, with a fire hook
that attributes every fired instance to a side; an instance whose
constants span both sides is split at an intermediate term into two
one-sided instances around a fresh shared constant. The final
interpolant is the meet of the shared candidates lying above the goal's
left hand side.

Sharing of operator symbols is by co-occurrence in the axioms: functions
linked by an axiom, transitively, count as shared as soon as the class
touches both sides. The strict alternative, sharing only operators
occurring on both sides, is available and may make separation impossible
(NoSharedWitness); the theory does not guarantee interpolants for it.
"""

from __future__ import annotations

from dataclasses import field
from enum import Enum

from . import locality, slat
from .kernel import Rejected
from .locality import AxiomSet, Inclusion, NotEntailed, PurifiedProblem
from .slat import NoSharedWitness
from .terms import (
    App,
    Atom,
    Const,
    Frozen,
    GroundHornClause,
    Leq,
    Record,
    Term,
    atom_functions,
    expand_eqs,
    format_atom,
    format_term,
    mk_meet,
    term_constants,
    term_functions,
)


class VerificationFailed(Exception):
    """The proof kernel rejected a certificate of a computed interpolant."""


# ---------------------------------------------------------------------------
# coloring


class Color(str, Enum):
    A = "A"
    B = "B"
    SHARED = "shared"


class ColorClash(RuntimeError):
    """A term mixes A-local and B-local symbols."""


def combine_colors(c1: Color, c2: Color) -> Color:
    if c1 is Color.SHARED:
        return c2
    if c2 is Color.SHARED or c1 is c2:
        return c1
    raise ColorClash("term mixes A-local and B-local symbols")


def color_problem(a_atoms, b_atoms, goal: Atom | None = None) -> dict[str, Color]:
    """Occurrence-based coloring of constant and function symbols.

    A symbol occurring in atoms of both sides is shared. The goal only
    colors symbols that occur in no atom at all: such a symbol takes the
    side of the goal position it appears in, lhs A and rhs B, or shared
    when it appears on both goal sides. A goal occurrence never widens
    the color a symbol already has from the atoms.
    """
    in_a: set[str] = set()
    in_b: set[str] = set()
    for a in a_atoms:
        in_a.update(a.lhs._consts, a.lhs._fns, a.rhs._consts, a.rhs._fns)
    for b in b_atoms:
        in_b.update(b.lhs._consts, b.lhs._fns, b.rhs._consts, b.rhs._fns)
    colors: dict[str, Color] = {}
    for s in in_a | in_b:
        if s in in_a and s in in_b:
            colors[s] = Color.SHARED
        elif s in in_a:
            colors[s] = Color.A
        else:
            colors[s] = Color.B
    if goal is not None:
        goal_l = term_constants(goal.lhs) | term_functions(goal.lhs)
        goal_r = term_constants(goal.rhs) | term_functions(goal.rhs)
        for s in goal_l | goal_r:
            if s in colors:
                continue
            if s in goal_l and s in goal_r:
                colors[s] = Color.SHARED
            elif s in goal_l:
                colors[s] = Color.A
            else:
                colors[s] = Color.B
    return colors


def color_names(problem: PurifiedProblem, colors: dict[str, Color], fn_colors, names) -> None:
    """Color fresh names of the problem, in the order given.

    A name takes the color of the term it stands for: its function's
    color in fn_colors (shared for a binder, which names a meet) combined
    with the colors of the term's constants, so each name must come after
    the names its term uses. Raises ColorClash for a term mixing A and B.
    """
    for name in names:
        fn, term = problem.names[name] if name in problem.names else (None, problem.binders[name])
        color = fn_colors.get(fn, Color.SHARED)
        for c in term_constants(term):
            color = combine_colors(color, colors[c])
        colors[name] = color


# ---------------------------------------------------------------------------
# sharing


class SharingMap(Frozen):
    """Which function symbols and constants count as shared."""

    classes: tuple[frozenset[str], ...]
    shared_functions: frozenset[str]
    shared_constants: frozenset[str] = frozenset()
    intersection: bool = False


def theta_sharing(axioms: AxiomSet, sigma_a, sigma_b) -> SharingMap:
    """Close co-occurrence in axioms into an equivalence, then intersect.

    Two functions mentioned by one axiom fall in one class. A class is
    reachable from a side when it meets that side's occurring functions;
    shared functions are those in classes reachable from both sides.
    """
    parent: dict[str, str] = {f: f for f in axioms.functions}
    for f in (*sigma_a, *sigma_b):
        parent.setdefault(f, f)

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for ax in axioms.axioms:
        if isinstance(ax, Inclusion):
            union(ax.f, ax.g)
        else:
            union(ax.f, ax.g)
            union(ax.f, ax.h)
    groups: dict[str, set[str]] = {}
    for f in parent:
        groups.setdefault(find(f), set()).add(f)
    classes = tuple(sorted((frozenset(g) for g in groups.values()), key=min))
    sigma_a, sigma_b = set(sigma_a), set(sigma_b)
    shared = frozenset(
        f for cls in classes if cls & sigma_a and cls & sigma_b for f in cls
    )
    return SharingMap(classes=classes, shared_functions=shared)


def intersection_sharing(axioms: AxiomSet, sigma_a, sigma_b) -> SharingMap:
    """Strict sharing: only functions occurring on both sides."""
    smap = theta_sharing(axioms, sigma_a, sigma_b)
    return SharingMap(
        classes=smap.classes,
        shared_functions=frozenset(sigma_a) & frozenset(sigma_b),
        intersection=True,
    )


def _fn_colors(smap: SharingMap, sigma_a, sigma_b) -> dict[str, Color]:
    """Color every function by its occurrence, falling back to its class."""
    sigma_a, sigma_b = set(sigma_a), set(sigma_b)
    out: dict[str, Color] = {}
    for cls in smap.classes:
        for f in cls:
            if f in smap.shared_functions:
                out[f] = Color.SHARED
            elif f in sigma_a:
                out[f] = Color.A
            elif f in sigma_b:
                out[f] = Color.B
            elif cls & sigma_a:
                out[f] = Color.A
            elif cls & sigma_b:
                out[f] = Color.B
            else:
                out[f] = Color.SHARED  # class with no occurrences: no terms exist
    return out


# ---------------------------------------------------------------------------
# separation


class Split(Record):
    """Record of one mixed instance separated at an intermediate term."""

    clause: GroundHornClause
    premise: Leq
    t: Term
    name: str
    c_a: GroundHornClause
    c_b: GroundHornClause
    owner: Color


class SeparationState(Record):
    """Side-attributed atoms and fresh names accumulated while chaining.

    colors holds the color of every symbol, fresh names included.
    candidates holds the shared constants, separation names included.
    fired lists the clause of every atom chaining added, in order: a
    fired instance or a split piece. entailers keeps one growing
    Entailer per side, built over the side's atoms when a split or the
    final step first needs it; append() adds.
    """

    problem: PurifiedProblem
    colors: dict[str, Color]
    fn_colors: dict[str, Color]
    atoms: dict[Color, list[Leq]]
    candidates: set[Const]
    splits: list[Split] = field(default_factory=list)
    fired: list[GroundHornClause] = field(default_factory=list)
    entailers: dict[Color, slat.Entailer] = field(default_factory=dict)

    def entailer(self, side: Color) -> slat.Entailer:
        if side not in self.entailers:
            self.entailers[side] = slat.Entailer(self.atoms[side])
        return self.entailers[side]

    def append(self, side: Color, atom: Leq) -> None:
        self.atoms[side].append(atom)
        if side in self.entailers:
            self.entailers[side].add(atom)


def _strict_colors(term: Term, colors: dict[str, Color]) -> set[Color]:
    return {colors[c] for c in term_constants(term)} - {Color.SHARED}


def _clause_strict_colors(clause: GroundHornClause, colors) -> set[Color]:
    out: set[Color] = set()
    for atom in (*clause.premises, clause.conclusion):
        out |= _strict_colors(atom.lhs, colors)
        out |= _strict_colors(atom.rhs, colors)
    return out


def _owner_side(clause: GroundHornClause, premise: Leq, colors) -> Color:
    """Side whose atoms must entail premise.lhs <= t in a split.

    The premise's left side decides when it is strictly colored; a
    shared left side defers to the opposite of the right side, then of
    the conclusion; all-shared defaults to A.
    """
    lhs = _strict_colors(premise.lhs, colors)
    if lhs:
        return next(iter(lhs))
    other = _strict_colors(premise.rhs, colors) or _strict_colors(
        clause.conclusion.rhs, colors
    )
    if other == {Color.A}:
        return Color.B
    return Color.A


class InterpolationResult(Record):
    """Interpolating term plus the evidence it was built from.

    certificates, when verified, pairs goal.lhs <= term and term <= goal.rhs
    each with its proof: kernel steps over the fresh names of definitions.
    """

    term: Term
    purified_term: Term
    goal: Leq
    sharing: SharingMap
    splits: tuple[Split, ...]
    fired: tuple[GroundHornClause, ...]
    certificates: tuple[tuple[Leq, list[tuple]], tuple[Leq, list[tuple]]] | None
    definitions: tuple[tuple[str, Term], ...] = ()


def unfold(term: Term, names: dict[str, Term], memo: dict[str, Term] | None = None) -> Term:
    """Replace fresh names by their terms, depth first from a stack, not by recursion.

    memo maps names already unfolded to their terms; pass one dict to
    every call over the same names to unfold each name once in all.
    """
    memo = {} if memo is None else memo

    def refs(t: Term) -> list[str]:
        if isinstance(t, Const):
            return [t.name] if t.name in names else []
        if isinstance(t, App):
            return refs(t.arg)
        return [n for x in t.args for n in refs(x)]

    def subst(t: Term) -> Term:
        if isinstance(t, Const):
            return memo.get(t.name, t)
        if isinstance(t, App):
            return App(t.fn, subst(t.arg))
        return mk_meet(subst(x) for x in t.args)

    path = []
    todo = [(n, False) for n in reversed(refs(term))]
    while todo:
        n, done = todo.pop()
        if done:
            memo[path.pop()] = subst(names[n])
        elif n not in memo:
            if n in path:
                raise RuntimeError(f"cyclic definition through {n}")
            path.append(n)
            todo += [(n, True), *((m, False) for m in reversed(refs(names[n])))]
    return subst(term)


def interpolate(a_atoms, b_atoms, goal: Leq, axioms: AxiomSet, *,
                neg_a=(), neg_b=(), verify: bool = True,
                intersection: bool = False, reserved=()) -> InterpolationResult:
    """Compute a shared term t with a <= t and t <= b, given a <= b holds.

    Forward chaining with side attribution and mixed-instance splitting,
    then the intermediate-term construction over all shared candidates:
    shared input constants, shared purification names, and separation
    names. The result is unfolded to the input signature and its
    signature checked against the sharing map. Unless verify is off, the
    proofs of both certificates are read off the chaining run itself
    (locality.ProofBuilder: every atom the run added is a fired instance
    or a split piece, and a split piece is a plain mon or comp instance,
    since its name u stands for f(t)); check_certificates() has the
    kernel check them against the premises. Fresh names avoid the
    reserved symbols too. Coloring happens here alone: input symbols by
    occurrence (color_problem), then every fresh name, split names too,
    by the term it stands for (color_names).

    Raises NotEntailed when the goal does not follow, NoSharedWitness
    when no shared candidate lies above the goal's left side or a mixed
    instance cannot be separated, and ValueError on inconsistent
    premises, which entail everything but admit no intermediate term.
    """
    a_in, b_in = expand_eqs(a_atoms), expand_eqs(b_atoms)
    neg_a, neg_b = tuple(neg_a), tuple(neg_b)
    if not isinstance(goal, Leq):
        raise ValueError("interpolation goal must be a <= atom")

    sigma_a = {f for x in (*a_in, *neg_a) for f in atom_functions(x)}
    sigma_b = {f for x in (*b_in, *neg_b) for f in atom_functions(x)}
    sigma_a |= term_functions(goal.lhs)
    sigma_b |= term_functions(goal.rhs)
    make = intersection_sharing if intersection else theta_sharing
    smap = make(axioms, sigma_a, sigma_b)
    fn_colors = _fn_colors(smap, sigma_a, sigma_b)
    colors = color_problem((*a_in, *neg_a), (*b_in, *neg_b), goal)
    problem = locality.prepare_problem(a_in, b_in, goal, axioms, neg_a=neg_a, neg_b=neg_b, reserved=reserved)
    try:
        color_names(problem, colors, fn_colors, problem.purifier.made)
    except ColorClash as e:
        raise NoSharedWitness(
            f"sides cannot be purified apart under this sharing: {e}"
        ) from e

    # input constants and fresh names: every function is declared
    consts = set(colors) - set(axioms.functions)
    state = SeparationState(
        problem=problem,
        colors=colors,
        fn_colors=fn_colors,
        atoms={Color.A: [*problem.a0], Color.B: [*problem.b0]},
        candidates={Const(c) for c in consts if colors[c] is Color.SHARED},
    )

    def fire(clause: GroundHornClause, ent: slat.Entailer) -> tuple[Leq, ...]:
        strict = _clause_strict_colors(clause, colors)
        if Color.A in strict and Color.B in strict:
            return _fire_split(clause, state, ent)
        state.append(Color.B if strict == {Color.B} else Color.A, clause.conclusion)
        state.fired.append(clause)
        return (clause.conclusion,)

    trace = locality.saturate(problem, fire)
    if trace.inconsistent is not None:
        raise ValueError(
            f"premises are inconsistent (derived {format_atom(trace.inconsistent)}); "
            "no intermediate term exists"
        )
    if not trace.result:
        raise NotEntailed(f"goal not entailed: {format_atom(goal)}")

    own = Color.B if Color.B in _strict_colors(problem.goal.lhs, colors) else Color.A
    t = slat.intermediate_term(
        state.entailer(own), trace.entailer, problem.goal.lhs, problem.goal.rhs, state.candidates,
    )
    names = problem.unfold_map()
    term = unfold(t, names)
    _check_signature(term, smap, colors, consts - set(names))
    shared_consts = frozenset(
        c for c in consts - set(names)
        if colors[c] is Color.SHARED
    )
    smap = SharingMap(smap.classes, smap.shared_functions, shared_consts, smap.intersection)

    certificates = None
    if verify:
        proofs = locality.ProofBuilder(problem, trace.entailer, state.fired,
                                       locality.input_owners(problem, a_in, b_in))
        certificates = (
            (Leq(goal.lhs, term), proofs.proof(proofs.derive(Leq(problem.goal.lhs, t)))),
            (Leq(term, goal.rhs), proofs.proof(proofs.derive(Leq(t, problem.goal.rhs)))),
        )
    res = InterpolationResult(
        term=term,
        purified_term=t,
        goal=goal,
        sharing=smap,
        splits=tuple(state.splits),
        fired=tuple(state.fired),
        certificates=certificates,
        definitions=tuple(names.items()),
    )
    if verify:
        check_certificates(res, a_in, b_in, axioms, neg_a=neg_a, neg_b=neg_b)
    return res


def check_certificates(res: InterpolationResult, a_atoms, b_atoms, axioms: AxiomSet, *,
                       neg_a=(), neg_b=()) -> None:
    """Raise VerificationFailed unless the proof kernel accepts both
    certificate proofs of res against these premises."""
    side = "left"
    try:
        kernel = locality.proof_kernel((*a_atoms, *b_atoms), (*neg_a, *neg_b), axioms, res.definitions)
        for side, (statement, steps) in zip(("left", "right"), res.certificates):
            kernel.check(steps, statement)
    except Rejected as e:
        raise VerificationFailed(f"interpolant {format_term(res.term)} failed {side} certificate: {e}") from e


def _fire_split(clause: GroundHornClause, state: SeparationState, ent: slat.Entailer) -> tuple[Leq, Leq]:
    """Separate a mixed instance at an intermediate term; return the atoms added.

    For the unary schemas there is exactly one premise c <= d, and the
    premise owner's atoms give a shared term t between them (ent, the
    saturation's Entailer, holds both sides' atoms). A fresh shared
    constant u names f(t) for the instance's outer function f; the
    instance becomes the Mon piece c <= t -> f(c)-name <= u on the owner's
    side and the original-schema piece t <= d -> u <= conclusion-rhs on the
    other. Raises NoSharedWitness when the outer function is not shared,
    since u could then never enter an interpolant.
    """
    problem, colors = state.problem, state.colors
    if not clause.premises:
        raise NoSharedWitness("mixed unit instance cannot be separated")
    if len(clause.premises) != 1:
        raise NoSharedWitness(f"cannot separate instance with {len(clause.premises)} premises")
    p = clause.premises[0]
    owner = _owner_side(clause, p, colors)
    t = slat.intermediate_term(state.entailer(owner), ent, p.lhs, p.rhs, state.candidates)
    bad = {c for c in term_constants(t) if colors[c] is not Color.SHARED}
    if bad:
        raise RuntimeError(f"separating term uses non-shared constant {sorted(bad)[0]}")
    schema = clause.provenance[0]
    f = clause.provenance[1]
    if state.fn_colors.get(f) is not Color.SHARED:
        raise NoSharedWitness(
            f"mixed instance of non-shared operator {f} cannot be separated"
        )
    u = problem.purifier.name_for(f, t)
    color_names(problem, colors, state.fn_colors, (u,))
    if colors[u] is not Color.SHARED:
        raise RuntimeError(f"separation name {u} is not shared")
    state.candidates.add(Const(u))
    c_a = GroundHornClause(
        (Leq(p.lhs, t),),
        Leq(clause.conclusion.lhs, Const(u)),
        ("mon", f, p.lhs, t),
    )
    if schema == "mon":
        prov = ("mon", f, t, clause.provenance[3])
    else:
        prov = ("comp", *clause.provenance[1:4], t, clause.provenance[5])
    c_b = GroundHornClause((Leq(t, p.rhs),), Leq(Const(u), clause.conclusion.rhs), prov)
    state.splits.append(Split(clause, p, t, u, c_a, c_b, owner))
    state.append(owner, c_a.conclusion)
    state.append(Color.B if owner is Color.A else Color.A, c_b.conclusion)
    state.fired.extend((c_a, c_b))
    return c_a.conclusion, c_b.conclusion


def _check_signature(term: Term, smap: SharingMap, colors, real_consts) -> None:
    for f in term_functions(term):
        if f not in smap.shared_functions:
            raise RuntimeError(f"interpolant uses non-shared function {f}")
    for c in term_constants(term):
        if c not in real_consts or colors.get(c) is not Color.SHARED:
            raise RuntimeError(f"interpolant uses non-shared constant {c}")
