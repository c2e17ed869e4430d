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

from dataclasses import dataclass, field

from . import locality, slat
from .locality import AxiomSet, Inclusion, NotEntailed, PurifiedProblem
from .slat import NoSharedWitness
from .terms import (
    App,
    Color,
    ColorClash,
    Const,
    GroundHornClause,
    Leq,
    Term,
    atom_constants,
    atom_functions,
    expand_eqs,
    format_atom,
    format_term,
    mk_meet,
    normalize,
    normalize_atom,
    term_constants,
    term_functions,
)


class VerificationFailed(Exception):
    """A computed interpolant failed its certificate entailments."""


# ---------------------------------------------------------------------------
# sharing


@dataclass(frozen=True)
class SharingMap:
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


@dataclass
class Split:
    """Record of one mixed instance separated at an intermediate term."""

    clause: GroundHornClause
    premise: Leq
    t: Term
    name: str
    c_a: GroundHornClause
    c_b: GroundHornClause
    owner: Color


@dataclass
class SeparationState:
    """Side-attributed atoms and fresh names accumulated while chaining."""

    problem: PurifiedProblem
    fn_colors: dict[str, Color]
    side_a: list[Leq]
    side_b: list[Leq]
    candidates: list[str]
    splits: list[Split] = field(default_factory=list)
    fired: list[GroundHornClause] = field(default_factory=list)

    def all_atoms(self) -> list[Leq]:
        return [*self.side_a, *self.side_b]

    def candidate_terms(self) -> list[Term]:
        return [Const(c) for c in self.candidates]


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


@dataclass
class InterpolationResult:
    """Interpolating term plus the evidence it was built from."""

    term: Term
    purified_term: Term
    goal: Leq
    sharing: SharingMap
    names: dict[str, Term]
    splits: tuple[Split, ...]
    fired: tuple[GroundHornClause, ...]
    certificates: tuple[tuple[Leq, locality.Trace], tuple[Leq, locality.Trace]] | None


def unfold(term: Term, names: dict[str, Term]) -> Term:
    """Replace fresh names by the terms they stand for, recursively."""
    memo: dict[str, Term] = {}

    def go(t: Term, active: frozenset[str]) -> Term:
        if isinstance(t, Const):
            if t.name not in names:
                return t
            if t.name in active:
                raise RuntimeError(f"cyclic definition through {t.name}")
            if t.name not in memo:
                memo[t.name] = go(names[t.name], active | {t.name})
            return memo[t.name]
        if isinstance(t, App):
            return App(t.fn, go(t.arg, active))
        return mk_meet(go(x, active) for x in t.args)

    return go(normalize(term), frozenset())


def interpolate(a_atoms, b_atoms, goal: Leq, axioms: AxiomSet, *,
                neg_a=(), neg_b=(), verify: bool = True,
                intersection: bool = False) -> InterpolationResult:
    """Compute a shared term t with a <= t and t <= b, given a <= b holds.

    Forward chaining with side attribution and mixed-instance splitting,
    then the intermediate-term construction over all shared candidates:
    shared input constants, shared purification names, and separation
    names. The result is unfolded to the input signature, its signature
    checked against the sharing map, and (unless verify is off) both
    certificate entailments re-proved from scratch.

    Raises NotEntailed when the goal does not follow, NoSharedWitness
    when no shared candidate lies above the goal's left side or a mixed
    instance cannot be separated, and ValueError on inconsistent
    premises, which entail everything but admit no intermediate term.
    """
    a_in = expand_eqs(normalize_atom(x) for x in a_atoms)
    b_in = expand_eqs(normalize_atom(x) for x in b_atoms)
    neg_a = tuple(normalize_atom(x) for x in neg_a)
    neg_b = tuple(normalize_atom(x) for x in neg_b)
    if not isinstance(goal, Leq):
        raise ValueError("interpolation goal must be a <= atom")
    goal = normalize_atom(goal)

    sigma_a = {f for x in (*a_in, *neg_a) for f in atom_functions(x)}
    sigma_b = {f for x in (*b_in, *neg_b) for f in atom_functions(x)}
    sigma_a |= term_functions(goal.lhs)
    sigma_b |= term_functions(goal.rhs)
    make = intersection_sharing if intersection else theta_sharing
    smap = make(axioms, sigma_a, sigma_b)
    fn_colors = _fn_colors(smap, sigma_a, sigma_b)
    try:
        problem = locality.prepare_problem(
            a_in, b_in, goal, axioms, neg_a=neg_a, neg_b=neg_b, fn_colors=fn_colors,
        )
    except ColorClash as e:
        raise NoSharedWitness(
            f"sides cannot be purified apart under this sharing: {e}"
        ) from e

    consts = set(problem.names) | set(problem.binders)
    for x in (*problem.a0, *problem.b0, *problem.neg_a, *problem.neg_b, problem.goal):
        consts |= atom_constants(x)
    # constants occurring only under an application never reach a
    # purified atom, but they are input vocabulary all the same
    for _, arg in problem.defs:
        consts |= term_constants(arg)
    for t in problem.binders.values():
        consts |= term_constants(t)
    state = SeparationState(
        problem=problem,
        fn_colors=fn_colors,
        side_a=[*problem.a0],
        side_b=[*problem.b0],
        candidates=sorted(
            c for c in consts if problem.colors[c] is Color.SHARED
        ),
    )

    def fire(clause: GroundHornClause) -> tuple[Leq, ...]:
        strict = _clause_strict_colors(clause, problem.colors)
        if Color.A in strict and Color.B in strict:
            return _fire_split(clause, state)
        side = state.side_b if strict == {Color.B} else state.side_a
        side.append(clause.conclusion)
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

    lhs_strict = _strict_colors(problem.goal.lhs, problem.colors)
    own = state.side_b if Color.B in lhs_strict else state.side_a
    t = slat.intermediate_term(
        own, state.all_atoms(), problem.goal.lhs, problem.goal.rhs,
        state.candidate_terms(),
    )
    names = problem.unfold_map()
    term = unfold(t, names)
    _check_signature(term, smap, problem.colors, consts - set(names))
    shared_consts = frozenset(
        c for c in consts - set(names)
        if problem.colors[c] is Color.SHARED
    )
    smap = SharingMap(smap.classes, smap.shared_functions, shared_consts, smap.intersection)

    certificates = None
    if verify:
        left = Leq(goal.lhs, term)
        right = Leq(term, goal.rhs)
        ok_l, tr_l = locality.decide(locality.prepare_problem(
            a_in, b_in, left, axioms, neg_a=neg_a, neg_b=neg_b))
        ok_r, tr_r = locality.decide(locality.prepare_problem(
            a_in, b_in, right, axioms, neg_a=neg_a, neg_b=neg_b))
        if not (ok_l and ok_r):
            raise VerificationFailed(
                f"interpolant {format_term(term)} failed "
                f"{'left' if not ok_l else 'right'} certificate"
            )
        certificates = ((left, tr_l), (right, tr_r))
    return InterpolationResult(
        term=term,
        purified_term=t,
        goal=goal,
        sharing=smap,
        names={n: unfold(Const(n), names) for n in names},
        splits=tuple(state.splits),
        fired=tuple(state.fired),
        certificates=certificates,
    )


def _fire_split(clause: GroundHornClause, state: SeparationState) -> tuple[Leq, Leq]:
    """Separate a mixed instance at an intermediate term; return the atoms added.

    For the unary schemas there is exactly one premise c <= d, and the
    premise owner's atoms give a shared term t between them. A fresh
    shared constant u names f(t) for the instance's outer function f; the
    instance becomes the Mon piece c <= t -> f(c)-name <= u on the owner's
    side and the original-schema piece t <= d -> u <= conclusion-rhs on the
    other. Raises NoSharedWitness when the outer function is not shared,
    since u could then never enter an interpolant.
    """
    problem = state.problem
    if not clause.premises:
        raise NoSharedWitness("mixed unit instance cannot be separated")
    if len(clause.premises) != 1:
        raise NoSharedWitness(f"cannot separate instance with {len(clause.premises)} premises")
    p = clause.premises[0]
    owner = _owner_side(clause, p, problem.colors)
    own_atoms, other = (state.side_a, state.side_b) if owner is Color.A else (state.side_b, state.side_a)
    t = slat.intermediate_term(
        own_atoms, state.all_atoms(), p.lhs, p.rhs, state.candidate_terms(),
    )
    bad = {c for c in term_constants(t) if problem.colors[c] is not Color.SHARED}
    if bad:
        raise RuntimeError(f"separating term uses non-shared constant {sorted(bad)[0]}")
    schema = clause.provenance[0]
    f = clause.provenance[1]
    if state.fn_colors.get(f) is not Color.SHARED:
        raise NoSharedWitness(
            f"mixed instance of non-shared operator {f} cannot be separated"
        )
    u = problem.purifier.name_for(f, t)
    if problem.colors[u] is not Color.SHARED:
        raise RuntimeError(f"separation name {u} is not shared")
    if u not in state.candidates:
        state.candidates.append(u)
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
    own_atoms.append(c_a.conclusion)
    other.append(c_b.conclusion)
    state.fired.extend((c_a, c_b))
    return c_a.conclusion, c_b.conclusion


def _check_signature(term: Term, smap: SharingMap, colors, real_consts) -> None:
    for f in term_functions(term):
        if f not in smap.shared_functions:
            raise RuntimeError(f"interpolant uses non-shared function {f}")
    for c in term_constants(term):
        if c not in real_consts or colors.get(c) is not Color.SHARED:
            raise RuntimeError(f"interpolant uses non-shared constant {c}")
