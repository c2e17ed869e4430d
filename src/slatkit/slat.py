"""Ground entailment for meet semilattices, by propositional Horn encoding.

A set of ground atoms s <= t over constants and meets entails another such
atom exactly when the corresponding propositional Horn problem derives it:
one variable P_e per subterm e, three clauses tying every meet variable to
its two components, one clause P_s -> P_t per atom. Evaluations into the
two element semilattice {0, 1} with meet = min separate non-entailed atoms,
which is what the brute force oracle below enumerates.

Entailment of s <= t is decided by unit propagation from P_s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .terms import (
    App,
    Atom,
    Const,
    Eq,
    Leq,
    Meet,
    Term,
    expand_eqs,
    format_atom,
    format_term,
    mk_meet,
    normalize,
    normalize_atom,
    subterms,
    term_constants,
    term_key,
)


class NoSharedWitness(Exception):
    """No candidate term can witness the requested intermediate step."""


# ---------------------------------------------------------------------------
# Horn encoding


@dataclass
class PropHornProblem:
    """Propositional Horn encoding of a ground atom set.

    index maps each registered term to its variable. Every clause is a
    (premises, conclusion) pair of variable ids with definite conclusion;
    watch lists, per variable, the clauses it is a premise of.
    """

    index: dict[Term, int] = field(default_factory=dict)
    clauses: list[tuple[tuple[int, ...], int]] = field(default_factory=list)
    watch: list[list[int]] = field(default_factory=list)

    def var(self, t: Term) -> int:
        return self.index[t]

    def add_clause(self, premises: tuple[int, ...], conclusion: int) -> None:
        for v in premises:
            self.watch[v].append(len(self.clauses))
        self.clauses.append((premises, conclusion))

    def register(self, terms) -> None:
        """Give the new normalized terms and their subterms variables.

        New variables are numbered in term order, and every new meet gets
        the three clauses tying it to its binary left-fold decomposition,
        whose prefix is itself registered.
        """
        new: set[Term] = set()
        for t in terms:
            if t not in self.index:
                new |= {s for s in subterms(t) if s not in self.index}
        new_sorted = sorted(new, key=term_key)
        for t in new_sorted:
            self.index[t] = len(self.index)
            self.watch.append([])
        for t in new_sorted:
            if isinstance(t, Meet):
                left = t.args[0] if len(t.args) == 2 else Meet(t.args[:-1])
                m, l, r = self.var(t), self.var(left), self.var(t.args[-1])
                self.add_clause((m,), l)
                self.add_clause((m,), r)
                self.add_clause(tuple(sorted({l, r})), m)

    def add_leqs(self, leqs, extra_terms=()) -> None:
        """Register the atoms' and the extra terms; add P_s -> P_t per atom s <= t."""
        self.register([*(t for a in leqs for t in (a.lhs, a.rhs)), *extra_terms])
        for a in leqs:
            self.add_clause((self.var(a.lhs),), self.var(a.rhs))


def encode(atoms, extra_terms=()) -> PropHornProblem:
    """Encode atoms (Eq expanded to two Leq) plus registered extra terms."""
    problem = PropHornProblem()
    problem.add_leqs(expand_eqs(normalize_atom(a) for a in atoms),
                     [normalize(t) for t in extra_terms])
    return problem


def _spread(problem: PropHornProblem, true: list[bool], queue: list[int]) -> list[int]:
    """Make the queued variables and their consequences true; return them.

    A clause fires when the variable just made true completes its premises.
    """
    made = []
    while queue:
        v = queue.pop()
        if true[v]:
            continue
        true[v] = True
        made.append(v)
        for cid in problem.watch[v]:
            premises, conclusion = problem.clauses[cid]
            if not true[conclusion] and (len(premises) == 1 or all(true[p] for p in premises)):
                queue.append(conclusion)
    return made


def propagate(problem: PropHornProblem, seeds) -> list[bool]:
    """Unit propagation closure of the seed variables."""
    true = [False] * len(problem.index)
    _spread(problem, true, list(seeds))
    return true


class Entailer:
    """Entailment checks against one growing atom set.

    The closure of every queried left hand side is cached, and add()
    extends each cached closure in place, so the atom set is encoded
    once however often it grows.
    """

    def __init__(self, atoms, extra_terms=()):
        self.atoms = list(atoms)
        self.problem = encode(self.atoms, extra_terms)
        self._closures: dict[int, list[bool]] = {}
        self._synced = (len(self.problem.index), len(self.problem.clauses))

    def var(self, t: Term) -> int:
        """Variable of a term, registering it first when it is new."""
        t = normalize(t)
        if t not in self.problem.index:
            self.problem.register([t])
            self._sync()
        return self.problem.var(t)

    def derives(self, lhs: int, rhs: int) -> bool:
        """True iff the atoms entail the term of lhs below that of rhs."""
        closure = self._closures.get(lhs)
        if closure is None:
            closure = propagate(self.problem, [lhs])
            self._closures[lhs] = closure
        return closure[rhs]

    def add(self, atom: Atom) -> list[tuple[int, int]]:
        """Add an atom; return the (lhs, rhs) variable pairs it made derivable.

        Only cached closures report pairs, so a caller learns of a new
        consequence of every left hand side it has already queried.
        """
        self.atoms.append(atom)
        self.problem.add_leqs(expand_eqs([normalize_atom(atom)]))
        return self._sync()

    def _sync(self) -> list[tuple[int, int]]:
        """Extend the cached closures by the new variables and clauses."""
        nvars, first = self._synced
        self._synced = (len(self.problem.index), len(self.problem.clauses))
        made = []
        for seed, true in self._closures.items():
            true.extend([False] * (self._synced[0] - nvars))
            queue = [c for p, c in self.problem.clauses[first:]
                     if not true[c] and all(true[v] for v in p)]
            made.extend((seed, v) for v in _spread(self.problem, true, queue))
        return made

    def holds(self, atom: Atom) -> bool:
        lhs, rhs = normalize(atom.lhs), normalize(atom.rhs)
        if isinstance(atom, Eq):
            return self.holds(Leq(lhs, rhs)) and self.holds(Leq(rhs, lhs))
        if lhs not in self.problem.index or rhs not in self.problem.index:
            raise ValueError(f"unregistered goal term in {format_atom(atom)}")
        return self.derives(self.problem.var(lhs), self.problem.var(rhs))


def entails_atom(atoms, goal: Atom) -> bool:
    """True iff the atoms entail the goal in every semilattice."""
    goal = normalize_atom(goal)
    return Entailer(atoms, (goal.lhs, goal.rhs)).holds(goal)


def is_consistent(atoms, neg_atoms) -> bool:
    """True iff no negated atom's positive part is entailed.

    Sound and complete by convexity: a Horn atom set plus negative
    literals is unsatisfiable exactly when one of the negated atoms is
    entailed outright.
    """
    neg = [normalize_atom(n) for n in neg_atoms]
    ent = Entailer(atoms, [t for n in neg for t in (n.lhs, n.rhs)])
    return not any(ent.holds(n) for n in neg)


# ---------------------------------------------------------------------------
# intermediate terms


def intermediate_term(a_atoms, ab_atoms, a: Term, b: Term, candidates) -> Term:
    """Meet of all candidates e with a <= e on the a-side atoms.

    Given ab_atoms entails a <= b, the returned t satisfies a <= t from
    a_atoms alone and t <= b from ab_atoms; both claims are re-checked.
    Raises NoSharedWitness when no candidate is entailed, since then no
    meet over the candidates can lie above a.
    """
    a, b = normalize(a), normalize(b)
    cand = sorted({normalize(c) for c in candidates}, key=term_key)
    if not entails_atom(ab_atoms, Leq(a, b)):
        raise ValueError(f"premise atoms do not entail {format_term(a)} <= {format_term(b)}")
    ent = Entailer(a_atoms, [a, *cand])
    chosen = [e for e in cand if ent.holds(Leq(a, e))]
    if not chosen:
        raise NoSharedWitness(
            f"no shared candidate above {format_term(a)} "
            f"(candidates: {', '.join(format_term(c) for c in cand) or 'none'})"
        )
    t = mk_meet(chosen)
    if not entails_atom(a_atoms, Leq(a, t)):
        raise RuntimeError(f"intermediate term claim failed: {format_term(a)} <= {format_term(t)}")
    if not entails_atom(ab_atoms, Leq(t, b)):
        raise RuntimeError(f"intermediate term claim failed: {format_term(t)} <= {format_term(b)}")
    return t


# ---------------------------------------------------------------------------
# brute force oracle


def brute_force_entails(atoms, goal: Atom) -> bool:
    """Entailment by enumerating all {0, 1} valuations of the constants.

    Only constants and meets are allowed; function applications must have
    been purified away. Limited to 20 constants.
    """
    leqs = expand_eqs(normalize_atom(a) for a in atoms)
    goal = normalize_atom(goal)
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


def _check_flat(t: Term) -> None:
    if isinstance(t, App):
        raise ValueError(f"function application in brute force input: {format_term(t)}")
    if isinstance(t, Meet):
        for a in t.args:
            _check_flat(a)


def _eval01(t: Term, env: dict[str, int]) -> int:
    if isinstance(t, Const):
        return env[t.name]
    return min(_eval01(a, env) for a in t.args)


# ---------------------------------------------------------------------------
# finite models


@dataclass
class FiniteModel:
    """Finite algebra: carrier, meet table, unary functions, constants."""

    carrier: tuple[str, ...]
    meet: dict[tuple[str, str], str]
    funcs: dict[str, dict[str, str]]
    consts: dict[str, str]

    def leq(self, x: str, y: str) -> bool:
        return self.meet[(x, y)] == x


def eval_term(model: FiniteModel, t: Term) -> str:
    """Value of a ground term; constants must be bound in the model."""
    if isinstance(t, Const):
        if t.name not in model.consts:
            raise ValueError(f"unbound constant {t.name}")
        return model.consts[t.name]
    if isinstance(t, App):
        if t.fn not in model.funcs:
            raise ValueError(f"uninterpreted function {t.fn}")
        return model.funcs[t.fn][eval_term(model, t.arg)]
    value = eval_term(model, t.args[0])
    for a in t.args[1:]:
        value = model.meet[(value, eval_term(model, a))]
    return value


@dataclass(frozen=True)
class ModelCheck:
    law: str
    passed: bool
    detail: str = ""


def check_finite_model(model: FiniteModel, inclusions=(), compositions=(), atoms=()) -> list[ModelCheck]:
    """Check semilattice laws, monotonicity, axiom schemes and ground atoms.

    Returns one entry per law in a fixed order. Monotonicity is checked
    for every interpreted function, the K laws for the given inclusion
    pairs (f, g) and composition triples (f, g, h), atoms by evaluation.
    """
    checks: list[ModelCheck] = []
    elems = model.carrier
    m = model.meet

    def fail_of(law, pairs):
        for witness in pairs:
            return ModelCheck(law, False, witness)
        return ModelCheck(law, True)

    checks.append(fail_of(
        "meet-closed",
        (f"{x} & {y} = {m[(x, y)]}" for x in elems for y in elems if m[(x, y)] not in elems),
    ))
    checks.append(fail_of(
        "meet-idempotent",
        (f"{x} & {x} = {m[(x, x)]}" for x in elems if m[(x, x)] != x),
    ))
    checks.append(fail_of(
        "meet-commutative",
        (f"{x} & {y} != {y} & {x}" for x in elems for y in elems if m[(x, y)] != m[(y, x)]),
    ))
    checks.append(fail_of(
        "meet-associative",
        (
            f"({x} & {y}) & {z} != {x} & ({y} & {z})"
            for x in elems for y in elems for z in elems
            if m[(m[(x, y)], z)] != m[(x, m[(y, z)])]
        ),
    ))
    for f in model.funcs:
        table = model.funcs[f]
        checks.append(fail_of(
            f"mon({f})",
            (
                f"{x} <= {y} but {f}({x}) = {table[x]} !<= {f}({y}) = {table[y]}"
                for x in elems for y in elems
                if model.leq(x, y) and not model.leq(table[x], table[y])
            ),
        ))
    for f, g in inclusions:
        _need_funcs(model, (f, g))
        checks.append(fail_of(
            f"inclusion({f},{g})",
            (
                f"{f}({x}) = {model.funcs[f][x]} !<= {g}({x}) = {model.funcs[g][x]}"
                for x in elems
                if not model.leq(model.funcs[f][x], model.funcs[g][x])
            ),
        ))
    for f, g, h in compositions:
        _need_funcs(model, (f, g, h))
        checks.append(fail_of(
            f"composition({f},{g},{h})",
            (
                f"{y} <= {g}({x}) but {f}({y}) = {model.funcs[f][y]} !<= {h}({x}) = {model.funcs[h][x]}"
                for x in elems for y in elems
                if model.leq(y, model.funcs[g][x])
                and not model.leq(model.funcs[f][y], model.funcs[h][x])
            ),
        ))
    for a in atoms:
        a = normalize_atom(a)
        lv, rv = eval_term(model, a.lhs), eval_term(model, a.rhs)
        if isinstance(a, Eq):
            ok = lv == rv
        else:
            ok = model.leq(lv, rv)
        detail = "" if ok else f"lhs = {lv}, rhs = {rv}"
        checks.append(ModelCheck(f"atom({format_atom(a)})", ok, detail))
    return checks


def _need_funcs(model: FiniteModel, fns) -> None:
    for f in fns:
        if f not in model.funcs:
            raise ValueError(f"axiom references uninterpreted function {f}")
