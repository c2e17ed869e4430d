"""Ground entailment for meet semilattices, by propositional Horn encoding.

A set of ground atoms s <= t over constants and meets entails another such
atom exactly when the corresponding propositional Horn problem derives it:
one variable P_e per subterm e, three clauses tying every meet variable to
its two components, one clause P_s -> P_t per atom. Evaluations into the
two element semilattice {0, 1} with meet = min separate non-entailed atoms,
which is what the brute force oracle below enumerates.

Entailment of s <= t is decided by unit propagation from P_s, which keeps
for each variable the clause that made it true: a derivation to read back.
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

    index maps each registered term to its variable, terms each variable
    to its term. Every clause is a (premises, conclusion) pair of
    variable ids with definite conclusion, origin the position of the
    atom that added it (-1 for meet clauses); watch lists, per variable,
    the clauses it is a premise of.
    """

    index: dict[Term, int] = field(default_factory=dict)
    clauses: list[tuple[tuple[int, ...], int]] = field(default_factory=list)
    origin: list[int] = field(default_factory=list)
    watch: list[list[int]] = field(default_factory=list)
    terms: list[Term] = field(default_factory=list)

    def copy(self) -> PropHornProblem:
        """An independent copy, to be grown apart from this encoding."""
        return PropHornProblem(dict(self.index), self.clauses[:], self.origin[:],
                               [w[:] for w in self.watch], self.terms[:])

    def add_clause(self, premises: tuple[int, ...], conclusion: int, origin: int = -1) -> None:
        for v in premises:
            self.watch[v].append(len(self.clauses))
        self.clauses.append((premises, conclusion))
        self.origin.append(origin)

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
            self.terms.append(t)
            self.watch.append([])
        for t in new_sorted:
            if isinstance(t, Meet):
                left = t.args[0] if len(t.args) == 2 else Meet(t.args[:-1])
                m, l, r = self.index[t], self.index[left], self.index[t.args[-1]]
                self.add_clause((m,), l)
                self.add_clause((m,), r)
                self.add_clause(tuple(sorted({l, r})), m)

    def add_atoms(self, atoms, start: int = 0) -> None:
        """Register the atoms' terms; add P_s -> P_t per s <= t they expand to.

        Each atom clause records its atom's position, counted from start.
        """
        leqs = [(i, a) for i, x in enumerate(atoms, start) for a in expand_eqs([normalize_atom(x)])]
        self.register([t for _, a in leqs for t in (a.lhs, a.rhs)])
        for i, a in leqs:
            self.add_clause((self.index[a.lhs],), self.index[a.rhs], i)


def encode(atoms, extra_terms=()) -> PropHornProblem:
    """Encode atoms (Eq expanded to two Leq) plus registered extra terms."""
    problem = PropHornProblem()
    problem.add_atoms(atoms)
    problem.register([normalize(t) for t in extra_terms])
    return problem


def _spread(problem: PropHornProblem, closure: dict[int, int | None], queue: list[int]) -> list[int]:
    """Close closure, which holds the queued variables, under the clauses.

    closure maps each variable it holds, in the order they entered, to
    the clause that made it true (None for a seed). A clause fires when
    the variable taken from the queue completes its premises; the queue
    is returned, ending as every variable that entered, in order.
    """
    clauses = problem.clauses
    for v in queue:
        for cid in problem.watch[v]:
            premises, conclusion = clauses[cid]
            if conclusion not in closure and (
                    len(premises) == 1 or all(p in closure for p in premises)):
                closure[conclusion] = cid
                queue.append(conclusion)
    return queue


def propagate(problem: PropHornProblem, seeds) -> dict[int, int | None]:
    """Unit propagation closure of the seed variables, with reasons."""
    closure = dict.fromkeys(seeds)
    _spread(problem, closure, list(closure))
    return closure


class Entailer:
    """Entailment checks against one growing atom set.

    The closure of every queried left hand side is cached, with its
    reasons, and add() extends each cached closure in place, so the atom
    set is encoded once however often it grows. holders, the "who has
    this subsumer" index of EL saturation, maps each variable to the
    query positions of the closures holding it; add() visits only those.

    encoding, when given, is used as is instead of encoding the atoms:
    it must hold the clause of every atom, the i-th with origin i, and
    register the extra terms. Entailers over subsets of one atom set
    can so each start from a copy of one encoding of all its terms.
    """

    def __init__(self, atoms, extra_terms=(), *, encoding: PropHornProblem | None = None):
        self.atoms = list(atoms)
        self.problem = encode(self.atoms, extra_terms) if encoding is None else encoding
        self._closures: dict[int, dict[int, int | None]] = {}
        self._seeds: list[int] = []
        self.holders: dict[int, set[int]] = {}
        self._synced = len(self.problem.clauses)

    def var(self, t: Term) -> int:
        """Variable of a term, registering it first when it is new.

        The pairs registering a meet makes derivable, each with a new
        meet on the right, grow the cached closures but are not reported.
        """
        t = normalize(t)
        if t not in self.problem.index:
            self.problem.register([t])
            self._sync()
        return self.problem.index[t]

    def _closure(self, lhs: int) -> dict[int, int | None]:
        closure = self._closures.get(lhs)
        if closure is None:
            closure = self._closures[lhs] = propagate(self.problem, [lhs])
            for v in closure:
                self.holders.setdefault(v, set()).add(len(self._seeds))
            self._seeds.append(lhs)
        return closure

    def reasons(self, lhs: int) -> dict[int, int | None]:
        """The cached closure of lhs: each variable it holds, with the
        clause that made it true (None for lhs itself)."""
        return self._closure(lhs)

    def derives(self, lhs: int, rhs: int) -> bool:
        """True iff the atoms entail the term of lhs below that of rhs."""
        return rhs in self._closure(lhs)

    def above(self, lhs: int) -> list[int]:
        """Every variable the atoms entail above lhs; its closure is cached."""
        return list(self._closure(lhs))

    def add(self, atom: Atom) -> list[tuple[int, int]]:
        """Add an atom; return the (lhs, rhs) variable pairs it made derivable.

        Only cached closures report pairs, so a caller learns of a new
        consequence of every left hand side it has already queried.
        """
        index = self.problem.index
        if isinstance(atom, Leq) and atom.lhs in index and atom.rhs in index:
            # registered terms are normalized, so the atom is one clause
            self.problem.add_clause((index[atom.lhs],), index[atom.rhs], len(self.atoms))
        else:
            self.problem.add_atoms([atom], len(self.atoms))
        self.atoms.append(atom)
        return self._sync()

    def _sync(self) -> list[tuple[int, int]]:
        """Extend the cached closures by the new clauses.

        Only closures holding some new clause's premises but not its
        conclusion can grow; holders names them, scanned in closure order.
        """
        clauses, first = self.problem.clauses, self._synced
        self._synced = len(clauses)
        holders, none, grow, made = self.holders, set(), set(), []
        for premises, conclusion in clauses[first:]:
            held = set.intersection(*(holders.get(p, none) for p in premises))
            grow |= held - holders.get(conclusion, none)
        for pos in sorted(grow):
            seed, queue = self._seeds[pos], []
            closure = self._closures[seed]
            for cid in range(first, len(clauses)):
                premises, conclusion = clauses[cid]
                if conclusion not in closure and all(p in closure for p in premises):
                    closure[conclusion] = cid
                    queue.append(conclusion)
            for v in _spread(self.problem, closure, queue):
                holders.setdefault(v, set()).add(pos)
                made.append((seed, v))
        return made

    def holds(self, atom: Atom) -> bool:
        lhs, rhs = normalize(atom.lhs), normalize(atom.rhs)
        if isinstance(atom, Eq):
            return self.holds(Leq(lhs, rhs)) and self.holds(Leq(rhs, lhs))
        if lhs not in self.problem.index or rhs not in self.problem.index:
            raise ValueError(f"unregistered goal term in {format_atom(atom)}")
        return self.derives(self.problem.index[lhs], self.problem.index[rhs])


def entails_atom(atoms, goal: Atom) -> bool:
    """True iff the atoms entail the goal in every semilattice."""
    goal = normalize_atom(goal)
    return Entailer(atoms, (goal.lhs, goal.rhs)).holds(goal)


# ---------------------------------------------------------------------------
# selector programs


class SelectorProgram:
    """A ground Horn program over the cached closures of an Entailer.

    It decides entailment from subsets of the Entailer's atoms without
    propagating over the encoding again: axiom pinpointing on a Horn
    encoding (Sebastiani and Vescovi, CADE 2009). The caller numbers its
    own nodes 0 .. nodes - 1, a selector per atom owner among them, and
    gate[i] is the node enabling the clause of atom i (None: always
    present). The other nodes are one per pair (s, v) of each cached
    closure, and done. Edges:
    - per closure and per clause whose premises all lie in it, from the
      premise pairs and the clause's gate (none for meet clauses) to
      the conclusion pair;
    - per rule (pairs, extra, head), from those variable pairs and the
      caller's nodes extra to the caller's node head;
    - per goal (pairs, extra) whose pairs all hold, from them and extra
      to done.
    The closures must be closed under every clause, as they are once
    every atom has been added; a goal's closure is cached here.
    """

    def __init__(self, ent: Entailer, nodes: int, gate, rules, goals):
        goals = [(pairs, extra) for pairs, extra in goals if all(ent.derives(*p) for p in pairs)]
        pair, n = {}, nodes
        for s, closure in ent._closures.items():
            pair[s] = dict(zip(closure, range(n, n + len(closure))))
            n += len(closure)
        self.nodes, self.start, self.done = nodes, [ids[s] for s, ids in pair.items()], n
        tails = [(*(pair[s][v] for s, v in pairs), *extra) for pairs, extra in goals]
        heads = [n] * len(tails)
        for pairs, extra, head in rules:
            tails.append((*(pair[s][v] for s, v in pairs), *extra))
            heads.append(head)
        enable = [() if o < 0 or gate[o] is None else (gate[o],) for o in ent.problem.origin]
        clauses, watch = ent.problem.clauses, ent.problem.watch
        for ids in pair.values():
            for v, node in ids.items():
                for cid in watch[v]:
                    premises, conclusion = clauses[cid]
                    if len(premises) == 1:
                        tails.append((node, *enable[cid]))
                    elif premises[0] == v and all(p in ids for p in premises[1:]):
                        tails.append((*(ids[p] for p in premises), *enable[cid]))
                    else:
                        continue
                    heads.append(ids[conclusion])
        self.uses: list[list[int]] = [[] for _ in range(n + 1)]
        for e, tail in enumerate(tails):
            for p in tail:
                self.uses[p].append(e)
        self.tails, self.heads, self.need = tails, heads, [len(t) for t in tails]

    def decide(self, true) -> set[int] | None:
        """The caller's nodes one derivation of done from the true ones
        uses, or None when done is not derivable from them.

        Unit propagation with a premise counter per edge, from the seed
        pairs (s, s) and the true nodes; it stops once done is true, and
        the reasons, each node's first edge, are walked back from it.
        """
        need, heads, uses, done = self.need[:], self.heads, self.uses, self.done
        queue = [*self.start, *true]
        reason: list[int | None] = [-1] * len(uses)
        for node in queue:
            reason[node] = None
        for node in queue:
            for e in uses[node]:
                need[e] -= 1
                if not need[e] and reason[heads[e]] == -1:
                    reason[heads[e]] = e
                    if heads[e] == done:
                        return self._used(reason)
                    queue.append(heads[e])
        return None

    def _used(self, reason: list[int | None]) -> set[int]:
        seen, todo = {self.done}, [self.done]
        while todo:
            e = reason[todo.pop()]
            if e is not None:
                todo += [p for p in self.tails[e] if p not in seen]
                seen.update(self.tails[e])
        return {k for k in seen if k < self.nodes}


# ---------------------------------------------------------------------------
# intermediate terms


def intermediate_term(a_atoms, ab_atoms, a: Term, b: Term, candidates) -> Term:
    """Meet of all candidates e with a <= e on the a-side atoms.

    Given ab_atoms entails a <= b, the returned t satisfies a <= t from
    a_atoms alone and t <= b from ab_atoms; both claims are re-checked.
    Each atom set is the atoms or an Entailer over them, used as it is;
    one Entailer per atom set decides all four entailments. candidates
    is a set (any container) of normalized terms; the chosen ones are
    read off the closure of a, so a call costs the size of that closure,
    not the number of candidates.
    Raises NoSharedWitness when no candidate is entailed, since then no
    meet over the candidates can lie above a, and when the meet fails
    t <= b: it is the least meet of candidates above a, so no other one
    lies below b either.
    """
    a, b = normalize(a), normalize(b)
    ab = ab_atoms if isinstance(ab_atoms, Entailer) else Entailer(ab_atoms, [a, b])
    if not ab.derives(ab.var(a), ab.var(b)):
        raise ValueError(f"premise atoms do not entail {format_term(a)} <= {format_term(b)}")
    ent = a_atoms if isinstance(a_atoms, Entailer) else Entailer(a_atoms, [a])
    terms = ent.problem.terms
    chosen = sorted((e for v in ent.above(ent.var(a)) if (e := terms[v]) in candidates), key=term_key)
    if not chosen:
        cand = sorted(candidates, key=term_key)
        raise NoSharedWitness(
            f"no shared candidate above {format_term(a)} "
            f"(candidates: {', '.join(format_term(c) for c in cand) or 'none'})"
        )
    t = mk_meet(chosen)
    if not ent.derives(ent.var(a), ent.var(t)):
        raise RuntimeError(f"intermediate term claim failed: {format_term(a)} <= {format_term(t)}")
    if not ab.derives(ab.var(t), ab.var(b)):
        raise NoSharedWitness(
            f"no shared term lies between {format_term(a)} and {format_term(b)}: "
            f"the least shared meet above {format_term(a)}, {format_term(t)}, "
            f"is not below {format_term(b)}"
        )
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
