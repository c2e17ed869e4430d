"""Ground entailment for meet semilattices, by propositional Horn encoding.

A set of ground atoms s <= t over constants and meets entails another such
atom exactly when the corresponding propositional Horn problem derives it:
one variable P_e per subterm e, three clauses tying every meet variable to
its two components, one clause P_s -> P_t per atom. Evaluations into the
two element semilattice {0, 1} with meet = min separate non-entailed atoms,
which is what the brute force oracle of the tests enumerates.

Entailment of s <= t is decided by unit propagation from P_s, which keeps
for each variable the clause that made it true: a derivation to read back.
"""

from __future__ import annotations

from dataclasses import field

from .terms import (
    App,
    Atom,
    Const,
    Eq,
    Frozen,
    Leq,
    Meet,
    Record,
    Term,
    expand_eqs,
    format_atom,
    format_term,
    mk_meet,
    subterms,
    term_key,
)


class NoSharedWitness(Exception):
    """No candidate term can witness the requested intermediate step."""


# ---------------------------------------------------------------------------
# Horn encoding


class PropHornProblem(Record):
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

    def add_clause(self, premises: tuple[int, ...], conclusion: int, origin: int = -1) -> None:
        for v in premises:
            self.watch[v].append(len(self.clauses))
        self.clauses.append((premises, conclusion))
        self.origin.append(origin)

    def register(self, terms) -> None:
        """Give the new terms and their subterms variables.

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
        leqs = [(i, a) for i, x in enumerate(atoms, start) for a in expand_eqs([x])]
        self.register([t for _, a in leqs for t in (a.lhs, a.rhs)])
        for i, a in leqs:
            self.add_clause((self.index[a.lhs],), self.index[a.rhs], i)


def encode(atoms, extra_terms=()) -> PropHornProblem:
    """Encode atoms (Eq expanded to two Leq) plus registered extra terms."""
    problem = PropHornProblem()
    problem.add_atoms(atoms)
    problem.register(extra_terms)
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
    """

    def __init__(self, atoms, extra_terms=()):
        self.atoms = list(atoms)
        self.problem = encode(self.atoms, extra_terms)
        self._closures: dict[int, dict[int, int | None]] = {}
        self._seeds: list[int] = []
        self.holders: dict[int, set[int]] = {}
        self._synced = len(self.problem.clauses)

    def var(self, t: Term) -> int:
        """Variable of a term, registering it first when it is new.

        The pairs registering a meet makes derivable, each with a new
        meet on the right, grow the cached closures but are not reported.
        """
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
            # both sides have variables, so the atom is one clause
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
        lhs, rhs, index = atom.lhs, atom.rhs, self.problem.index
        if isinstance(atom, Eq):
            return self.holds(Leq(lhs, rhs)) and self.holds(Leq(rhs, lhs))
        if lhs not in index or rhs not in index:
            raise ValueError(f"unregistered goal term in {format_atom(atom)}")
        return self.derives(index[lhs], index[rhs])


def entails_atom(atoms, goal: Atom) -> bool:
    """True iff the atoms entail the goal in every semilattice."""
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
    - per goal (pairs, extra) whose pairs all hold, from them and extra
      to done;
    - per rule (pairs, extra, head), from those variable pairs and the
      caller's nodes extra to the caller's node head;
    - per closure and per clause whose premises all lie in it, from the
      premise pairs and the clause's gate (none for meet clauses) to
      the conclusion pair; such an edge carries its clause.
    The closures must be closed under every clause, as they are once
    every atom has been added; a goal's closure is cached here.
    A derivation is given by its reasons: per node the edge that first
    made it true, None for a node true from the start, -1 for a node
    it does not make true. The goal edges come first, goals[e] the
    position among the given goals of goal edge e.
    """

    def __init__(self, ent: Entailer, nodes: int, gate, rules, goals):
        self.goals = [k for k, (pairs, _) in enumerate(goals) if all(ent.derives(*p) for p in pairs)]
        pair, n = {}, nodes
        for s, closure in ent._closures.items():
            pair[s] = dict(zip(closure, range(n, n + len(closure))))
            n += len(closure)
        self.nodes, self.start, self.done, self.pair = nodes, [ids[s] for s, ids in pair.items()], n, pair
        tails = [(*(pair[s][v] for s, v in goals[k][0]), *goals[k][1]) for k in self.goals]
        heads = [n] * len(tails)
        for pairs, extra, head in rules:
            tails.append((*(pair[s][v] for s, v in pairs), *extra))
            heads.append(head)
        self.clause: list[int | None] = [None] * len(tails)
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
                    self.clause.append(cid)
        self.uses: list[list[int]] = [[] for _ in range(n + 1)]
        for e, tail in enumerate(tails):
            for p in tail:
                self.uses[p].append(e)
        self.tails, self.heads, self.need = tails, heads, [len(t) for t in tails]

    def decide(self, true) -> list[int | None] | None:
        """The reasons of one derivation of done from the true nodes, or
        None when done is not derivable from them.

        Unit propagation with a premise counter per edge, from the seed
        pairs (s, s) and the true nodes; it stops once done is true.
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
                        return reason
                    queue.append(heads[e])
        return None

    def vital(self, true) -> tuple[list[int | None], set[int]]:
        """The reasons of one derivation of done from the true nodes (a
        sequence), and the true nodes every such derivation uses; done
        must be derivable from them.

        N(v), the true nodes without any one of which v is not derivable,
        is the greatest fixpoint of N(v) = the intersection over the edges
        into v that fire of the union of N over their tails, with N(x) =
        {x} for a true node x and N = {} for a seed pair, even one with
        edges into it: the Horn counterpart of the necessary clauses of
        MUS extraction (Marques-Silva and Lynce, SAT 2011). One
        propagation runs to the fixpoint and computes it downward, over
        int bitsets: a node starts from the union over the edge that
        first makes it true, and each edge that fires, or that has fired
        and whose tail's set shrinks, intersects its head's set with its
        union. Sets only shrink, so that is the intersection over every
        edge, and every set holds its value in the greatest fixpoint.
        """
        need, heads, uses, tails = self.need[:], self.heads, self.uses, self.tails
        queue = [*self.start, *true]
        reason: list[int | None] = [-1] * len(uses)
        bits = [0] * len(uses)
        for node in queue:
            reason[node] = None
        for x in true:
            bits[x] = 1 << x
        for node in queue:
            for e in uses[node]:
                need[e] -= 1
                if need[e]:
                    continue
                fired = [e]
                while fired:
                    f = fired.pop()
                    union = 0
                    for t in tails[f]:
                        union |= bits[t]
                    h = heads[f]
                    if reason[h] == -1:
                        reason[h], bits[h] = f, union
                        queue.append(h)
                    elif reason[h] is not None and bits[h] & union != bits[h]:
                        bits[h] &= union
                        fired += [g for g in uses[h] if not need[g]]
        return reason, {x for x in true if bits[self.done] >> x & 1}

    def used(self, reason) -> set[int]:
        """The true nodes the derivation of done with these reasons uses."""
        seen, todo = {self.done}, [self.done]
        while todo:
            e = reason[todo.pop()]
            if e is not None:
                todo += [p for p in self.tails[e] if p not in seen]
                seen.update(self.tails[e])
        return {k for k in seen if k < self.nodes and reason[k] is None}

    def reasons(self, reason):
        """The pair lookup of a derivation: (s, v) to the clause that made v
        true in the closure of s, None for v = s, -1 when not made true."""
        def lookup(s: int, v: int) -> int | None:
            e = reason[self.pair[s][v]] if v in self.pair.get(s, ()) else -1
            return e if e is None or e < 0 else self.clause[e]
        return lookup


# ---------------------------------------------------------------------------
# intermediate terms


def intermediate_term(ent: Entailer, ab: Entailer, a: Term, b: Term, candidates) -> Term:
    """Meet of all candidates e with a <= e on the a-side atoms.

    Given the atoms of ab entail a <= b, the returned t satisfies a <= t
    from the atoms of ent alone and t <= b from those of ab; both claims
    are re-checked. candidates is a set (any container) of terms; the
    chosen ones are read off the closure of a, so a call costs the size
    of that closure, not the number of candidates.
    Raises NoSharedWitness when no candidate is entailed, since then no
    meet over the candidates can lie above a, and when the meet fails
    t <= b: it is the least meet of candidates above a, so no other one
    lies below b either.
    """
    if not ab.derives(ab.var(a), ab.var(b)):
        raise ValueError(f"premise atoms do not entail {format_term(a)} <= {format_term(b)}")
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
# finite models


class FiniteModel(Record):
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


class ModelCheck(Frozen):
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
