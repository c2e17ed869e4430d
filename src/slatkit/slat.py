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

from collections import defaultdict

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
    field,
    format_atom,
    format_term,
    mk_meet,
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

    def register(self, terms) -> list[int]:
        """Give the new terms and their subterms variables; return terms' variables.

        New variables are numbered in one left-to-right walk from a stack,
        in first-occurrence order: a term after its parts, the argument of
        an application and the binary left-fold decomposition of a meet
        (the meet of all but its last argument, then the last). Every new
        meet gets the three clauses tying it to that decomposition. A term
        registered before, or a new constant, has no new part: it gets its
        variable without the walk.
        """
        index, out = self.index, []
        for t in terms:
            v = index.get(t)
            if v is None and t.__class__ is Const:
                index[t] = v = len(self.terms)
                self.terms.append(t)
                self.watch.append([])
            stack = [t] if v is None else ()   # t stays at the bottom, so v ends as its variable
            while stack:
                t = stack.pop()
                if (v := index.get(t)) is not None:
                    continue
                if isinstance(t, Meet):
                    left, last = meet_halves(t)
                    l, r = index.get(left), index.get(last)
                    if l is None or r is None:
                        stack += (t, last, left)
                        continue
                elif isinstance(t, App) and t.arg not in index:
                    stack += (t, t.arg)
                    continue
                index[t] = v = len(self.terms)
                self.terms.append(t)
                self.watch.append([])
                if isinstance(t, Meet):
                    self.add_clause((v,), l)
                    self.add_clause((v,), r)
                    self.add_clause((l, r) if l < r else (r, l), v)
            out.append(v)
        return out

    def add_atoms(self, atoms, start: int = 0) -> None:
        """Register the atoms' terms; add P_s -> P_t per s <= t they expand to.

        Each atom clause records its atom's position, counted from start.
        """
        sides = iter(self.register([t for a in atoms for t in (a.lhs, a.rhs)]))
        for i, (a, lhs, rhs) in enumerate(zip(atoms, sides, sides), start):
            self.add_clause((lhs,), rhs, i)
            if isinstance(a, Eq):
                self.add_clause((rhs,), lhs, i)


def meet_halves(m: Meet) -> tuple[Term, Term]:
    """The binary left-fold decomposition of a meet: the meet of all but
    its last argument (that argument for two), and the last."""
    return m.args[0] if len(m.args) == 2 else Meet(m.args[:-1]), m.args[-1]


def encode(atoms, extra_terms=()) -> PropHornProblem:
    """Encode atoms (Eq expanded to two Leq) plus registered extra terms."""
    problem = PropHornProblem()
    problem.add_atoms(atoms)
    problem.register(extra_terms)
    return problem


def _spread(problem: PropHornProblem, closure: dict[int, int | None], queue: list[int],
            sides=None, side=None) -> list[int]:
    """Close closure, which holds the queued variables, under the clauses.

    closure maps each variable it holds, in the order they entered, to
    the clause that made it true (None for a seed). A clause fires when
    the variable taken from the queue completes its premises; the queue
    is returned, ending as every variable that entered, in order. With
    sides, a label per atom position, only the meet clauses and the
    clauses of the atoms labelled side apply.
    """
    clauses, origin = problem.clauses, problem.origin
    for v in queue:
        for cid in problem.watch[v]:
            premises, conclusion = clauses[cid]
            if conclusion not in closure and (
                    len(premises) == 1 or all(p in closure for p in premises)) and (
                    sides is None or origin[cid] < 0 or sides[origin[cid]] == side):
                closure[conclusion] = cid
                queue.append(conclusion)
    return queue


def propagate(problem: PropHornProblem, seeds, sides=None, side=None) -> dict[int, int | None]:
    """Unit propagation closure of the seed variables, with reasons; with
    sides, over the clauses _spread keeps for side."""
    closure = dict.fromkeys(seeds)
    _spread(problem, closure, list(closure), sides, side)
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
        self.holders: defaultdict[int, set[int]] = defaultdict(set)
        self._synced = len(self.problem.clauses)

    def var(self, t: Term) -> int:
        """Variable of a term, registering it first when it is new.

        The pairs registering a meet makes derivable, each with a new
        meet on the right, grow the cached closures but are not reported.
        """
        v = self.problem.index.get(t)
        if v is None:
            [v] = self.problem.register([t])
            self._sync()
        return v

    def reasons(self, lhs: int) -> dict[int, int | None]:
        """The cached closure of lhs: each variable it holds, with the
        clause that made it true (None for lhs itself)."""
        closure = self._closures.get(lhs)
        if closure is None:
            closure = self._closures[lhs] = propagate(self.problem, [lhs])
            holders, pos = self.holders, len(self._seeds)
            for v in closure:
                holders[v].add(pos)
            self._seeds.append(lhs)
        return closure

    def derives(self, lhs: int, rhs: int) -> bool:
        """True iff the atoms entail the term of lhs below that of rhs."""
        return rhs in self.reasons(lhs)

    def above(self, lhs: int) -> list[int]:
        """Every variable the atoms entail above lhs; its closure is cached."""
        return list(self.reasons(lhs))

    def add(self, atom: Atom) -> list[tuple[int, int]]:
        """Add an atom; return the (lhs, rhs) variable pairs it made derivable.

        Only cached closures report pairs, so a caller learns of a new
        consequence of every left hand side it has already queried.
        """
        lhs, rhs = self.problem.index.get(atom.lhs), self.problem.index.get(atom.rhs)
        if lhs is not None and rhs is not None and isinstance(atom, Leq):
            # both sides have variables, so the atom is one clause
            self.problem.add_clause((lhs,), rhs, len(self.atoms))
        else:
            self.problem.add_atoms([atom], len(self.atoms))
        self.atoms.append(atom)
        return self._sync()

    def _sync(self) -> list[tuple[int, int]]:
        """Extend the cached closures by the new clauses.

        Each new clause, in order, is tried in the closures holding its
        first premise, read off holders in place, which records at once
        the closures that take it. Then each closure that grew, by
        position, spreads from the conclusions it took.
        """
        clauses, first = self.problem.clauses, self._synced
        self._synced = len(clauses)
        holders, closures, seeds, grown, made = self.holders, self._closures, self._seeds, {}, []
        for cid in range(first, len(clauses)):
            premises, conclusion = clauses[cid]
            for pos in holders.get(premises[0], ()):
                closure = closures[seeds[pos]]
                if conclusion not in closure and (len(premises) == 1 or all(p in closure for p in premises)):
                    closure[conclusion] = cid
                    holders[conclusion].add(pos)
                    grown.setdefault(pos, []).append(conclusion)
        for pos in sorted(grown):
            seed = seeds[pos]
            for v in _spread(self.problem, closures[seed], grown[pos]):
                holders[v].add(pos)
                made.append((seed, v))
        return made

    def holds(self, atom: Atom) -> bool:
        if isinstance(atom, Eq):
            return self.holds(Leq(atom.lhs, atom.rhs)) and self.holds(Leq(atom.rhs, atom.lhs))
        lhs, rhs = self.problem.index.get(atom.lhs), self.problem.index.get(atom.rhs)
        if lhs is None or rhs is None:
            raise ValueError(f"unregistered goal term in {format_atom(atom)}")
        return self.derives(lhs, rhs)


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
        """The closures of a derivation, as Entailer.reasons gives the cached
        ones: per seed s, each v the derivation made true in the closure of
        s, with the clause that did (None for s itself), built once."""
        memo, clause = {}, self.clause

        def closure(s: int) -> dict[int, int | None]:
            if s not in memo:
                memo[s] = {v: e if e is None else clause[e]
                           for v, node in self.pair.get(s, {}).items() if (e := reason[node]) != -1}
            return memo[s]
        return closure


# ---------------------------------------------------------------------------
# intermediate terms


def intermediate_term(ent: Entailer, ab: Entailer, a: Term, b: Term, candidates,
                      sides=None, side=None) -> Term:
    """Meet of all candidates e with a <= e on the a-side atoms.

    The a-side atoms are those of ent or, given sides (a label per atom
    of ent), those labelled side: the closure of a is then one
    propagation over ent's own encoding without the other atoms'
    clauses. It holds the candidates an Entailer over the a-side atoms
    alone would: both are sound, and the encoding is complete for the
    terms it registers. Given the atoms of ab entail a <= b, the
    returned t satisfies a <= t from the a-side atoms, as every chosen
    candidate does, and t <= b from those of ab, which is checked.
    candidates is a set (any container) of terms; the chosen ones are
    read off the closure of a, so a call costs the size of that
    closure, not the number of candidates.
    Raises NoSharedWitness when no candidate is entailed, since then no
    meet over the candidates can lie above a, and when the meet fails
    t <= b: it is the least meet of candidates above a, so no other one
    lies below b either.
    """
    if not ab.derives(ab.var(a), ab.var(b)):
        raise ValueError(f"premise atoms do not entail {format_term(a)} <= {format_term(b)}")
    above = ent.above(ent.var(a)) if sides is None else propagate(ent.problem, [ent.var(a)], sides, side)
    terms = ent.problem.terms
    chosen = sorted((e for v in above if (e := terms[v]) in candidates), key=term_key)
    if not chosen:
        cand = sorted(candidates, key=term_key)
        raise NoSharedWitness(
            f"no shared candidate above {format_term(a)} "
            f"(candidates: {', '.join(format_term(c) for c in cand) or 'none'})"
        )
    t = mk_meet(chosen)
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
    """Value of a ground term; constants must be bound in the model.

    Evaluated from a stack, as _Purifier.pure walks: a node is checked
    when it is popped, outside in and left to right, and leaves a marker
    under its children, its function or its arity. out holds values.
    """
    consts, funcs, meet = model.consts, model.funcs, model.meet
    stack, out = [t], []
    while stack:
        x = stack.pop()
        kind = x.__class__
        if kind is Const:
            if x.name not in consts:
                raise ValueError(f"unbound constant {x.name}")
            out.append(consts[x.name])
        elif kind is App:
            if x.fn not in funcs:
                raise ValueError(f"uninterpreted function {x.fn}")
            stack += (x.fn, x.arg)
        elif kind is str:
            out[-1] = funcs[x][out[-1]]
        elif kind is Meet:
            stack += (len(x.args), *reversed(x.args))
        else:
            value = out[-x]
            for v in out[1 - x:]:
                value = meet[(value, v)]
            del out[-x:]
            out.append(value)
    return out[0]


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

    carrier = set(elems)
    checks.append(fail_of(
        "meet-closed",
        (f"{x} & {y} = {m[(x, y)]}" for x in elems for y in elems if m[(x, y)] not in carrier),
    ))
    checks.append(fail_of(
        "meet-idempotent",
        (f"{x} & {x} = {m[(x, x)]}" for x in elems if m[(x, x)] != x),
    ))
    checks.append(fail_of(
        "meet-commutative",
        (f"{x} & {y} != {y} & {x}" for x in elems for y in elems if m[(x, y)] != m[(y, x)]),
    ))
    if all(c.passed for c in checks) and _glb_table(elems, m):
        checks.append(ModelCheck("meet-associative", True))
    else:   # the cubic search names the first witness
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


def _glb_table(elems, m) -> bool:
    """Whether a closed, idempotent and commutative meet table is
    associative, in O(n^2) operations on int bitsets.

    Read x <= y as m(x, y) = x; idempotence makes <= reflexive and
    commutativity antisymmetric. The table is associative exactly when
    <= is transitive and m(x, y) is the greatest lower bound of x and y
    (a semilattice's meet is its glb, and glbs associate). Both hold
    exactly when down(m(x, y)) = down(x) & down(y) for all x and y, where
    down(z) is the set of elements <= z: that is the glb property, and it
    gives transitivity, since x <= y <= z makes down(y) = down(y) & down(z).
    """
    bit = {x: 1 << i for i, x in enumerate(elems)}
    down = {x: sum(bit[y] for y in elems if m[(y, x)] == y) for x in elems}
    return all(down[m[(x, y)]] == down[x] & down[y] for x in elems for y in elems)


def _need_funcs(model: FiniteModel, fns) -> None:
    for f in fns:
        if f not in model.funcs:
            raise ValueError(f"axiom references uninterpreted function {f}")
