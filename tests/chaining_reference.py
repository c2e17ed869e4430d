"""Reference purification and chaining for the differential chaining tests.

A plain copy of the purifier (`_Purifier`, `flatten_purify`), the flat
term closure and sort, the instance space, the Entailer's closure upkeep
(`Entailer._sync`, `_spread`) and `saturate`, as they were before
chaining and purification cost only the pairs and nodes they add: the
purifier walked every term from a stack of (term, flag) pairs, the flat
term set was sorted three times, `wake` filtered every (seed, target)
key through `InstanceSpace.proper`, `clause` looked its names up in
`defs`, and `_sync` intersected the holder sets and rescanned the new
clauses in every closure that grew. test_chaining_differential.py
checks that slatkit gives the same purified problems, fired clauses,
closures, reasons, holders and reported pairs on every input.
"""

from __future__ import annotations

from slatkit import slat
from slatkit.locality import (
    AxiomSet,
    Composition,
    Inclusion,
    PurifiedProblem,
    Trace,
    check_input,
)
from slatkit.terms import (
    App,
    Atom,
    Const,
    Eq,
    GroundHornClause,
    Leq,
    Term,
    expand_eqs,
    format_atom,
    mk_meet,
    term_key,
)

# ---------------------------------------------------------------------------
# purification


class _Purifier:
    def __init__(self, used: set[str]):
        self.used = set(used)
        self.defs = {}
        self.names = {}
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
        stack, out = [(t, False)], []
        while stack:
            x, ready = stack.pop()
            if isinstance(x, Const):
                out.append(x)
            elif not ready:
                stack.append((x, True))
                stack += [(k, False) for k in reversed((x.arg,) if isinstance(x, App) else x.args)]
            elif isinstance(x, App):
                arg = out.pop()
                out.append(Const(self.name_for(x.fn, arg if isinstance(arg, Const) else self.bind(arg))))
            else:
                args = out[-len(x.args):]
                del out[-len(x.args):]
                out.append(mk_meet(args))
        return out[0]

    def pure_atom(self, a: Atom) -> Atom:
        return type(a)(self.pure(a.lhs), self.pure(a.rhs))

    def drain(self) -> list[Leq]:
        out, self.pending = self.pending, []
        return out


def flatten_purify(a_atoms, b_atoms, goal: Leq, *, neg_a=(), neg_b=(), axioms=None, reserved=()):
    a_atoms, b_atoms = expand_eqs(a_atoms), expand_eqs(b_atoms)
    neg_a, neg_b = tuple(neg_a), tuple(neg_b)
    symbols = check_input((*a_atoms, *b_atoms, *neg_a, *neg_b), goal, axioms)
    purifier = _Purifier(symbols | set(reserved))

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
        axioms=axioms if axioms is not None else AxiomSet(()),
        purifier=purifier,
    )
    return problem, _sorted_flat(purifier.defs)


def _sorted_flat(terms):
    return tuple(sorted(terms, key=lambda ft: (ft[0], term_key(ft[1]))))


def psi_closure(flat_terms, axioms: AxiomSet):
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


def prepare_problem(a_atoms, b_atoms, goal: Leq, axioms: AxiomSet, *,
                    neg_a=(), neg_b=(), reserved=()) -> PurifiedProblem:
    problem, est = flatten_purify(
        a_atoms, b_atoms, goal, neg_a=neg_a, neg_b=neg_b, axioms=axioms, reserved=reserved,
    )
    problem.flat = psi_closure(est, axioms)
    for fn, arg in problem.flat:
        problem.purifier.name_for(fn, arg)
    return problem


# ---------------------------------------------------------------------------
# chaining


def _spread(problem, closure, queue, sides=None, side=None):
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


def propagate(problem, seeds, sides=None, side=None):
    closure = dict.fromkeys(seeds)
    _spread(problem, closure, list(closure), sides, side)
    return closure


class Entailer:
    def __init__(self, atoms, extra_terms=()):
        self.atoms = list(atoms)
        self.problem = slat.encode(self.atoms, extra_terms)
        self._closures: dict[int, dict[int, int | None]] = {}
        self._seeds: list[int] = []
        self.holders: dict[int, set[int]] = {}
        self._synced = len(self.problem.clauses)

    def var(self, t: Term) -> int:
        if t not in self.problem.index:
            self.problem.register([t])
            self._sync()
        return self.problem.index[t]

    def _closure(self, lhs: int):
        closure = self._closures.get(lhs)
        if closure is None:
            closure = self._closures[lhs] = propagate(self.problem, [lhs])
            for v in closure:
                self.holders.setdefault(v, set()).add(len(self._seeds))
            self._seeds.append(lhs)
        return closure

    def reasons(self, lhs: int):
        return self._closure(lhs)

    def derives(self, lhs: int, rhs: int) -> bool:
        return rhs in self._closure(lhs)

    def above(self, lhs: int) -> list[int]:
        return list(self._closure(lhs))

    def add(self, atom: Atom) -> list[tuple[int, int]]:
        index = self.problem.index
        if isinstance(atom, Leq) and atom.lhs in index and atom.rhs in index:
            self.problem.add_clause((index[atom.lhs],), index[atom.rhs], len(self.atoms))
        else:
            self.problem.add_atoms([atom], len(self.atoms))
        self.atoms.append(atom)
        return self._sync()

    def _sync(self) -> list[tuple[int, int]]:
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


class InstanceSpace:
    def __init__(self, axioms: AxiomSet, flat_terms, defs):
        self.axioms, self.defs = axioms, defs
        terms = set(flat_terms)
        self.args_of: dict[str, list[Term]] = {f: [] for f in axioms.functions}
        for fn, arg in _sorted_flat(terms):
            self.args_of.setdefault(fn, []).append(arg)
        self.inner = {i: [c for c in self.args_of[ax.g] if (ax.h, c) in terms]
                      for i, ax in enumerate(axioms.axioms) if isinstance(ax, Composition)}

    def premise_groups(self):
        for i, f in enumerate(self.axioms.functions):
            yield (0, i), self.args_of[f], self.args_of[f]
        for i, inner in self.inner.items():
            ax = self.axioms.axioms[i]
            yield (2, i), self.args_of[ax.f], [Const(self.defs[(ax.g, c)]) for c in inner]

    def incl_keys(self):
        for i, ax in enumerate(self.axioms.axioms):
            if isinstance(ax, Inclusion) and ax.f != ax.g:
                yield from ((1, i, c) for c in range(len(self.args_of[ax.f])))

    def proper(self, key: tuple) -> bool:
        if key[0] == 0:
            return key[2] != key[3]
        ax = self.axioms.axioms[key[1]]
        return ax.f != ax.h or self.args_of[ax.f][key[2]] != self.inner[key[1]][key[3]]

    def clause(self, key: tuple) -> GroundHornClause:
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


def saturate(problem: PurifiedProblem, fire=lambda clause, ent: (clause.conclusion,), *,
             to_fixpoint: bool = False) -> Trace:
    checked = (problem.goal, *problem.neg_a, *problem.neg_b)
    ent = Entailer([*problem.a0, *problem.b0], [t for a in checked for t in (a.lhs, a.rhs)])
    space = InstanceSpace(problem.axioms, problem.flat, problem.defs)
    trace = Trace(entailer=ent)
    seeds = None
    targets: dict[int, list[tuple[tuple, int]]] = {}

    def wake(pairs) -> list[tuple]:
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
