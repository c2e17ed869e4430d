# The proof kernel as it was before it kept one id memo for all term
# objects: a verbatim copy of slatkit/kernel.py at that time, with only its
# import made absolute. It interned premises and statements through a second
# memo that refused names, and steps through a first that resolved them.
# test_kernel_differential.py checks that slatkit's kernel gives every proof
# and every mutant the same verdict and the same Rejected message.

"""A small proof checker for ground entailments in extended semilattices.

A proof is a list of steps (rule, atom, premises, detail): the s <= t it
concludes, the earlier steps it rests on, what else the rule needs. With
m a meet, left(m) the meet of all but its last argument last(m):

    input   s <= t is premise k (an = atom gives two)   detail (k,)
    refl    s <= s
    trans   s <= t1, t1 <= t2, ..., tk <= u / s <= u
    meet_l  s <= m                  / s <= left(m)    detail (m,)
    meet_r  s <= m                  / s <= last(m)    detail (m,)
    meet_i  s <= left(m), s <= last(m) / s <= m       (m the atom's rhs)
    mon     c <= d                  / f(c) <= f(d)    detail (f, c, d)
    incl                              f(c) <= g(c)    detail (f, g, c)
    comp    d <= g(c)               / f(d) <= h(c)    detail (f, g, h, d, c)
    contra  the atoms of a negative literal / any atom

mon for declared functions, incl and comp for the axioms ("incl", f, g)
and ("comp", f, g, h) only; an input k that misses tries every premise.
Steps may use names, each defined once, by an application or meet over
names defined before it; no premise, negative literal or statement may.
Terms get ids, one per structure modulo ACI of the meet (a name its
term's), from a stack with shallow keys, once per term object: no term
is hashed or walked recursively, however deep; only what is used is.
"""

from slatkit.terms import App, Const, Meet, expand_eqs, term_constants


class Rejected(Exception):
    """The proof does not establish its statement."""


class Kernel:
    """Checks proofs against premise atoms, negative literals and axioms."""

    def __init__(self, atoms, negatives, functions, axioms, definitions):
        self.table, self.parts, self.memos, self.functions = {}, [], ({}, {}), set(functions)
        self.axioms, self.defs, names = set(axioms), {}, {name for name, _ in definitions}
        if len(names) != len(definitions) or names & self.functions:
            raise Rejected("a name is defined twice or is a function")
        for name, body in definitions:
            if not isinstance(body, (App, Meet)) or not term_constants(body) & names <= self.defs.keys():
                raise Rejected(f"bad definition of {name}")
            self.defs[name] = body
        self.atoms, self.inputs = expand_eqs(atoms), None
        self.negatives = {tuple(self.pair(x, True) for x in expand_eqs([n])) for n in negatives}

    def _const(self, c, outside):
        """The id of constant c, memoized; None for a name whose definition is not interned yet."""
        memo, body = self.memos[outside], self.defs.get(c.name)
        if body is not None and outside:
            raise Rejected(f"name {c.name} is not fresh")
        i = self._cons(c.name) if body is None else memo.get(id(body), (None, None))[1]
        if i is not None:
            memo[id(c)] = (c, i)
        return i

    def _cons(self, key):
        i = self.table.get(key)
        if i is None:
            i = self.table[key] = len(self.parts)
            self.parts.append(key if isinstance(key, frozenset) else frozenset((i,)))
        return i

    def _meet(self, ids):
        key = frozenset().union(*map(self.parts.__getitem__, ids))
        return next(iter(key)) if len(key) == 1 else self._cons(key)

    def intern(self, t, outside=False):
        """The id of term t; outside, for premises and statements, forbids names."""
        memo = self.memos[outside]
        i = memo[id(t)][1] if id(t) in memo else self._const(t, outside) if isinstance(t, Const) else None
        if i is not None:
            return i
        t = self.defs[t.name] if isinstance(t, Const) else t
        stack = [t]
        while stack:
            node, depth = stack[-1], len(stack)
            kids = (node.arg,) if isinstance(node, App) else node.args if isinstance(node, Meet) else ()
            if not kids:
                raise Rejected(f"not a term: {node!r}")
            ids = []
            for k in kids:
                i = memo[id(k)][1] if id(k) in memo else self._const(k, outside) if isinstance(k, Const) else None
                if i is None:
                    stack.append(self.defs[k.name] if isinstance(k, Const) else k)
                ids.append(i)
            if len(stack) == depth:
                stack.pop()
                memo[id(node)] = (node, self._cons((node.fn, ids[0])) if isinstance(node, App) else self._meet(ids))
        return memo[id(t)][1]

    def pair(self, atom, outside=False):
        return self.intern(atom.lhs, outside), self.intern(atom.rhs, outside)

    def _is_input(self, concl, k):
        if 0 <= k < len(self.atoms) and self.pair(self.atoms[k], True) == concl:
            return True
        if self.inputs is None:
            self.inputs = {self.pair(x, True) for x in self.atoms}
        return concl in self.inputs

    def _follows(self, rule, atom, detail, concl, got):
        """Whether the rule gives concl from the premise pairs got."""
        i, lhs, want = self.intern, concl[0], None
        a = lambda f, t: self._cons((f, i(t)))  # the id of f(t)
        if rule in ("input", "refl", "contra"):
            return (tuple(got) in self.negatives if rule == "contra" else not got and (
                self._is_input(concl, *detail) if rule == "input" else lhs == concl[1]))
        if rule in ("meet_l", "meet_r", "meet_i"):
            m = detail[0] if rule != "meet_i" else atom.rhs
            if not isinstance(m, Meet) or len(m.args) < 2:
                raise Rejected(f"not a meet: {m!r}")
            left, last = self._meet([i(x) for x in m.args[:-1]]), i(m.args[-1])
            need = [(lhs, left), (lhs, last)] if rule == "meet_i" else [(lhs, i(m))]
            want = None if rule == "meet_i" else (lhs, left if rule == "meet_l" else last)
        elif rule == "trans" and len(got) >= 2:
            mids = [g[1] for g in got[:-1]]
            need = list(zip([lhs, *mids], [*mids, concl[1]]))
        elif rule == "mon" and detail[0] in self.functions:
            f, c, d = detail
            need, want = [(i(c), i(d))], (a(f, c), a(f, d))
        elif rule == "incl" and ("incl", *detail[:2]) in self.axioms:
            f, g, c = detail
            need, want = [], (a(f, c), a(g, c))
        elif rule == "comp" and ("comp", *detail[:3]) in self.axioms:
            f, g, h, d, c = detail
            need, want = [(i(d), a(g, c))], (a(f, d), a(h, c))
        else:
            raise Rejected(f"bad {rule} step")
        return got == need and want in (None, concl)

    def check(self, steps, statement):
        """Raise Rejected unless the steps, the last one, prove statement."""
        want, done = self.pair(statement, True), []
        for k, (rule, atom, premises, detail) in enumerate(steps):
            if any(not 0 <= p < k for p in premises):
                raise Rejected(f"step {k} refers to a step not before it")
            got, concl = [done[p] for p in premises], self.pair(atom)
            try:
                ok = self._follows(rule, atom, detail, concl, got)
            except (TypeError, ValueError, IndexError) as e:
                raise Rejected(f"malformed {rule} step {k}") from e
            if not ok:
                raise Rejected(f"step {k} ({rule}) does not follow")
            done.append(concl)
        if not done or done[-1] != want:
            raise Rejected("the proof does not conclude its statement")
