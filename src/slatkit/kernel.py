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
One memo gives every term object, in a step or a premise alike, one id per
structure modulo ACI of the meet (a name its term's, from its first use).
"""

from .terms import App, Const, Meet, expand_eqs


class Rejected(Exception):
    """The proof does not establish its statement."""


class Kernel:
    """Checks proofs against premise atoms, negative literals and axioms."""

    def __init__(self, atoms, negatives, functions, axioms, definitions):
        self.table, self.parts, self.memo, self.functions = {}, [], {}, set(functions)
        self.axioms, self.defs, self.names = set(axioms), {}, {name for name, _ in definitions}
        if len(self.names) != len(definitions) or self.names & self.functions:
            raise Rejected("a name is defined twice or is a function")
        for name, body in definitions:
            if not isinstance(body, (App, Meet)) or not body._consts & self.names <= self.defs.keys():
                raise Rejected(f"bad definition of {name}")
            self.defs[name] = body
        self.atoms, self.inputs = expand_eqs(atoms), None
        self.negatives = {tuple(self.pair(x, True) for x in expand_eqs([n])) for n in negatives}

    def intern(self, t):
        """The id of term t: a node waits on the stack for its children."""
        memo = self.memo
        if id(t) in memo:
            return memo[id(t)]
        table, parts, stack = self.table, self.parts, [t]
        while stack:
            node = stack.pop()
            if id(node) in memo:    # met twice in one walk
                continue
            if isinstance(node, App):
                if id(node.arg) not in memo:
                    stack += (node, node.arg)
                    continue
                key = (node.fn, memo[id(node.arg)])
            elif isinstance(node, Const):
                body = self.defs.get(node.name)
                if body is None:
                    key = node.name
                elif id(body) in memo:    # a name: its definition's id
                    memo[id(node)] = memo[id(body)]
                    continue
                else:
                    stack += (node, body)
                    continue
            elif isinstance(node, Meet):
                if todo := [x for x in node.args if id(x) not in memo]:
                    stack += (node, *todo)
                    continue
                key = frozenset().union(*[parts[memo[id(x)]] for x in node.args])
            else:
                raise Rejected(f"not a term: {node!r}")
            i = memo[id(node)] = table.setdefault(key, len(parts))
            if i == len(parts):    # a new id, also the key of a meet of its part alone
                parts.append(key if isinstance(key, frozenset) else frozenset((i,)))
                table[parts[i]] = i
        return memo[id(t)]

    def pair(self, atom, outside=False):
        """The ids of atom's sides; outside, the first name met going down subterms whose constant sets show one is refused."""
        stack = [atom.rhs, atom.lhs] if outside and self.names & (    # a non-term side: intern refuses it
            getattr(atom.lhs, "_consts", self.names) | getattr(atom.rhs, "_consts", self.names)) else ()
        while stack:
            t = stack.pop()
            kids = (t,) if isinstance(t, Const) else (t.arg,) if isinstance(t, App) else (
                t.args if isinstance(t, Meet) else self.intern(t))
            if name := next((k.name for k in kids if isinstance(k, Const) and k.name in self.names), None):
                raise Rejected(f"name {name} is not fresh")
            stack += [k for k in kids if not isinstance(k, Const) and self.names & getattr(k, "_consts", self.names)]
        return self.intern(atom.lhs), self.intern(atom.rhs)

    def _is_input(self, concl, k):
        if 0 <= k < len(self.atoms) and self.pair(self.atoms[k], True) == concl:
            return True
        self.inputs = self.inputs or {self.pair(x, True) for x in self.atoms}    # built on first need
        return concl in self.inputs

    def _follows(self, rule, atom, detail, concl, premises, done):
        """Whether the rule gives concl from the conclusions done of its premises."""
        i, app, (lhs, rhs), n = self.intern, self.table.get, concl, len(premises)  # app: None if no term has it
        if rule in ("input", "refl", "contra"):
            return (tuple(map(done.__getitem__, premises)) in self.negatives if rule == "contra" else not n and (
                self._is_input(concl, *detail) if rule == "input" else lhs == rhs))
        if rule in ("meet_l", "meet_r", "meet_i"):
            m = detail[0] if rule != "meet_i" else atom.rhs
            if not isinstance(m, Meet) or len(m.args) < 2:
                raise Rejected(f"not a meet: {m!r}")
            left, last = app(frozenset().union(*map(self.parts.__getitem__, map(i, m.args[:-1])))), i(m.args[-1])
            if rule == "meet_i":
                return n == 2 and done[premises[0]] == (lhs, left) and done[premises[1]] == (lhs, last)
            return n == 1 and done[premises[0]] == (lhs, i(m)) and rhs == (left if rule == "meet_l" else last)
        if rule == "trans" and n >= 2:
            for p in premises:    # a chain from lhs to rhs; None once a link is missing
                lhs = done[p][1] if done[p][0] == lhs else None
            return lhs == rhs
        if rule == "mon" and detail[0] in self.functions:
            f, c, d = detail
            c, d = i(c), i(d)
            return n == 1 and done[premises[0]] == (c, d) and concl == (app((f, c)), app((f, d)))
        if rule == "incl" and ("incl", *detail[:2]) in self.axioms:
            f, g, c = detail
            return not n and concl == (app((f, i(c))), app((g, i(c))))
        if rule == "comp" and ("comp", *detail[:3]) in self.axioms:
            f, g, h, d, c = detail
            d, c = i(d), i(c)
            return n == 1 and done[premises[0]] == (d, app((g, c))) and concl == (app((f, d)), app((h, c)))
        raise Rejected(f"bad {rule} step")

    def check(self, steps, statement):
        """Raise Rejected unless the steps, the last one, prove statement."""
        want, done = self.pair(statement, True), []
        for k, (rule, atom, premises, detail) in enumerate(steps):
            if premises and not (0 <= min(premises) and max(premises) < k):
                raise Rejected(f"step {k} refers to a step not before it")
            concl = self.intern(atom.lhs), self.intern(atom.rhs)
            try:
                if not self._follows(rule, atom, detail, concl, premises, done):
                    raise Rejected(f"step {k} ({rule}) does not follow")
            except (TypeError, ValueError, IndexError) as e:
                raise Rejected(f"malformed {rule} step {k}") from e
            done.append(concl)
        if not done or done[-1] != want:
            raise Rejected("the proof does not conclude its statement")
