"""Ground terms, atoms and clauses for meet semilattices with unary operators.

Terms are constants, applications of unary function symbols, and meets.
Every term is built in normal form: the Meet constructor flattens its
arguments, drops duplicates and sorts them by a fixed total order on
terms. Two terms are equal modulo associativity, commutativity and
idempotence of the meet exactly when they are the same object.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum


class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# terms


_TABLE: dict = {}   # structure key -> the one term with that structure
_set = object.__setattr__
_NO_NAMES = frozenset()


class Term:
    """A ground term, hash-consed and in normal form: one object per
    element modulo ACI of the meet, so equality is identity.

    Each term caches at construction its hash (the frozen-dataclass
    formula hash((field, ...)), so sets and dicts of terms iterate as they
    would over dataclass terms), its term_key and its constant and
    function names, each built from its children's. Nothing is hashed or
    keyed recursively. The table is a plain dict: it grows with the
    distinct terms a process builds.
    """

    __slots__ = ("_hash", "_key", "_consts", "_fns")

    @classmethod
    def _make(cls, key, tkey, consts, fns):
        t = _TABLE[key] = object.__new__(cls)
        for name, value in zip(cls.__slots__, key):
            _set(t, name, value)
        for name, value in zip(Term.__slots__, (hash(key), tkey, consts, fns)):
            _set(t, name, value)
        return t

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in type(self).__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in type(self).__slots__)
        return f"{type(self).__name__}({fields})"


class Const(Term):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (name,)
        return _TABLE.get(key) or cls._make(key, (0, name, ()), frozenset(key), _NO_NAMES)


class App(Term):
    __slots__ = ("fn", "arg")

    def __new__(cls, fn: str, arg: Term):
        key = (fn, arg)
        return _TABLE.get(key) or cls._make(key, (1, fn, (arg._key,)), arg._consts, arg._fns | {fn})


class Meet(Term):
    """Meet of the given terms, built as mk_meet builds it."""

    __slots__ = ("args",)

    def __new__(cls, args: tuple[Term, ...]):
        return mk_meet(args)


def term_key(t: Term):
    """Total order key: constants, then applications, then meets."""
    return t._key


def mk_meet(args) -> Term:
    """Meet of the given terms in normal form.

    Nested meets are flattened, duplicates dropped, arguments sorted.
    A singleton collapses to its only element. Empty input is an error:
    the language has no top element. Only normal argument tuples are
    table keys, so a meet built before is found without sorting.
    """
    args = tuple(args)
    t = _TABLE.get((args,))
    if t is not None:
        return t
    flat: list[Term] = []
    for a in args:
        if isinstance(a, Meet):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        raise ValueError("meet of no terms")
    uniq = tuple(sorted(set(flat), key=term_key))
    if len(uniq) == 1:
        return uniq[0]
    key = (uniq,)
    return _TABLE.get(key) or Meet._make(
        key, (2, "", tuple(a._key for a in uniq)),
        _NO_NAMES.union(*(a._consts for a in uniq)),
        _NO_NAMES.union(*(a._fns for a in uniq)),
    )


def subterms(t: Term) -> set[Term]:
    """All subterms of a term, the term itself included.

    An n-ary meet contributes its left-fold chain: the meet of the first
    k arguments for every k >= 2. subterms of a & b & c is
    {a & b & c, a & b, a, b, c}.
    """
    out: set[Term] = set()
    _subterms(t, out)
    return out


def _subterms(t: Term, out: set[Term]) -> None:
    if t in out:
        return
    out.add(t)
    if isinstance(t, App):
        _subterms(t.arg, out)
    elif isinstance(t, Meet):
        for k in range(2, len(t.args)):
            out.add(Meet(t.args[:k]))
        for a in t.args:
            _subterms(a, out)


def term_constants(t: Term) -> frozenset[str]:
    return t._consts


def term_functions(t: Term) -> frozenset[str]:
    return t._fns


# ---------------------------------------------------------------------------
# atoms and clauses


@dataclass(frozen=True)
class Atom:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Leq(Atom):
    pass


@dataclass(frozen=True)
class Eq(Atom):
    pass


def expand_eqs(atoms) -> tuple[Leq, ...]:
    """Replace every s = t by the pair s <= t, t <= s, keeping order."""
    out: list[Leq] = []
    for a in atoms:
        if isinstance(a, Eq):
            out.append(Leq(a.lhs, a.rhs))
            out.append(Leq(a.rhs, a.lhs))
        else:
            out.append(a)
    return tuple(out)


def atom_constants(a: Atom) -> set[str]:
    return term_constants(a.lhs) | term_constants(a.rhs)


def atom_functions(a: Atom) -> set[str]:
    return term_functions(a.lhs) | term_functions(a.rhs)


@dataclass(frozen=True)
class GroundHornClause:
    """Ground Horn clause: conjunction of premises entails the conclusion.

    provenance identifies the axiom schema instance the clause came from,
    e.g. ("mon", f, c, d) or ("comp", f, g, h, d, c) or ("input",).
    """

    premises: tuple[Leq, ...]
    conclusion: Leq
    provenance: tuple = ("input",)


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
        in_a |= atom_constants(a) | atom_functions(a)
    for b in b_atoms:
        in_b |= atom_constants(b) | atom_functions(b)
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


# ---------------------------------------------------------------------------
# concrete syntax

# reserved: whitespace and  & ( ) . <= = ! ,   ('<' only occurs inside '<=')
_TOKEN_RE = re.compile(r"<=|[&().=!,<]|[^\s&().=!,<]+|\s+")

_PUNCT = {"&", "(", ")", ".", "<=", "=", "!", ",", "<"}

# deepest bracket (or EL 'ex') nesting the parsers accept; hashes and keys
# are cached, but locality's _Purifier.pure, _subterms and the comparison
# of deep term_key tuples in sorted (in C) recurse per level
MAX_NESTING = 100


def tokenize(text: str, line: int = 1) -> list[tuple[str, int]]:
    """Split into (token, column) pairs. '<' outside '<=' is rejected."""
    toks: list[tuple[str, int]] = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            raise ParseError(f"bad character {text[pos]!r}", line, pos + 1)
        pos = m.end()
        tok = m.group()
        if tok.isspace():
            continue
        if tok == "<":
            raise ParseError("stray '<' (did you mean '<=')", line, m.start() + 1)
        toks.append((tok, m.start() + 1))
    if pos != len(text):
        raise ParseError(f"bad character {text[pos]!r}", line, pos + 1)
    return toks


class _TermParser:
    def __init__(self, toks: list[tuple[str, int]], line: int):
        self.toks = toks
        self.line = line
        self.i = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def col(self) -> int:
        if self.i < len(self.toks):
            return self.toks[self.i][1]
        return self.toks[-1][1] + len(self.toks[-1][0]) if self.toks else 1

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.line, self.col())
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.peek()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.line, self.col())
        self.i += 1

    def enter(self) -> None:
        """Take the token opening one more nesting level."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.line, self.col())
        self.depth += 1
        self.take()

    def term(self) -> Term:
        args = [self.factor()]
        while self.peek() == "&":
            self.take()
            args.append(self.factor())
        # a lone factor is already in normal form
        return args[0] if len(args) == 1 else mk_meet(args)

    def factor(self) -> Term:
        tok = self.peek()
        if tok == "(":
            self.enter()
            t = self.term()
            self.expect(")")
            self.depth -= 1
            return t
        if tok is None:
            raise ParseError("expected a term, got end of line", self.line, self.col())
        if tok in _PUNCT:
            raise ParseError(f"expected a term, got {tok!r}", self.line, self.col())
        name = self.take()
        if self.peek() == "(":
            self.enter()
            arg = self.term()
            self.expect(")")
            self.depth -= 1
            return App(name, arg)
        return Const(name)

    def atom(self) -> Atom:
        lhs = self.term()
        op = self.peek()
        if op not in ("<=", "="):
            got = "end of line" if op is None else repr(op)
            raise ParseError(f"expected '<=' or '=', got {got}", self.line, self.col())
        self.take()
        rhs = self.term()
        return Leq(lhs, rhs) if op == "<=" else Eq(lhs, rhs)

    def done(self) -> None:
        if self.i != len(self.toks):
            raise ParseError(f"trailing input {self.peek()!r}", self.line, self.col())


def parse_term(text: str, line: int = 1) -> Term:
    p = _TermParser(tokenize(text, line), line)
    t = p.term()
    p.done()
    return t


def parse_atom(text: str, line: int = 1) -> Atom:
    return parse_atom_tokens(tokenize(text, line), line)


def parse_atom_tokens(toks: list[tuple[str, int]], line: int, start: int = 0) -> Atom:
    """Parse the (token, column) pairs from toks[start] on as exactly one atom."""
    p = _TermParser(toks, line)
    p.i = start
    a = p.atom()
    p.done()
    return a


def write_term(t: Term, app) -> str:
    """Concrete syntax of t, written from a stack of pending pieces.

    app(fn, arg) gives the text before and after the argument of an
    application.
    """
    out: list[str] = []
    stack: list = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Const):
            out.append(x.name)
        elif isinstance(x, App):
            before, after = app(x.fn, x.arg)
            out.append(before)
            stack += [after, x.arg]
        else:
            for k in range(len(x.args) - 1, -1, -1):
                stack += [x.args[k], " & "] if k else [x.args[k]]
    return "".join(out)


def format_term(t: Term) -> str:
    return write_term(t, lambda fn, arg: (f"{fn}(", ")"))


def format_atom(a: Atom) -> str:
    op = "=" if isinstance(a, Eq) else "<="
    return f"{format_term(a.lhs)} {op} {format_term(a.rhs)}"
