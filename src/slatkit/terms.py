"""Ground terms, atoms and clauses for meet semilattices with unary operators.

Terms are constants, applications of unary function symbols, and meets.
Meets are kept in a normal form: flattened, duplicate free, argument list
sorted by a fixed total order on terms. Two terms are equal modulo
associativity, commutativity and idempotence of the meet exactly when
their normal forms are equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class App(Term):
    fn: str
    arg: Term


@dataclass(frozen=True)
class Meet(Term):
    args: tuple[Term, ...]


def term_key(t: Term):
    """Total order key: constants, then applications, then meets."""
    if isinstance(t, Const):
        return (0, t.name, ())
    if isinstance(t, App):
        return (1, t.fn, (term_key(t.arg),))
    if isinstance(t, Meet):
        return (2, "", tuple(term_key(a) for a in t.args))
    raise TypeError(f"not a term: {t!r}")


def mk_meet(args) -> Term:
    """Meet of the given terms in normal form.

    Nested meets are flattened, duplicates dropped, arguments sorted.
    A singleton collapses to its only element. Empty input is an error:
    the language has no top element.
    """
    flat: list[Term] = []
    for a in args:
        if isinstance(a, Meet):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        raise ValueError("meet of no terms")
    uniq = sorted(set(flat), key=term_key)
    if len(uniq) == 1:
        return uniq[0]
    return Meet(tuple(uniq))


def normalize(t: Term) -> Term:
    """Rebuild a term bottom-up into meet normal form."""
    if isinstance(t, Const):
        return t
    if isinstance(t, App):
        return App(t.fn, normalize(t.arg))
    if isinstance(t, Meet):
        return mk_meet(normalize(a) for a in t.args)
    raise TypeError(f"not a term: {t!r}")


def subterms(t: Term) -> set[Term]:
    """All subterms of a normalized term, the term itself included.

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


def term_constants(t: Term) -> set[str]:
    if isinstance(t, Const):
        return {t.name}
    if isinstance(t, App):
        return term_constants(t.arg)
    return set().union(*(term_constants(a) for a in t.args))


def term_functions(t: Term) -> set[str]:
    if isinstance(t, Const):
        return set()
    if isinstance(t, App):
        return {t.fn} | term_functions(t.arg)
    return set().union(*(term_functions(a) for a in t.args))


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


def normalize_atom(a: Atom) -> Atom:
    return type(a)(normalize(a.lhs), normalize(a.rhs))


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

# deepest bracket (or EL 'ex') nesting the parsers accept; the recursive
# term functions need a few interpreter frames per level
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
        return mk_meet(args)

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
    p = _TermParser(tokenize(text, line), line)
    a = p.atom()
    p.done()
    return a


def parse_literal(text: str, line: int = 1) -> tuple[Atom, bool]:
    """Parse an atom with optional leading '!'. Returns (atom, positive)."""
    toks = tokenize(text, line)
    positive = True
    if toks and toks[0][0] == "!":
        positive = False
        toks = toks[1:]
    p = _TermParser(toks, line)
    a = p.atom()
    p.done()
    return a, positive


def format_term(t: Term) -> str:
    if isinstance(t, Const):
        return t.name
    if isinstance(t, App):
        return f"{t.fn}({format_term(t.arg)})"
    return " & ".join(format_term(a) for a in t.args)


def format_atom(a: Atom) -> str:
    op = "=" if isinstance(a, Eq) else "<="
    return f"{format_term(a.lhs)} {op} {format_term(a.rhs)}"
