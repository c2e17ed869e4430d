"""Reference tokenizer and parsers for the differential parser tests.

A plain copy of the regex-scan tokenizer and the peek/take recursive
descent parsers of the term grammar and the EL concept grammar, as they
were before the front end indexed its tokens directly. The tests check
that slatkit's parsers give the same value, or raise the same
ParseError message, line and column, on every input.
"""

from __future__ import annotations

import re

from slatkit.el import _RESERVED
from slatkit.terms import (
    MAX_NESTING,
    _PUNCT,
    App,
    Atom,
    Const,
    Eq,
    Leq,
    ParseError,
    Term,
    mk_meet,
)

_TOKEN_RE = re.compile(r"<=|[&().=!,<]|[^\s&().=!,<]+|\s+")


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


class TermParser:
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
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.line, self.col())
        self.depth += 1
        self.take()

    def term(self) -> Term:
        args = [self.factor()]
        while self.peek() == "&":
            self.take()
            args.append(self.factor())
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


class ConceptParser(TermParser):
    def __init__(self, toks, line: int, roles: set[str]):
        super().__init__(toks, line)
        self.roles = roles

    def ident(self, what: str) -> str:
        col = self.col()
        if self.peek() is None:
            raise ParseError("unexpected end of line", self.line, col)
        tok = self.take()
        if tok in _PUNCT:
            raise ParseError(f"expected {what}, got {tok!r}", self.line, col)
        if tok in _RESERVED:
            raise ParseError(f"reserved word {tok!r} cannot name {what}", self.line, col)
        return tok

    def factor(self) -> Term:
        tok = self.peek()
        if tok == "(":
            return super().factor()
        if tok == "ex":
            self.enter()
            col = self.col()
            role = self.ident("a role")
            if role not in self.roles:
                raise ParseError(f"undeclared role {role}", self.line, col)
            self.expect(".")
            c = App(role, self.factor())
            self.depth -= 1
            return c
        col = self.col()
        name = self.ident("a concept name")
        if name in self.roles:
            raise ParseError(f"{name} used as both role and concept name", self.line, col)
        return Const(name)


def parse_term(text: str, line: int = 1) -> Term:
    p = TermParser(tokenize(text, line), line)
    t = p.term()
    p.done()
    return t


def parse_atom(text: str, line: int = 1) -> Atom:
    p = TermParser(tokenize(text, line), line)
    a = p.atom()
    p.done()
    return a


def parse_inclusion(text: str, roles: set[str], line: int = 1):
    """A concept inclusion `C <= D`, as a .elp side line parses it."""
    p = ConceptParser(tokenize(text, line), line, roles)
    lhs = p.term()
    p.expect("<=")
    rhs = p.term()
    p.done()
    return lhs, rhs
