"""Ground terms, atoms and clauses for meet semilattices with unary operators.

Terms are constants, applications of unary function symbols, and meets.
Every term is built in normal form: the Meet constructor flattens its
arguments, drops duplicates and sorts them by a fixed total order on
terms. Two terms are equal modulo associativity, commutativity and
idempotence of the meet exactly when they are the same object.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, Field, FrozenInstanceError, field
from functools import cmp_to_key
from operator import attrgetter


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
_FACTORY = object()   # the default of a record field that has a default factory


class Record:
    """Base of the records: mutable ones subclass it, frozen ones Frozen.

    A subclass without __slots__ of its own gets, in one exec, the __init__
    @dataclass would make from its annotations and field() options: plain
    stores (object.__setattr__ under Frozen), a fresh object per default
    factory, then __post_init__. Slotted ones set their own __init__,
    _fields, _shown and _compared. == compares the _compared fields of two
    objects of one class, repr shows the _shown ones.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "__slots__" in cls.__dict__:
            return
        store = "_set(self, {0!r}, {1})" if issubclass(cls, Frozen) else "self.{0} = {1}"
        env, params, body, specs = {"_set": _set, "_FACTORY": _FACTORY}, ["self"], [], []
        for name in cls.__dict__.get("__annotations__", ()):
            spec = cls.__dict__.get(name, MISSING)
            if not isinstance(spec, Field):
                spec = field(default=spec)
            elif spec.default is MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, spec.default)
            spec.name, value, env[f"_d_{name}"] = name, name, spec.default
            if spec.default_factory is not MISSING:
                env[f"_f_{name}"], env[f"_d_{name}"] = spec.default_factory, _FACTORY
                value = f"_f_{name}() if {name} is _FACTORY else {name}"
            params.append(name if env[f"_d_{name}"] is MISSING else f"{name}=_d_{name}")
            body.append(store.format(name, value))
            specs.append(spec)
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        exec(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body), env)
        cls.__init__, cls._fields = env["__init__"], tuple(f.name for f in specs)
        cls._shown = tuple(f.name for f in specs if f.repr)
        compared = [f.name for f in specs if f.compare]
        get = attrgetter(*compared)
        cls._compared = get if len(compared) > 1 else staticmethod(lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._compared
            return get(self) == get(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """Base of the frozen records and the terms: hashed by the frozen-dataclass
    formula hash(tuple of compared fields), closed to assignment, and
    pickled or copied by calling the class on the _fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._compared(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Term(Frozen):
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
    __eq__ = object.__eq__

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


class Const(Term):
    __slots__ = _fields = _shown = ("name",)

    def __new__(cls, name: str):
        key = (name,)
        return _TABLE.get(key) or cls._make(key, (0, name, ()), frozenset(key), _NO_NAMES)


class App(Term):
    __slots__ = _fields = _shown = ("fn", "arg")

    def __new__(cls, fn: str, arg: Term):
        key = (fn, arg)
        return _TABLE.get(key) or cls._make(key, (1, fn, (arg._key,)), arg._consts, arg._fns | {fn})


class Meet(Term):
    """Meet of the given terms, built as mk_meet builds it."""

    __slots__ = _fields = _shown = ("args",)

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
    try:
        uniq = tuple(sorted(set(flat), key=term_key))
    except RecursionError:
        # comparing deep keys recurses in C; the same order, from a loop
        uniq = tuple(sorted(set(flat), key=cmp_to_key(_compare_terms)))
    if len(uniq) == 1:
        return uniq[0]
    key = (uniq,)
    return _TABLE.get(key) or Meet._make(
        key, (2, "", tuple(a._key for a in uniq)),
        _NO_NAMES.union(*(a._consts for a in uniq)),
        _NO_NAMES.union(*(a._fns for a in uniq)),
    )


def _compare_terms(s: Term, t: Term) -> int:
    """Compare the term_keys of s and t as tuple comparison does, in a loop.

    Keys are (tag, name, child keys). Past equal tags and names the first
    child key that differs decides, or else the number of children; two
    child keys are equal exactly when they are the same object, since
    every term, and so every key, is built once.
    """
    x, y = s._key, t._key
    while True:
        if x[:2] != y[:2]:
            return -1 if x[:2] < y[:2] else 1
        xs, ys = x[2], y[2]
        i = next((i for i, (a, b) in enumerate(zip(xs, ys)) if a is not b), None)
        if i is None:
            return (len(xs) > len(ys)) - (len(xs) < len(ys))
        x, y = xs[i], ys[i]


def term_constants(t: Term) -> frozenset[str]:
    return t._consts


def term_functions(t: Term) -> frozenset[str]:
    return t._fns


# ---------------------------------------------------------------------------
# atoms and clauses


class Atom(Frozen):
    __slots__ = _fields = _shown = ("lhs", "rhs")
    _compared = attrgetter(*__slots__)

    def __init__(self, lhs: Term, rhs: Term):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


class Leq(Atom):
    __slots__ = ()


class Eq(Atom):
    __slots__ = ()


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


class GroundHornClause(Frozen):
    """Ground Horn clause: conjunction of premises entails the conclusion.

    provenance identifies the axiom schema instance the clause came from,
    e.g. ("mon", f, c, d) or ("comp", f, g, h, d, c) or ("input",).
    """

    __slots__ = _fields = _shown = ("premises", "conclusion", "provenance")
    _compared = attrgetter(*__slots__)

    def __init__(self, premises: tuple[Leq, ...], conclusion: Leq, provenance: tuple = ("input",)):
        _set(self, "premises", premises)
        _set(self, "conclusion", conclusion)
        _set(self, "provenance", provenance)


# ---------------------------------------------------------------------------
# concrete syntax

# reserved: whitespace and  & ( ) . <= = ! ,   ('<' only occurs inside '<=');
# each match is the whitespace before a token and the token
_TOKEN_RE = re.compile(r"(\s*)(<=|[&().=!,<]|[^\s&().=!,<]+)")

_PUNCT = {"&", "(", ")", ".", "<=", "=", "!", ",", "<"}

# deepest bracket (or EL 'ex') nesting the parsers accept: they recurse
# only up to this bound
MAX_NESTING = 100


def tokenize(text: str, line: int = 1) -> list[tuple[str, int]]:
    """Split into (token, column) pairs. '<' outside '<=' is rejected.

    Every character is whitespace, punctuation or part of a name, so the
    matches cover the text up to trailing whitespace.
    """
    toks: list[tuple[str, int]] = []
    col = 1
    for space, tok in _TOKEN_RE.findall(text):
        col += len(space)
        if tok == "<":
            raise ParseError("stray '<' (did you mean '<=')", line, col)
        toks.append((tok, col))
        col += len(tok)
    return toks


class _TermParser:
    """Recursive descent over (token, column) pairs; the per-token paths
    index self.toks directly."""

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
        """Step over the token opening one more nesting level."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.line, self.col())
        self.depth += 1
        self.i += 1

    def term(self) -> Term:
        args = [self.factor()]
        toks = self.toks
        while self.i < len(toks) and toks[self.i][0] == "&":
            self.i += 1
            args.append(self.factor())
        # a lone factor is already in normal form
        return args[0] if len(args) == 1 else mk_meet(args)

    def factor(self) -> Term:
        toks, i = self.toks, self.i
        if i == len(toks):
            raise ParseError("expected a term, got end of line", self.line, self.col())
        tok = toks[i][0]
        if tok == "(":
            self.enter()
            t = self.term()
            self.expect(")")
            self.depth -= 1
            return t
        if tok in _PUNCT:
            raise ParseError(f"expected a term, got {tok!r}", self.line, toks[i][1])
        self.i = i = i + 1
        if i < len(toks) and toks[i][0] == "(":
            self.enter()
            arg = self.term()
            self.expect(")")
            self.depth -= 1
            return App(tok, arg)
        return Const(tok)

    def atom(self) -> Atom:
        lhs = self.term()
        op = self.peek()
        if op not in ("<=", "="):
            got = "end of line" if op is None else repr(op)
            raise ParseError(f"expected '<=' or '=', got {got}", self.line, self.col())
        self.i += 1
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
