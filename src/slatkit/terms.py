"""Ground terms, atoms and clauses for meet semilattices with unary operators.

Terms are constants, applications of unary function symbols, and meets.
Every term is built in normal form: the Meet constructor flattens its
arguments, drops duplicates and sorts them by a fixed total order on
terms. Two terms are equal modulo associativity, commutativity and
idempotence of the meet exactly when they are the same object.
"""

from __future__ import annotations

import re
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
MISSING = object()    # a field option that is not given
REPR_LIMIT = 100_000  # characters of a term's repr before it is cut


class field:
    """The options of a record field, the ones of dataclasses.field that
    the records use."""

    __slots__ = ("name", "default", "default_factory", "repr", "compare")

    def __init__(self, *, default=MISSING, default_factory=MISSING, repr=True, compare=True):
        self.name, self.default, self.default_factory = None, default, default_factory
        self.repr, self.compare = repr, compare


def _frozen(change: str, name: str):
    """The error a frozen record raises; only a refused change imports dataclasses."""
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(f"cannot {change} field {name!r}")


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
            if not isinstance(spec, field):
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
        raise _frozen("assign to", name)

    def __delattr__(self, name):
        raise _frozen("delete", name)

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

    def __repr__(self):
        """The dataclass repr, written from a stack, so a deep term does not
        recurse. A shared term's tree can be exponential in its size: past
        REPR_LIMIT characters the text is cut there and ends in '...'."""
        out, size, stack = [], 0, [self]
        while stack:
            t = stack.pop()
            kind = t.__class__
            if kind is str:
                piece = t
            elif kind is Const:
                piece = f"Const(name={t.name!r})"
            elif kind is App:
                piece = f"App(fn={t.fn!r}, arg="
                stack += (")", t.arg)
            else:
                piece, args = "Meet(args=(", t.args
                stack.append("))")
                for a in args[:0:-1]:
                    stack += (a, ", ")
                stack.append(args[0])
            out.append(piece)
            size += len(piece)
            if size > REPR_LIMIT:
                return "".join(out)[:REPR_LIMIT] + "..."
        return "".join(out)


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


def functions_in_order(*terms):
    """The terms' function names, repeats included, depth first, left to
    right: the order error messages name offenders in, not the hash seed's."""
    stack = [*reversed(terms)]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            yield t.fn
            stack.append(t.arg)
        elif isinstance(t, Meet):
            stack += reversed(t.args)


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

# reserved: whitespace and  & ( ) . <= = ! ,   ('<' only occurs inside '<=')
_TOKEN = r"<=|[&().=!,<]|[^\s&().=!,<]+"
_WORDS = re.compile(_TOKEN).findall
# each match is the whitespace before a token and the token
_TOKEN_RE = re.compile(rf"(\s*)({_TOKEN})")

_PUNCT = {"&", "(", ")", ".", "<=", "=", "!", ",", "<"}

# words that name no concept and no role in the EL grammar
_EL_RESERVED = {"roles", "ri", "side", "goal", "ex"}

# deepest bracket (or EL 'ex') nesting the parsers accept: they recurse
# only up to this bound
MAX_NESTING = 100


def tokenize(text: str, line: int = 1) -> list[tuple[str, int]]:
    """Split into (token, column) pairs. '<' outside '<=' is rejected.

    Every character is whitespace, punctuation or part of a name, so the
    matches cover the text up to trailing whitespace. The parsers read
    words(); columns come from here, and only to place an error.
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


def words(text: str, line: int = 1) -> list[str]:
    """The token strings of text as tokenize splits it, with its '<' error."""
    toks = _WORDS(text)
    if "<" in toks:
        tokenize(text, line)
    return toks


def column(text: str, line: int, k: int) -> int:
    """Column of token k of text; past the end, the column just after the
    last token (1 if there is none)."""
    toks = tokenize(text, line)
    if k < len(toks):
        return toks[k][1]
    return toks[-1][1] + len(toks[-1][0]) if toks else 1


class _TermParser:
    """Recursive descent over toks, the token strings of text. It reads f(t)
    or, given the set of declared roles, the EL grammar's ex r . C as r(C).
    An error's column is computed from text.
    """

    __slots__ = ("toks", "line", "text", "roles", "i", "depth")

    def __init__(self, toks: list[str], line: int, text: str, roles=None):
        self.roles = roles
        self.at(toks, line, text)

    def at(self, toks: list[str], line: int, text: str) -> _TermParser:
        """The parser, moved to the start of another line; a file's body
        lines share one parser."""
        self.toks = toks
        self.line = line
        self.text = text
        self.i = self.depth = 0
        return self

    def error(self, message: str, i: int | None = None) -> ParseError:
        """The error at token i, by default the current token."""
        k = self.i if i is None else i
        return ParseError(message, self.line, column(self.text, self.line, k))

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def expect(self, tok: str) -> None:
        i = self.i
        if i == len(self.toks) or self.toks[i] != tok:
            raise self.error(f"expected {tok!r}, got {self.peek()!r}")
        self.i = i + 1

    def enter(self) -> None:
        """Step over the token opening one more nesting level."""
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        self.i += 1

    def ident(self, what: str) -> str:
        """An EL role or concept name: never punctuation or a reserved word."""
        if self.i == len(self.toks):
            raise self.error("unexpected end of line")
        tok = self.toks[self.i]
        if tok in _PUNCT:
            raise self.error(f"expected {what}, got {tok!r}")
        if tok in _EL_RESERVED:
            raise self.error(f"reserved word {tok!r} cannot name {what}")
        self.i += 1
        return tok

    def term(self) -> Term:
        t, toks = self.factor(), self.toks
        if self.i == len(toks) or toks[self.i] != "&":
            return t   # a lone factor is already in normal form
        args = [t]
        while self.i < len(toks) and toks[self.i] == "&":
            self.i += 1
            args.append(self.factor())
        return mk_meet(args)

    def factor(self) -> Term:
        toks, i, roles = self.toks, self.i, self.roles
        tok = toks[i] if i < len(toks) else None
        if tok == "(":
            self.enter()
            t = self.term()
            self.expect(")")
            self.depth -= 1
            return t
        if roles is not None:
            # roles are names, so a token in roles needs no check by ident
            if tok == "ex":
                self.enter()
                role = toks[i + 1] if i + 1 < len(toks) else None
                if role not in roles:
                    self.ident("a role")
                    raise self.error(f"undeclared role {role}", i + 1)
                self.i = i + 2
                self.expect(".")
                t = App(role, self.factor())
                self.depth -= 1
                return t
            if tok is None or tok in _PUNCT or tok in _EL_RESERVED or tok in roles:
                name = self.ident("a concept name")
                raise self.error(f"{name} used as both role and concept name", i)
            self.i = i + 1
            return Const(tok)
        if tok is None:
            raise self.error("expected a term, got end of line")
        if tok in _PUNCT:
            raise self.error(f"expected a term, got {tok!r}")
        self.i = i = i + 1
        if i < len(toks) and toks[i] == "(":
            self.enter()
            arg = self.term()
            self.expect(")")
            self.depth -= 1
            return App(tok, arg)
        return Const(tok)

    def atom(self, start: int = 0) -> Atom:
        """Exactly one atom, from token start to the end of the line."""
        self.i = start
        lhs = self.term()
        op = self.peek()
        if op not in ("<=", "="):
            got = "end of line" if op is None else repr(op)
            raise self.error(f"expected '<=' or '=', got {got}")
        self.i += 1
        rhs = self.term()
        self.done()
        return Leq(lhs, rhs) if op == "<=" else Eq(lhs, rhs)

    def done(self) -> None:
        if self.i != len(self.toks):
            raise self.error(f"trailing input {self.peek()!r}")


def parse_term(text: str, line: int = 1) -> Term:
    p = _TermParser(words(text, line), line, text)
    t = p.term()
    p.done()
    return t


def parse_atom(text: str, line: int = 1) -> Atom:
    return _TermParser(words(text, line), line, text).atom()


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
