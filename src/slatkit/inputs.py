"""Line-oriented input formats for problems and finite models.

Two formats, both UTF-8 with # comments:

  .slp    entailment problems over meet-terms with monotone operators.
          `functions f g`, `axiom inclusion f g`, `axiom composition
          f g h`, `side A` / `side B` followed by literal lines
          (`t <= t`, `t = t`, `! t <= t`), optional `sigma s1 s2 ...`
          and `target c` for definability questions, and `goal a <= b`.

  .model  finite algebras: `carrier e1 .. en`, one `meet ei v1 .. vn`
          row per element, `fun f v1 .. vn` tables, `const c = ei`
          bindings, then optional `axiom ...` and `atom ...` lines to
          check against the tables.
"""

from __future__ import annotations

from .locality import AxiomSet, Composition, Inclusion
from .slat import FiniteModel
from .terms import (
    Atom,
    Eq,
    Frozen,
    Leq,
    ParseError,
    _PUNCT,
    _TermParser,
    atom_constants,
    atom_functions,
    column,
    words,
)

_SLP_RESERVED = {"functions", "axiom", "side", "goal", "sigma", "target"}
_SLP_DECLARATIONS = {
    "functions": "functions must be declared before the sides",
    "axiom": "axioms must precede the sides",
}
_MODEL_RESERVED = {"carrier", "meet", "fun", "const", "axiom", "atom"}
# an axiom line's keyword: its class and how many function names it takes
_AXIOMS = {ax.keyword: (ax, count) for ax, count in ((Inclusion, "two"), (Composition, "three"))}


class SlpProblem(Frozen):
    functions: tuple[str, ...]
    axioms: AxiomSet
    a_pos: tuple[Atom, ...]
    a_neg: tuple[Atom, ...]
    b_pos: tuple[Atom, ...]
    b_neg: tuple[Atom, ...]
    goal: Leq | None
    sigma: tuple[str, ...] | None = None
    target: str | None = None


class ModelSpec(Frozen):
    model: FiniteModel
    inclusions: tuple[tuple[str, str], ...]
    compositions: tuple[tuple[str, str, str], ...]
    atoms: tuple[Atom, ...]


def _lines(text: str):
    """Yield (lineno, tokens, line) for each line with tokens: the token
    strings, comments cut, and the cut line, which places errors."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.partition("#")[0]
        toks = words(raw, lineno)
        if toks:
            yield lineno, toks, raw


def _error(message: str, lineno: int, raw: str, k: int = 0) -> ParseError:
    """The error at token k of the line raw."""
    return ParseError(message, lineno, column(raw, lineno, k))


def _problem_lines(text: str, declarations: dict[str, str], body: str, anywhere=()):
    """Yield (side, lineno, tokens, line) for the lines of an .slp or .elp file.

    Checks the layout both formats share: each head in declarations
    comes before every side line (its value is the error message),
    `side A` / `side B` lines switch sides and are not yielded, a body
    line (any other head outside anywhere and `goal`) needs a side, and
    nothing follows the goal. body names the body lines in the error.
    """
    side: str | None = None
    goal_seen = False
    for lineno, toks, raw in _lines(text):
        head = toks[0]
        if goal_seen:
            raise _error("nothing may follow the goal", lineno, raw)
        if head in declarations:
            if side is not None:
                raise _error(declarations[head], lineno, raw)
        elif head == "side":
            if len(toks) != 2 or toks[1] not in ("A", "B"):
                raise _error("expected 'side A' or 'side B'", lineno, raw)
            side = toks[1]
            continue
        elif head == "goal":
            goal_seen = True
        elif head not in anywhere and side is None:
            raise _error(f"{body} must appear inside 'side A' or 'side B'", lineno, raw)
        yield side, lineno, toks, raw


def _idents(toks, raw: str, lineno: int, what: str) -> list[str]:
    """The tokens past the head, each of them a name."""
    for k in range(1, len(toks)):
        if toks[k] in _PUNCT:
            raise _error(f"expected {what}, got {toks[k]!r}", lineno, raw, k)
    return toks[1:]


def _first(toks, start: int, raw: str, lineno: int, offends, message: str) -> ParseError:
    """The error at the first name token from toks[start] on for which
    offends(token, next token)."""
    for k, (tok, nxt) in enumerate(zip(toks[start:], [*toks[start + 1:], None]), start):
        if tok not in _PUNCT and offends(tok, nxt):
            return _error(message.format(tok), lineno, raw, k)
    raise AssertionError("no offending token")


def _axiom_line(toks, raw: str, lineno: int):
    """Parse an `axiom` line into an Inclusion or Composition."""
    names = _idents(toks, raw, lineno, "a function name")
    if not names:
        raise ParseError("expected 'inclusion' or 'composition'", lineno, 1)
    kind, args = names[0], names[1:]
    if kind not in _AXIOMS:
        raise _error(f"unknown axiom kind {kind!r}", lineno, raw, 1)
    axiom, count = _AXIOMS[kind]
    if len(args) != len(axiom._fields):
        raise _error(f"{kind} takes {count} function names", lineno, raw, 1)
    return axiom(*args)


def parse_slp(text: str) -> SlpProblem:
    functions: list[str] = []
    axioms = []
    axiom_lines = []
    pos = {"A": [], "B": []}
    neg = {"A": [], "B": []}
    goal: Leq | None = None
    sigma: list[str] | None = None
    target: str | None = None
    declared: set[str] = set()
    used_consts: set[str] = set()
    sigma_line = target_line = (0, "")
    parser = _TermParser([], 0, "")

    def check_atom(atom: Atom, lineno: int, toks, raw: str, start: int) -> None:
        """Name the first offending token in line order, at its column."""
        consts = atom.lhs._consts | atom.rhs._consts
        if not (atom.lhs._fns <= declared and atom.rhs._fns <= declared):
            raise _first(toks, start, raw, lineno, lambda tok, nxt: nxt == "(" and tok not in declared,
                         "undeclared function {}")
        if consts & _SLP_RESERVED:
            raise _first(toks, start, raw, lineno, lambda tok, nxt: nxt != "(" and tok in _SLP_RESERVED,
                         "reserved word {!r} used as a constant")
        used_consts.update(consts)
        # a declared function with no argument after it is used as a constant
        if consts & declared:
            raise _first(toks, start, raw, lineno, lambda tok, nxt: nxt != "(" and tok in declared,
                         "used as both constant and function: {}")

    for side, lineno, toks, raw in _problem_lines(
        text, _SLP_DECLARATIONS, "literals", ("sigma", "target")
    ):
        head = toks[0]
        if head == "functions":
            for name in _idents(toks, raw, lineno, "a function name"):
                if name in _SLP_RESERVED:
                    raise _error(f"reserved word {name!r}", lineno, raw)
                if name in declared:
                    raise _error(f"function {name} declared twice", lineno, raw)
                functions.append(name)
                declared.add(name)
            if len(toks) == 1:
                raise _error("empty functions declaration", lineno, raw)
        elif head == "axiom":
            axioms.append(_axiom_line(toks, raw, lineno))
            axiom_lines.append((lineno, toks, raw))
        elif head == "sigma":
            if sigma is not None:
                raise _error("sigma given twice", lineno, raw)
            sigma, sigma_line = _idents(toks, raw, lineno, "a symbol"), (lineno, raw)
            if not sigma:
                raise _error("empty sigma declaration", lineno, raw)
        elif head == "target":
            if target is not None:
                raise _error("target given twice", lineno, raw)
            names = _idents(toks, raw, lineno, "a constant")
            if len(names) != 1:
                raise _error("target takes one constant", lineno, raw)
            target, target_line = names[0], (lineno, raw)
        elif head == "goal":
            atom = parser.at(toks, lineno, raw).atom(1)
            if not isinstance(atom, Leq):
                raise _error("goal must be a <= atom", lineno, raw)
            check_atom(atom, lineno, toks, raw, 1)
            goal = atom
        else:
            start = int(head == "!")
            atom = parser.at(toks, lineno, raw).atom(start)
            if start and isinstance(atom, Eq):
                raise _error("negated equality is not supported", lineno, raw)
            check_atom(atom, lineno, toks, raw, start)
            (neg if start else pos)[side].append(atom)
    if goal is None and target is None:
        nl = len(text.splitlines()) + 1
        raise ParseError("missing goal line (or target for definability)", nl, 1)
    # checked here, not on the axiom line: functions may be declared later
    for lineno, toks, raw in axiom_lines:
        for k in range(2, len(toks)):
            if toks[k] not in declared:
                raise _error(f"axiom uses undeclared function {toks[k]}", lineno, raw, k)
    axiom_set = AxiomSet(tuple(functions), tuple(axioms))
    if sigma is not None:
        for k, s in enumerate(sigma, start=1):
            if s not in declared and s not in used_consts:
                raise _error(f"sigma symbol {s} occurs nowhere", *sigma_line, k)
    if target is not None and target not in used_consts:
        raise _error(f"target {target} occurs in no atom", *target_line, 1)
    return SlpProblem(
        functions=tuple(functions),
        axioms=axiom_set,
        a_pos=tuple(pos["A"]),
        a_neg=tuple(neg["A"]),
        b_pos=tuple(pos["B"]),
        b_neg=tuple(neg["B"]),
        goal=goal,
        sigma=tuple(sigma) if sigma is not None else None,
        target=target,
    )


def parse_model(text: str) -> ModelSpec:
    carrier: list[str] | None = None
    elements: set[str] = set()    # the carrier's names, for membership tests in O(1)
    meet: dict[tuple[str, str], str] = {}
    meet_rows: set[str] = set()
    funcs: dict[str, dict[str, str]] = {}
    consts: dict[str, str] = {}
    inclusions: list[tuple[str, str]] = []
    compositions: list[tuple[str, str, str]] = []
    atoms: list[Atom] = []

    def element(name: str, lineno: int, raw: str, k: int) -> str:
        if name not in elements:
            raise _error(f"not a carrier element: {name}", lineno, raw, k)
        return name

    for lineno, toks, raw in _lines(text):
        head = toks[0]
        if head != "carrier" and carrier is None:
            raise _error("carrier must be declared first", lineno, raw)
        if head == "carrier":
            if carrier is not None:
                raise _error("carrier declared twice", lineno, raw)
            carrier = []
            for name in _idents(toks, raw, lineno, "an element"):
                if name in _MODEL_RESERVED:
                    raise _error(f"reserved word {name!r}", lineno, raw)
                if name in elements:
                    raise _error(f"element {name} declared twice", lineno, raw)
                carrier.append(name)
                elements.add(name)
            if not carrier:
                raise _error("empty carrier", lineno, raw)
        elif head == "meet":
            names = _idents(toks, raw, lineno, "an element")
            if len(names) != len(carrier) + 1:
                # at the first token past the row, or just past a short one
                raise _error(f"meet row needs 1 + {len(carrier)} elements", lineno, raw, len(carrier) + 2)
            row = element(names[0], lineno, raw, 1)
            if row in meet_rows:
                raise _error(f"meet row for {row} given twice", lineno, raw)
            meet_rows.add(row)
            for k, (y, v) in enumerate(zip(carrier, names[1:]), start=2):
                meet[(row, y)] = element(v, lineno, raw, k)
        elif head == "fun":
            names = _idents(toks, raw, lineno, "an element")
            if len(names) != len(carrier) + 1:
                raise _error(f"fun row needs a name and {len(carrier)} values", lineno, raw, len(carrier) + 2)
            f = names[0]
            if f in _MODEL_RESERVED:
                raise _error(f"reserved word {f!r}", lineno, raw)
            if f in funcs:
                raise _error(f"function {f} given twice", lineno, raw)
            funcs[f] = {x: element(v, lineno, raw, k)
                        for k, (x, v) in enumerate(zip(carrier, names[1:]), start=2)}
        elif head == "const":
            if len(toks) != 4 or toks[2] != "=" or toks[1] in _PUNCT or toks[3] in _PUNCT:
                raise _error("expected 'const c = element'", lineno, raw)
            c = toks[1]
            if c in _MODEL_RESERVED:
                raise _error(f"reserved word {c!r}", lineno, raw)
            if c in consts:
                raise _error(f"constant {c} bound twice", lineno, raw)
            consts[c] = element(toks[3], lineno, raw, 3)
        elif head == "axiom":
            ax = _axiom_line(toks, raw, lineno)
            for k in range(2, len(toks)):
                if toks[k] not in funcs:
                    raise _error(f"uninterpreted function {toks[k]}", lineno, raw, k)
            (inclusions if isinstance(ax, Inclusion) else compositions).append(ax.fns)
        elif head == "atom":
            atom = _TermParser(toks, lineno, raw).atom(1)
            if not atom_functions(atom) <= funcs.keys():
                raise _first(toks, 1, raw, lineno, lambda tok, nxt: nxt == "(" and tok not in funcs,
                             "uninterpreted function {}")
            if not atom_constants(atom) <= consts.keys():
                raise _first(toks, 1, raw, lineno, lambda tok, nxt: nxt != "(" and tok not in consts,
                             "unbound constant {}")
            atoms.append(atom)
        else:
            raise _error(f"unknown directive {head!r}", lineno, raw)
    end = len(text.splitlines()) + 1
    if carrier is None:
        raise ParseError("missing carrier", end, 1)
    missing = [x for x in carrier if x not in meet_rows]
    if missing:
        raise ParseError(f"missing meet row for {missing[0]}", end, 1)
    return ModelSpec(
        model=FiniteModel(tuple(carrier), meet, funcs, consts),
        inclusions=tuple(inclusions),
        compositions=tuple(compositions),
        atoms=tuple(atoms),
    )
