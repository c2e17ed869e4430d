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
    atom_constants,
    atom_functions,
    parse_atom_tokens,
    tokenize,
)

_SLP_RESERVED = {"functions", "axiom", "side", "goal", "sigma", "target"}
_SLP_DECLARATIONS = {
    "functions": "functions must be declared before the sides",
    "axiom": "axioms must precede the sides",
}
_MODEL_RESERVED = {"carrier", "meet", "fun", "const", "axiom", "atom"}


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
    """Yield (lineno, tokens) for each line with tokens, comments cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        i = raw.find("#")
        toks = tokenize(raw if i < 0 else raw[:i], lineno)
        if toks:
            yield lineno, toks


def _problem_lines(text: str, declarations: dict[str, str], body: str, anywhere=()):
    """Yield (side, lineno, tokens) for the lines of an .slp or .elp file.

    Checks the layout both formats share: each head in declarations
    comes before every side line (its value is the error message),
    `side A` / `side B` lines switch sides and are not yielded, a body
    line (any other head outside anywhere and `goal`) needs a side, and
    nothing follows the goal. body names the body lines in the error.
    """
    side: str | None = None
    goal_seen = False
    for lineno, toks in _lines(text):
        head, col0 = toks[0]
        if goal_seen:
            raise ParseError("nothing may follow the goal", lineno, col0)
        if head in declarations:
            if side is not None:
                raise ParseError(declarations[head], lineno, col0)
        elif head == "side":
            if len(toks) != 2 or toks[1][0] not in ("A", "B"):
                raise ParseError("expected 'side A' or 'side B'", lineno, col0)
            side = toks[1][0]
            continue
        elif head == "goal":
            goal_seen = True
        elif head not in anywhere and side is None:
            raise ParseError(f"{body} must appear inside 'side A' or 'side B'", lineno, col0)
        yield side, lineno, toks


def _idents(toks, lineno: int, what: str) -> list[str]:
    out = []
    for tok, col in toks:
        if tok in _PUNCT:
            raise ParseError(f"expected {what}, got {tok!r}", lineno, col)
        out.append(tok)
    return out


def _first(toks, offends, message: str, lineno: int) -> ParseError:
    """The error at the first name token for which offends(token, next token)."""
    for (tok, col), (nxt, _) in zip(toks, [*toks[1:], (None, 0)]):
        if tok not in _PUNCT and offends(tok, nxt):
            return ParseError(message.format(tok), lineno, col)
    raise AssertionError("no offending token")


def _axiom_line(toks, lineno: int):
    """Parse the tail of an `axiom` line into an Inclusion or Composition."""
    names = _idents(toks, lineno, "a function name")
    if not names:
        raise ParseError("expected 'inclusion' or 'composition'", lineno, 1)
    kind, args = names[0], names[1:]
    if kind == "inclusion":
        if len(args) != 2:
            raise ParseError("inclusion takes two function names", lineno, toks[0][1])
        return Inclusion(args[0], args[1])
    if kind == "composition":
        if len(args) != 3:
            raise ParseError("composition takes three function names", lineno, toks[0][1])
        return Composition(args[0], args[1], args[2])
    raise ParseError(f"unknown axiom kind {kind!r}", lineno, toks[0][1])


def parse_slp(text: str) -> SlpProblem:
    functions: list[str] = []
    axioms = []
    axiom_toks = []
    pos = {"A": [], "B": []}
    neg = {"A": [], "B": []}
    goal: Leq | None = None
    sigma: list[tuple[str, int]] | None = None
    target: str | None = None
    declared: set[str] = set()
    used_consts: set[str] = set()
    sigma_line = target_line = target_col = 0

    def check_atom(atom: Atom, lineno: int, toks, start: int) -> None:
        """Name the first offending token in line order, at its column."""
        consts = atom_constants(atom)
        if not atom_functions(atom) <= declared:
            raise _first(toks[start:], lambda tok, nxt: nxt == "(" and tok not in declared,
                         "undeclared function {}", lineno)
        if consts & _SLP_RESERVED:
            raise _first(toks[start:], lambda tok, nxt: nxt != "(" and tok in _SLP_RESERVED,
                         "reserved word {!r} used as a constant", lineno)
        used_consts.update(consts)
        # a declared function with no argument after it is used as a constant
        if consts & declared:
            raise _first(toks[start:], lambda tok, nxt: nxt != "(" and tok in declared,
                         "used as both constant and function: {}", lineno)

    for side, lineno, toks in _problem_lines(
        text, _SLP_DECLARATIONS, "literals", ("sigma", "target")
    ):
        head, col0 = toks[0]
        if head == "functions":
            for name in _idents(toks[1:], lineno, "a function name"):
                if name in _SLP_RESERVED:
                    raise ParseError(f"reserved word {name!r}", lineno, col0)
                if name in functions:
                    raise ParseError(f"function {name} declared twice", lineno, col0)
                functions.append(name)
                declared.add(name)
            if len(toks) == 1:
                raise ParseError("empty functions declaration", lineno, col0)
        elif head == "axiom":
            axioms.append(_axiom_line(toks[1:], lineno))
            axiom_toks.append((lineno, toks[2:]))
        elif head == "sigma":
            if sigma is not None:
                raise ParseError("sigma given twice", lineno, col0)
            sigma, sigma_line = toks[1:], lineno
            if not _idents(sigma, lineno, "a symbol"):
                raise ParseError("empty sigma declaration", lineno, col0)
        elif head == "target":
            if target is not None:
                raise ParseError("target given twice", lineno, col0)
            names = _idents(toks[1:], lineno, "a constant")
            if len(names) != 1:
                raise ParseError("target takes one constant", lineno, col0)
            target, target_line, target_col = names[0], lineno, toks[1][1]
        elif head == "goal":
            atom = parse_atom_tokens(toks, lineno, 1)
            if not isinstance(atom, Leq):
                raise ParseError("goal must be a <= atom", lineno, col0)
            check_atom(atom, lineno, toks, 1)
            goal = atom
        else:
            start = int(head == "!")
            atom = parse_atom_tokens(toks, lineno, start)
            if start and isinstance(atom, Eq):
                raise ParseError("negated equality is not supported", lineno, col0)
            check_atom(atom, lineno, toks, start)
            (neg if start else pos)[side].append(atom)
    if goal is None and target is None:
        nl = len(text.splitlines()) + 1
        raise ParseError("missing goal line (or target for definability)", nl, 1)
    # checked here, not on the axiom line: functions may be declared later
    for lineno, toks in axiom_toks:
        for f, col in toks:
            if f not in functions:
                raise ParseError(f"axiom uses undeclared function {f}", lineno, col)
    axiom_set = AxiomSet(tuple(functions), tuple(axioms))
    if sigma is not None:
        for s, col in sigma:
            if s not in declared and s not in used_consts:
                raise ParseError(f"sigma symbol {s} occurs nowhere", sigma_line, col)
    if target is not None and target not in used_consts:
        raise ParseError(f"target {target} occurs in no atom", target_line, target_col)
    return SlpProblem(
        functions=tuple(functions),
        axioms=axiom_set,
        a_pos=tuple(pos["A"]),
        a_neg=tuple(neg["A"]),
        b_pos=tuple(pos["B"]),
        b_neg=tuple(neg["B"]),
        goal=goal,
        sigma=tuple(s for s, _ in sigma) if sigma is not None else None,
        target=target,
    )


def _row_end(toks, n: int) -> int:
    """Column of the first token past a head, a name and n values, or just past a shorter row."""
    return toks[n + 2][1] if len(toks) > n + 2 else toks[-1][1] + len(toks[-1][0])


def parse_model(text: str) -> ModelSpec:
    carrier: list[str] | None = None
    meet: dict[tuple[str, str], str] = {}
    meet_rows: set[str] = set()
    funcs: dict[str, dict[str, str]] = {}
    consts: dict[str, str] = {}
    inclusions: list[tuple[str, str]] = []
    compositions: list[tuple[str, str, str]] = []
    atoms: list[Atom] = []

    def element(name: str, lineno: int, col: int) -> str:
        if carrier is None or name not in carrier:
            raise ParseError(f"not a carrier element: {name}", lineno, col)
        return name

    for lineno, toks in _lines(text):
        head, col0 = toks[0]
        if head != "carrier" and carrier is None:
            raise ParseError("carrier must be declared first", lineno, col0)
        if head == "carrier":
            if carrier is not None:
                raise ParseError("carrier declared twice", lineno, col0)
            carrier = []
            for name in _idents(toks[1:], lineno, "an element"):
                if name in _MODEL_RESERVED:
                    raise ParseError(f"reserved word {name!r}", lineno, col0)
                if name in carrier:
                    raise ParseError(f"element {name} declared twice", lineno, col0)
                carrier.append(name)
            if not carrier:
                raise ParseError("empty carrier", lineno, col0)
        elif head == "meet":
            names = _idents(toks[1:], lineno, "an element")
            if len(names) != len(carrier) + 1:
                raise ParseError(
                    f"meet row needs 1 + {len(carrier)} elements", lineno, _row_end(toks, len(carrier))
                )
            row = element(names[0], lineno, toks[1][1])
            if row in meet_rows:
                raise ParseError(f"meet row for {row} given twice", lineno, col0)
            meet_rows.add(row)
            for y, (v, col) in zip(carrier, toks[2:]):
                meet[(row, y)] = element(v, lineno, col)
        elif head == "fun":
            names = _idents(toks[1:], lineno, "an element")
            if len(names) != len(carrier) + 1:
                raise ParseError(
                    f"fun row needs a name and {len(carrier)} values", lineno, _row_end(toks, len(carrier))
                )
            f = names[0]
            if f in _MODEL_RESERVED:
                raise ParseError(f"reserved word {f!r}", lineno, col0)
            if f in funcs:
                raise ParseError(f"function {f} given twice", lineno, col0)
            funcs[f] = {x: element(v, lineno, col) for x, (v, col) in zip(carrier, toks[2:])}
        elif head == "const":
            if (
                len(toks) != 4
                or toks[2][0] != "="
                or toks[1][0] in _PUNCT
                or toks[3][0] in _PUNCT
            ):
                raise ParseError("expected 'const c = element'", lineno, col0)
            c = toks[1][0]
            if c in _MODEL_RESERVED:
                raise ParseError(f"reserved word {c!r}", lineno, col0)
            if c in consts:
                raise ParseError(f"constant {c} bound twice", lineno, col0)
            consts[c] = element(toks[3][0], lineno, toks[3][1])
        elif head == "axiom":
            ax = _axiom_line(toks[1:], lineno)
            for f, col in toks[2:]:
                if f not in funcs:
                    raise ParseError(f"uninterpreted function {f}", lineno, col)
            if isinstance(ax, Inclusion):
                inclusions.append((ax.f, ax.g))
            else:
                compositions.append((ax.f, ax.g, ax.h))
        elif head == "atom":
            atom = parse_atom_tokens(toks, lineno, 1)
            if not atom_functions(atom) <= funcs.keys():
                raise _first(toks[1:], lambda tok, nxt: nxt == "(" and tok not in funcs,
                             "uninterpreted function {}", lineno)
            if not atom_constants(atom) <= consts.keys():
                raise _first(toks[1:], lambda tok, nxt: nxt != "(" and tok not in consts,
                             "unbound constant {}", lineno)
            atoms.append(atom)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, col0)
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
