"""EL ontology front end for the semilattice engine.

Concepts are conjunctions of names and existential role restrictions.
A subsumption problem over two ontology parts translates directly: names
become constants, conjunction the meet, and each declared role a
monotone operator, with role inclusion axioms r <= s as operator
inclusions and chains r o s <= t as compositions. Subsumption,
interpolating concepts and minimal justifying axiom sets all come back
from the term level through the same translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import interp, locality
from .interp import VerificationFailed
from .locality import AxiomSet, Composition, Inclusion, Justification, NotEntailed
from .terms import (
    App,
    Const,
    Leq,
    Meet,
    ParseError,
    Term,
    _TermParser,
    mk_meet,
    tokenize,
)

_RESERVED = {"roles", "ri", "side", "goal", "ex"}


# ---------------------------------------------------------------------------
# concepts


@dataclass(frozen=True)
class Name:
    name: str


@dataclass(frozen=True)
class Exists:
    role: str
    arg: "Concept"


@dataclass(frozen=True)
class And:
    args: tuple["Concept", ...]


Concept = Name | And | Exists


def concept_term(c: Concept) -> Term:
    """Encode: names as constants, And as meet, exists as application."""
    if isinstance(c, Name):
        return Const(c.name)
    if isinstance(c, Exists):
        return App(c.role, concept_term(c.arg))
    return mk_meet(concept_term(x) for x in c.args)


def term_concept(t: Term) -> Concept:
    """Decode a term back into a concept."""
    if isinstance(t, Const):
        return Name(t.name)
    if isinstance(t, App):
        return Exists(t.fn, term_concept(t.arg))
    return And(tuple(term_concept(x) for x in t.args))


def mk_and(args) -> Concept:
    """ACI-normalized conjunction; a singleton collapses to its member."""
    return term_concept(mk_meet(concept_term(a) for a in args))


def concept_names(c: Concept) -> set[str]:
    if isinstance(c, Name):
        return {c.name}
    if isinstance(c, Exists):
        return concept_names(c.arg)
    return set().union(*(concept_names(x) for x in c.args))


def concept_roles(c: Concept) -> set[str]:
    if isinstance(c, Name):
        return set()
    if isinstance(c, Exists):
        return {c.role} | concept_roles(c.arg)
    return set().union(*(concept_roles(x) for x in c.args))


def format_concept(c: Concept) -> str:
    if isinstance(c, Name):
        return c.name
    if isinstance(c, Exists):
        body = format_concept(c.arg)
        if isinstance(c.arg, And):
            body = f"({body})"
        return f"ex {c.role} . {body}"
    return " & ".join(format_concept(x) for x in c.args)


# ---------------------------------------------------------------------------
# ontologies


@dataclass(frozen=True)
class GCI:
    """General concept inclusion lhs subsumed-by rhs."""

    lhs: Concept
    rhs: Concept
    label: str = ""


@dataclass(frozen=True)
class RoleIncl:
    sub: str
    sup: str
    label: str = ""


@dataclass(frozen=True)
class RoleComp:
    """first o second <= sup: chained roles are below sup."""

    first: str
    second: str
    sup: str
    label: str = ""


RoleAxiom = RoleIncl | RoleComp


@dataclass(frozen=True)
class CBox:
    roles: tuple[str, ...]
    gcis: tuple[GCI, ...] = ()
    ris: tuple[RoleAxiom, ...] = ()

    def __post_init__(self):
        declared = set(self.roles)
        if len(self.roles) != len(declared):
            raise ValueError("role declared twice")
        for gci in self.gcis:
            for r in concept_roles(gci.lhs) | concept_roles(gci.rhs):
                if r not in declared:
                    raise ValueError(f"undeclared role {r}")
        for ri in self.ris:
            names = (ri.sub, ri.sup) if isinstance(ri, RoleIncl) else (ri.first, ri.second, ri.sup)
            for r in names:
                if r not in declared:
                    raise ValueError(f"undeclared role {r}")


@dataclass(frozen=True)
class ELProblem:
    cbox_a: CBox
    cbox_b: CBox
    goal_c: Concept
    goal_d: Concept


# ---------------------------------------------------------------------------
# .elp concrete syntax


class _ConceptParser(_TermParser):
    """Concept grammar over the term parser's tokens and nesting bound."""

    def __init__(self, toks, line: int, roles: set[str]):
        super().__init__(toks, line)
        self.roles = roles

    def take(self):
        if self.peek() is None:
            raise ParseError("unexpected end of line", self.line, self.col())
        return super().take()

    def ident(self, what: str) -> str:
        col = self.col()
        tok = self.take()
        if tok in {"&", "(", ")", ".", "<=", "=", "!", ","}:
            raise ParseError(f"expected {what}, got {tok!r}", self.line, col)
        if tok in _RESERVED:
            raise ParseError(f"reserved word {tok!r} cannot name {what}", self.line, col)
        return tok

    def concept(self) -> Concept:
        args = [self.unary()]
        while self.peek() == "&":
            self.take()
            args.append(self.unary())
        return mk_and(args)

    def unary(self) -> Concept:
        tok = self.peek()
        if tok == "(":
            self.enter()
            c = self.concept()
            self.expect(")")
            self.depth -= 1
            return c
        if tok == "ex":
            self.enter()
            col = self.col()
            role = self.ident("a role")
            if role not in self.roles:
                raise ParseError(f"undeclared role {role}", self.line, col)
            self.expect(".")
            c = Exists(role, self.unary())
            self.depth -= 1
            return c
        return Name(self.ident("a concept name"))


def _strip_comment(line: str) -> str:
    i = line.find("#")
    return line if i < 0 else line[:i]


def parse_cbox(text: str) -> ELProblem:
    """Parse the .elp format: roles, role axioms, two sides, one goal."""
    roles: list[str] = []
    ris: list[RoleAxiom] = []
    gcis: dict[str, list[GCI]] = {"A": [], "B": []}
    side: str | None = None
    goal: tuple[Concept, Concept] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = tokenize(_strip_comment(raw), lineno)
        if not toks:
            continue
        head, col0 = toks[0]
        if goal is not None:
            raise ParseError("nothing may follow the goal", lineno, col0)
        if head == "roles":
            if side is not None:
                raise ParseError("roles must be declared before the sides", lineno, col0)
            for tok, col in toks[1:]:
                if tok in _RESERVED or tok in {"&", "(", ")", ".", "<=", "=", "!", ","}:
                    raise ParseError(f"bad role name {tok!r}", lineno, col)
                if tok in roles:
                    raise ParseError(f"role {tok} declared twice", lineno, col)
                roles.append(tok)
            if len(toks) == 1:
                raise ParseError("empty roles declaration", lineno, col0)
        elif head == "ri":
            if side is not None:
                raise ParseError("role axioms must precede the sides", lineno, col0)
            p = _ConceptParser(toks, lineno, set(roles))
            p.take()
            names = [p.ident("a role")]
            if p.peek() == "o":
                p.take()
                names.append(p.ident("a role"))
            p.expect("<=")
            names.append(p.ident("a role"))
            p.done()
            for r in names:
                if r not in roles:
                    raise ParseError(f"undeclared role {r}", lineno, col0)
            label = f"R{len(ris) + 1}"
            if len(names) == 2:
                ris.append(RoleIncl(names[0], names[1], label))
            else:
                ris.append(RoleComp(names[0], names[1], names[2], label))
        elif head == "side":
            if len(toks) != 2 or toks[1][0] not in ("A", "B"):
                raise ParseError("expected 'side A' or 'side B'", lineno, col0)
            side = toks[1][0]
        elif head == "goal":
            p = _ConceptParser(toks[1:], lineno, set(roles))
            c = p.concept()
            p.expect("<=")
            d = p.concept()
            p.done()
            goal = (c, d)
        else:
            if side is None:
                raise ParseError(
                    "concept inclusions must appear inside 'side A' or 'side B'",
                    lineno, col0,
                )
            p = _ConceptParser(toks, lineno, set(roles))
            lhs = p.concept()
            p.expect("<=")
            rhs = p.concept()
            p.done()
            gcis[side].append(GCI(lhs, rhs, f"{side}{len(gcis[side]) + 1}"))
    if goal is None:
        raise ParseError("missing goal line", len(text.splitlines()) + 1, 1)
    role_names = set(roles)
    for side_gcis in gcis.values():
        for gci in side_gcis:
            overlap = (concept_names(gci.lhs) | concept_names(gci.rhs)) & role_names
            if overlap:
                raise ValueError(
                    f"{sorted(overlap)[0]} used as both role and concept name"
                )
    for c in goal:
        overlap = concept_names(c) & role_names
        if overlap:
            raise ValueError(f"{sorted(overlap)[0]} used as both role and concept name")
    ris_t = tuple(ris)
    return ELProblem(
        cbox_a=CBox(tuple(roles), tuple(gcis["A"]), ris_t),
        cbox_b=CBox(tuple(roles), tuple(gcis["B"]), ris_t),
        goal_c=goal[0],
        goal_d=goal[1],
    )


# ---------------------------------------------------------------------------
# translation


@dataclass
class Translated:
    """Term-level image of an EL problem."""

    a_atoms: tuple[Leq, ...]
    b_atoms: tuple[Leq, ...]
    a_labels: tuple[str, ...]
    b_labels: tuple[str, ...]
    axioms: AxiomSet
    axiom_labels: tuple[str, ...]
    goal: Leq
    pinned_a: tuple[int, ...]
    pinned_b: tuple[int, ...]
    roles: tuple[str, ...]


def _gci_atom(gci: GCI) -> Leq:
    return Leq(concept_term(gci.lhs), concept_term(gci.rhs))


def translate(p: ELProblem) -> Translated:
    """Map an EL problem onto atoms, operator axioms and a constant goal.

    Roles of both parts become monotone operators; role axioms are
    deduplicated by value. A goal side that is not a plain name is bound
    to a fresh constant by a pair of defining atoms on its own side, so
    the goal is always between constants; those defining atoms are
    pinned for minimization.
    """
    roles = list(p.cbox_a.roles)
    for r in p.cbox_b.roles:
        if r not in roles:
            roles.append(r)
    ris: list[RoleAxiom] = []
    labels: list[str] = []
    for ri in (*p.cbox_a.ris, *p.cbox_b.ris):
        if any(_ri_key(x) == _ri_key(ri) for x in ris):
            continue
        ris.append(ri)
        labels.append(ri.label or f"R{len(ris)}")
    axioms = AxiomSet(
        tuple(roles),
        tuple(
            Inclusion(ri.sub, ri.sup) if isinstance(ri, RoleIncl)
            else Composition(ri.first, ri.second, ri.sup)
            for ri in ris
        ),
    )
    a_atoms = [_gci_atom(g) for g in p.cbox_a.gcis]
    b_atoms = [_gci_atom(g) for g in p.cbox_b.gcis]
    a_labels = [g.label or f"A{i + 1}" for i, g in enumerate(p.cbox_a.gcis)]
    b_labels = [g.label or f"B{i + 1}" for i, g in enumerate(p.cbox_b.gcis)]
    used = set(roles)
    for atoms in (a_atoms, b_atoms):
        for x in atoms:
            used |= _atom_names(x)
    used |= concept_names(p.goal_c) | concept_names(p.goal_d)
    pinned_a: list[int] = []
    pinned_b: list[int] = []

    def bind(c: Concept, base: str, atoms: list, pinned: list[int]) -> Term:
        t = concept_term(c)
        if isinstance(t, Const):
            return t
        name = base
        while name in used:
            name += "0"
        used.add(name)
        pinned.append(len(atoms))
        atoms.append(Leq(Const(name), t))
        pinned.append(len(atoms))
        atoms.append(Leq(t, Const(name)))
        return Const(name)

    goal = Leq(
        bind(p.goal_c, "goalA", a_atoms, pinned_a),
        bind(p.goal_d, "goalB", b_atoms, pinned_b),
    )
    return Translated(
        a_atoms=tuple(a_atoms),
        b_atoms=tuple(b_atoms),
        a_labels=tuple(a_labels),
        b_labels=tuple(b_labels),
        axioms=axioms,
        axiom_labels=tuple(labels),
        goal=goal,
        pinned_a=tuple(pinned_a),
        pinned_b=tuple(pinned_b),
        roles=tuple(roles),
    )


def _ri_key(ri: RoleAxiom):
    if isinstance(ri, RoleIncl):
        return ("incl", ri.sub, ri.sup)
    return ("comp", ri.first, ri.second, ri.sup)


def _atom_names(a: Leq) -> set[str]:
    from .terms import term_constants

    return term_constants(a.lhs) | term_constants(a.rhs)


def untranslate(t: Term, roles) -> Concept:
    """Decode a term, checking every operator is a role."""
    declared = set(roles)
    for f in _term_fns(t):
        if f not in declared:
            raise ValueError(f"not a role: {f}")
    return term_concept(t)


def _term_fns(t: Term) -> set[str]:
    from .terms import term_functions

    return term_functions(t)


# ---------------------------------------------------------------------------
# reasoning


def el_subsumes(p: ELProblem) -> bool:
    """Does the union of both parts entail goal_c subsumed by goal_d?"""
    t = translate(p)
    return locality.entails(t.a_atoms, t.b_atoms, t.goal, t.axioms)


def justify(p: ELProblem) -> list[str] | None:
    """Labels of a minimal axiom subset entailing the goal, or None.

    Goal-binding atoms are internal and never reported. Labels come back
    sorted by side and input position: A's, then B's, then role axioms.
    """
    t = translate(p)
    try:
        j = locality.minimize_axioms(
            t.a_atoms, t.b_atoms, t.goal, t.axioms,
            pinned_a=t.pinned_a, pinned_b=t.pinned_b,
        )
    except NotEntailed:
        return None
    pinned_a, pinned_b = set(t.pinned_a), set(t.pinned_b)
    out = [t.a_labels[i] for i in j.kept_a if i not in pinned_a and i < len(t.a_labels)]
    out += [t.b_labels[i] for i in j.kept_b if i not in pinned_b and i < len(t.b_labels)]
    out += [t.axiom_labels[i] for i in j.kept_axioms]
    return out


@dataclass
class ELInterpolation:
    """Interpolating concept with the term-level evidence."""

    concept: Concept
    justification: tuple[str, ...] | None
    result: interp.InterpolationResult


def el_interpolate(p: ELProblem, *, minimize: bool = True, verify: bool = True) -> Concept:
    """Interpolating concept for an entailed subsumption."""
    return el_interpolation(p, minimize=minimize, verify=verify).concept


def el_interpolation(p: ELProblem, *, minimize: bool = True, verify: bool = True) -> ELInterpolation:
    """Interpolating concept plus the evidence behind it.

    With minimize on (the default), a justification pass first shrinks
    both parts and the role axioms, which also shrinks the closed term
    set the interpolant is built over. Verification happens at the EL
    level: both halves of the subsumption are re-checked over the full,
    unminimized problem.
    """
    t = translate(p)
    kept_labels: tuple[str, ...] | None = None
    a_atoms, b_atoms, axioms = t.a_atoms, t.b_atoms, t.axioms
    if minimize:
        j = locality.minimize_axioms(
            t.a_atoms, t.b_atoms, t.goal, t.axioms,
            pinned_a=t.pinned_a, pinned_b=t.pinned_b,
        )
        a_atoms = tuple(t.a_atoms[i] for i in j.kept_a)
        b_atoms = tuple(t.b_atoms[i] for i in j.kept_b)
        axioms = AxiomSet(
            t.axioms.functions,
            tuple(t.axioms.axioms[i] for i in j.kept_axioms),
        )
        pinned_a, pinned_b = set(t.pinned_a), set(t.pinned_b)
        kept_labels = tuple(
            [t.a_labels[i] for i in j.kept_a if i not in pinned_a]
            + [t.b_labels[i] for i in j.kept_b if i not in pinned_b]
            + [t.axiom_labels[i] for i in j.kept_axioms]
        )
    res = interp.interpolate(a_atoms, b_atoms, t.goal, axioms, verify=False)
    concept = untranslate(res.term, t.roles)
    if verify:
        left = ELProblem(p.cbox_a, p.cbox_b, p.goal_c, concept)
        right = ELProblem(p.cbox_a, p.cbox_b, concept, p.goal_d)
        if not el_subsumes(left) or not el_subsumes(right):
            raise VerificationFailed(
                f"concept {format_concept(concept)} failed subsumption re-check"
            )
    return ELInterpolation(concept=concept, justification=kept_labels, result=res)
