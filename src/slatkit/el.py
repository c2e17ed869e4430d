"""EL ontology front end for the semilattice engine.

Concepts are conjunctions of names and existential role restrictions,
kept as terms: a name is a constant, conjunction the meet and ex r . C
the application r(C). A subsumption problem over two ontology parts
translates directly: each declared role becomes a monotone operator,
with role inclusion axioms r <= s as operator inclusions and chains
r o s <= t as compositions. Subsumption, interpolating concepts and
minimal justifying axiom sets all come back from the term level.
"""

from __future__ import annotations

from . import interp, locality
from .inputs import _error, _problem_lines
from .locality import AxiomSet, Composition, Inclusion, Justification, NotEntailed
from .terms import (
    App,
    Const,
    Frozen,
    Leq,
    Meet,
    ParseError,
    Record,
    Term,
    _EL_RESERVED as _RESERVED,
    _PUNCT,
    _TermParser,
    atom_constants,
    functions_in_order,
    mk_meet,
    term_functions,
    write_term,
)

# ---------------------------------------------------------------------------
# concepts

# the concept constructors are the term constructors
Concept = Term
Name = Const
Exists = App
And = Meet
mk_and = mk_meet


def format_concept(c: Concept) -> str:
    return write_term(c, lambda r, arg: (f"ex {r} . (", ")") if isinstance(arg, Meet) else (f"ex {r} . ", ""))


# ---------------------------------------------------------------------------
# ontologies


class GCI(Frozen):
    """General concept inclusion lhs subsumed-by rhs."""

    lhs: Concept
    rhs: Concept
    label: str = ""


class RoleIncl(Frozen):
    sub: str
    sup: str
    label: str = ""
    axiom = property(lambda ri: Inclusion(ri.sub, ri.sup))


class RoleComp(Frozen):
    """first o second <= sup: chained roles are below sup."""

    first: str
    second: str
    sup: str
    label: str = ""
    axiom = property(lambda ri: Composition(ri.first, ri.second, ri.sup))


RoleAxiom = RoleIncl | RoleComp


class CBox(Frozen):
    roles: tuple[str, ...]
    gcis: tuple[GCI, ...] = ()
    ris: tuple[RoleAxiom, ...] = ()

    def __post_init__(self):
        declared = set(self.roles)
        if len(self.roles) != len(declared):
            raise ValueError("role declared twice")
        for gci in self.gcis:
            if not term_functions(gci.lhs) | term_functions(gci.rhs) <= declared:
                roles = functions_in_order(gci.lhs, gci.rhs)
                raise ValueError(f"undeclared role {next(r for r in roles if r not in declared)}")
        for ri in self.ris:
            for r in ri.axiom.fns:
                if r not in declared:
                    raise ValueError(f"undeclared role {r}")


class ELProblem(Frozen):
    cbox_a: CBox
    cbox_b: CBox
    goal_c: Concept
    goal_d: Concept


# ---------------------------------------------------------------------------
# .elp concrete syntax


_EL_DECLARATIONS = {
    "roles": "roles must be declared before the sides",
    "ri": "role axioms must precede the sides",
}


def parse_cbox(text: str) -> ELProblem:
    """Parse the .elp format: roles, role axioms, two sides, one goal."""
    roles: dict[str, None] = {}   # the declared roles, in order
    ris: list[RoleAxiom] = []
    gcis: dict[str, list[GCI]] = {"A": [], "B": []}
    goal: tuple[Concept, Concept] | None = None
    parser = _TermParser([], 0, "", roles)   # roles fills in place
    for side, lineno, toks, raw in _problem_lines(text, _EL_DECLARATIONS, "concept inclusions"):
        head = toks[0]
        if head == "roles":
            for k, tok in enumerate(toks[1:], start=1):
                if tok in _RESERVED or tok in _PUNCT:
                    raise _error(f"bad role name {tok!r}", lineno, raw, k)
                if tok in roles:
                    raise _error(f"role {tok} declared twice", lineno, raw, k)
                roles[tok] = None
            if len(toks) == 1:
                raise _error("empty roles declaration", lineno, raw)
        elif head == "ri":
            p = parser.at(toks, lineno, raw)
            p.i = 1
            names = [p.ident("a role")]
            if p.peek() == "o":
                p.i += 1
                names.append(p.ident("a role"))
            p.expect("<=")
            names.append(p.ident("a role"))
            p.done()
            for k, r in enumerate(names):
                if r not in roles:
                    # the roles are tokens 1, 3 and 5 of `ri r [o s] <= t`
                    raise _error(f"undeclared role {r}", lineno, raw, 2 * k + 1)
            label = f"R{len(ris) + 1}"
            if len(names) == 2:
                ris.append(RoleIncl(names[0], names[1], label))
            else:
                ris.append(RoleComp(names[0], names[1], names[2], label))
        else:
            if head == "goal":   # blanking the head keeps every column
                toks, raw = toks[1:], raw.replace("goal", "    ", 1)
            p = parser.at(toks, lineno, raw)
            lhs = p.term()
            p.expect("<=")
            rhs = p.term()
            p.done()
            if head == "goal":
                goal = (lhs, rhs)
            else:
                gcis[side].append(GCI(lhs, rhs, f"{side}{len(gcis[side]) + 1}"))
    if goal is None:
        raise ParseError("missing goal line", len(text.splitlines()) + 1, 1)
    ris_t = tuple(ris)
    return ELProblem(
        cbox_a=CBox(tuple(roles), tuple(gcis["A"]), ris_t),
        cbox_b=CBox(tuple(roles), tuple(gcis["B"]), ris_t),
        goal_c=goal[0],
        goal_d=goal[1],
    )


# ---------------------------------------------------------------------------
# translation


class Translated(Record):
    """Term-level image of an EL problem."""

    a_atoms: tuple[Leq, ...]
    b_atoms: tuple[Leq, ...]
    a_labels: tuple[str, ...]
    b_labels: tuple[str, ...]
    axioms: AxiomSet
    axiom_labels: tuple[str, ...]
    goal: Leq
    roles: tuple[str, ...]


def translate(p: ELProblem) -> Translated:
    """Map an EL problem onto atoms, operator axioms and a constant goal.

    Roles of both parts become monotone operators; role axioms are
    deduplicated by value. A goal side that is not a plain name is bound
    to a fresh constant by a pair of defining atoms on its own side, past
    the side's labelled inclusions, so the goal is always between
    constants. Minimization keeps the atom every derivation needs
    (goalA <= C, D <= goalB) and drops its reverse, without which the
    goal still follows.
    """
    roles = list(dict.fromkeys((*p.cbox_a.roles, *p.cbox_b.roles)))
    labels: dict = {}   # each distinct engine axiom, with the label of its first role axiom
    for ri in (*p.cbox_a.ris, *p.cbox_b.ris):
        labels.setdefault(ri.axiom, ri.label or f"R{len(labels) + 1}")
    axioms = AxiomSet(tuple(roles), tuple(labels))
    a_atoms = [Leq(g.lhs, g.rhs) for g in p.cbox_a.gcis]
    b_atoms = [Leq(g.lhs, g.rhs) for g in p.cbox_b.gcis]
    a_labels = [g.label or f"A{i + 1}" for i, g in enumerate(p.cbox_a.gcis)]
    b_labels = [g.label or f"B{i + 1}" for i, g in enumerate(p.cbox_b.gcis)]
    used = locality.check_input((*a_atoms, *b_atoms), Leq(p.goal_c, p.goal_d), None) | set(roles)

    def bind(t: Concept, base: str, atoms: list) -> Term:
        if isinstance(t, Const):
            return t
        name = base
        while name in used:
            name += "0"
        used.add(name)
        atoms += (Leq(Const(name), t), Leq(t, Const(name)))
        return Const(name)

    goal = Leq(bind(p.goal_c, "goalA", a_atoms), bind(p.goal_d, "goalB", b_atoms))
    return Translated(
        a_atoms=tuple(a_atoms),
        b_atoms=tuple(b_atoms),
        a_labels=tuple(a_labels),
        b_labels=tuple(b_labels),
        axioms=axioms,
        axiom_labels=tuple(labels.values()),
        goal=goal,
        roles=tuple(roles),
    )


def untranslate(t: Term, roles) -> Concept:
    """The term as a concept, checking every operator is a role."""
    declared = set(roles)
    if not term_functions(t) <= declared:
        raise ValueError(f"not a role: {next(f for f in functions_in_order(t) if f not in declared)}")
    return t


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
        j = locality.minimize_axioms(t.a_atoms, t.b_atoms, t.goal, t.axioms)
    except NotEntailed:
        return None
    return _kept_labels(t, j)


def _kept_labels(t: Translated, j: Justification) -> list[str]:
    """Labels of the kept inputs; goal-binding atoms sit past the labels."""
    return (
        [t.a_labels[i] for i in j.kept_a if i < len(t.a_labels)]
        + [t.b_labels[i] for i in j.kept_b if i < len(t.b_labels)]
        + [t.axiom_labels[i] for i in j.kept_axioms]
    )


class ELInterpolation(Record):
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
    set the interpolant is built over. Verification has the proof kernel
    check the proofs of both certificates, read off the interpolation
    run, once, against the kept premises. Together they prove the goal
    from the kept inputs, so the justification's own proof is not built;
    without verification _minimize's check_proof builds and checks it. The kernel
    is monotone in its premises, so the same proofs hold against the
    full translated premises, and the returned certificates number their
    input steps by those. Fresh names avoid the symbols of the dropped
    axioms too. The kept inputs always entail the goal: a deletion that
    left them short raises RuntimeError, never NotEntailed.
    """
    t = translate(p)
    kept_labels: tuple[str, ...] | None = None
    a_atoms, b_atoms, axioms, reserved = t.a_atoms, t.b_atoms, t.axioms, set()
    if minimize:
        j, check_proof = locality._minimize(t.a_atoms, t.b_atoms, t.goal, t.axioms, (), ())
        if not verify:
            check_proof()
        a_atoms = tuple(t.a_atoms[i] for i in j.kept_a)
        b_atoms = tuple(t.b_atoms[i] for i in j.kept_b)
        axioms = AxiomSet(
            t.axioms.functions,
            tuple(t.axioms.axioms[i] for i in j.kept_axioms),
        )
        kept_labels = tuple(_kept_labels(t, j))
        reserved = {c for x in (*t.a_atoms, *t.b_atoms) for c in atom_constants(x)}
    try:
        res = interp.interpolate(a_atoms, b_atoms, t.goal, axioms, verify=verify, reserved=reserved)
    except NotEntailed as e:
        if not minimize:
            raise
        raise RuntimeError(f"kept inputs do not entail the goal: {e}") from e
    concept = untranslate(res.term, t.roles)
    if verify and minimize:
        # input k of the kept lists is premise full[k] of the full translated lists
        full = (*j.kept_a, *(len(t.a_atoms) + k for k in j.kept_b))
        res.certificates = tuple(
            (statement, [(r, x, ps, (full[d[0]],) if r == "input" else d) for r, x, ps, d in steps])
            for statement, steps in res.certificates)
    return ELInterpolation(concept=concept, justification=kept_labels, result=res)
