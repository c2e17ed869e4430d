"""Definability of a constant relative to a subsignature.

A constant a is implicitly defined by a subsignature when any two models
of the axioms agreeing on the subsignature agree on a. Checked by
doubling: rename every symbol outside the subsignature to a primed copy
and ask whether the two copies force a = a'. An explicit defining term
is then extracted by interpolating between the copies and verified.
"""

from __future__ import annotations

from itertools import combinations

from . import interp, locality
from .interp import VerificationFailed
from .locality import AxiomSet, Composition, Inclusion
from .slat import NoSharedWitness
from .terms import (
    App,
    Atom,
    Const,
    Frozen,
    Leq,
    Term,
    atom_constants,
    atom_functions,
    format_term,
    mk_meet,
    term_key,
)


class Failure(Frozen):
    """No explicit definition was produced; reason says why."""

    reason: str

    def __bool__(self) -> bool:
        return False


class DoubledProblem(Frozen):
    """Original atoms beside a primed copy sharing only the subsignature."""

    atoms: tuple[Atom, ...]
    neg: tuple[Atom, ...]
    renamed_atoms: tuple[Atom, ...]
    renamed_neg: tuple[Atom, ...]
    axioms: AxiomSet
    sigma: frozenset[str]
    target: str
    target_prime: str
    rename: dict[str, str]


def _rename_term(t: Term, rename: dict[str, str]) -> Term:
    if isinstance(t, Const):
        return Const(rename.get(t.name, t.name))
    if isinstance(t, App):
        return App(rename.get(t.fn, t.fn), _rename_term(t.arg, rename))
    return mk_meet(_rename_term(x, rename) for x in t.args)


def _rename_atom(a: Atom, rename: dict[str, str]) -> Atom:
    return type(a)(_rename_term(a.lhs, rename), _rename_term(a.rhs, rename))


def double(a_atoms, axioms: AxiomSet, sigma, target: str, *, neg=()) -> DoubledProblem:
    """Build the doubled problem; symbols in sigma keep their names."""
    atoms, neg = tuple(a_atoms), tuple(neg)
    sigma = frozenset(sigma)
    occurring: set[str] = set(axioms.functions)
    consts: set[str] = set()
    for x in (*atoms, *neg):
        occurring |= atom_constants(x) | atom_functions(x)
        consts |= atom_constants(x)
    if target not in consts:
        raise ValueError(f"target constant {target} does not occur in the atoms")
    taken = occurring | sigma
    rename: dict[str, str] = {}
    for s in sorted(occurring):
        if s in sigma:
            rename[s] = s
            continue
        p = s + "'"
        while p in taken:
            p += "'"
        taken.add(p)
        rename[s] = p
    fns = list(axioms.functions)
    for f in axioms.functions:
        if rename[f] != f:
            fns.append(rename[f])
    doubled: list = list(axioms.axioms)
    for ax in axioms.axioms:
        if isinstance(ax, Inclusion):
            ax2 = Inclusion(rename[ax.f], rename[ax.g])
        else:
            ax2 = Composition(rename[ax.f], rename[ax.g], rename[ax.h])
        if ax2 not in doubled:
            doubled.append(ax2)
    return DoubledProblem(
        atoms=atoms,
        neg=neg,
        renamed_atoms=tuple(_rename_atom(x, rename) for x in atoms),
        renamed_neg=tuple(_rename_atom(x, rename) for x in neg),
        axioms=AxiomSet(tuple(fns), tuple(doubled)),
        sigma=sigma,
        target=target,
        target_prime=rename[target],
        rename=rename,
    )


def is_implicitly_defined(a_atoms, axioms: AxiomSet, sigma, target: str, *, neg=()) -> bool:
    """True iff the atoms pin target down relative to the subsignature."""
    return _defined(double(a_atoms, axioms, sigma, target, neg=neg))


def _defined(d: DoubledProblem) -> bool:
    """Whether the doubled premises entail target <= target'.

    Swapping every symbol with its primed copy maps the doubled premises
    onto themselves and this goal onto target' <= target, so that
    direction follows too and is not decided.
    """
    return d.target_prime == d.target or locality.entails(
        d.atoms, d.renamed_atoms, Leq(Const(d.target), Const(d.target_prime)), d.axioms,
        neg_a=d.neg, neg_b=d.renamed_neg,
    )


def _unprime(t: Term, rename: dict[str, str]) -> Term:
    inverse = {v: k for k, v in rename.items() if v != k}
    return _rename_term(t, inverse)


def explicit_definition(a_atoms, axioms: AxiomSet, sigma, target: str, *,
                        neg=(), sharing: str = "theta") -> Term | Failure:
    """Extract a defining term over the subsignature, or say why not.

    Interpolates target <= target' across the doubled problem, maps any
    primed symbols back, and verifies both directions of the definition
    in the single theory. sharing picks the operator-sharing notion for
    the interpolation: "theta" (co-occurrence closure, the notion the
    existence theorem needs) or "intersection" (strictly two-sided
    occurrence, which may fail).
    """
    if sharing not in ("theta", "intersection"):
        raise ValueError(f"unknown sharing mode {sharing!r}")
    d = double(a_atoms, axioms, sigma, target, neg=neg)
    if d.target_prime == d.target:
        return Const(target)
    if not _defined(d):
        return Failure("target is not implicitly defined by the subsignature")
    try:
        res = interp.interpolate(
            d.atoms, d.renamed_atoms,
            Leq(Const(d.target), Const(d.target_prime)),
            d.axioms, neg_a=d.neg, neg_b=d.renamed_neg,
            intersection=(sharing == "intersection"),
        )
    except NoSharedWitness as e:
        return Failure(f"no shared defining term found: {e}")
    except VerificationFailed as e:
        return Failure(str(e))
    t = _unprime(res.term, d.rename)
    ok_up = locality.entails(d.atoms, (), Leq(Const(target), t), axioms, neg_a=d.neg)
    ok_dn = locality.entails(d.atoms, (), Leq(t, Const(target)), axioms, neg_a=d.neg)
    if not (ok_up and ok_dn):
        return Failure(
            f"candidate {format_term(t)} does not define {target} in the theory"
        )
    return t


def enumerate_terms(functions, constants, depth: int, *, limit: int = 200000) -> list[Term]:
    """All ground terms over the signature up to an application depth.

    Modulo ACI: each level is every meet of a nonempty subset of the
    constants and the applications built on the previous level. Term
    counts grow doubly exponentially; the limit guards against runaway
    signatures.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    functions = sorted(functions)
    consts = [Const(c) for c in sorted(set(constants))]
    pool: list[Term] = list(consts)
    level: list[Term] = []
    for k in range(depth + 1):
        if 2 ** len(pool) - 1 > limit:
            raise ValueError(f"term enumeration exceeds limit of {limit}")
        # pool items are never meets, so term_key orders the meets of the
        # sorted pool like their index tuples, after the single terms
        pool.sort(key=term_key)
        combos = sorted(
            (c for r in range(1, len(pool) + 1) for c in combinations(range(len(pool)), r)),
            key=lambda c: (len(c) > 1, c),
        )
        level = [mk_meet(pool[i] for i in c) for c in combos]
        if k < depth:
            pool = consts + [App(f, t) for f in functions for t in level]
    return level
