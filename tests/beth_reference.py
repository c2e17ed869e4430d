# explicit_definition as it was before one interpolation decided, extracted
# and proved the definition: a verbatim copy of that function of
# slatkit/beth.py, with _defined and _unprime, the helpers it called, and
# only its imports made absolute. It decided definability before
# interpolating, and re-decided both directions of the unprimed term with
# locality.entails. test_beth_differential.py checks that slatkit's
# explicit_definition returns the same term, the same Failure or raises
# the same exception.

from slatkit import interp, locality
from slatkit.beth import DoubledProblem, Failure, _rename_term, double
from slatkit.interp import VerificationFailed
from slatkit.locality import AxiomSet
from slatkit.slat import NoSharedWitness
from slatkit.terms import Const, Leq, Term, format_term


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
