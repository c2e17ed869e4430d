"""Semilattices with monotone operators: entailment, interpolation,
justification and definability, with an EL ontology front end."""

from .beth import (
    Failure,
    enumerate_terms,
    explicit_definition,
    is_implicitly_defined,
)
from .el import (
    And,
    CBox,
    ELProblem,
    Exists,
    GCI,
    Name,
    RoleComp,
    RoleIncl,
    el_interpolate,
    el_subsumes,
    format_concept,
    justify,
    parse_cbox,
)
from .interp import InterpolationResult, VerificationFailed, interpolate
from .inputs import parse_model, parse_slp
from .locality import (
    AxiomSet,
    Composition,
    Inclusion,
    NotEntailed,
    decide,
    entails,
    minimize_axioms,
    prepare_problem,
    psi_closure,
)
from .slat import (
    FiniteModel,
    NoSharedWitness,
    check_finite_model,
    entails_atom,
    intermediate_term,
)
from .terms import (
    App,
    Atom,
    Const,
    Eq,
    Leq,
    Meet,
    ParseError,
    Term,
    format_atom,
    format_term,
    mk_meet,
    parse_atom,
    parse_term,
)

__version__ = "0.1.0"

__all__ = [
    "And", "App", "Atom", "AxiomSet", "CBox", "Composition", "Const",
    "ELProblem", "Eq", "Exists", "Failure", "FiniteModel", "GCI",
    "Inclusion", "InterpolationResult", "Leq", "Meet", "Name",
    "NoSharedWitness", "NotEntailed", "ParseError", "RoleComp", "RoleIncl",
    "Term", "VerificationFailed", "check_finite_model",
    "decide", "el_interpolate", "el_subsumes", "entails", "entails_atom",
    "enumerate_terms", "explicit_definition", "format_atom", "format_concept",
    "format_term", "interpolate", "intermediate_term", "is_implicitly_defined",
    "justify", "minimize_axioms", "mk_meet", "parse_atom", "parse_cbox",
    "parse_model", "parse_slp", "parse_term", "prepare_problem", "psi_closure",
]
