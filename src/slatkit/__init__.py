"""Semilattices with monotone operators: entailment, interpolation,
justification and definability, with an EL ontology front end."""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

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


def _lazy(name: str):
    """Register slatkit.<name> in sys.modules to run on its first attribute
    access: a .slp command compiles neither the EL front end nor
    definability, and lookups in sys.modules still find both."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


beth, el = _lazy("beth"), _lazy("el")
_LAZY = {**dict.fromkeys("Failure enumerate_terms explicit_definition is_implicitly_defined".split(), beth),
         **dict.fromkeys("And CBox ELProblem Exists GCI Name RoleComp RoleIncl el_interpolate el_subsumes"
                         " format_concept justify parse_cbox".split(), el)}


def __getattr__(name: str):
    """el's and beth's public names, loading their module (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_LAZY[name], name)


def __dir__():
    return sorted({*globals(), *_LAZY})


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
