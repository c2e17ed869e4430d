"""The package namespace: every public name resolves from slatkit itself,
including the names of slatkit.el and slatkit.beth, which the package
serves through its module __getattr__ and __dir__ (PEP 562) so that
importing it runs neither module."""

import importlib

import pytest

import slatkit

DEFINED_IN = {
    "beth": "Failure enumerate_terms explicit_definition is_implicitly_defined",
    "el": "And CBox ELProblem Exists GCI Name RoleComp RoleIncl el_interpolate "
          "el_subsumes format_concept justify parse_cbox",
    "inputs": "parse_model parse_slp",
    "interp": "InterpolationResult VerificationFailed interpolate",
    "locality": "AxiomSet Composition Inclusion NotEntailed decide entails "
                "minimize_axioms prepare_problem psi_closure",
    "slat": "FiniteModel NoSharedWitness check_finite_model entails_atom intermediate_term",
    "terms": "App Atom Const Eq Leq Meet ParseError Term format_atom format_term "
             "mk_meet parse_atom parse_term",
}
HOME = {name: module for module, names in DEFINED_IN.items() for name in names.split()}


def test_the_table_lists_every_public_name_once():
    assert sorted(HOME) == sorted(slatkit.__all__)
    assert sum(len(names.split()) for names in DEFINED_IN.values()) == len(HOME)


def test_every_public_name_is_the_object_its_module_binds():
    modules = {m: importlib.import_module(f"slatkit.{m}") for m in DEFINED_IN}
    assert [name for name, m in HOME.items()
            if getattr(slatkit, name) is not getattr(modules[m], name)] == []


def test_dir_lists_every_public_name():
    assert set(slatkit.__all__) <= set(dir(slatkit))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from slatkit import *", namespace)
    assert {name: namespace[name] for name in slatkit.__all__} == \
        {name: getattr(slatkit, name) for name in slatkit.__all__}


def test_an_unknown_name_raises_the_usual_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'slatkit' has no attribute 'no_such_name'$"):
        slatkit.no_such_name
    assert not hasattr(slatkit, "explicit_definitions")
