"""The split_onto generator: .elp ladders whose EL interpolations separate
mixed instances at shared terms. The draws must keep splitting, every
interpolant must use shared names only, and the proof kernel and its
reference must accept every certificate against the full premises."""

import random

import kernel_reference
from conftest import split_onto
from slatkit import el, interp
from slatkit.locality import NotEntailed, axiom_key
from slatkit.terms import term_constants, term_functions


def _names(gcis):
    consts, roles = set(), set()
    for gci in gcis:
        for t in (gci.lhs, gci.rhs):
            consts |= term_constants(t)
            roles |= term_functions(t)
    return consts, roles


def test_split_onto_draws_split_and_both_kernels_accept_their_certificates():
    rng = random.Random(2029)
    entailed = split = 0
    for _ in range(150):
        p = el.parse_cbox(split_onto(rng))
        try:
            r = el.el_interpolation(p)
        except NotEntailed:
            continue
        entailed += 1
        split += bool(r.result.splits)
        (names_a, roles_a), (names_b, roles_b) = _names(p.cbox_a.gcis), _names(p.cbox_b.gcis)
        t = el.translate(p)
        shared_roles = interp.theta_sharing(t.axioms, roles_a, roles_b).shared_functions
        assert term_constants(r.concept) <= names_a & names_b, el.format_concept(r.concept)
        assert term_functions(r.concept) <= shared_roles, el.format_concept(r.concept)
        assert r.result.certificates is not None
        interp.check_certificates(r.result, t.a_atoms, t.b_atoms, t.axioms)
        reference = kernel_reference.Kernel(
            (*t.a_atoms, *t.b_atoms), (), t.axioms.functions,
            {axiom_key(ax) for ax in t.axioms.axioms}, r.result.definitions)
        for statement, steps in r.result.certificates:
            reference.check(steps, statement)
    assert entailed >= 60 and split >= entailed / 2, (entailed, split)
