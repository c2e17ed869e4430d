"""Command line interface.

One command per process, results on stdout, errors on stderr. Exit
codes: 0 for a positive answer, 1 for a negative one, 2 for unusable
input, 3 for an engine failure such as a missing shared witness.
Output is deterministic: identical input and flags give identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import beth, el, interp, locality
from .inputs import SlpProblem, parse_model, parse_slp
from .interp import VerificationFailed
from .locality import Inclusion, NotEntailed
from .slat import NoSharedWitness, check_finite_model
from .terms import Const, Leq, ParseError, format_atom, format_term

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_ENGINE = 3

_SEARCH_LIMIT = 500


class _InputError(Exception):
    pass


def _prov_label(prov) -> str:
    kind = prov[0]
    if kind == "mon":
        return f"mon({prov[1]})"
    if kind == "incl":
        return f"incl({prov[1]},{prov[2]})"
    return f"comp({prov[1]},{prov[2]},{prov[3]})"


def _clause_line(cl) -> str:
    prem = " & ".join(format_atom(p) for p in cl.premises) or "true"
    return f"fire {_prov_label(cl.provenance)}: {prem} -> {format_atom(cl.conclusion)}"


def _split_line(s: interp.Split) -> str:
    return (
        f"split {_prov_label(s.clause.provenance)} {format_atom(s.premise)}:"
        f" t = {format_term(s.t)}, name {s.name}, owner {s.owner.value}"
    )


def _slp_goal(p: SlpProblem):
    if p.goal is None:
        raise _InputError("file has no goal line")
    return p.goal


def _load(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e.strerror or e}") from e


def _infer_format(path: str, override: str | None) -> str:
    if override:
        return override
    ext = Path(path).suffix.lstrip(".").lower()
    if ext in ("slp", "elp", "model"):
        return ext
    raise _InputError(
        f"cannot infer format from {path!r}; pass --format slp|elp|model"
    )


def _want(fmt: str, allowed: tuple[str, ...], command: str) -> None:
    if fmt not in allowed:
        raise _InputError(
            f"{command} expects {' or '.join('.' + a for a in allowed)} input, got .{fmt}"
        )


# ---------------------------------------------------------------------------
# commands

def _cmd_check(args, fmt: str, text: str):
    if fmt == "slp":
        p = parse_slp(text)
        problem = locality.prepare_problem(
            p.a_pos, p.b_pos, _slp_goal(p), p.axioms, neg_a=p.a_neg, neg_b=p.b_neg
        )
    else:
        t = el.translate(el.parse_cbox(text))
        problem = locality.prepare_problem(t.a_atoms, t.b_atoms, t.goal, t.axioms)
    entailed, trace = locality.decide(problem)
    trace_lines: list[str] = []
    if args.trace:
        trace_lines = [_clause_line(cl) for cl in trace.fired]
        trace_lines.append(f"passes: {trace.passes}")
        if trace.inconsistent is not None:
            trace_lines.append(f"inconsistent: {format_atom(trace.inconsistent)} holds")
    lines = [*trace_lines, "ENTAILED" if entailed else "NOT-ENTAILED"]
    jobj = {"command": "check", "entailed": entailed}
    if args.trace:
        jobj["trace"] = trace_lines
    return (EXIT_OK if entailed else EXIT_NEGATIVE), lines, jobj


def _cmd_interpolate(args, fmt: str, text: str):
    verify = not args.no_verify
    intersection = args.sharing == "intersection"
    jobj: dict = {"command": "interpolate"}
    lines: list[str] = []
    try:
        if fmt == "slp":
            p = parse_slp(text)
            goal = _slp_goal(p)
            res = interp.interpolate(
                p.a_pos, p.b_pos, goal, p.axioms,
                neg_a=p.a_neg, neg_b=p.b_neg,
                verify=verify, intersection=intersection,
            )
            shown = format_term(res.term)
            cert = [
                f"certificate A: {format_atom(Leq(goal.lhs, res.term))}",
                f"certificate B: {format_atom(Leq(res.term, goal.rhs))}",
            ]
            splits = res.splits
        else:
            p = el.parse_cbox(text)
            r = el.el_interpolation(p, verify=verify)
            shown = el.format_concept(r.concept)
            cert = [
                f"certificate A: {el.format_concept(p.goal_c)} <= {shown}",
                f"certificate B: {shown} <= {el.format_concept(p.goal_d)}",
            ]
            splits = r.result.splits
            if r.justification is not None:
                jobj["justification"] = list(r.justification)
    except NotEntailed:
        jobj["entailed"] = False
        return EXIT_NEGATIVE, ["NOT-ENTAILED"], jobj
    if args.trace:
        fired = res.fired if fmt == "slp" else r.result.fired
        lines += [_clause_line(cl) for cl in fired]
        lines += [_split_line(s) for s in splits]
        jobj["trace"] = list(lines)
    lines.append(f"interpolant: {shown}")
    lines += cert
    lines.append("verified" if verify else "not verified (--no-verify)")
    jobj.update(
        entailed=True,
        interpolant=shown,
        verified=verify,
        splits=[
            {
                "instance": _prov_label(s.clause.provenance),
                "premise": format_atom(s.premise),
                "t": format_term(s.t),
                "name": s.name,
                "owner": s.owner.value,
            }
            for s in splits
        ],
    )
    return EXIT_OK, lines, jobj


def _cmd_justify(args, fmt: str, text: str):
    if fmt == "slp":
        p = parse_slp(text)
        try:
            j = locality.minimize_axioms(
                p.a_pos, p.b_pos, _slp_goal(p), p.axioms,
                neg_a=p.a_neg, neg_b=p.b_neg,
            )
        except NotEntailed:
            raise _InputError("goal is not entailed; nothing to justify")
        lines = [f"side A: {format_atom(p.a_pos[i])}" for i in j.kept_a]
        lines += [f"side A: ! {format_atom(p.a_neg[i])}" for i in j.kept_neg_a]
        lines += [f"side B: {format_atom(p.b_pos[i])}" for i in j.kept_b]
        lines += [f"side B: ! {format_atom(p.b_neg[i])}" for i in j.kept_neg_b]
        axioms = [_axiom_text(p.axioms.axioms[i]) for i in j.kept_axioms]
        lines += [f"axiom: {ax}" for ax in axioms]
        jobj = {
            "command": "justify",
            "kept": {
                "A": [format_atom(p.a_pos[i]) for i in j.kept_a],
                "A_negative": [format_atom(p.a_neg[i]) for i in j.kept_neg_a],
                "B": [format_atom(p.b_pos[i]) for i in j.kept_b],
                "B_negative": [format_atom(p.b_neg[i]) for i in j.kept_neg_b],
                "axioms": axioms,
            },
        }
        return EXIT_OK, lines, jobj
    p = el.parse_cbox(text)
    labels = el.justify(p)
    if labels is None:
        raise _InputError("goal is not entailed; nothing to justify")
    return EXIT_OK, list(labels), {"command": "justify", "labels": list(labels)}


def _axiom_text(ax) -> str:
    if isinstance(ax, Inclusion):
        return f"inclusion {ax.f} {ax.g}"
    return f"composition {ax.f} {ax.g} {ax.h}"


def _cmd_beth(args, fmt: str, text: str):
    p = parse_slp(text)
    if p.target is None:
        raise _InputError("beth needs a 'target c' line")
    if p.sigma is None:
        raise _InputError("beth needs a 'sigma s1 s2 ...' line")
    jobj: dict = {
        "command": "beth",
        "target": p.target,
        "sigma": list(p.sigma),
        "sharing": args.sharing,
    }
    implicit = beth.is_implicitly_defined(
        p.a_pos, p.axioms, p.sigma, p.target, neg=p.a_neg
    )
    jobj["implicitly_defined"] = implicit
    lines = [f"implicitly defined: {'yes' if implicit else 'no'}"]
    if not implicit:
        jobj["definition"] = None
        return EXIT_NEGATIVE, lines, jobj
    result = beth.explicit_definition(
        p.a_pos, p.axioms, p.sigma, p.target, neg=p.a_neg, sharing=args.sharing
    )
    if isinstance(result, beth.Failure):
        found, note = _search_definition(p, args.depth)
        if found is not None:
            lines.append(f"definition: {format_term(found)} (found by search, depth {args.depth})")
            jobj["definition"] = format_term(found)
            jobj["found_by"] = "search"
            return EXIT_OK, lines, jobj
        lines.append(f"definition: none ({result.reason}; {note})")
        jobj["definition"] = None
        jobj["reason"] = f"{result.reason}; {note}"
        return EXIT_NEGATIVE, lines, jobj
    lines.append(f"definition: {format_term(result)}")
    jobj["definition"] = format_term(result)
    return EXIT_OK, lines, jobj


def _search_definition(p: SlpProblem, depth: int):
    """Exhaustive fallback: test every sigma-term up to the depth bound."""
    sigma = set(p.sigma)
    fns = sorted(sigma & set(p.functions))
    consts = sorted(sigma - set(p.functions))
    try:
        candidates = beth.enumerate_terms(fns, consts, depth, limit=_SEARCH_LIMIT)
    except ValueError:
        return None, f"search skipped: more than {_SEARCH_LIMIT} terms at depth {depth}"
    target = Const(p.target)
    for t in candidates:
        if locality.entails(p.a_pos, (), Leq(target, t), p.axioms, neg_a=p.a_neg) and \
           locality.entails(p.a_pos, (), Leq(t, target), p.axioms, neg_a=p.a_neg):
            return t, ""
    return None, f"no defining term up to depth {depth}"


def _cmd_model_check(args, fmt: str, text: str):
    spec = parse_model(text)
    checks = check_finite_model(
        spec.model,
        inclusions=spec.inclusions,
        compositions=spec.compositions,
        atoms=spec.atoms,
    )
    width = max(len(c.law) for c in checks)
    lines = []
    for c in checks:
        mark = "pass" if c.passed else "FAIL"
        suffix = f"  {c.detail}" if c.detail else ""
        lines.append(f"{c.law.ljust(width)}  {mark}{suffix}")
    failed = [c for c in checks if not c.passed]
    if failed:
        lines.append(f"{len(failed)} of {len(checks)} checks failed")
    else:
        lines.append(f"all laws pass ({len(checks)} checks)")
    jobj = {
        "command": "model-check",
        "checks": [
            {"law": c.law, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "all_passed": not failed,
    }
    return (EXIT_NEGATIVE if failed else EXIT_OK), lines, jobj


_COMMANDS = {
    "check": (_cmd_check, ("slp", "elp")),
    "interpolate": (_cmd_interpolate, ("slp", "elp")),
    "justify": (_cmd_justify, ("slp", "elp")),
    "beth": (_cmd_beth, ("slp",)),
    "model-check": (_cmd_model_check, ("model",)),
}


def _depth(text: str) -> int:
    """The --depth value: a nonnegative int, else a usage error (exit 2)."""
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if depth < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {depth}")
    return depth


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slatkit",
        description="Entailment, interpolation, justification and definability "
                    "for semilattices with monotone operators and EL ontologies.",
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("input", help="problem file (.slp, .elp or .model)")
    ap.add_argument("--format", choices=("slp", "elp", "model"),
                    help="input format (default: by file extension)")
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    ap.add_argument("--trace", action="store_true",
                    help="show fired instances and splits")
    ap.add_argument("--no-verify", action="store_true",
                    help="skip the certificate proof check")
    ap.add_argument("--depth", type=_depth, default=3,
                    help="term depth bound for the definability search (default 3)")
    ap.add_argument("--sharing", choices=("theta", "intersection"), default="theta",
                    help="shared-operator policy for interpolate and beth")
    return ap


# built once per process: building it costs over ten times what parsing
# one command line does, and in-process callers run main many times
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        fmt = _infer_format(args.input, args.format)
        run, allowed = _COMMANDS[args.command]
        _want(fmt, allowed, args.command)
        text = _load(args.input)
        code, lines, jobj = run(args, fmt, text)
    except (_InputError, ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (NoSharedWitness, VerificationFailed, RuntimeError) as e:
        print(f"engine error: {e}", file=sys.stderr)
        return EXIT_ENGINE
    if args.json:
        import json   # here, not at the top: only --json output pays its import

        jobj["input"] = args.input
        jobj["format"] = fmt
        print(json.dumps(jobj, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
