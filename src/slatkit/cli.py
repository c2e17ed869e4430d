"""Command line interface.

One command per process, results on stdout, errors on stderr. Exit
codes: 0 for a positive answer, 1 for a negative one, 2 for unusable
input, 3 for an engine failure such as a missing shared witness.
Output is deterministic: identical input and flags give identical bytes.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import beth, el, interp, locality
from .inputs import SlpProblem, parse_model, parse_slp
from .interp import VerificationFailed
from .locality import SCHEMA_FUNCTIONS, NotEntailed
from .slat import NoSharedWitness, check_finite_model
from .terms import App, Const, Leq, ParseError, format_atom, format_term, mk_meet, term_key

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_ENGINE = 3

_SEARCH_LIMIT = 500


class _InputError(Exception):
    pass


def _prov_label(prov) -> str:
    return f"{prov[0]}({','.join(prov[1:1 + SCHEMA_FUNCTIONS[prov[0]]])})"


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


def _pure(path: str) -> str:
    """str(PurePosixPath(path)): no empty or '.' names, so no trailing
    slash; '.' for no name at all; two leading slashes stay a root of
    their own, one or three or more become one."""
    names = "/".join(n for n in path.split("/") if n and n != ".")
    root = "//" if path[:2] == "//" and path[2:3] != "/" else "/" if path[:1] == "/" else ""
    return root + names or "."


def _suffix(path: str) -> str:
    """PurePosixPath(path).suffix: the last name from its last dot, when
    that dot neither starts nor ends the name."""
    name = _pure(path).rpartition("/")[2]
    i = name.rfind(".")
    return name[i:] if 0 < i < len(name) - 1 else ""


def _load(path: str) -> str:
    """The string Path(path).read_text(encoding="utf-8-sig") returns: the
    whole file decoded at once, a leading BOM dropped, then \r\n and \r
    read as \n, as text mode reads them."""
    try:
        with open(_pure(path), "rb") as f:
            data = f.read()
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e.strerror or e}") from e
    text = data.decode("utf-8-sig")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _infer_format(path: str, override: str | None) -> str:
    if override:
        return override
    ext = _suffix(path).lstrip(".").lower()
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
    jobj.update(entailed=True, interpolant=shown, verified=verify)
    if args.json:    # a text run prints no split records
        jobj["splits"] = [
            {
                "instance": _prov_label(s.clause.provenance),
                "premise": format_atom(s.premise),
                "t": format_term(s.t),
                "name": s.name,
                "owner": s.owner.value,
            }
            for s in splits
        ]
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
        # each kept input formatted once, for the text lines and the JSON alike
        kept = {
            "A": [format_atom(p.a_pos[i]) for i in j.kept_a],
            "A_negative": [format_atom(p.a_neg[i]) for i in j.kept_neg_a],
            "B": [format_atom(p.b_pos[i]) for i in j.kept_b],
            "B_negative": [format_atom(p.b_neg[i]) for i in j.kept_neg_b],
            "axioms": [_axiom_text(p.axioms.axioms[i]) for i in j.kept_axioms],
        }
        lines = [f"side A: {x}" for x in kept["A"]] + [f"side A: ! {x}" for x in kept["A_negative"]]
        lines += [f"side B: {x}" for x in kept["B"]] + [f"side B: ! {x}" for x in kept["B_negative"]]
        lines += [f"axiom: {ax}" for ax in kept["axioms"]]
        return EXIT_OK, lines, {"command": "justify", "kept": kept}
    p = el.parse_cbox(text)
    labels = el.justify(p)
    if labels is None:
        raise _InputError("goal is not entailed; nothing to justify")
    return EXIT_OK, list(labels), {"command": "justify", "labels": list(labels)}


def _axiom_text(ax) -> str:
    return f"{ax.keyword} {' '.join(ax.fns)}"


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
    result = beth.explicit_definition(
        p.a_pos, p.axioms, p.sigma, p.target, neg=p.a_neg, sharing=args.sharing
    )
    implicit = jobj["implicitly_defined"] = result != beth.UNDEFINED
    lines = [f"implicitly defined: {'yes' if implicit else 'no'}"]
    if not implicit:
        jobj["definition"] = None
        return EXIT_NEGATIVE, lines, jobj
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
    """Exhaustive fallback: a sigma-term up to the depth is a meet of generators, sigma's
    constants and f(m) for m of the level below. Single ones go first, then t*, the meet of
    those above the target, which defines it iff a meet does (README, "How it works")."""
    fns = sorted(set(p.sigma) & set(p.functions))
    consts = sorted(set(p.sigma) - set(p.functions))
    try:
        below = beth.enumerate_terms(fns, consts, depth - 1, limit=_SEARCH_LIMIT) if depth else []
    except ValueError:   # each level holds the one below, so this one is over the limit too
        return None, f"search skipped: more than {_SEARCH_LIMIT} terms at depth {depth}"
    target = Const(p.target)
    leq = lambda s, t: locality.entails(p.a_pos, (), Leq(s, t), p.axioms, neg_a=p.a_neg)
    above = []
    for g in sorted([*map(Const, consts), *(App(f, m) for f in fns for m in below)], key=term_key):
        if leq(target, g):
            if leq(g, target):
                return g, ""
            above.append(g)
    if len(above) > 1 and leq(mk_meet(above), target):
        return mk_meet(above), ""
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
    """The --depth value: a nonnegative int; the ValueError's message is
    the usage error argparse prints (exit 2)."""
    try:
        depth = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if depth < 0:
        raise ValueError(f"must be nonnegative, got {depth}")
    return depth


# The command line, one row per argument: its name, its values, its
# default and its help. Values are the choices, or the function that
# converts the text (raising ValueError), or None: any text for a
# positional, no value (a store_true flag) for an option.
_ARGUMENTS = (
    ("command", tuple(sorted(_COMMANDS)), None, None),
    ("input", None, None, "problem file (.slp, .elp or .model)"),
    ("--format", ("slp", "elp", "model"), None, "input format (default: by file extension)"),
    ("--json", None, False, "emit JSON instead of text"),
    ("--trace", None, False, "show fired instances and splits"),
    ("--no-verify", None, False, "skip the certificate proof check"),
    ("--depth", _depth, 3, "term depth bound for the definability search (default 3)"),
    ("--sharing", ("theta", "intersection"), "theta",
     "shared-operator policy for interpolate and beth"),
)
# option -> (its attribute, its values); attribute -> default, as argparse names them
_OPTIONS = {name: (name[2:].replace("-", "_"), values)
            for name, values, _, _ in _ARGUMENTS if name.startswith("--")}
_DEFAULTS = {name.lstrip("-").replace("-", "_"): default for name, _, default, _ in _ARGUMENTS}


def _read(argv) -> dict | None:
    """vars() of what argparse makes of argv, when every token has its
    exact spelling: the command, the input (not starting with -), then
    options, each value option followed by a value it takes (the last
    one wins). None for any other argv: help, abbreviations, --opt=value,
    options before the input, --, unknown tokens, bad values and tokens
    that are not str are read by argparse alone, which prints every
    usage, help and error text."""
    if len(argv) < 2 or not all(isinstance(a, str) for a in argv) \
            or argv[0] not in _COMMANDS or argv[1].startswith("-"):
        return None
    args = {**_DEFAULTS, "command": argv[0], "input": argv[1]}
    tokens = iter(argv[2:])
    for token in tokens:
        if token not in _OPTIONS:
            return None
        name, values = _OPTIONS[token]
        if values is None:
            args[name] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):   # argparse may read it as an option
            return None
        if callable(values):
            try:
                value = values(value)
            except ValueError:
                return None
        elif value not in values:
            return None
        args[name] = value
    return args


def _parse(argv):
    """argparse's reading of argv, from the same table; it exits 2 with a
    usage line on an error and 0 after printing help."""
    import argparse

    def checked(convert):
        def convert_or_refuse(text):
            try:
                return convert(text)
            except ValueError as e:
                raise argparse.ArgumentTypeError(str(e)) from None
        return convert_or_refuse

    ap = argparse.ArgumentParser(
        prog="slatkit",
        description="Entailment, interpolation, justification and definability "
                    "for semilattices with monotone operators and EL ontologies.",
    )
    for name, values, default, doc in _ARGUMENTS:
        if not name.startswith("-"):
            ap.add_argument(name, choices=values, help=doc)
        elif values is None:
            ap.add_argument(name, action="store_true", help=doc)
        elif callable(values):
            ap.add_argument(name, type=checked(values), default=default, help=doc)
        else:
            ap.add_argument(name, choices=values, default=default, help=doc)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    found = _read(argv)
    args = _parse(argv) if found is None else SimpleNamespace(**found)
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
