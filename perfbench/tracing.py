"""Per-layer tracing from outside the program.

`install` replaces the public functions of each slatkit module (the
layers) with timing wrappers, in every slatkit module namespace that
binds them: cli imports parse_slp by name, locality calls its own
functions through module globals, and Entailer's methods live on the
class. Every wrapped call records a span (name, start, end, parent span,
command id); a command's spans are folded into totals when it ends, which
is where self times (duration minus the time covered by child spans) are
computed. Counts come from arguments and return values and are exact, so
two traced runs of one seed must agree on them.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, function, span name); Entailer.__init__ and Entailer.holds are
# wrapped on the class by `install`
SPANS = [
    ("cli", "main", "cli.main"),
    ("inputs", "parse_slp", "inputs.parse_slp"),
    ("el", "parse_cbox", "el.parse_cbox"),
    ("el", "translate", "el.translate"),
    ("el", "el_subsumes", "el.el_subsumes"),
    ("locality", "flatten_purify", "locality.flatten_purify"),
    ("locality", "psi_closure", "locality.psi_closure"),
    ("locality", "instantiate", "locality.instantiate"),
    ("locality", "prepare_problem", "locality.prepare_problem"),
    ("locality", "decide", "locality.decide"),
    ("locality", "entails", "locality.entails"),
    ("locality", "minimize_axioms", "locality.minimize_axioms"),
    ("slat", "encode", "slat.encode"),
    ("slat", "propagate", "slat.propagate"),
    ("slat", "intermediate_term", "slat.intermediate_term"),
    ("interp", "interpolate", "interp.interpolate"),
    ("beth", "is_implicitly_defined", "beth.is_implicitly_defined"),
    ("beth", "explicit_definition", "beth.explicit_definition"),
]

# per-layer metric -> (unit, end-to-end metrics it should move, on which workloads)
LAYER_MAP = {
    "slat.encode_ms": ("ms", "check/interpolate/justify_p50_ms on ladder"),
    "slat.entailer_builds": ("count", "check/interpolate/justify_p50_ms on ladder"),
    "slat.holds_calls": ("count", "check/interpolate/justify_p50_ms on ladder"),
    "slat.propagate_calls": ("count", "check/interpolate/justify_p50_ms on ladder"),
    "slat.propagate_ms": ("ms", "check/interpolate/justify_p50_ms on ladder"),
    "locality.passes": ("count", "check/interpolate/justify_p50_ms on ladder"),
    "locality.fired": ("count", "check/interpolate/justify_p50_ms on ladder"),
    "locality.fire_ratio": ("ratio", "check/interpolate/justify_p50_ms on ladder"),
    "locality.minimize_decides": ("count", "justify/interpolate_p50_ms on ontology"),
    "locality.minimize_drop_ratio": ("ratio", "justify/interpolate_p50_ms on ontology"),
    "locality.minimize_ms": ("ms", "justify/interpolate_p50_ms on ontology"),
    "locality.purify_ms": ("ms", "check_p50_ms on mixed and ontology"),
    "locality.closure_ms": ("ms", "check_p50_ms on mixed and ontology"),
    "locality.instantiate_ms": ("ms", "check_p50_ms on mixed and ontology"),
    "locality.instances": ("count", "check_p50_ms on mixed and ontology"),
    "locality.instances_mon": ("count", "check_p50_ms on mixed and ontology"),
    "locality.instances_incl": ("count", "check_p50_ms on mixed and ontology"),
    "locality.instances_comp": ("count", "check_p50_ms on mixed and ontology"),
    "interp.self_ms": ("ms", "interpolate_p50_ms on ladder and mixed"),
    "interp.verify_ms": ("ms", "interpolate_p50_ms on ladder and mixed"),
    "interp.splits": ("count", "interpolate_p50_ms on ladder and mixed"),
    "slat.intermediate_ms": ("ms", "interpolate_p50_ms on ladder and mixed"),
    "beth.implicit_ms": ("ms", "beth_p50_ms/beth_p90_ms on mixed"),
    "beth.explicit_ms": ("ms", "beth_p50_ms/beth_p90_ms on mixed"),
    "beth.entails_calls": ("count", "beth_p50_ms/beth_p90_ms on mixed"),
    "inputs.parse_ms": ("ms", "check_p50_ms on mixed"),
    "el.parse_ms": ("ms", "check_p50_ms on ontology"),
    "el.translate_ms": ("ms", "check_p50_ms on ontology"),
    "cli.self_ms": ("ms", "check_p50_ms on mixed"),
    "trace.overhead_ratio": ("ratio", "none: untraced ops_per_s / traced ops_per_s - 1"),
    "trace.count_mismatches": ("count", "none: counters differing between passes or a replay"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, command id]
        self.open: list[int] = []
        self.command = 0
        self.decide_problems: list = []
        self.counts: Counter = Counter()
        self.ms: Counter = Counter()

    def wrap(self, name: str, fn, on_return=None):
        spans, open_ = self.spans, self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1, self.command])
            open_.append(idx)
            spans[idx][1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                open_.pop()
            if on_return is not None:
                on_return(result, spans[idx][3])
            return result

        return wrapper

    def _in(self, name: str, parent: int) -> bool:
        return parent >= 0 and self.spans[parent][0] == name

    # count hooks ---------------------------------------------------------

    def _decided(self, result, parent):
        _, trace = result
        self.counts["locality.passes"] += trace.passes
        self.counts["locality.fired"] += len(trace.fired)

    def _instantiated(self, clauses, parent):
        self.counts["locality.instances"] += len(clauses)
        for cl in clauses:
            self.counts["locality.instances_" + cl.provenance[0]] += 1

    def _interpolated(self, result, parent):
        self.counts["interp.splits"] += len(result.splits)

    def _entailed(self, result, parent):
        if self._in("locality.minimize_axioms", parent):
            self.counts["minimize.decides"] += 1
            self.counts["minimize.entailed"] += bool(result)

    def _holds(self, atom):
        self.counts["slat.holds_calls"] += 1
        if self.open and self.spans[self.open[-1]][0] == "locality.decide":
            problem = self.decide_problems[-1]
            if atom is not problem.goal and not any(
                    atom is n for n in (*problem.neg_a, *problem.neg_b)):
                self.counts["locality.premise_checks"] += 1

    # command boundary ----------------------------------------------------

    def end_command(self, kind: str) -> None:
        """Fold the finished command's spans into the totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        certified: set[int] = set()
        for i, (name, start, end, parent, _) in enumerate(spans):
            d = (end - start) * 1000
            self.counts["calls." + name] += 1
            self.ms[name] += d
            self.ms[name + ".self"] += d - child[i] * 1000
            # certificate re-checks: an interpolation's decides and every
            # preparation after its first; EL re-checks go through el_subsumes
            if name == "el.el_subsumes":
                self.ms["verify"] += d
            elif self._in("interp.interpolate", parent) and name in (
                    "locality.prepare_problem", "locality.decide"):
                if name == "locality.decide" or parent in certified:
                    self.ms["verify"] += d
                certified.add(parent)
        if kind == "beth":
            self.counts["beth.commands"] += 1
            self.counts["beth.entails_calls"] += sum(s[0] == "locality.entails" for s in spans)
        self.counts["commands"] += 1
        spans.clear()

    def layer_metrics(self, overhead: float, mismatches: int) -> dict[str, float]:
        c, ms = self.counts, self.ms
        n = max(c["commands"], 1)

        def ratio(a, b):
            return a / b if b else 0.0

        minimize = c["calls.locality.minimize_axioms"]
        tries = c["minimize.decides"] - minimize      # the first decide is the check
        return {
            "slat.encode_ms": ms["slat.encode"] / n,
            "slat.entailer_builds": c["calls.slat.Entailer"] / n,
            "slat.holds_calls": c["slat.holds_calls"] / n,
            "slat.propagate_calls": c["calls.slat.propagate"] / n,
            "slat.propagate_ms": ms["slat.propagate"] / n,
            "locality.passes": c["locality.passes"] / n,
            "locality.fired": c["locality.fired"] / n,
            "locality.fire_ratio": ratio(c["locality.fired"], c["locality.premise_checks"]),
            "locality.minimize_decides": ratio(c["minimize.decides"], minimize),
            "locality.minimize_drop_ratio": ratio(c["minimize.entailed"] - minimize, tries),
            "locality.minimize_ms": ms["locality.minimize_axioms"] / n,
            "locality.purify_ms": ms["locality.flatten_purify"] / n,
            "locality.closure_ms": ms["locality.psi_closure"] / n,
            "locality.instantiate_ms": ms["locality.instantiate.self"] / n,
            "locality.instances": c["locality.instances"] / n,
            "locality.instances_mon": c["locality.instances_mon"] / n,
            "locality.instances_incl": c["locality.instances_incl"] / n,
            "locality.instances_comp": c["locality.instances_comp"] / n,
            "interp.self_ms": ms["interp.interpolate.self"] / n,
            "interp.verify_ms": ms["verify"] / n,
            "interp.splits": c["interp.splits"] / n,
            "slat.intermediate_ms": ms["slat.intermediate_term"] / n,
            "beth.implicit_ms": ms["beth.is_implicitly_defined"] / n,
            "beth.explicit_ms": ms["beth.explicit_definition"] / n,
            "beth.entails_calls": ratio(c["beth.entails_calls"], c["beth.commands"]),
            "inputs.parse_ms": ms["inputs.parse_slp"] / n,
            "el.parse_ms": ms["el.parse_cbox"] / n,
            "el.translate_ms": ms["el.translate"] / n,
            "cli.self_ms": ms["cli.main.self"] / n,
            "trace.overhead_ratio": overhead,
            "trace.count_mismatches": mismatches,
        }


def install(tracer: Tracer) -> None:
    """Wrap the layers of the imported slatkit package in place."""
    mods = {name: sys.modules[f"slatkit.{name}"]
            for name in ("cli", "inputs", "el", "locality", "slat", "interp", "beth")}
    hooks = {
        "locality.decide": tracer._decided,
        "locality.instantiate": tracer._instantiated,
        "interp.interpolate": tracer._interpolated,
        "locality.entails": tracer._entailed,
    }
    namespaces = [vars(m) for name, m in sys.modules.items()
                  if name == "slatkit" or name.startswith("slatkit.")]
    for mod, attr, span in SPANS:
        orig = getattr(mods[mod], attr)
        wrapped = tracer.wrap(span, orig, hooks.get(span))
        if span == "locality.decide":
            wrapped = _with_problem(tracer, wrapped)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is orig:
                    ns[key] = wrapped
    entailer = mods["slat"].Entailer
    entailer.__init__ = tracer.wrap("slat.Entailer", entailer.__init__)
    holds = entailer.holds

    @functools.wraps(holds)
    def counted_holds(self, atom):
        tracer._holds(atom)
        return holds(self, atom)

    entailer.holds = counted_holds


def _with_problem(tracer: Tracer, decide):
    @functools.wraps(decide)
    def wrapper(problem):
        tracer.decide_problems.append(problem)
        try:
            return decide(problem)
        finally:
            tracer.decide_problems.pop()

    return wrapper
