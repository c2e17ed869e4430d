"""The slatkit functions the traced benchmark wraps by name still exist.

perfbench/tracing.py wraps every (module, function) of its SPANS list,
Entailer.__init__ and Entailer.holds on the class, and reads passes and
fired off the Trace that locality.decide returns. A renamed or removed
target would only fail a traced benchmark run; this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

from slatkit import locality, slat
from slatkit.terms import parse_atom

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists_and_is_callable():
    spans = load_tracing().SPANS
    assert spans
    for mod, attr, span in spans:
        target = getattr(importlib.import_module(f"slatkit.{mod}"), attr, None)
        assert callable(target), span
    for attr in ("__init__", "holds"):
        assert callable(vars(slat.Entailer).get(attr)), f"slat.Entailer.{attr}"


def test_decide_returns_the_trace_the_tracer_reads():
    problem = locality.prepare_problem([parse_atom("a <= b")], [parse_atom("f(b) <= c")],
                                       parse_atom("f(a) <= c"), locality.AxiomSet(("f",)))
    result, trace = locality.decide(problem)
    assert result is True
    assert (trace.passes, len(trace.fired)) == (1, 1)
