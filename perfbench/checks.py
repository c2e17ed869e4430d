"""Output checker, run outside the timed region.

Each command's exit code and stdout are compared with the answer its
input was built to have; --json output is validated against the CLI's
published schema; the shipped examples are compared byte for byte with
their goldens. A command that ran before must reproduce its first
output exactly, so the full check runs once per distinct command.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import jsonschema

from workloads import Command

_IDENT = re.compile(r"[^\s&().=!,<]+(\()?")


def term_symbols(text: str) -> tuple[set[str], set[str]]:
    """Constants and function names in a printed term."""
    consts, fns = set(), set()
    for m in _IDENT.finditer(text):
        (fns if m.group(1) else consts).add(m.group(0).rstrip("("))
    return consts, fns


def _is_subsequence(lines: list[str], universe: tuple[str, ...]) -> bool:
    it = iter(universe)
    return all(any(x == y for y in it) for x in lines)


class Checker:
    def __init__(self, root: Path):
        schema = json.loads((root / "src" / "slatkit" / "cli_schema.json").read_text("utf-8"))
        self.validator = jsonschema.Draft7Validator(schema)
        self.golden_dir = root / "tests" / "data" / "golden"
        self.first: dict[tuple[str, ...], tuple[int, str, str]] = {}

    def __call__(self, cmd: Command, code, out: str, err: str) -> str | None:
        """None when the run is correct, else what is wrong with it."""
        seen = self.first.get(cmd.argv)
        if seen is not None:
            return None if seen == (code, out, err) else "output differs from its first run"
        problem = self._check(cmd, code, out, err)
        if problem is None:
            self.first[cmd.argv] = (code, out, err)
        return problem

    def _check(self, cmd: Command, code, out: str, err: str) -> str | None:
        e = cmd.expect
        if code != e.code:
            return f"exit {code}, expected {e.code}: {err.strip()[:200]}"
        if err:
            return f"unexpected stderr: {err.strip()[:200]}"
        if e.golden is not None:
            golden = (self.golden_dir / e.golden).read_text("utf-8")
            if out != golden:
                return f"differs from golden {e.golden}"
        if cmd.json:
            try:
                doc = json.loads(out)
            except json.JSONDecodeError as exc:
                return f"invalid JSON: {exc}"
            errors = sorted(self.validator.iter_errors(doc), key=str)
            if errors:
                return f"JSON fails the schema: {errors[0].message}"
            if doc["command"] != cmd.kind or doc["input"] != cmd.argv[1]:
                return "JSON names the wrong command or input"
            if e.entailed is not None and doc.get("entailed") is not e.entailed:
                return f"JSON verdict {doc.get('entailed')}, expected {e.entailed}"
        if e.text is not None and out != e.text:
            return f"stdout {out[:200]!r}, expected {e.text[:200]!r}"
        if e.prefix is not None and not out.startswith(e.prefix):
            return f"stdout {out[:200]!r} does not start with {e.prefix!r}"
        if e.suffix is not None and not out.endswith(e.suffix):
            return f"stdout {out[-200:]!r} does not end with {e.suffix!r}"
        if e.shared is not None:
            return self._interpolant(out, *e.shared)
        if e.kept_from is not None:
            lines = out.splitlines()
            if not lines or not _is_subsequence(lines, e.kept_from):
                return f"justification {lines} is not an ordered subset of the premises"
        if e.sigma is not None:
            return self._definition(out, e.sigma)
        return None

    @staticmethod
    def _interpolant(out: str, lhs: str, rhs: str, consts, fns) -> str | None:
        lines = out.splitlines()
        if len(lines) != 4 or not lines[0].startswith("interpolant: "):
            return f"unexpected interpolate output {out[:200]!r}"
        term = lines[0][len("interpolant: "):]
        want = [f"certificate A: {lhs} <= {term}", f"certificate B: {term} <= {rhs}", "verified"]
        if lines[1:] != want:
            return f"certificates {lines[1:]} do not match {want}"
        used_c, used_f = term_symbols(term)
        if not used_c <= consts or not used_f <= fns:
            return f"interpolant {term} uses non-shared symbols"
        return None

    @staticmethod
    def _definition(out: str, sigma) -> str | None:
        lines = out.splitlines()
        if len(lines) != 2:
            return f"unexpected beth output {out[:200]!r}"
        term = lines[1][len("definition: "):]
        used_c, _ = term_symbols(term)
        if not used_c or not used_c <= sigma or "(found by search" in term:
            return f"definition {term!r} is not a direct definition over sigma"
        return None
