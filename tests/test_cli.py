"""CLI surface: golden outputs, exit codes, schema conformance."""

import json
import random
from pathlib import Path

import jsonschema
import pytest

from conftest import DATA, read_data, slp_text, split_problem
from golden_cases import CASES, run_cli
from slatkit import cli, terms
from slatkit.terms import MAX_NESTING

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "slatkit" / "cli_schema.json")
    .read_text(encoding="utf-8")
)


# ---------------------------------------------------------------------------
# goldens


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output_is_byte_identical(name, argv, code):
    golden = (DATA / "golden" / name).read_bytes()
    for seed in ("0", "4091"):
        proc = run_cli(argv, hashseed=seed)
        assert proc.returncode == code, proc.stderr.decode()
        assert proc.stdout == golden
        assert proc.stderr == b""


@pytest.mark.parametrize(
    "name", [c[0] for c in CASES if c[0].endswith(".json")]
)
def test_golden_json_validates_against_schema(name):
    doc = json.loads((DATA / "golden" / name).read_text(encoding="utf-8"))
    jsonschema.validate(doc, SCHEMA)


def test_negative_answers_also_validate():
    proc = run_cli(["check", "med_A.elp", "--json"], hashseed="0")
    assert proc.returncode == 1
    jsonschema.validate(json.loads(proc.stdout), SCHEMA)
    proc = run_cli(["beth", "beth_fe.slp", "--sharing", "intersection",
                    "--json"], hashseed="0")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc["implicitly_defined"] is True
    assert doc["definition"] is None


def run_goldens_in_process(cases, capsys):
    for name, argv, code in cases:
        assert cli.main(list(argv)) == code, name
        out = capsys.readouterr()
        assert out.out.encode("utf-8") == (DATA / "golden" / name).read_bytes(), name
        assert out.err == "", name


def test_goldens_twice_in_one_process(monkeypatch, capsys):
    # the parser and the term table outlive each call: a second pass in
    # the reverse order, after a usage error, prints the same bytes and
    # builds no new term
    monkeypatch.chdir(DATA)
    run_goldens_in_process(CASES, capsys)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["beth", "beth_fe.slp", "--depth", "-1"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    size = len(terms._TABLE)
    run_goldens_in_process(CASES[::-1], capsys)
    assert len(terms._TABLE) == size


def test_flags_do_not_carry_over_to_the_next_call(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    assert cli.main(["beth", "beth_fe.slp", "--json", "--sharing", "intersection"]) == 1
    capsys.readouterr()
    run_goldens_in_process([c for c in CASES if c[0] == "beth_fe.txt"], capsys)


# ---------------------------------------------------------------------------
# exit codes and error paths (in-process; stdout goes unchecked here)


def in_process(argv, capsys):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_missing_file(capsys):
    code, _, err = in_process(["check", DATA / "no_such.slp"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_unknown_extension_needs_format_flag(capsys):
    code, _, err = in_process(["check", DATA / "golden" / "check_slo.txt"],
                              capsys)
    assert code == 2
    assert "format" in err


def test_format_override(tmp_path, capsys):
    f = tmp_path / "problem.txt"
    f.write_text("side A\na <= b\ngoal a <= b\n", encoding="utf-8")
    code, out, _ = in_process(["check", f, "--format", "slp"], capsys)
    assert code == 0
    assert "ENTAILED" in out


def test_command_format_mismatch(capsys):
    code, _, err = in_process(["beth", DATA / "med.elp"], capsys)
    assert code == 2
    assert "expects .slp" in err


def test_parse_error_reports_position(tmp_path, capsys):
    f = tmp_path / "bad.slp"
    f.write_text("side A\na <= (b\ngoal a <= b\n", encoding="utf-8")
    code, _, err = in_process(["check", f], capsys)
    assert code == 2
    assert "2:8" in err


def test_justify_requires_entailment(tmp_path, capsys):
    f = tmp_path / "open.slp"
    f.write_text("side A\na <= b\ngoal b <= a\n", encoding="utf-8")
    code, _, err = in_process(["justify", f], capsys)
    assert code == 2
    assert "not entailed" in err.lower()


def test_interpolate_not_entailed_is_negative(tmp_path, capsys):
    f = tmp_path / "open.slp"
    f.write_text("side A\na <= b\ngoal b <= a\n", encoding="utf-8")
    code, out, _ = in_process(["interpolate", f], capsys)
    assert code == 1
    assert "NOT-ENTAILED" in out


def test_interpolate_engine_error(tmp_path, capsys):
    # entailment holds inside one side only: no shared witness exists
    f = tmp_path / "oneside.slp"
    f.write_text("side B\na <= b\ngoal a <= b\n", encoding="utf-8")
    code, _, err = in_process(["interpolate", f], capsys)
    assert code == 3
    assert err.startswith("engine error:")


def test_interpolate_without_a_shared_term_between_the_goal_sides(tmp_path, capsys):
    # a is A-only, so no shared term lies between a and a
    f = tmp_path / "between.slp"
    f.write_text("side A\na <= b\nside B\nb <= c\ngoal a <= a\n", encoding="utf-8")
    code, _, err = in_process(["interpolate", f], capsys)
    assert code == 3
    assert err == ("engine error: no shared term lies between a and a: the least "
                   "shared meet above a, b, is not below a\n")


def test_beth_requires_target(tmp_path, capsys):
    f = tmp_path / "nogoal.slp"
    f.write_text("side A\na <= b\ngoal a <= b\n", encoding="utf-8")
    code, _, err = in_process(["beth", f], capsys)
    assert code == 2
    assert "target" in err


def test_model_check_failure_is_negative(tmp_path, capsys):
    f = tmp_path / "bad.model"
    f.write_text(
        "carrier x y\n"
        "meet x x x\n"       # meet(x, y) = x but meet(y, x) = y
        "meet y y y\n",
        encoding="utf-8",
    )
    code, out, _ = in_process(["model-check", f], capsys)
    assert code == 1
    assert "FAIL" in out


def test_interpolate_no_verify_flag(capsys):
    code, out, _ = in_process(
        ["interpolate", DATA / "slo.slp", "--no-verify"], capsys)
    assert code == 0
    assert "not verified" in out
    assert "interpolant: d & f(d)" in out


def test_interpolate_writes_the_interpolant_once(tmp_path, monkeypatch, capsys):
    """The certificate lines reuse the interpolant's text: of every
    format_term call, in cli or through terms.format_atom, one writes
    the interpolant and one each goal side."""
    rng = random.Random(1)
    draw = [split_problem(rng) for _ in range(6)][5]   # interpolant f(f(s0) & g(s0)) & g(f(s0) & g(s0))
    drawn = tmp_path / "draw5.slp"
    drawn.write_text(slp_text(*draw), encoding="utf-8")
    writes, write = [], terms.format_term
    counting = lambda t: writes.append(write(t)) or writes[-1]
    monkeypatch.setattr(cli, "format_term", counting)
    monkeypatch.setattr(terms, "format_term", counting)
    for path, goal in ((DATA / "slo.slp", ["b", "a"]), (drawn, ["a2", "b2"])):
        writes.clear()
        code, out, _ = in_process(["interpolate", path], capsys)
        assert code == 0
        shown = out.splitlines()[0].removeprefix("interpolant: ")
        assert sorted(writes) == sorted([shown, *goal])
        assert f"certificate A: {goal[0]} <= {shown}" in out


def test_check_trace_lists_fired_instances(capsys):
    code, out, _ = in_process(["check", DATA / "slo.slp", "--trace"], capsys)
    assert code == 0
    assert "fire mon(g)" in out
    assert "passes:" in out


def test_beth_meet_definition(tmp_path, capsys):
    f = tmp_path / "def.slp"
    f.write_text(
        "side A\na = b & c\nsigma b c\ntarget a\n", encoding="utf-8")
    code, out, _ = in_process(["beth", f], capsys)
    assert code == 0
    assert "implicitly defined: yes" in out
    assert "definition: b & c" in out


def test_beth_depth_bound_reshapes_the_search(capsys):
    # depth 2 keeps the enumeration under the size guard, so the search
    # actually runs and exhausts every candidate
    code, out, _ = in_process(
        ["beth", DATA / "beth_fe.slp", "--sharing", "intersection",
         "--depth", "2"], capsys)
    assert code == 1
    assert "no defining term up to depth 2" in out


INCONSISTENT = "functions f\nside A\na <= f(e)\ne <= b\nb <= e\n! e <= b\n"


def test_beth_on_inconsistent_premises_is_an_input_error(tmp_path, capsys):
    # a <= a' is not entailed, so chaining reaches the contradicted literal
    # first: the premises entail everything but admit no definition
    f = tmp_path / "inconsistent.slp"
    f.write_text(INCONSISTENT + "sigma e\ntarget a\n", encoding="utf-8")
    code, out, err = in_process(["beth", f], capsys)
    assert (code, out) == (2, "")
    assert err == "error: premises are inconsistent (derived e <= b); no intermediate term exists\n"


def test_beth_goal_found_before_the_contradiction(tmp_path, capsys):
    # with f in sigma, a <= f(e) <= a' holds at the first check, before
    # the negative literal is checked
    f = tmp_path / "goal_first.slp"
    f.write_text(INCONSISTENT + "f(e) <= a\nsigma e f\ntarget a\n", encoding="utf-8")
    code, out, err = in_process(["beth", f], capsys)
    assert (code, err) == (0, "")
    assert out == "implicitly defined: yes\ndefinition: f(e)\n"


@pytest.mark.parametrize("depth", ["-1", "two"])
def test_bad_depth_is_a_usage_error(depth, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["beth", str(DATA / "beth_fe.slp"), "--sharing", "intersection",
                  "--depth", depth])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --depth" in err
    assert "search skipped" not in err


# ---------------------------------------------------------------------------
# input limits and encodings


def nested_slp(depth: int) -> str:
    term = "f(" * depth + "a" + ")" * depth
    return f"functions f\nside A\n{term} <= b\nside B\nb <= c\ngoal {term} <= c\n"


def nested_elp(depth: int) -> str:
    concept = "ex r . " * depth + "A"
    return f"roles r\nside A\n{concept} <= B\nside B\nB <= C\ngoal {concept} <= C\n"


# format, file text for a depth, column of the token opening level MAX_NESTING + 1
NESTED = [
    ("slp", nested_slp, len("f(") * MAX_NESTING + len("f(")),
    ("elp", nested_elp, len("ex r . ") * MAX_NESTING + 1),
]


@pytest.mark.parametrize("ext,make,column", NESTED, ids=[n[0] for n in NESTED])
def test_nesting_at_the_limit_still_runs(ext, make, column, tmp_path, capsys):
    f = tmp_path / f"deep.{ext}"
    f.write_text(make(MAX_NESTING), encoding="utf-8")
    for command in ("check", "interpolate"):
        code, out, err = in_process([command, f], capsys)
        assert code == 0, err
        assert err == ""


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1500])
@pytest.mark.parametrize("ext,make,column", NESTED, ids=[n[0] for n in NESTED])
def test_nesting_past_the_limit_is_an_input_error(ext, make, column, depth, tmp_path, capsys):
    f = tmp_path / f"deep.{ext}"
    f.write_text(make(depth), encoding="utf-8")
    code, _, err = in_process(["check", f], capsys)
    assert code == 2
    assert err.startswith(f"error: 3:{column}: nesting deeper than {MAX_NESTING} levels")


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    f = tmp_path / "slo.slp"
    f.write_text(read_data("slo.slp"), encoding="utf-8-sig")
    assert f.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, err = in_process(["check", f], capsys)
    assert code == 0, err
    assert out.encode("utf-8") == (DATA / "golden" / "check_slo.txt").read_bytes()


def _ladder_slp(tmp_path, n: int) -> Path:
    f = tmp_path / "ladder.slp"
    f.write_text("\n".join([
        "functions f", "side A", "c0 <= d0", *(f"c{i + 1} <= f(c{i})" for i in range(n)),
        "side B", *(f"f(d{i}) <= d{i + 1}" for i in range(n)), f"goal c{n} <= d{n}",
    ]) + "\n", encoding="utf-8")
    return f


def test_interpolant_through_a_600_rung_ladder(tmp_path, capsys):
    # every term has depth <= 1, but each split names f of the previous
    # split's term, so the interpolant unfolds through 600 names
    n = 600
    code, out, err = in_process(["interpolate", _ladder_slp(tmp_path, n)], capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "interpolant: " + "f(" * n + "d0" + ")" * n
    assert lines[-1] == "verified"


def test_interpolant_through_a_1000_rung_ladder_verifies(tmp_path, capsys):
    # 1,000 levels: past the recursion limit for any walk that recurses
    # per level; the signature check, the output and the proof kernel
    # all work from stacks
    n = 1000
    code, out, err = in_process(["interpolate", _ladder_slp(tmp_path, n)], capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "interpolant: " + "f(" * n + "d0" + ")" * n
    assert lines[-1] == "verified"


def test_interpolant_through_a_400_rung_meet_ladder_verifies(tmp_path, capsys):
    # the interpolant nests a meet in every one of its 400 levels; meets
    # are built, hashed and sorted by cached keys, without recursion
    n = 400
    f = tmp_path / "meet_ladder.slp"
    f.write_text("\n".join([
        "functions f", "side A", "c0 <= d0", "c0 <= s0",
        *(f"c{i + 1} <= f(c{i})" for i in range(n)), *(f"c{i} <= s{i}" for i in range(1, n + 1)),
        "side B", "s0 <= x", *(f"s{i} <= y" for i in range(1, n + 1)),
        *(f"f(d{i} & s{i}) <= d{i + 1}" for i in range(n)), f"goal c{n} <= d{n}",
    ]) + "\n", encoding="utf-8")
    code, out, err = in_process(["interpolate", f], capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].startswith(f"interpolant: s{n} & f(s{n - 1} & f(")
    assert lines[-1] == "verified"
