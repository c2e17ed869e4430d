"""CLI surface: golden outputs, exit codes, schema conformance."""

import json
from pathlib import Path

import jsonschema
import pytest

from conftest import DATA, read_data
from golden_cases import CASES, run_cli
from slatkit import cli
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
