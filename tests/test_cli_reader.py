"""The command-line front door of slatkit.cli: its own reader of exact
spellings against argparse, the suffix rule against pathlib, the file
read against Path.read_text, and the modules the import leaves out."""

import importlib.util
import subprocess
import sys
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import DATA
from golden_cases import CASES, PACKAGE_ROOT
from slatkit import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

COMMANDS = sorted(cli._COMMANDS)
FLAGS = ["--json", "--trace", "--no-verify"]
VALUED = ["--format", "--depth", "--sharing"]
VALUES = ["slp", "elp", "model", "txt", "theta", "intersection", "0", "2", "3", "12",
          "-1", "-0", "two", "+3", " 3", "٣", "03", "3_0", ""]
FILES = ["slo.slp", "med.elp", "four_point.model", "a b.slp", "dir/", "x", "-", "-x.slp", ""]
OTHER = ["--js", "--tr", "--no", "--no-v", "--form", "--dep", "--sh", "--s", "--j",
         "--format=slp", "--depth=2", "--depth=-1", "--sharing=theta", "--json=1",
         "-h", "--help", "--", "--bogus", "-x", "-1", "junk", "CHECK"]
ANY = COMMANDS + FLAGS + VALUED + VALUES + FILES + OTHER


def argparse_vars(argv) -> dict:
    """vars() of argparse's reading, with each value's type."""
    return {k: (type(v), v) for k, v in vars(cli._parse(argv)).items()}


def typed(found: dict) -> dict:
    return {k: (type(v), v) for k, v in found.items()}


GOOD = {"--format": ["slp", "elp", "model"], "--depth": ["0", "2", "3", "12"],
        "--sharing": ["theta", "intersection"]}
flag = st.sampled_from(FLAGS).map(lambda f: [f])
good = st.sampled_from(VALUED).flatmap(lambda o: st.sampled_from(GOOD[o]).map(lambda v: [o, v]))
pair = st.tuples(st.sampled_from(VALUED), st.sampled_from(VALUES)).map(list)
other = st.sampled_from(ANY).map(lambda t: [t])


def command_line(commands, files, chunks):
    return st.tuples(st.sampled_from(commands), st.sampled_from(files), st.lists(chunks, max_size=4)) \
        .map(lambda t: [t[0], t[1], *(x for c in t[2] for x in c)])


argvs = st.one_of(
    command_line(COMMANDS, FILES[:6], st.one_of(flag, good)),   # mostly read by the reader
    command_line(COMMANDS + OTHER[:3], FILES + OTHER[-6:], st.one_of(flag, good, pair, other)),
    st.lists(st.sampled_from(ANY), max_size=6),
)


@settings(max_examples=600, deadline=None)
@given(argvs)
def test_the_reader_refuses_or_agrees_with_argparse(argv):
    found = cli._read(argv)
    if found is not None:
        assert typed(found) == argparse_vars(argv)


def test_the_reader_takes_exact_spellings_and_refuses_the_rest():
    assert cli._read(["beth", "b.slp", "--depth", "2", "--json", "--depth", "0",
                      "--sharing", "intersection", "--no-verify"]) == {
        "command": "beth", "input": "b.slp", "format": None, "json": True, "trace": False,
        "no_verify": True, "depth": 0, "sharing": "intersection"}
    for argv in (["check", "slo.slp", "--js"], ["check", "--json", "slo.slp"],
                 ["check", "slo.slp", "--depth=2"], ["check", "--", "slo.slp"],
                 ["check", "slo.slp", "-h"], ["check", "slo.slp", "--depth", "-0"],
                 ["check", "slo.slp", "--depth"], ["check"], [], ["check", Path("slo.slp")]):
        assert cli._read(argv) is None, argv


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses looks the module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_the_reader_takes_every_golden_and_workload_command():
    workloads = load_workloads()
    argvs = {tuple(argv) for _, argv, _ in CASES}
    for make in workloads.WORKLOADS.values():
        for seed in (1, 5):
            w = make(seed)
            argvs |= {c.argv for c in (*w.commands, *w.warmup, *workloads.traced_mix(w))}
    assert len(argvs) > 100
    for argv in sorted(argvs):
        found = cli._read(list(argv))
        assert found is not None, argv
        assert typed(found) == argparse_vars(list(argv)), argv


def test_main_without_argv_reads_sys_argv_without_argparse(monkeypatch, capsys):
    def refuse(argv):
        raise AssertionError(f"argparse read {argv}")
    monkeypatch.chdir(DATA)
    monkeypatch.setattr(sys, "argv", ["slatkit", "check", "slo.slp"])
    monkeypatch.setattr(cli, "_parse", refuse)
    assert cli.main() == 0
    assert capsys.readouterr().out.encode() == (DATA / "golden" / "check_slo.txt").read_bytes()


# ---------------------------------------------------------------------------
# paths and file text


paths = st.tuples(
    st.sampled_from(["", "/", "//", "///"]),
    st.lists(st.sampled_from(["a", "b.slp", ".slp", "..slp", "a.", ".", "..", "", "x.y.elp",
                              "ü.MODEL", "a..", "...", " .slp", "a\\b.slp"]), max_size=4),
    st.sampled_from(["/", "//"]),
    st.sampled_from(["", "/", "//", "/."]),
).map(lambda t: t[0] + t[2].join(t[1]) + t[3])


@settings(max_examples=500, deadline=None)
@given(paths)
def test_the_suffix_and_the_spelling_are_pathlibs(path):
    assert cli._suffix(path) == PurePosixPath(path).suffix
    assert cli._pure(path) == str(PurePosixPath(path))


texts = st.lists(st.sampled_from([b"\xef\xbb\xbf", b"\r", b"\r\n", b"\n", b"\n\r", b"a <= b",
                                  "é".encode(), "∃".encode(), b"\xff", b"\xc3", b"\xe2\x88"]),
                 max_size=8).map(b"".join)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts)
def test_load_reads_what_read_text_reads(tmp_path, data):
    f = tmp_path / "input.slp"
    f.write_bytes(data)
    try:
        want = f.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        with pytest.raises(UnicodeDecodeError) as got:
            cli._load(str(f))
        assert str(got.value) == str(e)
    else:
        assert cli._load(str(f)) == want
        assert cli._load(str(f) + "/") == want   # pathlib drops a trailing slash


# ---------------------------------------------------------------------------
# what the import leaves out


def test_import_and_an_exact_command_load_no_argparse_or_pathlib():
    """An exact .slp command loads neither argparse nor pathlib, and runs
    neither the EL front end nor definability: slatkit.el and slatkit.beth
    stay lazy modules until an .elp command or beth touches them. The
    child runs under -B, so it writes no bytecode into the source tree."""
    script = (
        "import sys, types\n"
        "before = set(sys.modules)\n"
        "import slatkit.cli\n"
        "imported = set(sys.modules) - before\n"
        "ran = lambda: [type(sys.modules[m]) is types.ModuleType for m in ('slatkit.el', 'slatkit.beth')]\n"
        "sys.argv = ['slatkit', 'check', 'slo.slp']\n"
        "code = slatkit.cli.main()\n"
        "after_check = set(sys.modules) - before\n"
        "banned = {'argparse', 'gettext', 'locale', 'pathlib'}\n"
        "print(code, sorted(banned & imported), sorted(banned & after_check), ran(), file=sys.stderr)\n"
        "for argv in (['interpolate', 'med.elp'], ['beth', 'beth_fe.slp']):\n"
        "    print(slatkit.cli.main(argv), ran(), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", script], cwd=DATA, capture_output=True,
                          env={"PYTHONPATH": str(PACKAGE_ROOT)})
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode().splitlines() == [
        "0 [] [] [False, False]", "0 [True, False]", "0 [True, True]"]
