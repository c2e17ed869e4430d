"""CLI outputs that read an axiom's schema and functions, pinned end to
end where no golden reaches them: an .elp role inclusion through check,
justify and interpolate, a kept inclusion in justify, an inclusion law
in model-check and a fired inclusion in a trace. Also check --trace on
inconsistent premises and beth's search fallback finding a definition."""

from slatkit import cli

ROLE_INCLUSION = "roles r s\nri r <= s\nside A\nA <= ex r . B\nside B\nex s . B <= C\ngoal A <= C\n"
INCLUSION = "functions f g\naxiom inclusion f g\nside A\na <= f(c)\nside B\ng(c) <= b\ngoal a <= b\n"


def run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    assert out.err == ""
    return code, out.out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_a_role_inclusion_through_check_justify_and_interpolate(tmp_path, capsys):
    path = write(tmp_path, "ri.elp", ROLE_INCLUSION)
    assert run(["check", path], capsys) == (0, "ENTAILED\n")
    assert run(["justify", path], capsys) == (0, "A1\nB1\nR1\n")
    code, out = run(["interpolate", path], capsys)
    assert code == 0
    assert out.splitlines()[0] == "interpolant: ex r . B & ex s . B"


def test_justify_keeps_an_inclusion(tmp_path, capsys):
    assert run(["justify", write(tmp_path, "incl.slp", INCLUSION)], capsys) == (
        0, "side A: a <= f(c)\nside B: g(c) <= b\naxiom: inclusion f g\n")


def test_a_fired_inclusion_in_the_trace(tmp_path, capsys):
    assert run(["check", write(tmp_path, "incl.slp", INCLUSION), "--trace"], capsys) == (
        0, "fire incl(f,g): true -> f_c <= g_c\npasses: 1\nENTAILED\n")


def test_model_check_reads_inclusion_lines(tmp_path, capsys):
    holds = write(tmp_path, "holds.model", "carrier t b\nmeet t t b\nmeet b b b\nfun f b b\nfun g t b\n"
                                           "const c = t\naxiom inclusion f g\natom f(c) <= g(c)\n")
    code, out = run(["model-check", holds], capsys)
    assert code == 0
    assert "inclusion(f,g)      pass\n" in out and out.endswith("all laws pass (8 checks)\n")
    fails = write(tmp_path, "fails.model", "carrier t b\nmeet t t b\nmeet b b b\nfun f b b\nfun g t b\n"
                                           "axiom inclusion g f\n")
    code, out = run(["model-check", fails], capsys)
    assert code == 1
    assert "inclusion(g,f)    FAIL  g(t) = t !<= f(t) = b\n1 of 7 checks failed\n" in out


def test_check_trace_on_inconsistent_premises(tmp_path, capsys):
    path = write(tmp_path, "inconsistent.slp", "side A\na <= b\n! a <= b\nside B\nc <= d\ngoal a <= d\n")
    assert run(["check", path, "--trace"], capsys) == (0, "passes: 0\ninconsistent: a <= b holds\nENTAILED\n")


def test_beth_search_finds_what_intersection_sharing_misses(tmp_path, capsys):
    # draw 106 of test_beth_differential.beth_draw(random.Random(6)): sigma
    # is one function and one constant, and at depth 2 the search stays
    # under the 500-term limit
    path = write(tmp_path, "draw.slp", "functions f g h\naxiom inclusion f h\naxiom composition h g f\n"
                                       "side A\na0 <= s0\nf(a0 & s0) <= f(a0)\na0 <= s0\nb0 <= f(b0 & s0)\n"
                                       "h(f(b0 & s0)) <= s0\ns0 <= b0\nsigma b0 g\ntarget s0\n")
    assert run(["beth", path], capsys) == (
        0, "implicitly defined: yes\ndefinition: b0 & f(b0) & h(b0 & f(b0))\n")
    assert run(["beth", path, "--sharing", "intersection", "--depth", "2"], capsys) == (
        0, "implicitly defined: yes\ndefinition: b0 (found by search, depth 2)\n")
