"""The command line is a thin adapter: outputs equal library results, bytes stable."""

import time

import pytest

from jetlift.cli import main

FLAGSHIP = """\
[y]        charts z w ; transition w = 1/z
[x]        vars x ; charts 2 ; transition x -> 1/x ; jacobian -x^-2
[f]        chart0: x = z ; chart1: x = w
[sheaf]    gen chart0: x ; gen chart1: -x
[sigma]    chart0: 1 ; chart1: 1
[window]   -8 8
[order]    4
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_bracket(self, capsys):
        code, out = run(capsys, "bracket", "--vars", "x,y",
                        "--f1", "1,0", "--f2", "0,x")
        assert code == 0 and out == "0, 1\n"

    def test_iterbracket(self, capsys):
        code, out = run(capsys, "iterbracket", "--vars", "x,y",
                        "--f1", "1,0", "--f2", "0,x^2", "--n", "3")
        assert code == 0 and out == "0, 2\n"

    def test_flowjet(self, capsys):
        code, out = run(capsys, "flowjet", "--vars", "x,y", "--field", "y, -x",
                        "--point", "1,0", "--order", "2")
        assert code == 0 and out == "((1,0),(0,-1),(-1,0))\n"

    def test_defect(self, capsys):
        code, out = run(capsys, "defect", "--vars", "x,y", "--f1", "1,0",
                        "--f2", "1,x", "--point", "0,0", "--n", "1")
        assert code == 0 and out == "(0,1)\n"

    def test_defect_precondition_refuted(self, capsys):
        code, out = run(capsys, "defect", "--vars", "x,y", "--f1", "1,0",
                        "--f2", "1,x", "--point", "0,0", "--n", "2")
        assert code == 1 and out.startswith("REFUTED")

    def test_verify_dj(self, capsys):
        code, out = run(capsys, "verify-dj", "--vars", "x,y", "--f1", "1,0",
                        "--f2", "1,x^2", "--point", "0,0", "--n", "2")
        assert code == 0
        assert "agree" in out and "(0,2)" in out

    def test_rank(self, capsys):
        code, out = run(capsys, "rank", "--vars", "x,y", "--gens", "x,0; 0,x",
                        "--point", "1,0")
        assert code == 0 and out == "2\n"

    def test_involutive_certificate(self, capsys):
        code, out = run(capsys, "involutive", "--vars", "x,y",
                        "--gens", "x,0; 0,x", "--degree", "0")
        assert code == 0 and "CERTIFIED" in out

    def test_involutive_refuted(self, capsys):
        code, out = run(capsys, "involutive", "--vars", "x,y",
                        "--gens", "1,0; 0,x", "--degree", "0")
        assert code == 1 and "(0,0)" in out

    def test_strata(self, capsys):
        code, out = run(capsys, "strata", "--vars", "x,y", "--gens", "x,0; 0,x",
                        "--grid", "x=-1:1:1, y=-1:1:1")
        assert code == 0
        assert out.splitlines()[0].startswith("rank 0:")
        assert "rank 2:" in out

    def test_invariance_ok(self, capsys):
        code, out = run(capsys, "invariance", "--vars", "x,y,z",
                        "--gens", "1,0,0; 0,0,y", "--combo", "1; 0",
                        "--point", "0,0,0", "--order", "10")
        assert code == 0 and "all vanish" in out

    def test_invariance_violated(self, capsys):
        code, out = run(capsys, "invariance", "--vars", "x,y",
                        "--gens", "1,0; 0,x", "--combo", "1; 0",
                        "--point", "0,0", "--order", "10")
        assert code == 1 and "VIOLATION" in out

    def test_cohomology_split(self, capsys):
        code, out = run(capsys, "cohomology", "--transition", "1",
                        "--nu", "z + 1 + z^-1", "--window", "-4 4")
        assert code == 0
        assert out == "lambda0 = z + 1\nlambda1 = -w\n"

    def test_cohomology_obstructed(self, capsys):
        code, out = run(capsys, "cohomology", "--transition", "z^-2",
                        "--nu", "z^-1", "--window", "-4 4")
        assert code == 0 and "OBSTRUCTED" in out and "cokernel_dim 1" in out

    def test_cohomology_expect_unobstructed(self, capsys):
        code, out = run(capsys, "cohomology", "--transition", "z^-2",
                        "--nu", "z^-1", "--window", "-4 4",
                        "--expect-unobstructed")
        assert code == 1

    def test_lift_flagship(self, capsys, tmp_path):
        path = tmp_path / "flagship.scn"
        path.write_text(FLAGSHIP, encoding="utf-8")
        code, out = run(capsys, "lift", "--scenario", str(path))
        assert code == 0
        assert "chart0 x: (z,z,z,z,z)" in out
        assert "chart0 t: (0,1,0,0,0)" in out

    def test_lift_obstructed(self, capsys, tmp_path):
        path = tmp_path / "obstructed.scn"
        path.write_text(FLAGSHIP.replace("gen chart0: x ; gen chart1: -x",
                                         "gen chart0: x^4 ; gen chart1: -1")
                        .replace("chart0: 1 ; chart1: 1",
                                 "chart0: 0 ; chart1: 0")
                        .replace("[window]   -8 8",
                                 "[perturb]  chart1: -t*x^3\n[window]   -4 4"),
                        encoding="utf-8")
        code, out = run(capsys, "lift", "--scenario", str(path))
        assert code == 1
        assert "LIFT OBSTRUCTED" in out and "cokernel dimension 1" in out

    def test_parse_error_exit_code(self, capsys):
        code = main(["rank", "--vars", "x,y", "--gens", "x,0; 0,q",
                     "--point", "0,0"])
        err = capsys.readouterr().err
        assert code == 2 and "parse error" in err

    @pytest.mark.parametrize("argv", [
        ["flowjet", "--vars", "x,y", "--field", "1,0", "--point", "0,0",
         "--order", "-1"],
        ["defect", "--vars", "x,y", "--f1", "1,0", "--f2", "1,x",
         "--point", "0,0", "--n", "0"],
        ["verify-dj", "--vars", "x,y", "--f1", "1,0", "--f2", "1,x",
         "--point", "0,0", "--n", "0"],
        ["iterbracket", "--vars", "x,y", "--f1", "1,0", "--f2", "0,x",
         "--n", "1"],
    ], ids=["flowjet", "defect", "verify-dj", "iterbracket"])
    def test_order_out_of_range_exit_code(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("window,message", [
        ("4", "window needs two integers"),
        ("a b", "window needs two integers"),
        ("-4 4 4", "window needs two integers"),
        ("4 -4", "window lower bound exceeds upper bound"),
    ])
    def test_cohomology_bad_window_exit_code(self, capsys, window, message):
        code = main(["cohomology", "--transition", "1", "--nu", "z",
                     "--window", window])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("parse error: " + message)

    @pytest.mark.parametrize("old,new,message", [
        ("charts 2 ;", "charts 2x ;", "charts must be 1 or 2 (line 2"),
        ("[window]   -8 8", "[window]   -8 x", "window needs two integers (line 6"),
        ("[order]    4", "[order]    four", "order needs an integer (line 7"),
    ], ids=["charts", "window", "order"])
    def test_scenario_integer_exit_code(self, capsys, tmp_path, old, new, message):
        path = tmp_path / "bad.scn"
        path.write_text(FLAGSHIP.replace(old, new), encoding="utf-8")
        code = main(["lift", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("parse error: " + message)

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_lift_order_out_of_range_exit_code(self, capsys, tmp_path, order):
        path = tmp_path / "flagship.scn"
        path.write_text(FLAGSHIP, encoding="utf-8")
        code = main(["lift", "--scenario", str(path), "--order", order])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: lift order must be >= 1\n"

    def test_missing_scenario_exit_code(self, capsys, tmp_path):
        code = main(["lift", "--scenario", str(tmp_path / "missing.scn")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "missing.scn" in captured.err

    @pytest.mark.parametrize("argv,message", [
        (["involutive", "--vars", "x,y", "--gens", "1,0;0,x", "--degree", "-1"],
         "error: degree bound must be >= 0\n"),
        (["bracket", "--vars", "x,x", "--f1", "x,x", "--f2", "1,0"],
         "parse error: duplicate variable name 'x' in --vars (line 1, column 1)\n"),
    ], ids=["negative-degree", "duplicate-vars"])
    def test_rejected_input_exit_code(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err == message

    @pytest.mark.parametrize("transition,det", [
        ("0", "0"),
        ("z^-1 + z", "z + z^-1"),
    ], ids=["zero", "non-monomial"])
    def test_non_unit_transition_exit_code(self, capsys, transition, det):
        code = main(["cohomology", "--transition", transition, "--nu", "z^-1",
                     "--window", "-4 4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: transition determinant {det} is not "
                                "c*z^k with c != 0: not a unit over Q[z, 1/z]\n")

    def test_internal_check_exit_code(self, capsys, monkeypatch):
        # a bracket that disagrees with both jet evaluations fails the defect
        # cross-check in jet_defect
        import jetlift.flows as flows
        from jetlift.vectorfields import VectorField
        monkeypatch.setattr(flows, "iterated_bracket",
                            lambda d1, d2, n: VectorField.coordinate(2, 0))
        code = main(["defect", "--vars", "x,y", "--f1", "1,0", "--f2", "1,x",
                     "--point", "0,0", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == ("internal check failed: defect (Fraction(0, 1), "
                                "Fraction(1, 1)) does not equal iterated bracket "
                                "(Fraction(1, 1), Fraction(0, 1))\n")

    @pytest.mark.parametrize("argv,message", [
        (["cohomology", "--transition", "z^-2", "--nu", "z^-1", "--window",
          "-100000 100000"],
         "span of the 1-cochain window [-100000, 100000] is 200000, above the "
         "limit MAX_WINDOW_SPAN = 10000"),
        (["flowjet", "--vars", "x", "--field", "x^2", "--point", "1",
          "--order", "65"],
         "flow jet order is 65, above the limit MAX_ORDER = 64"),
        (["verify-dj", "--vars", "x", "--f1", "x", "--f2", "x + x^3",
          "--point", "0", "--n", "64"],
         "flow jet order is 65, above the limit MAX_ORDER = 64"),
        (["invariance", "--vars", "x,y", "--gens", "x,y", "--combo", "1",
          "--point", "1,1", "--order", "1000"],
         "invariance order is 1000, above the limit MAX_ORDER = 64"),
        (["strata", "--vars", "x,y", "--gens", "x,y", "--grid",
          "x=0:1000:1, y=0:1/1000:1/1000000"],
         "grid point count is 1002001, above the limit MAX_GRID_POINTS = 100000"),
        (["involutive", "--vars", "a,b,c,d,e,f,g",
          "--gens", "1,0,0,0,0,0,0; 0,1,a,0,0,0,0"],
         "search grid variable count is 7, above the limit MAX_SEARCH_VARS = 6"),
    ], ids=["window", "flowjet", "verify-dj", "invariance", "strata", "search-grid"])
    def test_limit_exit_code(self, capsys, argv, message):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize("old,new,argv,message", [
        ("[order]    4", "[order]    4", ["--order", "65"],
         "lift order is 65, above the limit MAX_ORDER = 64"),
        ("[order]    4", "[order]    65", [],
         "lift order is 65, above the limit MAX_ORDER = 64"),
        ("[window]   -8 8", "[window]   -8 99999", [],
         "span of the section coordinate window [-8, 99999] is 100007, above the "
         "limit "
         "MAX_WINDOW_SPAN = 10000"),
    ], ids=["option", "clause", "window"])
    def test_lift_limit_exit_code(self, capsys, tmp_path, old, new, argv, message):
        path = tmp_path / "flagship.scn"
        path.write_text(FLAGSHIP.replace(old, new), encoding="utf-8")
        code = main(["lift", "--scenario", str(path)] + argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["bracket", "--vars", "x,y"])
        assert err.value.code == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ["strata", "--vars", "x,y", "--gens", "x,0; 0,x",
                "--grid", "x=-1:1:1/2, y=0:1:1"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_adapter_matches_library(self, capsys):
        from jetlift.flows import flow_jet
        from jetlift.parsing import parse_field, parse_point
        names = ["x", "y"]
        field = parse_field("y, -x", names)
        point = parse_point("1,0", 2)
        _, out = run(capsys, "flowjet", "--vars", "x,y", "--field", "y, -x",
                     "--point", "1,0", "--order", "3")
        assert out.strip() == flow_jet(field, point, 3).render()
