"""The command line is a thin adapter: outputs equal library results, bytes stable."""

import argparse
import sys
import time

import pytest

from jetlift.cli import _build_parser, main

FLAGSHIP = """\
[y]        charts z w ; transition w = 1/z
[x]        vars x ; charts 2 ; transition x -> 1/x ; jacobian -x^-2
[f]        chart0: x = z ; chart1: x = w
[sheaf]    gen chart0: x ; gen chart1: -x
[sigma]    chart0: 1 ; chart1: 1
[window]   -8 8
[order]    4
"""


NOT_MONOMIAL = ("error: cannot restrict a negative power of a coordinate along a "
                "curve component that is not a monomial\n")


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

    def test_involutive_single_generator(self, capsys):
        code, out = run(capsys, "involutive", "--vars", "x,y", "--gens", "1,0")
        assert code == 0 and out == "CERTIFIED degree 0: single generator\n"

    def test_involutive_inconclusive(self, capsys):
        code, out = run(capsys, "involutive", "--vars", "x,y",
                        "--gens", "1,0; 0,x^2", "--degree", "2")
        assert code == 0 and out == "INCONCLUSIVE up to degree 2\n"

    def test_verify_dj_refuted(self, capsys):
        # the order-2 jets differ, so the defect identity's precondition fails
        code, out = run(capsys, "verify-dj", "--vars", "x,y", "--f1", "1,0",
                        "--f2", "1,x", "--point", "0,0", "--n", "2")
        assert code == 1
        assert out == "REFUTED: flow jets differ at order 2: (0,0) != (0,1)\n"

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

    @pytest.mark.parametrize("transition,nu,window,lambda1", [
        ("z^2", "z^-4", "-4 4", "-w^6"),
        ("z^3", "z^-2", "-4 4", "-w^5"),
        ("z^2", "z^-16", "-16 16", "-w^18"),
        ("z^2", "z^-40", "-40 4", "-w^42"),
        ("z^9950", "z^-1", "-100 9900", "-w^9951"),
    ], ids=["O(2)-z^-4", "O(3)-z^-2", "O(2)-z^-16", "O(2)-z^-40", "O(9950)-z^-1"])
    def test_cohomology_nonnegative_degree_splits(self, capsys, transition, nu,
                                                  window, lambda1):
        # a transition z^d with d >= -1 behaves as O(d): h^1 = 0, so every class
        # splits, however tightly the window holds nu; the split is sized by its
        # own support, so lambda_1 = -w^9951 may leave [-100, 9900]
        code, out = run(capsys, "cohomology", "--transition", transition,
                        "--nu", nu, "--window", window, "--expect-unobstructed")
        assert code == 0
        assert out == f"lambda0 = 0\nlambda1 = {lambda1}\n"

    def test_cohomology_expect_unobstructed(self, capsys):
        code, out = run(capsys, "cohomology", "--transition", "z^-2",
                        "--nu", "z^-1", "--window", "-4 4",
                        "--expect-unobstructed")
        assert code == 1

    @pytest.mark.parametrize("nu,window,expected", [
        ("z^3", "1 5", "lambda0 = z^3\nlambda1 = 0\n"),
        ("z^-1", "-3 -1", "OBSTRUCTED class z^-1 cokernel_dim 1\n"),
        ("0", "2 3", "lambda0 = 0\nlambda1 = 0\n"),
    ], ids=["above-0", "below-0", "zero-nu"])
    def test_cohomology_window_without_zero(self, capsys, nu, window, expected):
        # the declared window bounds nu's own exponents; 0 need not lie in it,
        # and a zero nu has no exponents at all
        code, out = run(capsys, "cohomology", "--transition", "z^-2",
                        "--nu", nu, "--window", window)
        assert code == 0
        assert out == expected

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

    def test_lift_sigma_not_global_exit_code(self, capsys, tmp_path):
        # the sheaf's transition is -z^12, so sigma_1 = 1 restricts to -z^12,
        # not sigma_0 = 1; the comparison needs no window, so none can overflow
        path = tmp_path / "sigma.scn"
        path.write_text("[y] charts z w ; transition w = 1/z\n"
                        "[x] vars x ; charts 2 ; transition x -> 1/x\n"
                        "[f] chart0: x = z^6 ; chart1: x = w^6\n"
                        "[sheaf] gen chart0: 1 ; gen chart1: 1\n"
                        "[sigma] chart0: 1 ; chart1: 1\n"
                        "[order] 2\n", encoding="utf-8")
        code = main(["lift", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: sigma is not a global section of the "
                                "presented sheaf\n")

    @pytest.mark.parametrize("sheaf,perturb,message", [
        # D0 = d/dt + t*a d/db leaves the defect (0, z): not along gen (1, 0)
        ("gen chart0: 1, 0 ; gen chart1: 1, 0", "[perturb]  chart0: 0, t*a\n",
         "defect is not a generator combination; the scenario does not deform "
         "along the presented sheaf"),
        # (0, 1) pushed by the identity is no combination of (1, 0)
        ("gen chart0: 1, 0 ; gen chart1: 0, 1", "",
         "generator transition rule inconsistent with the target Jacobian"),
    ], ids=["outside-span", "transition"])
    def test_lift_sheaf_rejected_exit_code(self, capsys, tmp_path, sheaf, perturb,
                                           message):
        path = tmp_path / "plane.scn"
        path.write_text("[y]        charts z w ; transition w = 1/z\n"
                        "[x]        vars a, b ; charts 1\n"
                        "[f]        chart0: a = z, b = 0 ; chart1: a = 1/w, b = 0\n"
                        f"[sheaf]    {sheaf}\n"
                        "[sigma]    chart0: 0 ; chart1: 0\n" + perturb,
                        encoding="utf-8")
        code = main(["lift", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("perturb,order,lambda1,correction", [
        ("t*x^-6", "4", "-w^9", "x^8"),
        ("t*x^-4", "3", "-w^7", "x^6"),
    ], ids=["defect-z^-6", "defect-z^-4"])
    def test_lift_verdict_independent_of_window(self, capsys, tmp_path, perturb,
                                                order, lambda1, correction):
        # the coefficient transition is z^3, which behaves as O(3): h^1 = 0, so
        # the defect splits even where it leaves the declared window, and every
        # window gives one transcript
        scenario = (FLAGSHIP.replace("gen chart0: x ; gen chart1: -x",
                                     "gen chart0: 1 ; gen chart1: -x^-1")
                    .replace("chart0: 1 ; chart1: 1", "chart0: 0 ; chart1: 0")
                    .replace("[window]   -8 8",
                             f"[perturb]  chart0: {perturb}\n[window]   -8 8")
                    .replace("[order]    4", f"[order]    {order}"))
        outs = set()
        for width in (4, 8, 12):
            path = tmp_path / f"window{width}.scn"
            path.write_text(scenario.replace("-8 8", f"-{width} {width}"),
                            encoding="utf-8")
            code, out = run(capsys, "lift", "--scenario", str(path))
            assert code == 0
            outs.add(out)
        assert len(outs) == 1
        assert f"lambda chart1 = ({lambda1}) * g0\n" in out
        assert f"E = ({correction}, 0)" in out

    def test_scenario_not_utf8_exit_code(self, capsys, tmp_path):
        path = tmp_path / "latin1.scn"
        path.write_bytes(b"[y] charts z w ; transition w = 1/z\n[x]  vars \xe9x\n")
        code = main(["lift", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("parse error: byte 0xe9 is not UTF-8 "
                                "(line 2, column 11)\n")

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

    @pytest.mark.parametrize("replacements,message", [
        ([("charts 2 ;", "charts 1 ;")],
         "error: a one-chart target cannot declare a transition\n"),
        ([("vars x ;", "vars x,u ;"),
          ("transition x -> 1/x ;", "transition x -> 1/x ; transition u -> u ;"),
          ("chart0: x = z ; chart1: x = w",
           "chart0: x = z ; chart0: u = z ; chart1: x = w ; chart1: u = w")],
         "error: a jacobian clause is only supported for one target coordinate\n"),
        ([("charts 2 ;", "charts 3 ;")],
         "parse error: charts must be 1 or 2 (line 2, column 28)\n"),
        ([("transition x -> 1/x", "transition x 1/x")],
         "parse error: transition clause needs 'var -> expr' (line 2, column 32)\n"),
        ([(" ; transition x -> 1/x ; jacobian -x^-2", "")],
         "error: no transition formula for target coordinate x\n"),
        ([("charts z w ; ", "")],
         "parse error: the [y] section needs a charts clause (line 1, column 1)\n"),
        ([("chart0: 1 ; chart1: 1", "chart0: 1 ; chart0: 1")],
         "parse error: duplicate [sigma] for chart0 (line 5, column 24)\n"),
        ([("chart0: 1 ; chart1: 1", "chart0: 1")],
         "error: sigma is missing for chart1\n"),
        ([("gen chart0: x ; gen chart1: -x", "")],
         "error: at least one generator is required\n"),
        ([("[order]    4", "[order]    0")],
         "parse error: order must be >= 1 (line 7, column 12)\n"),
        ([("x = z ; chart1: x = w", "x = z^3 ; chart1: x = w^3"),
          ("[window]", "[perturb]  chart1: t * x^2\n[window]")],
         "error: chart 0 has no identity coordinate; flag the scenario "
         "non-immersive so the graph embedding provides one\n"),
        ([("charts z w ; ", ""), ("[y]", "# the curve\n[y]")],
         "parse error: the [y] section needs a charts clause (line 2, column 1)\n"),
        ([("vars x ; ", "")],
         "parse error: the [x] section needs a vars clause (line 2, column 1)\n"),
        ([("chart0: 1 ; chart1: 1", "")],
         "parse error: the [sigma] section is required (line 5, column 1)\n"),
        ([("chart0: x = z", "chart0: z")],
         "parse error: morphism clause needs 'coord = expr' (line 3, column 20)\n"),
        ([(" ; transition x -> 1/x ; jacobian -x^-2", ""), ("charts 2", "charts 1"),
          ("x = z ; chart1: x = w", "x = z + z^2 ; chart1: x = w^-1 + w^-2"),
          ("gen chart0: x ; gen chart1: -x", "gen chart0: x^-1 ; gen chart1: x^-1")],
         NOT_MONOMIAL),
        ([(" ; transition x -> 1/x ; jacobian -x^-2", ""), ("charts 2", "charts 1"),
          ("x = z ; chart1: x = w",
           "x = z + z^2 ; chart1: x = w^-1 + w^-2 ; non-immersive"),
          ("gen chart0: x ; gen chart1: -x", "gen chart0: 1 ; gen chart1: 1"),
          ("[window]", "[perturb]  chart0: t*x^-1\n[window]")],
         NOT_MONOMIAL),
        ([(" ; transition x -> 1/x ; jacobian -x^-2", ""), ("charts 2", "charts 1"),
          ("x = z ; chart1: x = w", "x = 0 ; chart1: x = 0 ; non-immersive"),
          ("gen chart0: x ; gen chart1: -x", "gen chart0: x^-1 ; gen chart1: x^-1")],
         NOT_MONOMIAL),
        ([(" ; transition x -> 1/x ; jacobian -x^-2", ""), ("charts 2", "charts 1"),
          ("x = z ; chart1: x = w", "x = 0 ; chart1: x = 0 ; non-immersive"),
          ("gen chart0: x ; gen chart1: -x", "gen chart0: 1 ; gen chart1: 1"),
          ("[window]", "[perturb]  chart0: t*x^-1\n[window]")],
         NOT_MONOMIAL),
    ], ids=["one-chart-transition", "jacobian-two-coordinates", "charts-3",
            "transition-without-arrow", "no-transition", "y-without-charts",
            "sigma-chart0-twice", "sigma-chart0-only", "no-generator", "order-0",
            "correction-without-identity-coordinate", "y-without-charts-at-its-tag",
            "x-without-vars", "empty-sigma", "morphism-without-equals",
            "inverse-along-binomial", "perturbation-inverse-along-binomial",
            "inverse-along-zero", "perturbation-inverse-along-zero"])
    def test_scenario_rejected_exit_code(self, capsys, tmp_path, replacements,
                                         message):
        text = FLAGSHIP
        for old, new in replacements:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "bad.scn"
        path.write_text(text, encoding="utf-8")
        code = main(["lift", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err == message

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
        (["strata", "--vars", "x,y", "--gens", "x,0; 0,*x", "--grid",
          "x=0:1:1,y=0:1:1"],
         "parse error: unexpected '*' (line 1, column 8)\n"),
        (["cohomology", "--transition", "z^-2", "--nu", "z^-1", "--window",
          "1_0 20"],
         "parse error: window needs two integers (line 1, column 1)\n"),
        (["flowjet", "--vars", "x^2", "--field", "1", "--point", "1", "--order", "2"],
         "parse error: invalid variable name 'x^2' in --vars (line 1, column 1)\n"),
        (["invariance", "--vars", "x,y", "--gens", "x,0", "--combo", "1",
          "--point", "1,1", "--order", "-5"],
         "error: order must be >= 0\n"),
        (["strata", "--vars", "x,y", "--gens", "x,0; 0,x", "--grid", "x=1:0:1,y=0:1:1"],
         "parse error: start exceeds stop (line 1, column 3)\n"),
        (["strata", "--vars", "x,y", "--gens", "x,0; 0,x", "--grid", "x=0:1:1,x=0:1:1"],
         "parse error: duplicate range for 'x' (line 1, column 9)\n"),
        (["invariance", "--vars", "x,y", "--gens", "1,0; 0,x", "--combo", "1",
          "--point", "0,0"],
         "error: 1 coefficients for 2 generators\n"),
    ], ids=["negative-degree", "duplicate-vars", "stray-star", "window-underscore",
            "power-as-name", "negative-invariance-order", "grid-start-above-stop",
            "grid-repeated-range", "invariance-combination-count"])
    def test_rejected_input_exit_code(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err == message

    @pytest.mark.parametrize("argv,message", [
        (["rank", "--vars", "x,y", "--gens", "x,0; 0,x^", "--point", "1,0"],
         "parse error: expected an integer (line 1, column 10)\n"),
        (["rank", "--vars", "x,y", "--gens", "x,0; 0,x; x", "--point", "1,0"],
         "parse error: 1 components for 2 variables (line 1, column 10)\n"),
        (["invariance", "--vars", "x,y", "--gens", "1,0; 0,x", "--combo", "1; y^",
          "--point", "0,0"],
         "parse error: expected an integer (line 1, column 6)\n"),
    ], ids=["gens", "gens-arity", "combo"])
    def test_list_error_column_counts_from_argument_start(self, capsys, argv,
                                                          message):
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
                            lambda d1, d2, n, weights: VectorField.coordinate(2, 0))
        code = main(["defect", "--vars", "x,y", "--f1", "1,0", "--f2", "1,x",
                     "--point", "0,0", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == ("internal check failed: defect (0,1) does not "
                                "equal iterated bracket (1,0)\n")

    def test_split_self_check_exit_code(self, capsys, monkeypatch):
        # a solver whose solution is off by one in every unknown: the split is
        # checked through restrict_section, which the columns do not share
        import jetlift.linalg as linalg
        solve = linalg.solve_with_residual

        def perturbed(columns, rhs, rows):
            x, residual, rank = solve(columns, rhs, rows)
            return [v + 1 for v in x], residual, rank

        monkeypatch.setattr(linalg, "solve_with_residual", perturbed)
        code = main(["cohomology", "--transition", "z^-2", "--nu", "z^-3",
                     "--window", "-4 4"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == ("internal check failed: nu + T lambda_1(1/z) is "
                                "not chart-polynomial: delta(lambda) != nu\n")

    @pytest.mark.parametrize("argv,message", [
        (["cohomology", "--transition", "z^-2", "--nu", "z^-1", "--window",
          "-100000 100000"],
         "span of the 1-cochain window [-100000, 100000] is 200000, above the "
         "limit MAX_WINDOW_SPAN = 10000"),
        (["cohomology", "--transition", "z^-20000", "--nu", "z^-1", "--window",
          "-4 4"],
         "span of the coboundary system window [-20000, 0] is 20000, above the "
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
        (["iterbracket", "--vars", "x,y", "--f1", "y,x^2", "--f2", "x,y^2",
          "--n", "100000"],
         "iterated bracket n is 100000, above the limit MAX_ORDER = 64"),
        (["involutive", "--vars", "x,y,z", "--gens", "1,0,y;0,1,0", "--degree", "40"],
         "certificate unknown count is 24682, above the limit "
         "MAX_CERTIFICATE_UNKNOWNS = 10000"),
    ], ids=["window", "coboundary-system", "flowjet", "verify-dj", "invariance",
            "strata", "search-grid", "iterbracket", "certificate"])
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
         "span of the declared window [-8, 99999] is 100007, above the limit "
         "MAX_WINDOW_SPAN = 10000"),
    ], ids=["option", "clause", "window"])
    def test_lift_limit_exit_code(self, capsys, tmp_path, old, new, argv, message):
        path = tmp_path / "flagship.scn"
        path.write_text(FLAGSHIP.replace(old, new), encoding="utf-8")
        code = main(["lift", "--scenario", str(path)] + argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("literal", ["1_0", "+1", "\u0663", " 2"],
                             ids=["underscore", "plus", "arabic-indic", "space"])
    @pytest.mark.parametrize("argv,flag", [
        (["iterbracket", "--vars", "x,y", "--f1", "1,0", "--f2", "0,x^2"], "--n"),
        (["defect", "--vars", "x,y", "--f1", "1,0", "--f2", "1,x",
          "--point", "0,0"], "--n"),
        (["verify-dj", "--vars", "x,y", "--f1", "1,0", "--f2", "1,x^2",
          "--point", "0,0"], "--n"),
        (["flowjet", "--vars", "x", "--field", "x^2", "--point", "1"], "--order"),
        (["invariance", "--vars", "x,y", "--gens", "1,0; 0,x", "--combo", "1; 0",
          "--point", "0,0"], "--order"),
        (["lift", "--scenario", "FLAGSHIP"], "--order"),
        (["involutive", "--vars", "x,y", "--gens", "x,0; 0,x"], "--degree"),
    ], ids=["iterbracket", "defect", "verify-dj", "flowjet", "invariance", "lift",
            "involutive"])
    def test_integer_flag_takes_only_integer_literals(self, capsys, tmp_path,
                                                      argv, flag, literal):
        # the flags follow parse_integer, like the scenario [order] clause
        path = tmp_path / "flagship.scn"
        path.write_text(FLAGSHIP, encoding="utf-8")
        argv = [str(path) if a == "FLAGSHIP" else a for a in argv]
        code = main(argv + [flag, literal])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"parse error: {flag} needs an integer "
                                "(line 1, column 1)\n")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["bracket", "--vars", "x,y"])
        assert err.value.code == 2

    def test_no_flag_has_an_argparse_converter(self):
        # every literal goes through parsing; a type= converter would be a
        # second reader with its own rules and its own error path
        parser = _build_parser()
        subparsers = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
        commands = [sub for action in subparsers for sub in action.choices.values()]
        assert commands
        for command in [parser] + commands:
            for action in command._actions:
                assert action.type is None, (command.prog, action.dest)


def _str_of_any_size(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


class TestIntegersOfAnySize:
    """Python caps int <-> str at 4,300 digits; an exact engine reads and prints all."""

    def test_long_integer_literal(self, capsys):
        ones = "1" * 5000
        code, out = run(capsys, "flowjet", "--vars", "x", "--field", ones,
                        "--point", "0", "--order", "1")
        assert code == 0 and out == f"(0,{ones})\n"

    def test_long_integer_answer(self, capsys):
        code, out = run(capsys, "flowjet", "--vars", "x", "--field", "x^5000",
                        "--point", "3", "--order", "2")
        first, second = (_str_of_any_size(n) for n in (3 ** 5000, 5000 * 3 ** 9999))
        assert code == 0 and out == f"(3,{first},{second})\n"

    def test_digit_limit_is_restored(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            run(capsys, "flowjet", "--vars", "x", "--field", "x^5000",
                "--point", "3", "--order", "2")
            assert sys.get_int_max_str_digits() == 5000
            assert main(["flowjet", "--vars", "x^2", "--field", "1", "--point", "1",
                         "--order", "2"]) == 2
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)


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
