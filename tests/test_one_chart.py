"""Lifts on a one-chart target, pinned byte for byte.

A target declared with `charts 1` is the two-chart atlas glued by the identity.
Each file under `tests/one_chart/` holds the stdout of `jetlift lift` on the
scenario below with one perturbation, followed by a line `[exit N]`.
"""

import pathlib

import pytest

from jetlift.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "one_chart"

SCENARIO = """\
[y] charts z w ; transition w = 1/z
[x] vars x ; charts 1
[f] chart0: x = z ; chart1: x = 1/w
[sheaf] gen chart0: 1 ; gen chart1: 1
[sigma] chart0: 0 ; chart1: 0
[perturb] {}
"""

PERTURBATIONS = {
    "chart0_t": "chart0: t",
    "chart0_t_x": "chart0: t*x",
    "chart0_t_x2": "chart0: t*x^2",
    "chart0_t2_x3": "chart0: t^2*x^3",
    "chart1_t_x2": "chart1: t*x^2",
}


def test_every_perturbation_has_a_transcript():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(PERTURBATIONS)


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_one_chart_transcript_is_unchanged(tmp_path, capsys, name):
    path = tmp_path / "one_chart.scn"
    path.write_text(SCENARIO.format(PERTURBATIONS[name]))
    code = main(["lift", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (captured.out + f"[exit {code}]\n").encode() == (
        GOLDEN / f"{name}.txt").read_bytes()


def test_one_chart_morphism_mismatch(tmp_path, capsys):
    path = tmp_path / "one_chart.scn"
    path.write_text(SCENARIO.format("chart0: t").replace("x = 1/w", "x = 2/w"))
    assert main(["lift", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: morphism charts disagree on the overlap (chart1 -> chart0)\n")
