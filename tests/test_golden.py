"""Full `jetlift lift` transcripts of the shipped scenarios, pinned byte for byte.

Each file under `tests/golden/` holds the stdout of
`jetlift lift --scenario scenarios/<name>.scn` (at the scenario's own order, or
with `--order 8`) followed by a line `[exit N]` with the exit code.  At
`--order 64`, MAX_ORDER, where a transcript runs to thousands of lines, the
exit code and the stdout's sha256 are pinned instead.
"""

import hashlib
import pathlib

import pytest

from jetlift.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.scn"))
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.txt"))
ORDER_ARGS = {"default": [], "order8": ["--order", "8"]}


def test_every_scenario_has_both_transcripts():
    assert [p.name for p in GOLDEN] == [f"{s}.{o}.txt" for s in SCENARIOS
                                        for o in sorted(ORDER_ARGS)]


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_lift_transcript_is_unchanged(capsys, path):
    scenario, order = path.stem.split(".")
    code = main(["lift", "--scenario", str(ROOT / "scenarios" / f"{scenario}.scn")]
                + ORDER_ARGS[order])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (captured.out + f"[exit {code}]\n").encode() == path.read_bytes()


# exit code and stdout sha256 of `jetlift lift --scenario <name>.scn --order 64`
MAX_ORDER_DIGESTS = {
    "deep_perturbed":
        (0, "b2c12c3671e60a43b9eba51f3dd3554de4b72b9fbea8e405c043240b7317a99f"),
    "flagship":
        (0, "528b3596bd5190fc7f252d8823a1ff736ca63b3ad376657ab2086ccb725e1ab0"),
    "flagship_perturbed":
        (0, "3c490ed0556672348d5cc1ace3b76f0f877c41c13246008c160da7ff3dd234c9"),
    "graph_embedded":
        (0, "c08eb2c582c75ab10884dbfec0411968dca2383a9a9d59aab5cf8ee61b47b0a7"),
    "log_chart1_correction":
        (0, "be1aa480f4ccfa19e1d58619bcf4ad9f00e590524b583e6deb0926089f477dac"),
    "obstructed_deg_minus2":
        (1, "12970589428bf9a45315a294facf9f122c2b4a6ddbfb01fa5e2e5ff32a4fa6d8"),
    "rank4_frame":
        (0, "f0905e50b47b2cf3478d5704a24fc3dc48a23f8b7fb0c440dc4a1789e4fb4454"),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_lift_at_max_order_is_unchanged(capsys, scenario):
    code = main(["lift", "--scenario", str(ROOT / "scenarios" / f"{scenario}.scn"),
                 "--order", "64"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == MAX_ORDER_DIGESTS[scenario]
