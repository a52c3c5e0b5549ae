"""Full `jetlift lift` transcripts of the shipped scenarios, pinned byte for byte.

Each file under `tests/golden/` holds the stdout of
`jetlift lift --scenario scenarios/<name>.scn` (at the scenario's own order, or
with `--order 8`) followed by a line `[exit N]` with the exit code.
"""

import pathlib

import pytest

from jetlift.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.txt"))
ORDER_ARGS = {"default": [], "order8": ["--order", "8"]}


def test_every_scenario_has_both_transcripts():
    scenarios = sorted(p.stem for p in (ROOT / "scenarios").glob("*.scn"))
    assert [p.name for p in GOLDEN] == [f"{s}.{o}.txt" for s in scenarios
                                        for o in sorted(ORDER_ARGS)]


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_lift_transcript_is_unchanged(capsys, path):
    scenario, order = path.stem.split(".")
    code = main(["lift", "--scenario", str(ROOT / "scenarios" / f"{scenario}.scn")]
                + ORDER_ARGS[order])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (captured.out + f"[exit {code}]\n").encode() == path.read_bytes()
