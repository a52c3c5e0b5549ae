"""Every span the benchmark tracer wraps names an attribute that exists.

`perfbench/tracer.py` patches jetlift functions by module and attribute path, so
a rename in the program would otherwise surface only in a traced benchmark run.
Kernel entries name attributes of the active kernel module.
"""

import importlib
import importlib.util
import pathlib

import pytest

from jetlift import _backend

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)
TARGETS = _tracer.TARGETS


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_resolves(name):
    module_name, path = TARGETS[name]
    owner = (_backend.kernel if module_name == "kernel"
             else importlib.import_module(module_name))
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def test_window_hook_reads_a_lift_step():
    # the tracer's `lifting.lift_step` hook reads `LiftState.window` off the
    # returned state: the exponent range of the step's own defect cochain
    from jetlift.lifting import initial_state, lift_step
    from jetlift.scenario import parse_scenario_file

    scenario = parse_scenario_file(
        TRACER.parent.parent / "scenarios" / "flagship_perturbed.scn")
    state = initial_state(scenario)
    assert state.window == (0, 0)
    trace = _tracer.Trace()
    result = lift_step(state)
    trace._count_window((state,), result)
    # the defect is -z * gen, so nu's own window is [0, 1]
    assert result[0].window == (0, 1)
    assert trace.counts["lifting.window_width_max"] == 1
