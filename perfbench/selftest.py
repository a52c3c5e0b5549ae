#!/usr/bin/env python3
"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on a small, evenly spaced subset of its operations, at the
default seed and at one other seed, untraced and traced, and asserts that

* every metric BENCHMARK.json declares is emitted (end-to-end metrics untraced,
  per-layer metrics traced), each a finite number;
* no operation fails (error_rate 0), and at the default seed every answer
  matches its pinned digest;
* traced spans nest, so the per-layer self times sum to no more than the traced
  wall time;
* installing and removing the tracer leaves every jetlift namespace as it was.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OPS = 12
SEEDS = (0, 7)


def run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--ops", str(OPS)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, f"{cmd} exited {done.returncode}: {done.stderr[-2000:]}"
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def check_namespaces_restored():
    sys.path.insert(0, str(BENCH_DIR))
    import run as harness
    from tracer import Trace
    harness.fresh_import()
    import jetlift.cli  # noqa: F401  (a traced module that jetlift does not import)
    from jetlift.algebra import Poly

    def snapshot():
        spaces = [(name, vars(m)) for name, m in sys.modules.items()
                  if name == "jetlift" or name.startswith("jetlift.")]
        spaces.append(("Poly", vars(Poly)))
        return {(name, key): id(value) for name, space in spaces
                for key, value in space.items()}

    before = snapshot()
    trace = Trace()
    trace.install()
    assert snapshot() != before, "install() patched nothing"
    trace.uninstall()
    assert snapshot() == before, "uninstall() left a wrapper behind"


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: [m["name"] for m in declared["end_to_end"]],
             1: [m["name"] for m in declared["per_layer"]]}
    check_namespaces_restored()
    for workload in [w["name"] for w in declared["workloads"]]:
        for seed in SEEDS:
            for trace in (0, 1):
                result, stdout = run(workload, seed, trace)
                label = f"{workload} seed {seed} trace {trace}"
                assert result["correct"] and result["failed"] == 0, \
                    f"{label}: failures\n{stdout[-3000:]}"
                assert result["attempted"] >= OPS, label
                if trace == 0:
                    assert "error_rate = 0 ratio" in stdout, label
                missing = [n for n in names[trace] if n not in result["metrics"]]
                assert not missing, f"{label}: metrics not emitted: {missing}"
                for name, metric in result["metrics"].items():
                    assert math.isfinite(metric["value"]), f"{label}: {name}"
                if trace:
                    stem = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json"
                    summary = json.loads(stem.read_text(encoding="utf-8"))["summary"]
                    assert summary["nested"], f"{label}: spans do not nest"
                    assert summary["self_sum_s"] <= summary["wall_s"] * (1 + 1e-9), \
                        f"{label}: self times exceed the traced wall time"
                print(f"ok  {label}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
