#!/usr/bin/env python3
"""jetlift benchmark: seeded workloads, exact checks, end-to-end and layer metrics.

Run from the root of a source checkout; the package is imported from `src/`:

    python3 perfbench/run.py --workload jets --seed 0 --seconds 15 --trace 0

`--trace 0` measures the end-to-end metrics with nothing installed in the
program.  `--trace 1` alternates untraced passes with traced passes (wrappers from
`tracer.py`) and reports the per-layer metrics, including both kernel backends.
One process, one thread, closed loop: the next operation starts when the last
returns.  The last line of stdout is the JSON result; the lines before it give
the same metrics by name with their unit and quartiles, and the machine.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BUILD = ROOT / ".bench_build" / "kernel_c"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH_DIR))
import ckernel  # noqa: E402
import workloads  # noqa: E402
from tracer import Trace  # noqa: E402


class SetupError(Exception):
    """The checkout does not hold a jetlift source tree to benchmark."""


def fresh_import():
    """Import jetlift from this checkout's src/, dropping any earlier import."""
    if not (SRC / "jetlift" / "__init__.py").is_file():
        raise SetupError(f"no jetlift package under {SRC}")
    for name in [m for m in sys.modules if m == "jetlift" or m.startswith("jetlift.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    jetlift = importlib.import_module("jetlift")
    if SRC.resolve() not in Path(jetlift.__file__).resolve().parents:
        raise SetupError(f"jetlift imported from {jetlift.__file__}, not {SRC}")
    return jetlift


def setup(workload, seed):
    """Import, generate the seeded inputs, write and parse scenario files.

    Repeated SETUP_REPEATS times from a fresh import, each scaled to the
    reference host speed; the median is `setup_s` and the last repetition's
    operations are the ones run.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_time()
        t0 = time.perf_counter()
        jetlift = fresh_import()
        ops = workloads.build(workload, seed, OUT / "inputs" / f"{workload}-{seed}")
        elapsed = time.perf_counter() - t0
        times.append(elapsed * 2 * REFERENCE_S / (before + reference_time()))
    return jetlift, ops, statistics.median(times)


def pinned_digests(workload, seed, count):
    if seed != DEFAULT_SEED:
        return [None] * count
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
    if pinned is None or len(pinned) != count:
        raise SetupError(f"digests.json has no pinned list of {count} for {workload}")
    return pinned


# Host speed.  A shared host can run the same code up to 40 % slower for
# stretches of a second or more.  A short fixed piece of exact rational
# arithmetic, sharing no code with jetlift, is timed before and after every
# operation and every set-up; each timing is scaled by REFERENCE_S / (the mean
# of the two), i.e. reported at the speed of a host on which the piece takes
# REFERENCE_S.  A slow stretch slows the piece and the operation alike; a change
# to jetlift moves only the operation.
REFERENCE_S = 0.001


def reference_time():
    t0 = time.perf_counter()
    acc = {}
    for i in range(1, 13):
        for j in range(1, 25):
            key = ((i + j) % 17, (i * j) % 13)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, j)
    return time.perf_counter() - t0


class Pass:
    """Latencies, host-speed scales, answer digests and failures of one pass."""

    def __init__(self):
        self.latencies = []
        self.scales = []
        self.digests = []
        self.failures = []

    def scaled(self):
        return [lat * scale for lat, scale in zip(self.latencies, self.scales)]

    @property
    def busy_s(self):
        return sum(self.latencies)


def run_pass(ops, expected, trace=None):
    result = Pass()
    clock = time.perf_counter
    before = reference_time()
    for op, want in zip(ops, expected):
        if trace is not None:
            trace.begin_op(op.kind)
        t0 = clock()
        try:
            answer, error = op.run(), None
        except Exception as exc:        # any raise is a failed operation
            answer, error = None, exc
        t1 = clock()
        if trace is not None:
            trace.end_op()
        result.latencies.append(t1 - t0)
        after = reference_time()
        result.scales.append(2 * REFERENCE_S / (before + after))
        before = after
        digest = None
        if error is not None:
            result.failures.append(f"{op.kind}: raised {error!r}")
        else:
            try:
                text = op.check(answer)
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                if want is not None and digest != want:
                    result.failures.append(f"{op.kind}: answer digest differs")
            except workloads.CheckFailed as exc:
                result.failures.append(f"{op.kind}: {exc}")
        result.digests.append(digest)
    return result


class Deadline:
    """Start another pass only if it should end within --seconds."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.started = self.last = time.perf_counter()
        self.longest = 0.0

    def lap(self):
        now = time.perf_counter()
        self.longest = max(self.longest, now - self.last)
        self.last = now

    def allows_another(self):
        return self.last - self.started + self.longest <= self.seconds


def pass_stats(latencies):
    q = statistics.quantiles(latencies, n=10)
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": q[8] * 1e3}


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def machine(jetlift):
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": [round(v, 2) for v in os.getloadavg()],
            "backend": jetlift.KERNEL_BACKEND}


def timed_run(args, ops, expected, setup_s):
    """End-to-end metrics: warm-up pass, then timed passes for --seconds."""
    warm = run_pass(ops, expected)
    expected = [w if w is not None else d for w, d in zip(expected, warm.digests)]
    passes = []
    deadline = Deadline(args.seconds)
    while not passes or deadline.allows_another():
        gc.collect()
        passes.append(run_pass(ops, expected))
        deadline.lap()
    # Each operation's latency is its fastest over the timed passes, at the
    # reference host speed: the scaled fastest of several passes spread over the
    # run moves far less from run to run than the per-pass median does.
    best = pass_stats([min(lats) for lats in zip(*(p.scaled() for p in passes))])
    raw = pass_stats([min(lats) for lats in zip(*(p.latencies for p in passes))])
    per_pass = [pass_stats(p.latencies) for p in passes]
    metrics, lines = {}, []
    for name, unit in (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms")):
        metrics[name] = (best[name], unit)
        med, q1, q3 = spread([s[name] for s in per_pass])
        lines.append(f"{name} = {best[name]:.6g} {unit}  (at reference speed, fastest of "
                     f"{len(passes)} passes x {len(ops)} ops; unscaled fastest {raw[name]:.6g}; "
                     f"unscaled per pass: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g})")
    med, q1, q3 = spread([x for p in passes for x in p.scales])
    lines.append(f"host speed / reference = {1 / med:.4g} (q1 {1 / q3:.4g}, q3 {1 / q1:.4g})")
    metrics["setup_s"] = (setup_s, "s")
    lines.append(f"setup_s = {setup_s:.6g} s  (median of {SETUP_REPEATS} set-ups, "
                 f"at reference speed)")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss, "MB")
    lines.append(f"peak_rss_mb = {rss:.6g} MB  (ru_maxrss of this process)")
    return [warm] + passes, metrics, lines


def _per_layer(summary):
    layers, counts = summary["layers"], summary["counts"]

    def get(span, field):
        return layers.get(span, {}).get(field, 0)

    out = {}
    for fn in ("mul_terms", "derive_terms", "add_terms"):
        out[f"kernel.{fn}.calls"] = get(f"kernel.{fn}", "calls")
        out[f"kernel.{fn}.self_s"] = get(f"kernel.{fn}", "self_s")
    for fn in ("mul_terms", "derive_terms"):
        out[f"kernel.{fn}.terms_out"] = counts[f"kernel.{fn}.terms_out"]
    out["kernel.partial_terms.calls"] = get("kernel.partial_terms", "calls")
    for fn in ("substitute", "eval", "pow", "compose_series"):
        out[f"algebra.{fn}.calls"] = get(f"algebra.{fn}", "calls")
        out[f"algebra.{fn}.self_s"] = get(f"algebra.{fn}", "self_s")
    out["algebra.series_mul.calls"] = get("algebra.series_mul", "calls")
    out["vectorfields.apply_derivation.calls"] = get("vectorfields.apply_derivation", "calls")
    out["vectorfields.apply_derivation.self_s"] = get("vectorfields.apply_derivation", "self_s")
    out["vectorfields.iterated_bracket.calls"] = get("vectorfields.iterated_bracket", "calls")
    out["vectorfields.iterated_bracket.total_s"] = get("vectorfields.iterated_bracket", "total_s")
    out["flows.verify_dj.total_s"] = get("flows.verify_dj", "total_s")
    for fn in ("flow_jet", "flow_series_picard"):
        out[f"flows.{fn}.calls"] = get(f"flows.{fn}", "calls")
        out[f"flows.{fn}.total_s"] = get(f"flows.{fn}", "total_s")
    out["jets.self_s"] = sum(row["self_s"] for span, row in layers.items()
                             if span.startswith("jets."))
    for fn in ("rref", "solve_with_residual"):
        out[f"linalg.{fn}.calls"] = get(f"linalg.{fn}", "calls")
        out[f"linalg.{fn}.self_s"] = get(f"linalg.{fn}", "self_s")
    for key in ("linalg.cells", "linalg.max_rows", "linalg.max_cols"):
        out[key] = counts[key]
    out["cech.evaluate_along_curve.calls"] = get("cech.evaluate_along_curve", "calls")
    out["cech.evaluate_along_curve.total_s"] = get("cech.evaluate_along_curve", "total_s")
    out["cech.solve_coboundary.calls"] = get("cech.solve_coboundary", "calls")
    out["cech.solve_coboundary.self_s"] = get("cech.solve_coboundary", "self_s")
    out["cech.restrict_section.calls"] = get("cech.restrict_section", "calls")
    out["lifting.lift_step.calls"] = get("lifting.lift_step", "calls")
    out["lifting.lift_step.self_s"] = get("lifting.lift_step", "self_s")
    for fn in ("local_jet_section", "defect_cochain", "transition_jet_section"):
        out[f"lifting.{fn}.total_s"] = get(f"lifting.{fn}", "total_s")
    out["lifting.window_width_max"] = counts["lifting.window_width_max"]
    out["frobenius.rank_at.calls"] = get("frobenius.rank_at", "calls")
    out["frobenius.rank_at.total_s"] = get("frobenius.rank_at", "total_s")
    for fn in ("involutivity_certificate", "strata_sample"):
        out[f"frobenius.{fn}.total_s"] = get(f"frobenius.{fn}", "total_s")
    out["scenario.parse_scenario.total_s"] = get("scenario.parse_scenario", "total_s")
    out["parsing.parse_poly.calls"] = get("parsing.parse_poly", "calls")
    out["cli.main.calls"] = get("cli.main", "calls")
    out["cli.main.self_s"] = get("cli.main", "self_s")
    return out


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if ".us_per_call." in name:
        return "us"
    return "ratio" if name == "trace.overhead_ratio" else "count"


def traced_run(args, jetlift, ops, expected):
    """Per-layer metrics: kernel backends side by side, then untraced/traced pairs."""
    failures, lines, values = [], [], {}
    pure = importlib.import_module("jetlift._kernel_py")
    for fn, us in ckernel.us_per_call(pure, args.seed).items():
        values[f"kernel.{fn}.us_per_call.python"] = us
    so, reason = ckernel.build(SRC / "jetlift" / "_kernel_c.c", BUILD)
    if so is None:
        lines.append(f"compiled kernel: absent ({reason}); c numbers not reported")
    else:
        compiled = ckernel.load(so)
        bad = ckernel.parity(pure, compiled, args.seed)
        failures += [f"compiled kernel {fn} differs from _kernel_py" for fn in bad]
        for fn, us in ckernel.us_per_call(compiled, args.seed).items():
            values[f"kernel.{fn}.us_per_call.c"] = us
        lines.append(f"compiled kernel: built at {so.relative_to(ROOT)}, "
                     f"parity {'ok' if not bad else 'FAILED: ' + ', '.join(bad)}")

    warm = run_pass(ops, expected)
    expected = [w if w is not None else d for w, d in zip(expected, warm.digests)]
    passes, untraced_s, traced_s, summaries = [warm], [], [], []
    last_trace = None
    deadline = Deadline(args.seconds)
    while not summaries or deadline.allows_another():
        gc.collect()
        plain = run_pass(ops, expected)
        gc.collect()
        trace = Trace()
        trace.install()
        try:
            traced = run_pass(ops, expected, trace)
        finally:
            trace.uninstall()
        passes += [plain, traced]
        untraced_s.append(plain.busy_s)
        traced_s.append(traced.busy_s)
        summary = trace.summary()
        if not summary["nested"]:
            failures.append("traced spans do not nest")
        summaries.append(summary)
        last_trace = trace
        deadline.lap()

    per_pass = [_per_layer(s) for s in summaries]
    for name in per_pass[0]:
        series = [p[name] for p in per_pass]
        if name.endswith("_s"):
            values[name] = statistics.median(series)
        elif len(set(series)) != 1:
            failures.append(f"count {name} differs between traced passes: {series}")
        else:
            values[name] = series[0]
    values["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced_s, untraced_s))

    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    last_trace.write(stem, summaries[-1])
    lines.append(f"trace: {summaries[-1]['spans']} spans per traced pass, "
                 f"{len(summaries)} traced passes, written to {stem.relative_to(ROOT)}.json")
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    return passes, metrics, lines, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run an evenly spaced subset of this many operations")
    parser.add_argument("--pin", action="store_true",
                        help="write the default seed's answer digests to digests.json")
    args = parser.parse_args(argv)

    try:
        jetlift, ops, setup_s = setup(args.workload, args.seed)
        expected = ([None] * len(ops) if args.pin
                    else pinned_digests(args.workload, args.seed, len(ops)))
    except (SetupError, ImportError, OSError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    if args.ops is not None and args.ops < len(ops):
        keep = [round(i * len(ops) / args.ops) for i in range(args.ops)]
        ops = [ops[i] for i in keep]
        expected = [expected[i] for i in keep]

    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "ops_per_pass": len(ops),
                             **machine(jetlift)}))
    other_failures = []
    if args.trace:
        passes, metrics, lines, other_failures = traced_run(args, jetlift, ops, expected)
    else:
        passes, metrics, lines = timed_run(args, ops, expected, setup_s)
    failures = other_failures + [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    failed = len(failures)
    if args.trace == 0:
        lines.append(f"error_rate = {failed / attempted:.6g} ratio  "
                     f"({failed} failed of {attempted} attempted)")
    lines.append(f"backend = {jetlift.KERNEL_BACKEND}")
    for line in lines:
        print(line)
    for failure in sorted(set(failures))[:20]:
        print(f"FAILED {failure}")

    if args.pin:
        if args.seed != DEFAULT_SEED or failures or args.ops is not None:
            print("not pinning: needs the default seed, every op and no failure",
                  file=sys.stderr)
            return 1
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
        pinned[args.workload] = passes[0].digests
        DIGESTS.write_text(json.dumps(pinned, indent=0, sort_keys=True) + "\n",
                           encoding="utf-8")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
